"""bench_e2e: the performance ledger.

SQL text in -> consistent answers out, and DML in -> conflict hypergraph
current on every replica, over six workloads, with per-layer attribution
from a separate traced run.  See README.md next to this file.

    python3 benchmarks/e2e/run.py                   # all six, untraced
    python3 benchmarks/e2e/run.py --trace           # + a traced run each
    python3 benchmarks/e2e/run.py --smoke           # gates + schema, < 30 s
    python3 benchmarks/e2e/run.py --record          # -> baseline.json
    python3 benchmarks/e2e/run.py --repeats 5 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload mixed_rw --seed 3 --trace 1

Every workload runs in its own fresh child process, one at a time
(closed loop, one client, one thread; ``PYTHONHASHSEED=0``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of the (last)
workload, or its per-layer metrics under ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

from ledger import (
    DRIVER_METRICS,
    END_TO_END,
    PER_LAYER,
    PER_LAYER_UNITS,
    WORKLOADS,
    compare,
    fingerprint,
)

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = 1.0
CHILD_TIMEOUT = 170  # the driver allows a run 180 s


class ChildFailed(Exception):
    """A workload's process crashed or printed no result."""


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool, out: str
) -> dict:
    """Measure one workload in a fresh interpreter; returns its result."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    if smoke:
        command.append("--smoke")
    if out and trace:
        command.append(f"--out={out}.{workload}.spans.jsonl")
    finished = subprocess.run(
        command,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with {finished.returncode}")
    return json.loads(lines[-1])


#: Per-layer rows measured over set-up or recovery, not per operation.
NOT_PER_OPERATION = (
    "conflicts.detection.full_ms",
    "workloads.generate_ms",
    "engine.database.restore_ms",
)


def print_end_to_end(result: dict) -> None:
    low, middle, high = result["slowdown"]
    print(
        f"\n{result['workload']}  seed {result['seed']},"
        f" machine slowdown {middle:.2f} ({low:.2f}-{high:.2f})"
    )
    for metric in END_TO_END:
        if metric.name not in result["metrics"]:
            continue
        bound = "exact" if metric.bound == 0 else f"{metric.bound:.0%}"
        print(
            f"  {metric.name:<20} {result['metrics'][metric.name]:>12.4f}"
            f" {metric.unit:<6} n={result['samples'][metric.name]:<6} bound {bound}"
        )


def print_layers(result: dict) -> None:
    layers = result["layers"]
    wall = result["metrics"]["op_ms"]
    print(f"\n{result['workload']}  per layer (traced op_ms {wall:.3f})")
    for name, unit, _better in PER_LAYER:
        value = layers[name]
        if not value:
            continue
        per_operation = unit == "ms" and name not in NOT_PER_OPERATION
        share = f"{value / wall:6.1%}" if per_operation else ""
        print(f"  {name:<42} {value:>14.4f} {unit:<6} {share}")


def contract_line(result: dict, traced: bool) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    if traced:
        metrics = {
            name: {"value": result["layers"][name], "unit": PER_LAYER_UNITS[name]}
            for name, _unit, _better in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["metrics"][m.name], "unit": m.unit}
            for m in DRIVER_METRICS
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        },
        allow_nan=False,
    )


def fail(result: dict, what: str) -> None:
    """Count a check the parent made across children as failed."""
    result["attempted"] += 1
    result["failed"] += 1
    result["failures"].append(what)
    result["correct"] = False


def cross_checks(
    plain: dict[str, dict], traced: dict[str, dict], recorded: dict[str, str]
) -> None:
    """Gates that need more than one child's result; ``recorded`` maps
    workloads to the baseline's digest for these very inputs."""
    for name, result in traced.items():
        if name not in plain:
            continue
        # Shim integrity: tracing must not change what the program does.
        if result["digest"] != plain[name]["digest"]:
            fail(result, "traced run's answer digest differs from the untraced")
        if result["counters"] != plain[name]["counters"]:
            fail(result, "traced run's exact counters differ from the untraced")
    for results in (plain, traced):
        native, pushed = results.get("rewrite_native"), results.get("rewrite_pushdown")
        if native and pushed and native["digest"] != pushed["digest"]:
            fail(pushed, "pushdown answers differ from native over the same stream")
        for name, result in results.items():
            if recorded.get(name, result["digest"]) != result["digest"]:
                fail(result, "answer digest differs from the recorded baseline's")


def result_set(args: argparse.Namespace, sizes: dict) -> dict:
    return {
        "claim": None,
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": sizes,
        "workloads": {},
        "layers": {},
    }


def recorded_digests(seed: int, sizes: dict) -> dict[str, str]:
    """The baseline's digest of every workload it measured on this seed
    and at this size (none when there is no such recording)."""
    if not BASELINE.is_file():
        return {}
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline["seed"] != seed:
        return {}
    return {
        name: runs[0]["digest"]
        for name, runs in baseline["workloads"].items()
        if baseline["sizes"].get(name) == sizes.get(name)
    }


def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        rows, refusal = compare(json.load(a), json.load(b))
    if refusal:
        print(f"refusing to compare: {refusal}")
        return 2
    for workload, metric, verdict, old, new in rows:
        print(f"{workload:<18} {metric:<20} {old:>12.4f} -> {new:>12.4f}  {verdict}")
    verdicts = [row[2] for row in rows]
    print(
        f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved,"
        f" {verdicts.count('regressed')} regressed"
    )
    return 1 if "regressed" in verdicts else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all six")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured phase per workload")
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=("0", "1", "both"),
        help="0: untraced (default); 1: traced only; bare --trace: both",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true", help="write baseline.json")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default="", help="write the result set here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS

    source = HERE.parents[1] / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from scenarios import SIZES, SMOKE_SIZES

    sizes = SMOKE_SIZES if args.smoke else SIZES
    names = (args.workload,) if args.workload else WORKLOADS
    results = result_set(args, {name: sizes[name] for name in names})
    recorded = recorded_digests(args.seed, results["sizes"])
    contract_traced = args.trace == "1"  # which kind the last line reports
    correct = True
    for repeat in range(args.repeats):
        plain: dict[str, dict] = {}
        traced: dict[str, dict] = {}
        for name in names:
            if args.trace in ("0", "both"):
                plain[name] = run_child(
                    name, args.seed, args.seconds, 0, args.smoke, args.out
                )
                results["workloads"].setdefault(name, []).append(plain[name])
            if args.trace in ("1", "both") and repeat == 0:
                traced[name] = run_child(
                    name, args.seed, args.seconds, 1, args.smoke, args.out
                )
                results["layers"][name] = traced[name]["layers"]
        cross_checks(plain, traced, recorded)
        for name in names:
            for group, show in ((plain, print_end_to_end), (traced, print_layers)):
                if name in group:
                    show(group[name])
                    for failure in group[name]["failures"]:
                        print(f"  FAILED: {failure}")
                    correct = correct and group[name]["correct"]
                    if (group is traced) == contract_traced:
                        last = group[name]
    if args.out:
        write_results(args.out, results)
    if args.record:
        complete = set(results["workloads"]) == set(WORKLOADS)
        if correct and complete and not args.smoke:
            write_results(BASELINE, results)
        else:
            print("not recorded: a baseline is a passing run of all six at full size")
    print(contract_line(last, contract_traced))
    return 0 if correct else 1


def write_results(path: object, results: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        sys.exit(3)
