"""The bench_e2e ledger patches ``src/`` names *by string*
(``benchmarks/e2e/spans.py``): a rename there breaks only the separate
``bench-e2e`` job.  Resolving every binding here makes the tier-1
command fail on it too."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def test_every_shim_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_e2e_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SHIMS
    unresolved = []
    for module, owner, attribute, _layer, _hot in spans.SHIMS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attribute, None)):
            unresolved.append((module, owner, attribute))
    assert not unresolved
