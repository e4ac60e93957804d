"""An interactive frontend for Hippo (the demo experience).

The original system was demonstrated live: load data, declare integrity
constraints, and compare consistent answers against naive evaluation.
This module provides that loop for scripts, pipes and terminals::

    $ python -m repro.cli
    hippo> CREATE TABLE emp (name TEXT, salary INTEGER);
    hippo> INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5);
    hippo> .constraint FD emp: name -> salary
    hippo> .consistent SELECT * FROM emp;
    ('bob', 5)
    (1 consistent answer; 3 candidates: 1 certain, 2 refuted)

Meta-commands (everything else is executed as SQL):

=====================  ====================================================
``.constraint SPEC``   add a constraint (KEY / FD / EXCLUSION / DENIAL)
``.constraints``       list the active constraints
``.detect``            apply pending deltas (or detect), print hypergraph stats
``.conflicts``         per-constraint stored / subsumed counts + detection mode
``.feed``              change-feed topics, offsets, per-consumer lag and
                       recovery points (snapshot floor, else committed)
``.feed tail DIR [S]`` live-tail another process's durable feed for S seconds
``.feed tail DIR S K/N``  tail only shard K of an N-way constraint-aware plan
                       (the owners in DIR's shards.json, when present)
``.feed compact``      reclaim what every recovery point has passed (delete
                       sealed segments, rewrite the one a floor splits)
``.shards [N]``        the constraint-aware N-way shard plan (default 2)
``.shards --live [DIR]``  the *persisted* ownership manifest of a process
                       executor on DIR: owners, epoch, per-worker lag
                       and registered subscription
``.rebalance [DIR] [N]``  dry-run rebalance advisor: the topic move
                       ``choose_move`` would make from lag skew alone
                       (a live rebalance also weighs hypergraph edges)
``.checkpoint``        store a writer recovery snapshot (durable shells)
``.consistent SQL``    consistent answers to a query
``.possible SQL``      possible answers (true in some repair)
``.cleaned SQL``       evaluate over the conflict-free sub-database
``.raw SQL``           evaluate ignoring inconsistency
``.rewrite SQL``       show the PODS'99 rewritten SQL and its answers
``.classify SQL``      which CQA path applies (rewriting vs. hypergraph)
``.backend [NAME]``    show or switch the execution backend (native = none /
                       sqlite / duckdb); a declined pushdown runs natively
                       and counts in ``.stats`` as ``backend_fallbacks``
``.explain SQL``       show the envelope query handed to the RDBMS
                       (parameterized, with its bound arguments) and the
                       plan it gets per core (``up`` / ``down``); for an
                       UPDATE / DELETE, the ``match plan`` of its WHERE;
                       for a SELECT outside the SJUD class, its native plan
``.why SQL ; TUPLE``   explain why a tuple is / is not consistent
``.repairs``           exact repair count (component factorization)
``.stats``             execution counters (statements, rows scanned,
                       subquery memo hits, backend pushdowns/fallbacks)
``.help`` / ``.quit``  the obvious
=====================  ====================================================
"""

from __future__ import annotations

import contextlib
import sys
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from repro.conflicts.shard import Ownership

from repro.backends import available_backends, create_backend
from repro.constraints.parser import parse_constraint
from repro.core.hippo import AnswerSet, HippoEngine
from repro.engine.database import Database
from repro.engine.feed import MANIFEST, ChangeFeed, GroupRecovery
from repro.engine.types import format_value, literal_sql
from repro.errors import ReproError, UnsupportedQueryError
from repro.ra import (
    compile_core,
    cores_of,
    render_tree,
)
from repro.repairs import TooManyRepairsError, count_repairs_exact
from repro.rewriting import RewritingEngine, classify


class HippoShell:
    """State + command dispatch for the interactive frontend.

    With ``durable`` the shell's database appends every mutation to a
    crash-safe change feed under that directory (and restores from it
    when the directory already holds one) -- which is what another
    process's ``.feed tail`` follows live.
    """

    PROMPT = "hippo> "

    def __init__(
        self, out: Optional[IO[str]] = None, durable: Optional[str] = None
    ) -> None:
        self.db = Database(durable=durable)
        self.constraints: list = []
        self._engine: Optional[HippoEngine] = None
        self._out = out if out is not None else sys.stdout
        self._buffer: list[str] = []

    # -------------------------------------------------------------- helpers

    def _print(self, text: str = "") -> None:
        self._out.write(text + "\n")

    def _hippo(self) -> HippoEngine:
        """The engine, (re)building conflict detection when stale.

        Plain DML does **not** invalidate the engine: it consumes the
        database change log and maintains its conflict hypergraph
        incrementally.  Only DDL and constraint changes rebuild it.
        """
        if self._engine is None:
            self._engine = HippoEngine(self.db, self.constraints, group="hippo-cli")
        return self._engine

    def _invalidate(self) -> None:
        if self._engine is not None:
            self._engine.detach()
        self._engine = None

    def _print_answers(self, answers: AnswerSet, label: str) -> None:
        for row in answers.rows:
            self._print("  " + "(" + ", ".join(format_value(v) for v in row) + ")")
        extras = ""
        stats = answers.stats
        if "candidates" in stats:
            extras = (
                f"; {stats['candidates']} candidates:"
                f" {stats['certain']} certain, {stats['refuted']} refuted"
            )
        plural = "" if len(answers.rows) == 1 else "s"
        self._print(f"({len(answers.rows)} {label}{plural}{extras})")

    # ------------------------------------------------------------- commands

    def handle(self, line: str) -> bool:
        """Process one input line; returns False to stop the loop.

        SQL statements may span multiple lines: input accumulates until a
        line ends with ``;``.  Meta-commands are single-line and only
        recognized while no statement is pending.
        """
        stripped = line.strip()
        if not self._buffer and (not stripped or stripped.startswith("--")):
            return True
        try:
            if not self._buffer and stripped.startswith("."):
                return self._meta(stripped)
            self._buffer.append(line)
            if stripped.endswith(";"):
                self.flush()
        except ReproError as exc:
            self._print(f"error: {exc}")
        except TooManyRepairsError as exc:
            self._print(f"error: {exc}")
        return True

    def flush(self) -> None:
        """Execute any pending (possibly multi-line) SQL input."""
        if not self._buffer:
            return
        text = "\n".join(self._buffer)
        self._buffer = []
        self._sql(text)

    def _sql(self, text: str) -> None:
        from repro.sql import ast as sql_ast
        from repro.sql.parser import parse_script

        ddl = False
        try:
            for statement in parse_script(text):
                ddl = ddl or isinstance(
                    statement, (sql_ast.CreateTable, sql_ast.DropTable)
                )
                result = self.db.execute_statement(statement)
                if result.columns:
                    self._print("  ".join(result.columns))
                    for row in result.rows:
                        self._print("  ".join(format_value(v) for v in row))
                    self._print(f"({result.rowcount} rows)")
                else:
                    self._print(f"ok ({result.rowcount} rows affected)")
        finally:
            if ddl:
                # Schema changes rebuild the engine; plain DML flows
                # through the change log into incremental maintenance.
                self._invalidate()
            # A durable shell makes every acknowledged statement visible
            # (and crash-safe) immediately -- even when a later statement
            # in the batch fails: buffered appends are useless to a
            # concurrent `.feed tail`, and a killed shell must not lose
            # acknowledged statements.  No-op for in-memory feeds.
            self.db.changes.feed.flush()

    def _meta(self, line: str) -> bool:
        command, _, argument = line.partition(" ")
        argument = argument.strip().rstrip(";")
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self._print(__doc__ or "")
            return True
        if command == ".constraint":
            self.constraints.append(parse_constraint(argument, self.db.catalog))
            self._invalidate()
            self._print(f"added: {self.constraints[-1]}")
            return True
        if command == ".constraints":
            if not self.constraints:
                self._print("(no constraints)")
            for constraint in self.constraints:
                self._print(f"  {constraint}")
            return True
        if command == ".detect":
            engine = self._hippo()
            engine.refresh()
            report = engine.detection
            summary = engine.hypergraph.summary()
            extra = ""
            if report.mode == "incremental":
                extra = (
                    f"; {report.deltas} deltas,"
                    f" +{report.edges_added}/-{report.edges_retracted} edges"
                )
            self._print(
                f"conflict hypergraph: {summary['edges']} edges,"
                f" {summary['conflicting_tuples']} conflicting tuples"
                f" (detection {report.seconds * 1e3:.1f} ms,"
                f" mode {report.mode}{extra})"
            )
            return True
        if command == ".conflicts":
            engine = self._hippo()
            engine.refresh()
            report = engine.detection
            line = f"detection mode: {report.mode}"
            if report.mode == "incremental":
                line += (
                    f" ({report.deltas} deltas applied;"
                    f" +{report.edges_added} edges,"
                    f" -{report.edges_retracted} retracted)"
                )
            self._print(line)
            if not report.per_constraint:
                self._print("(no constraints)")
            for name in report.per_constraint:
                subsumed = report.subsumed.get(name, 0)
                note = f" ({subsumed} subsumed)" if subsumed else ""
                self._print(
                    f"  {name}: {report.per_constraint[name]} stored{note}"
                )
            return True
        if command == ".checkpoint":
            cut = self.db.checkpoint()
            positions = ", ".join(
                f"{name}={offset}" for name, offset in sorted(cut.items())
            )
            self._print(
                "checkpoint stored"
                + (f" (committed {positions})" if positions else " (empty)")
            )
            return True
        if command == ".feed":
            if argument.split(maxsplit=1)[:1] == ["tail"]:
                return self._feed_tail(argument.split()[1:])
            if argument == "compact":
                return self._feed_compact()
            feed = self.db.changes.feed
            where = (
                f"durable at {feed.directory}" if feed.durable else "in-memory"
            )
            self._print(
                f"change feed: {where}"
                f" ({self.db.changes.end} records,"
                f" schema version {feed.schema_version})"
            )
            topics = feed.topics()
            if not topics:
                self._print("  (no topics)")
            for topic in topics:
                segments = (
                    f", {topic.segments} segments" if feed.durable else ""
                )
                self._print(
                    f"  topic {topic.name}: offsets"
                    f" [{topic.start}..{topic.end}){segments}"
                )
            recovery = feed.recovery_points()
            attached = feed.groups()
            ends = feed.end_offsets()
            for group_name in sorted(set(attached) | set(recovery)):
                committed = attached.get(group_name)
                point = recovery.get(group_name)
                if committed is None:  # registered on disk only
                    committed = point.committed if point else {}
                lag = GroupRecovery(
                    group_name,
                    committed,
                    topics=point.topics if point else None,
                ).lag(ends)
                positions = ", ".join(
                    f"{name}={offset}"
                    for name, offset in sorted(committed.items())
                )
                line = f"  consumer {group_name}: lag {lag}" + (
                    f" (committed {positions})" if positions else ""
                )
                if point is not None and point.topics is not None:
                    line += f" [topics {', '.join(sorted(point.topics))}]"
                self._print(line)
                # The group's *recovery point* is what pins retention:
                # the snapshot floor when it stored one, else its
                # committed offsets.
                if point is not None:
                    floor = ", ".join(
                        f"{name}={offset}"
                        for name, offset in sorted(point.floor.items())
                    )
                    self._print(
                        f"    recovery point: {point.source}"
                        + (f" ({floor})" if floor else " (start)")
                    )
            return True
        if command == ".shards":
            return self._shards(argument)
        if command == ".rebalance":
            return self._rebalance(argument)
        if command == ".consistent":
            self._print_answers(
                self._hippo().consistent_answers(argument), "consistent answer"
            )
            return True
        if command == ".possible":
            self._print_answers(
                self._hippo().possible_answers(argument), "possible answer"
            )
            return True
        if command == ".cleaned":
            self._print_answers(self._hippo().cleaned_answers(argument), "row")
            return True
        if command == ".raw":
            self._print_answers(self._hippo().raw_answers(argument), "row")
            return True
        if command == ".rewrite":
            rewriting = RewritingEngine(self.db, self.constraints)
            self._print(rewriting.rewrite_sql(argument))
            self._print_answers(
                # The database pushes the rewritten SELECT to an attached
                # backend itself.
                rewriting.consistent_answers(argument),
                "answer",
            )
            return True
        if command == ".backend":
            if not argument:
                self._print(f"backend: {self.db.backend_id}")
                self._print("available: " + ", ".join(available_backends()))
                return True
            backend = create_backend(argument, self.db)
            if backend is None:
                self.db.detach_backend()
            else:
                self.db.attach_backend(backend)
            self._print(f"backend: {self.db.backend_id}")
            return True
        if command == ".classify":
            result = classify(argument, self.constraints, schema=self.db)
            self._print(result.describe())
            return True
        if command == ".stats":
            counters = self.db.stats.snapshot()
            self._print("execution:")
            for name in (
                "statements",
                "rows_scanned",
                "point_lookups",
                "subquery_evaluations",
                "subquery_cache_hits",
                "backend_pushdowns",
                "backend_fallbacks",
            ):
                self._print(f"  {name}: {counters[name]}")
            return True
        if command == ".explain":
            if argument[:6].upper() in ("UPDATE", "DELETE"):
                self._print("match plan:\n" + self.db.explain(argument))
                return True
            hippo = self._hippo()
            try:
                tree, _ = hippo.parse(argument)
            except UnsupportedQueryError as exc:
                plan = self.db.explain(argument)
                self._print(f"outside the SJUD class ({exc}); native plan:\n{plan}")
                return True
            rendered = render_tree(tree)
            self._print("envelope: " + rendered.text)
            bound = ", ".join(literal_sql(v) for v in rendered.params)
            self._print("bound arguments: " + (bound or "(none)"))
            for core in cores_of(tree):
                self._print("plan:\n" + compile_core(core, self.db).explain())
                conflicting = ", ".join(
                    f"{name} {len(hippo.hypergraph.conflicting_tids(name))}"
                    for name in sorted({a.relation.lower() for a in core.atoms})
                )
                self._print(
                    "down: this plan's rows whose every tid is conflict-free"
                    f" (conflicting tuples: {conflicting})"
                )
            return True
        if command == ".why":
            query_text, _, tuple_text = argument.partition(";")
            candidate = tuple(
                _parse_cli_value(part) for part in tuple_text.split(",")
            )
            report = self._hippo().explain_candidate(query_text.strip(), candidate)
            verdict = "consistent" if report["consistent"] else (
                "possible but not consistent"
                if report["possible"]
                else "not even possible"
            )
            self._print(
                f"{report['candidate']}: {verdict}; decided by: {report['decided_by']}"
            )
            if not report["produced"]:
                self._print(
                    "  no core of the query produces it over the database,"
                    " so no repair does"
                )
                return True
            self._print(f"  depends on facts: {', '.join(report['facts'])}")
            if "falsifying_repair_excludes" in report:
                self._print(
                    "  a repair excluding"
                    f" {{{', '.join(report['falsifying_repair_excludes'])}}}"
                    + (
                        " and containing"
                        f" {{{', '.join(report['falsifying_repair_requires'])}}}"
                        if report["falsifying_repair_requires"]
                        else ""
                    )
                    + " falsifies the query"
                )
            return True
        if command == ".repairs":
            engine = self._hippo()
            engine.refresh()
            count = count_repairs_exact(engine.hypergraph)
            self._print(
                f"{count.total} repairs"
                f" ({count.components} conflict components;"
                f" factor sizes {list(count.component_counts)[:10]}...)"
                if count.components > 10
                else f"{count.total} repairs"
                f" ({count.components} conflict components;"
                f" factors {list(count.component_counts)})"
            )
            return True
        self._print(f"unknown command {command!r}; try .help")
        return True

    def _shards(self, argument: str) -> bool:
        """``.shards [N]`` / ``.shards --live [DIR]``.

        Without ``--live``, computes the N-way topic assignment
        (:func:`repro.conflicts.shard.plan_assignment`) over the
        shell's current constraints and tables: which worker owns which
        topics, which constraints each evaluates, and which constraints
        are cross-shard (owned by their anchor's worker, which also
        subscribes to the foreign topics).

        With ``--live``, reads the *persisted* state of a process
        executor on ``DIR`` (default: this shell's durable feed):
        the ownership manifest (``shards.json``) and each worker group's
        registered lag against the feed ends and subscription (a topic
        an in-flight handoff has not pruned yet shows on both workers).
        """
        from repro.conflicts.shard import plan_assignment

        tokens = argument.split()
        if tokens[:1] == ["--live"]:
            return self._shards_live(tokens[1:])
        try:
            workers = int(argument) if argument else 2
        except ValueError:
            self._print("usage: .shards [WORKERS] | .shards --live [DIR]")
            return True
        relations = [name.lower() for name in self.db.catalog.table_names()]
        plan = plan_assignment(
            self.constraints, workers, relations=relations
        )
        cross = plan.cross_shard
        self._print(
            f"shard plan: {workers} workers over"
            f" {len(plan.topic_owner)} topics,"
            f" {len(self.constraints)} constraints"
            f" ({len(cross)} cross-shard)"
        )
        for spec in plan.shards:
            owned = ", ".join(spec.owned) if spec.owned else "-"
            line = f"  worker {spec.index}: owns [{owned}]"
            if spec.foreign:
                line += f" + foreign [{', '.join(spec.foreign)}]"
            self._print(line)
            for constraint in spec.constraints:
                label = str(constraint)
                marker = " [cross-shard]" if label in spec.cross_shard else ""
                self._print(f"    {label}{marker}")
        return True

    def _shards_live(self, args: list[str]) -> bool:
        """``.shards --live [DIR]``: a process executor's durable state.

        Reads the ownership manifest (``shards.json``) and each worker
        group's registration: its lag against the feed ends and its
        subscription -- all without attaching workers, so it is safe to
        run against a live executor from another process.  A worker
        that died between checkpoint and commit still shows here as
        *lagging*: its group registration (and so its retention floor)
        survives the crash.  A handoff in flight shows as a topic on
        both the new owner's and the old owner's subscription.
        """
        from repro.conflicts.executor import OWNERSHIP_FILE

        found = self._executor_state(
            args[0] if args else None, "usage: .shards --live DIRECTORY"
        )
        if found is None:
            return True
        directory, ownership = found
        if ownership is None:
            self._print(
                f"no ownership manifest ({OWNERSHIP_FILE}) in {directory}"
            )
            return True
        with self._feed_at(directory) as feed:
            self._print(
                f"process executor: {ownership.workers} workers,"
                f" epoch {ownership.epoch} ({directory})"
            )
            for name in sorted(ownership.owner):
                self._print(f"  topic {name} -> worker {ownership.owner[name]}")
            ends = feed.end_offsets()
            recovery = feed.recovery_points()
            for index in range(ownership.workers):
                # Exactly the manifest's group: an unrelated consumer
                # whose name merely ends in "-N" is not a shard worker.
                group_name = f"{ownership.group_prefix}-{index}"
                point = recovery.get(group_name)
                if point is None:
                    continue
                owned = sorted(
                    t for t, w in ownership.owner.items() if w == index
                )
                subscribed = ", ".join(sorted(point.topics or ())) or "all"
                self._print(
                    f"  worker {index} ({group_name}):"
                    f" lag {point.lag(ends)},"
                    f" owns [{', '.join(owned) or '-'}],"
                    f" subscribed [{subscribed}],"
                    f" recovery {point.source}"
                )
        return True

    def _rebalance(self, argument: str) -> bool:
        """``.rebalance [DIR] [WORKERS]``: dry-run rebalance advisor.

        Computes the single topic move
        :func:`repro.conflicts.shard.choose_move` would make from the
        registered per-worker lag skew alone.  A live ``rebalance()``
        calls the same chooser but also weighs each worker's hypergraph
        edge count, which lives in the workers' memory, not on disk --
        so under edge skew it can pick another move.  With ``DIR``, reads
        that executor's manifest and feed; otherwise uses this shell's
        durable feed.  Constraints come from the shell (declare them
        first for a faithful plan).  Nothing is moved: this only prints
        the advice.
        """
        from repro.conflicts.shard import choose_move, plan_feed

        directory: Optional[str] = None
        workers: Optional[int] = None
        for token in argument.split():
            if token.isdigit():
                workers = int(token)
            else:
                directory = token
        found = self._executor_state(
            directory, "usage: .rebalance DIRECTORY [WORKERS]"
        )
        if found is None:
            return True
        directory, ownership = found
        with self._feed_at(directory) as feed:
            if workers is None:
                workers = ownership.workers if ownership else 2
            plan = plan_feed(
                self.constraints,
                feed,
                workers,
                dict(ownership.owner) if ownership else None,
            )
            ends = feed.end_offsets()
            recovery = feed.recovery_points()
            prefix = ownership.group_prefix if ownership else "shard"
            committed: list[dict[str, int]] = []
            for index in range(workers):
                point = recovery.get(f"{prefix}-{index}")
                committed.append(dict(point.committed) if point else {})
            move = choose_move(plan, committed, ends)
            if move is None:
                self._print(
                    f"balanced: no single move improves the skew"
                    f" ({workers} workers, {len(plan.topic_owner)} topics;"
                    " weighing lag only)"
                )
            else:
                self._print(
                    f"advice: move topic {move.topic}"
                    f" from worker {move.source} to worker {move.target}"
                    f" (skew {move.skew_before} -> {move.skew_after})"
                )
                self._print(
                    "  (dry run, weighing lag only -- a live rebalance()"
                    " also weighs hypergraph edges)"
                )
        return True

    def _executor_state(
        self, directory: Optional[str], usage: str
    ) -> Optional[tuple[str, Optional["Ownership"]]]:
        """Resolve an operator view's ``DIR`` (default: this shell's
        durable feed) and load the process executor's ownership
        manifest there (None when no executor ran there).  Prints the
        usage or the load error and returns None when there is nothing
        to show."""
        from repro.conflicts.executor import load_ownership

        if directory is None:
            own = self.db.changes.feed
            if not own.durable:
                self._print(f"{usage} (this shell's feed is in-memory)")
                return None
            directory = str(own.directory)
        try:
            return directory, load_ownership(directory)
        except ReproError as error:
            self._print(f"error: {error}")
            return None

    @contextlib.contextmanager
    def _feed_at(self, directory: str) -> Iterator[ChangeFeed]:
        """This shell's own feed when it is durable at ``directory``,
        else a reader instance opened there (and closed on exit)."""
        own = self.db.changes.feed
        if own.durable and str(own.directory) == str(directory):
            yield own
            return
        feed = ChangeFeed(directory)
        try:
            yield feed
        finally:
            feed.close()

    def _feed_compact(self) -> bool:
        """``.feed compact``: reclaim consumed segments on demand.

        Runs segment compaction regardless of the feed's configured
        retention policy: sealed segments every recovery participant has
        passed are deleted, and the oldest partially-consumed sealed
        segment is rewritten down to its surviving records.  The shell's
        own writer registration caps what can be reclaimed -- run
        ``.checkpoint`` first to move it.
        """
        feed = self.db.changes.feed
        if not feed.durable:
            self._print(
                "error: compaction needs a durable feed"
                " (start the shell with --durable DIR)"
            )
            return True
        reclaimed = feed.compact()
        if not reclaimed:
            self._print("(nothing to reclaim)")
            return True
        for name, base in sorted(reclaimed.items()):
            self._print(f"  topic {name}: reclaimed below offset {base}")
        return True

    def _feed_tail(self, arguments: list[str]) -> bool:
        """``.feed tail DIR [SECONDS] [K/N]``: live-follow a durable feed.

        Attaches a :class:`~repro.conflicts.replica.ReplicaHypergraph`
        (under the shell's current constraints) to the feed directory
        as a *reader* instance and follows it for the given wall-clock
        budget (default 1 second), printing each non-empty sync.  With
        ``K/N`` the tail follows only shard ``K`` of an N-way
        constraint-aware plan over the feed's topics: the shard's topic
        subset and constraint slice, exactly what the corresponding
        :class:`~repro.conflicts.shard.ShardWorker` would consume.  When
        a process executor's ownership manifest (``shards.json``) is in
        DIR, the plan follows its topic owners, and ``N`` must be its
        worker count.  The
        follower leaves no state behind: its consumer group (named per
        process, so concurrent tails cannot collide) is dropped on
        exit.
        """
        import os
        from pathlib import Path

        from repro.conflicts.replica import ReplicaHypergraph, ReplicaSync
        from repro.conflicts.shard import plan_feed

        usage = "usage: .feed tail DIRECTORY [SECONDS] [SHARD/WORKERS]"
        if not arguments:
            self._print(usage)
            return True
        directory = arguments[0]
        try:
            seconds = float(arguments[1]) if len(arguments) > 1 else 1.0
        except ValueError:
            self._print(usage)
            return True
        shard = None
        if len(arguments) > 2:
            try:
                index, _, count = arguments[2].partition("/")
                shard = (int(index), int(count))
            except ValueError:
                self._print(usage)
                return True
            if not 0 <= shard[0] < shard[1]:
                self._print(usage)
                return True
        # A read-only tail must not fabricate a feed out of a typo'd
        # path (ChangeFeed would happily mkdir an empty one).
        if not (Path(directory) / MANIFEST).exists():
            self._print(f"error: no change feed at {directory}")
            return True
        assignment = None
        if shard is not None:
            found = self._executor_state(directory, usage)
            if found is None:
                return True
            _, ownership = found
            if ownership is not None:
                if ownership.workers != shard[1]:
                    self._print(
                        f"error: the ownership manifest in {directory} has"
                        f" {ownership.workers} workers, not {shard[1]}"
                    )
                    return True
                assignment = dict(ownership.owner)
        feed = ChangeFeed(directory)
        group = f"cli-tail-{os.getpid()}"
        constraints = self.constraints
        topics = None
        referenced: tuple = ()
        if shard is not None:
            plan = plan_feed(constraints, feed, shard[1], assignment)
            spec = plan.shards[shard[0]]
            constraints = list(spec.constraints)
            topics = spec.subscribed
            referenced = tuple(plan.referenced)
            self._print(
                f"shard {shard[0]}/{shard[1]}: topics"
                f" [{', '.join(spec.owned) or '-'}]"
                + (
                    f" + foreign [{', '.join(spec.foreign)}]"
                    if spec.foreign
                    else ""
                )
            )
        try:
            replica = ReplicaHypergraph(
                feed,
                constraints,
                group=group,
                snapshots=False,
                topics=topics,
                extra_referenced=referenced,
            )

            def on_sync(sync: ReplicaSync) -> None:
                self._print(
                    f"  sync: {sync.records} records"
                    f" ({sync.mode}), lag {sync.lag}"
                )

            summary = replica.follow(
                poll_interval=min(0.05, seconds),
                max_seconds=seconds,
                on_sync=on_sync,
            )
            if replica.ready:
                stats = replica.graph.summary()
                self._print(
                    f"tailed {summary.records} records in"
                    f" {summary.syncs} syncs ({summary.seconds:.2f}s);"
                    f" hypergraph: {stats['edges']} edges,"
                    f" {stats['conflicting_tuples']} conflicting tuples"
                )
            else:
                self._print(
                    f"tailed {summary.records} records in"
                    f" {summary.syncs} syncs ({summary.seconds:.2f}s);"
                    " detection deferred (constraint tables not"
                    " replicated yet)"
                )
            replica.close()
        finally:
            # An inspection tail must not pin the feed's retention.
            feed.drop_group(group)
            feed.close()
        return True

    # ----------------------------------------------------------------- loop

    def run(self, lines: Iterable[str]) -> None:
        """Drive the shell over an iterable of input lines."""
        for line in lines:
            if not self.handle(line):
                return
        try:
            self.flush()  # a trailing statement without ';' still runs
        except (ReproError, TooManyRepairsError) as exc:
            self._print(f"error: {exc}")


def _parse_cli_value(text: str) -> object:
    """Parse a .why tuple component: int, float, NULL or bare string."""
    stripped = text.strip()
    if stripped.upper() == "NULL":
        return None
    if stripped.startswith("'") and stripped.endswith("'"):
        return stripped[1:-1]
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        return stripped


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point: reads from the files given in argv, else stdin.

    ``--durable DIR`` opens the shell on a durable database: mutations
    append to the change feed under DIR, an existing DIR is restored by
    replay, and other processes can ``.feed tail DIR`` it live.
    """
    arguments = list(argv if argv is not None else sys.argv[1:])
    durable: Optional[str] = None
    if "--durable" in arguments:
        flag = arguments.index("--durable")
        try:
            durable = arguments[flag + 1]
        except IndexError:
            print("error: --durable needs a directory", file=sys.stderr)
            return 2
        del arguments[flag : flag + 2]
    shell = HippoShell(durable=durable)
    try:
        if arguments:
            for path in arguments:
                with open(path, encoding="utf-8") as handle:
                    shell.run(handle)
            return 0
        if sys.stdin.isatty():  # pragma: no cover - interactive only
            print("Hippo consistent-query-answering shell; .help for commands")
            while True:
                try:
                    line = input(HippoShell.PROMPT)
                except (EOFError, KeyboardInterrupt):
                    print()
                    return 0
                if not shell.handle(line):
                    return 0
        shell.run(sys.stdin)
        return 0
    finally:
        shell.db.changes.feed.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
