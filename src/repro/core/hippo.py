"""The Hippo engine: the full pipeline of the paper's Figure 1.

::

    Query ──> Enveloping ──> Candidates ──> Evaluation ┐
                                                       ├──> Prover ──> Answer Set
    IC ───> Conflict Detection ──> Conflict Hypergraph ┘
    DB ──────────────────────────────────────────────────┘

Conflict Detection runs once per (database, constraint set); each query
then goes through Enveloping, RDBMS Evaluation of the candidates, and the
Prover.  Two optional optimizations from the paper are controlled by
constructor flags:

* ``membership`` -- how the Prover's membership checks are answered
  (``"query"``: the base system's per-check point queries;
  ``"cached"``: batched; ``"provenance"``: the extended-envelope
  optimization answering checks without database queries);
* ``use_core`` -- skip the Prover for candidates found in the
  certain-answer core ``Q-down`` (read off the same pass as ``Q-up``).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.mirror import MirrorBackend

from repro.conflicts.detection import DetectionReport, detect_conflicts
from repro.conflicts.hypergraph import ConflictHypergraph
from repro.conflicts.incremental import IncrementalDetector
from repro.core.envelope import Enveloper, provenance_hints
from repro.core.formula import atoms_of
from repro.core.grounding import GroundQuery
from repro.core.membership import make_membership
from repro.core.prover import Prover
from repro.engine.database import Database
from repro.engine.feed import RECORD_CHANGE, FeedConsumer
from repro.engine.types import default_order, sort_key
from repro.errors import UnsupportedQueryError
from repro.ra.compile import evaluate_tree
from repro.ra.sjud import (
    CatalogSchemaProvider,
    SJUDTree,
    from_sql_query,
    output_names_of,
)
from repro.sql import ast
from repro.sql.parser import parse_query

QueryLike = Union[str, ast.Query, SJUDTree]


@dataclass
class AnswerSet:
    """The consistent answers to a query, with run statistics.

    Attributes:
        columns: output column names.
        rows: the consistent answers, deterministically ordered.
        stats: pipeline counters (see :meth:`HippoEngine.consistent_answers`).
    """

    columns: list[str]
    rows: list[tuple]
    stats: dict[str, object] = field(default_factory=dict)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def as_set(self) -> frozenset[tuple]:
        return frozenset(self.rows)


class HippoEngine:
    """Consistent query answering over one database + constraint set.

    Args:
        db: the database instance (need not satisfy the constraints --
            that is the point).
        constraints: denial constraints / FDs / keys / exclusions.
        membership: Prover membership strategy (``"provenance"`` default).
        use_core: skip the Prover for candidates in the certain core.
        group: consumer-group name for the engine's subscription.  With
            a named group the engine's position is visible (and, on a
            durable feed, persistent) under that name -- the CLI's
            ``.feed`` command shows per-group lag; anonymous engines get
            an ephemeral ``cursor-<n>`` group.
        hypergraph: a precomputed conflict hypergraph to answer from
            instead of running detection.  The engine is then *static*
            (detached: no feed subscription, no auto-sync) -- the shape
            :class:`~repro.conflicts.shard.ShardCoordinator.engine`
            uses to answer queries from a merged shard view.  An
            explicit :meth:`refresh` still falls back to full
            detection.
        backend: an execution backend (a registry name like
            ``"sqlite"``, or a constructed
            :class:`~repro.backends.mirror.MirrorBackend`) that full
            detection pushes residual joins to and :meth:`raw_answers`
            evaluates on.  The envelope/Prover pipeline itself stays
            native -- its restriction-driven evaluation is not
            SQL-expressible.  Work the backend declines falls back to
            native execution and counts a ``backend_fallbacks``; None or
            ``"native"`` (default None) runs everything natively.

    The conflict hypergraph is built eagerly and then maintained
    *incrementally*: the engine is a consumer group of the database's
    change feed, and row deltas only touch the hyperedges around changed
    tuples (see :mod:`repro.conflicts.incremental`; the detector plans
    each constraint and builds its indexes at attach, so the first delta
    after a bulk load pays no index build).  Queries fold pending deltas
    in automatically; :meth:`refresh` does it explicitly, and
    ``refresh(full=True)`` is the escape hatch forcing complete
    re-detection.  A DDL record in the polled batch and lost feed
    history (in-memory overflow, or a durable feed's retention
    truncating past the engine's cursor) fall back to full detection on
    their own.  The constraints are fixed at construction: a different
    set is a different engine.

    The engine always consumes its database's own feed: deltas from any
    other feed would describe another database's tables.
    """

    def __init__(
        self,
        db: Database,
        constraints: Iterable[object],
        membership: str = "provenance",
        use_core: bool = True,
        group: Optional[str] = None,
        hypergraph: Optional[ConflictHypergraph] = None,
        backend: Optional[Union["MirrorBackend", str]] = None,
    ) -> None:
        self.db = db
        self.constraints = tuple(constraints)
        self.membership_strategy = membership
        self.use_core = use_core
        self._schema = CatalogSchemaProvider(db.catalog)
        self.backend = self._resolve_backend(backend, db)
        if hypergraph is not None:
            # Externally-maintained detection (e.g. a merged shard
            # view): the engine answers from it statically -- detached,
            # so no consumer, no incremental maintainer.
            self._consumer = None
            self._incremental = None
            self.detection = DetectionReport(
                hypergraph=hypergraph, mode="external"
            )
            self._enveloper = Enveloper(db, self.hypergraph)
            return
        self._consumer: Optional[FeedConsumer] = db.changes.feed.consumer(group)
        try:
            # The engine is about to run full detection on the *current*
            # state: history before that (e.g. a resumed named group's
            # backlog) must not be re-applied on top of it.
            self._consumer.seek_to_end()
            # An engine dropped without detach() must not pin the change
            # feed forever (dbs commonly outlive engines, e.g. in tests
            # and the CLI); closing is idempotent, so detach() and GC
            # can both run.
            self._consumer_finalizer = weakref.finalize(
                self, self._consumer.close
            )
            self._incremental: Optional[IncrementalDetector] = None
            self.detection: DetectionReport = self._full_detection()
        except BaseException:
            self._consumer.close()
            raise
        self._enveloper = Enveloper(db, self.hypergraph)

    # ------------------------------------------------------------ plumbing

    @staticmethod
    def _resolve_backend(
        spec: Optional[Union["MirrorBackend", str]], db: Database
    ) -> Optional["MirrorBackend"]:
        """Resolve a ``backend=`` argument (``"native"`` is None) and
        attach it to ``db``."""
        if spec is None:
            return None
        if isinstance(spec, str):
            from repro.backends import create_backend

            return create_backend(spec, db)
        spec.attach(db)
        return spec

    @property
    def hypergraph(self) -> ConflictHypergraph:
        """The conflict hypergraph built by Conflict Detection."""
        return self.detection.hypergraph

    @property
    def feed_lag(self) -> int:
        """Change-feed records past the engine's committed cut.

        Re-scans the directory on durable reader feeds (live tailing),
        so it reflects appends made by other processes; 0 for a
        detached engine.
        """
        return self._consumer.lag if self._consumer is not None else 0

    def _full_detection(self) -> DetectionReport:
        """Complete re-detection, re-seeding the incremental maintainer."""
        report = detect_conflicts(self.db, self.constraints, backend=self.backend)
        if self._consumer is not None:
            assert report.store is not None
            self._incremental = IncrementalDetector(
                self.db, self.constraints, report.store
            )
        return report

    def refresh(self, full: bool = False) -> None:
        """Fold pending data changes into the conflict hypergraph.

        Incremental maintenance applies the change-log deltas in place;
        ``full=True`` forces complete re-detection (the always-correct
        escape hatch).  Full detection also happens on its own when the
        poll lost history or holds a DDL record, and when there is no
        maintainer (a detached engine, or a failed last application).
        """
        records, lost = (
            self._consumer.poll() if self._consumer is not None else ([], True)
        )
        ddl = any(record.kind != RECORD_CHANGE for record in records)
        if full or lost or ddl or self._incremental is None:
            # Forget the old maintainer first: if detection raises (e.g.
            # a constraint now references a dropped table), the next
            # refresh must retry full detection -- not resume applying
            # deltas with a detector built for the old schema.
            self._incremental = None
            self.detection = self._full_detection()
            if self._consumer is not None:
                self._consumer.commit()
        elif records:
            try:
                self.detection = self._incremental.apply_records(records)
            except Exception:
                # A failed application (e.g. the data left the restricted
                # FK class mid-batch) may leave the maintained graph
                # partial: force full re-detection on the next refresh.
                # The poll stays uncommitted -- the fallback recomputes
                # from the database, not from the records.
                self._incremental = None
                raise
            self._consumer.commit()
        else:
            return  # nothing pending; current state is already exact
        self._enveloper = Enveloper(self.db, self.hypergraph)

    def _sync(self) -> None:
        """Bring the hypergraph up to date before answering a query."""
        if self._consumer is None:
            return  # detached: the engine is deliberately static
        if self._consumer.pending or self._consumer.lost or self._incremental is None:
            self.refresh()

    def detach(self) -> None:
        """Stop consuming the change feed (the engine becomes static).

        Queries stop auto-syncing; an explicit :meth:`refresh` still
        re-runs full detection.
        """
        if self._consumer is not None:
            self._consumer.close()
            self._consumer = None
        self._incremental = None

    def parse(self, query: QueryLike) -> tuple[SJUDTree, tuple[ast.OrderItem, ...]]:
        """Normalize any supported query form to an SJUD tree.

        Returns the tree plus any top-level ORDER BY items (consistent
        answers are a set; ordering is re-applied to the final answers).

        Raises:
            UnsupportedQueryError: for queries outside Hippo's class.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, ast.Query):
            order_by = query.order_by
            tree = from_sql_query(query, self._schema)
            return tree, order_by
        return query, ()

    # ------------------------------------------------------------- answers

    def consistent_answers(self, query: QueryLike) -> AnswerSet:
        """The paper's Answer Set: tuples true in every repair.

        The returned :class:`AnswerSet` carries statistics:
        ``candidates`` (envelope size), ``certain`` (core size),
        ``prover_checked``, ``prover_rejected``, membership-check counts,
        and per-stage wall-clock times.
        """
        return self._proved_answers(query, possible=False)

    def possible_answers(self, query: QueryLike) -> AnswerSet:
        """Tuples true in *some* repair (the dual of consistent answers).

        Together the two sets bracket the inconsistent database's
        information: ``consistent <= any-resolution <= possible``.
        Carries the same statistics as :meth:`consistent_answers`.
        """
        return self._proved_answers(query, possible=True)

    def _proved_answers(self, query: QueryLike, possible: bool) -> AnswerSet:
        """Envelope, then the Prover on every candidate outside the core
        (certain implies possible, so the core short-cuts both modes)."""
        self._sync()
        started = time.perf_counter()
        tree, order_by = self.parse(query)
        columns = list(output_names_of(tree))

        envelope = self._enveloper.evaluate(tree, compute_core=self.use_core)

        tables = {table.schema.name.lower(): table for table in self.db.catalog}
        duplicate_free = not any(
            table.has_duplicates() for table in tables.values()
        )
        membership = make_membership(
            self.membership_strategy, self.db, duplicate_free
        )
        prover = Prover(self.hypergraph, membership)
        grounder = GroundQuery(tree, self._schema)
        decide = (
            prover.is_possible_answer if possible else prover.is_consistent_answer
        )

        certain = envelope.certain  # empty without use_core
        primed = self.membership_strategy == "provenance"

        answers: list[tuple] = []
        skipped_by_core = 0
        prover_started = time.perf_counter()
        for candidate, provenance in envelope.candidates.items():
            if candidate in certain:
                skipped_by_core += 1
                answers.append(candidate)
                continue
            if primed:
                membership.prime(provenance_hints(tables, provenance))
            if decide(grounder.formula_for(candidate)):
                answers.append(candidate)
        prover_seconds = time.perf_counter() - prover_started

        rows = self._order(answers, columns, order_by)
        total_seconds = time.perf_counter() - started
        stats: dict[str, object] = {
            "candidates": envelope.candidate_count,
            "certain": len(envelope.certain),
            "skipped_by_core": skipped_by_core,
            "answers": len(rows),
            "prover": prover.stats,
            "membership": membership.stats,
            "envelope_seconds": envelope.seconds,
            "prover_seconds": prover_seconds,
            "total_seconds": total_seconds,
        }
        return AnswerSet(columns, rows, stats)

    def explain_candidate(self, query: QueryLike, candidate: tuple) -> dict:
        """Why a tuple is / is not a consistent answer.

        Returns a report with the candidate's ground formula, whether it
        is consistent and possible, and -- when it is not consistent --
        one counterexample requirement: a (require, forbid) fact pair for
        which a repair falsifying the formula exists.
        """
        self._sync()
        tree, _ = self.parse(query)
        candidate = tuple(candidate)
        columns = output_names_of(tree)
        if len(candidate) != len(columns):
            raise UnsupportedQueryError(
                f"candidate {candidate!r} has {len(candidate)} value(s); the"
                f" query returns {len(columns)}: ({', '.join(columns)})"
            )
        membership = make_membership("cached", self.db)
        prover = Prover(self.hypergraph, membership)
        phi = GroundQuery(tree, self._schema).formula_for(candidate)
        falsifier = prover.satisfying_disjunct(phi, negated=True)
        formula = phi.formula
        report: dict[str, object] = {
            "candidate": candidate,
            "formula": formula,
            "facts": sorted(str(f) for f in atoms_of(formula)),
            "consistent": falsifier is None,
            "possible": prover.is_possible_answer(phi),
        }
        if falsifier is not None:
            require, forbid = falsifier
            report["falsifying_repair_requires"] = sorted({str(f) for f in require})
            report["falsifying_repair_excludes"] = sorted({str(f) for f in forbid})
        return report

    # ------------------------------------------------------------ baselines

    def raw_answers(self, query: QueryLike) -> AnswerSet:
        """Evaluate the query directly, ignoring inconsistency.

        This is the paper's "execution time of this query by the RDBMS
        backend ... the approach when we ignore the fact that the database
        is inconsistent".  With a ``backend=`` bound to the engine, that
        RDBMS is literal: the tree is rendered to parameterized SQL and
        executed there (a decline falls back natively, counted).
        """
        started = time.perf_counter()
        tree, order_by = self.parse(query)
        columns = list(output_names_of(tree))
        backend = self.backend
        rows = (
            evaluate_tree(tree, self.db)
            if backend is None
            else backend.pushdown(
                lambda: backend.execute_tree(tree),
                lambda: evaluate_tree(tree, self.db),
            )
        )
        ordered = self._order(rows, columns, order_by)
        return AnswerSet(
            columns, ordered, {"total_seconds": time.perf_counter() - started}
        )

    def cleaned_answers(self, query: QueryLike) -> AnswerSet:
        """Evaluate over the database with all conflicting tuples removed.

        The "traditional approach" of the paper's introduction ("removing
        the conflicting data ... is not a good option"): it returns a
        subset of the consistent answers for monotone queries and can be
        plain wrong for queries with difference.
        """
        self._sync()
        started = time.perf_counter()
        tree, order_by = self.parse(query)
        columns = list(output_names_of(tree))
        rows = evaluate_tree(tree, self.db, self._enveloper.conflict_free_tids)
        ordered = self._order(rows, columns, order_by)
        return AnswerSet(
            columns, ordered, {"total_seconds": time.perf_counter() - started}
        )

    # -------------------------------------------------------------- helpers

    def _order(
        self,
        rows: Iterable[tuple],
        columns: Sequence[str],
        order_by: tuple[ast.OrderItem, ...],
    ) -> list[tuple]:
        """Apply top-level ORDER BY (or a deterministic default order)."""
        if not order_by:
            return default_order(rows)
        materialized = list(rows)
        lowered = [column.lower() for column in columns]
        for item in reversed(order_by):
            index = self._order_index(item.expr, lowered)
            materialized.sort(
                key=lambda row: sort_key(row[index]),
                reverse=not item.ascending,
            )
        return materialized

    @staticmethod
    def _order_index(expr: ast.Expression, columns: list[str]) -> int:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if 1 <= expr.value <= len(columns):
                return expr.value - 1
            raise UnsupportedQueryError(f"ORDER BY position {expr.value} out of range")
        if isinstance(expr, ast.ColumnRef) and expr.name.lower() in columns:
            return columns.index(expr.name.lower())
        raise UnsupportedQueryError(
            "ORDER BY on consistent answers must reference an output column"
        )
