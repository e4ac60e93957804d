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
* ``use_core`` -- skip the Prover for candidates in the certain-answer
  core ``Q-down`` (answers) and, for consistent answers, in the refuted
  set ``Q-out`` (rejected); both are read off the same pass as ``Q-up``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.conflicts.detection import DetectionReport, detect_conflicts
from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.conflicts.incremental import IncrementalDetector
from repro.core.envelope import EnvelopeEvaluation, Enveloper, provenance_hints
from repro.core.facts import Fact
from repro.core.formula import atoms_of, rename
from repro.core.grounding import GroundQuery
from repro.core.membership import (
    CachedMembership,
    MembershipResolver,
    make_membership,
)
from repro.core.prover import Prover
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.feed import FeedConsumer, FeedRecord
from repro.engine.types import default_order, sort_key
from repro.errors import UnsupportedQueryError
from repro.ra.compile import evaluate_tree
from repro.ra.sjud import (
    SJUDTree,
    from_sql_query,
    output_names_of,
    output_types_of,
    validate_tree,
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


def parse_sjud(
    query: QueryLike, catalog: Catalog
) -> tuple[SJUDTree, tuple[ast.OrderItem, ...]]:
    """Normalize any supported query form to an SJUD tree.

    Returns the tree plus any top-level ORDER BY items (consistent
    answers are a set; :func:`order_answers` re-applies the ordering to
    the final answers).

    Raises:
        UnsupportedQueryError: for queries outside Hippo's class.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ast.Query):
        return from_sql_query(query, catalog), query.order_by
    validate_tree(query, catalog)
    return query, ()


def order_answers(
    rows: Iterable[tuple],
    columns: Sequence[str],
    order_by: tuple[ast.OrderItem, ...],
    tree: SJUDTree,
    catalog: Catalog,
) -> list[tuple]:
    """The one answer order: the default order (decided from the output
    types of ``tree``), then the top-level ORDER BY, if any, by stable
    sorts -- so ties fall in the default order on every path.

    Raises:
        UnsupportedQueryError: when an ORDER BY item is neither an output
            position nor an output column.
    """
    ordered = default_order(rows, output_types_of(tree, catalog))
    lowered = [column.lower() for column in columns]
    for item in reversed(order_by):
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(lowered):
                raise UnsupportedQueryError(
                    f"ORDER BY position {expr.value} out of range"
                )
            index = expr.value - 1
        elif isinstance(expr, ast.ColumnRef) and expr.name.lower() in lowered:
            index = lowered.index(expr.name.lower())
        else:
            raise UnsupportedQueryError(
                "ORDER BY on consistent answers must reference an output column"
            )
        ordered.sort(key=lambda row: sort_key(row[index]), reverse=not item.ascending)
    return ordered


#: One answer kind's evaluation step: tree -> (answer rows, stats).
Evaluation = Callable[[SJUDTree], tuple[Iterable[tuple], dict[str, object]]]


def answer_query(query: QueryLike, catalog: Catalog, evaluate: Evaluation) -> AnswerSet:
    """The answer pipeline every engine's answers go through: parse,
    ``evaluate``, order, and build the :class:`AnswerSet`.

    The stats are ``evaluate``'s own plus ``total_seconds`` over the
    whole call.
    """
    started = time.perf_counter()
    tree, order_by = parse_sjud(query, catalog)
    columns = list(output_names_of(tree))
    rows, stats = evaluate(tree)
    ordered = order_answers(rows, columns, order_by, tree, catalog)
    stats["total_seconds"] = time.perf_counter() - started
    return AnswerSet(columns, ordered, stats)


class HippoEngine:
    """Consistent query answering over one database + constraint set.

    Args:
        db: the database instance (need not satisfy the constraints --
            that is the point).
        constraints: denial constraints / FDs / keys / exclusions.
        membership: Prover membership strategy (``"provenance"`` default).
        use_core: skip the Prover for candidates in ``Q-down`` / ``Q-out``.
        group: consumer-group name for the engine's subscription.  With
            a named group the engine's position is visible under that
            name while attached -- the CLI's ``.feed`` command shows
            per-group lag; anonymous engines get an ephemeral
            ``cursor-<n>`` group.  The engine never resumes from it (it
            seeks to the end and re-detects), so :meth:`detach` and
            garbage collection deregister the group everywhere, durable
            registration included.
        hypergraph: a precomputed conflict hypergraph to answer from
            instead of running detection.  It must hold only minimal
            edges, as detection, incremental maintenance and
            ``merge_graphs`` guarantee.  The engine is then *static*
            (detached: no feed subscription, no auto-sync) -- the shape
            :class:`~repro.conflicts.shard.ShardCoordinator.engine`
            uses to answer queries from a merged shard view.  An
            explicit :meth:`refresh` still falls back to full
            detection.

    Pushdown belongs to the database: with a backend attached
    (:meth:`~repro.engine.database.Database.attach_backend`), full
    detection pushes its residual joins there and :meth:`raw_answers`
    evaluates there, whichever backend is attached at the time.  The
    envelope/Prover pipeline itself stays native -- its
    restriction-driven evaluation is not SQL-expressible.  Work the
    backend declines falls back to native execution and counts a
    ``backend_fallbacks``.

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
    ) -> None:
        self.db = db
        self.constraints = tuple(constraints)
        self.membership_strategy = membership
        self.use_core = use_core
        # Full detection closes over locals, not ``self``: an engine <->
        # detector cycle would keep a dropped engine (and its feed
        # registration) alive until the next cyclic collection.
        constraints = self.constraints

        def detect() -> DetectionReport:
            return detect_conflicts(db, constraints, backend=db.backend)

        self._detector = IncrementalDetector(db, constraints, detect)
        self._consumer: Optional[FeedConsumer] = None
        if hypergraph is not None:
            # Externally-maintained detection (e.g. a merged shard
            # view): the engine answers from it statically -- detached,
            # so no consumer and nothing to advance until a refresh().
            self.detection = DetectionReport(
                hypergraph=hypergraph, mode="external"
            )
            self._enveloper = Enveloper(db, self.hypergraph)
            return
        feed = db.changes.feed
        self._consumer = feed.consumer(group)
        # An engine dropped without detach() must not pin the change
        # feed forever (dbs commonly outlive engines, e.g. in tests and
        # the CLI); runs once, from detach(), GC or a failed __init__.
        self._release = weakref.finalize(
            self, feed.drop_group, self._consumer.group
        )
        try:
            # The engine is about to run full detection on the *current*
            # state: history before that (e.g. a resumed named group's
            # backlog) must not be re-applied on top of it.
            self._consumer.seek_to_end()
            self.detection: DetectionReport = self._detector.advance()
        except BaseException:
            self._release()
            raise
        self._enveloper = Enveloper(db, self.hypergraph)

    # ------------------------------------------------------------ plumbing

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

    def refresh(self, full: bool = False) -> None:
        """Fold pending data changes into the conflict hypergraph.

        Incremental maintenance applies the change-log deltas in place;
        ``full=True`` forces complete re-detection (the always-correct
        escape hatch), and so do lost history and a detached engine;
        the detector re-detects on its own across DDL and after a failed
        advance.  A poll whose advance raised is delivered again.
        """

        def apply(records: list[FeedRecord], lost: bool) -> None:
            if full or lost or records or self._detector.report is None:
                self.detection = self._detector.advance(records, full=full or lost)
                self._enveloper = Enveloper(self.db, self.hypergraph)

        if self._consumer is None:
            apply([], True)
        else:
            self._consumer.consume(apply)

    def _sync(self) -> None:
        """Bring the hypergraph up to date before answering a query."""
        if self._consumer is not None:  # a detached engine stays static
            self.refresh()

    def detach(self) -> None:
        """Stop consuming the change feed (the engine becomes static).

        The engine's consumer group is deregistered everywhere, so it
        no longer pins feed retention.  Queries stop auto-syncing; an
        explicit :meth:`refresh` still re-runs full detection.
        """
        if self._consumer is not None:
            self._release()
            self._consumer = None

    def parse(self, query: QueryLike) -> tuple[SJUDTree, tuple[ast.OrderItem, ...]]:
        """:func:`parse_sjud` over this engine's database."""
        return parse_sjud(query, self.db.catalog)

    # ------------------------------------------------------------- answers

    def consistent_answers(self, query: QueryLike) -> AnswerSet:
        """The paper's Answer Set: tuples true in every repair.

        The returned :class:`AnswerSet` carries statistics:
        ``candidates`` (envelope size), ``certain`` (core size),
        ``refuted`` (0 for possible answers), ``skipped_by_core`` (certain
        + refuted), the Prover's and membership counters, and per-stage
        wall-clock times.
        """
        return self._proved_answers(query, possible=False)

    def possible_answers(self, query: QueryLike) -> AnswerSet:
        """Tuples true in *some* repair (the dual of consistent answers).

        Together the two sets bracket the inconsistent database's
        information: ``consistent <= any-resolution <= possible``.
        Carries the same statistics as :meth:`consistent_answers`.
        """
        return self._proved_answers(query, possible=True)

    def _prove(
        self, tree: SJUDTree, membership: MembershipResolver
    ) -> tuple[EnvelopeEvaluation, GroundQuery, Prover]:
        """The envelope of ``tree``, its ground formulas and the Prover
        that decides its candidates."""
        envelope = self._enveloper.evaluate(tree, compute_core=self.use_core)
        return envelope, GroundQuery(tree), Prover(self.hypergraph, membership)

    def _proved_answers(self, query: QueryLike, possible: bool) -> AnswerSet:
        """Envelope, then the Prover on every candidate outside the core
        and, for consistent answers, outside the refuted set."""
        self._sync()

        def evaluate(tree: SJUDTree) -> tuple[list[tuple], dict[str, object]]:
            membership = make_membership(self.membership_strategy, self.db)
            envelope, grounder, prover = self._prove(tree, membership)
            decide = (
                prover.is_possible_answer if possible else prover.is_consistent_answer
            )
            certain = envelope.certain  # both empty without use_core
            refuted = frozenset() if possible else envelope.refuted
            witnesses = envelope.witnesses
            candidates = envelope.candidates

            prover_started = time.perf_counter()
            # certain and refuted are disjoint subsets of the candidates:
            # when their sizes add up, the Prover has nothing to decide.
            undecided: AbstractSet[tuple] = set()
            if len(certain) + len(refuted) < len(candidates):
                # A set; the answers below still follow the candidates' order.
                undecided = candidates - certain - refuted
            rejected = refuted | {
                c
                for c in undecided
                if not decide(grounder.formula_for(provenance_hints(witnesses, c)))
            }
            prover_seconds = time.perf_counter() - prover_started

            answers = list(filterfalse(rejected.__contains__, candidates))
            return answers, {
                "candidates": envelope.candidate_count,
                "certain": len(certain),
                "refuted": len(refuted),
                "skipped_by_core": len(candidates) - len(undecided),
                "answers": len(answers),
                "prover": prover.stats,
                "membership": membership.stats,
                "envelope_seconds": envelope.seconds,
                "prover_seconds": prover_seconds,
            }

        return answer_query(query, self.db.catalog, evaluate)

    def explain_candidate(self, query: QueryLike, candidate: tuple) -> dict:
        """Why a tuple is / is not a consistent answer.

        Returns a report with the candidate's ground formula, whether some
        core of the query produces it over the database at all
        (``produced``; if none does it is true in no repair), whether it
        is consistent and possible, what decides it in
        :meth:`consistent_answers` (``decided_by``: ``"core"``,
        ``"refuted"``, ``"prover"``, or ``"envelope"`` for a non-candidate),
        and -- when it is produced but not consistent -- one counterexample
        requirement: a (require, forbid) fact pair for which a repair
        falsifying the formula exists.
        """
        self._sync()
        tree, _ = parse_sjud(query, self.db.catalog)
        candidate = tuple(candidate)
        columns = output_names_of(tree)
        if len(candidate) != len(columns):
            raise UnsupportedQueryError(
                f"candidate {candidate!r} has {len(candidate)} value(s); the"
                f" query returns {len(columns)}: ({', '.join(columns)})"
            )
        membership = CachedMembership(self.db)
        envelope, grounder, prover = self._prove(tree, membership)
        provenance = provenance_hints(envelope.witnesses, candidate)
        phi = grounder.formula_for(provenance)
        falsifier = prover.satisfying_disjunct(phi, negated=True)

        def fact_of(vertex: Optional[Vertex]) -> Fact:
            assert vertex is not None  # witnesses are stored tuples
            return membership.fact_of(vertex)

        formula = rename(phi.formula, fact_of)
        produced = any(witness is not None for witness in provenance)
        report: dict[str, object] = {
            "candidate": candidate,
            "formula": formula,
            "facts": sorted(str(f) for f in atoms_of(formula)),
            "produced": produced,
            "consistent": falsifier is None,
            "possible": prover.is_possible_answer(phi),
            "decided_by": "prover" if candidate in envelope.candidates else "envelope",
        }
        if candidate in envelope.certain:
            report["decided_by"] = "core"
        elif candidate in envelope.refuted:
            report["decided_by"] = "refuted"
        if falsifier is not None and produced:
            require, forbid = falsifier
            report["falsifying_repair_requires"] = sorted(
                {str(fact_of(vertex)) for vertex in require}
            )
            report["falsifying_repair_excludes"] = sorted(
                {str(fact_of(vertex)) for vertex in forbid}
            )
        return report

    # ------------------------------------------------------------ baselines

    def raw_answers(self, query: QueryLike) -> AnswerSet:
        """Evaluate the query directly, ignoring inconsistency.

        This is the paper's "execution time of this query by the RDBMS
        backend ... the approach when we ignore the fact that the database
        is inconsistent".  With a backend attached to the database, that
        RDBMS is literal: the tree is rendered to parameterized SQL and
        executed there (a decline falls back natively, counted).
        """
        db = self.db

        def evaluate(tree: SJUDTree) -> tuple[Iterable[tuple], dict[str, object]]:
            backend = db.backend
            rows = (
                evaluate_tree(tree, db)
                if backend is None
                else backend.pushdown(
                    lambda: backend.execute_tree(tree),
                    lambda: evaluate_tree(tree, db),
                )
            )
            return rows, {}

        return answer_query(query, db.catalog, evaluate)

    def cleaned_answers(self, query: QueryLike) -> AnswerSet:
        """Evaluate over the database with all conflicting tuples removed.

        The "traditional approach" of the paper's introduction ("removing
        the conflicting data ... is not a good option"): it returns a
        subset of the consistent answers for monotone queries and can be
        plain wrong for queries with difference.
        """
        self._sync()
        clean = self._enveloper.conflict_free_tids

        def evaluate(tree: SJUDTree) -> tuple[Iterable[tuple], dict[str, object]]:
            return evaluate_tree(tree, self.db, clean), {}

        return answer_query(query, self.db.catalog, evaluate)
