"""The conflict hypergraph behaves as a plain edge -> label map (hypothesis).

:class:`~repro.conflicts.hypergraph.ConflictHypergraph` keeps its edges
in an insertion-ordered ``edge -> label`` map and each vertex's incident
edges in insertion order.  Whatever stream of ``add_edge`` /
``remove_edge`` / ``relabel`` calls reaches it, every query must answer
as the same questions asked of a plain ``dict`` model -- and so must a
pickled copy, since the pipe transport ships graphs between processes.
"""

from __future__ import annotations

import pickle
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from repro.conflicts import ConflictHypergraph, vertex

LABELS = ("l0", "l1", "l2")
VERTICES = [vertex("r", tid) for tid in range(3)] + [
    vertex("s", tid) for tid in range(2)
]
#: every vertex set of up to three vertices, the empty one included
QUERIES = [
    frozenset(chosen)
    for size in range(4)
    for chosen in combinations(VERTICES, size)
]

edges = st.frozensets(st.sampled_from(VERTICES), min_size=1, max_size=3)
labels = st.sampled_from(LABELS)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), edges, labels),
        st.tuples(st.just("remove"), edges, st.none()),
        # Removals and relabels of a live edge pick it at run time.
        st.tuples(st.just("remove_live"), st.integers(0, 63), st.none()),
        st.tuples(st.just("relabel"), st.integers(0, 63), labels),
    ),
    max_size=40,
)


def edge(*indexes: int) -> frozenset:
    return frozenset(VERTICES[i] for i in indexes)


def step(graph: ConflictHypergraph, model: dict, operation: tuple) -> None:
    kind, target, label = operation
    if kind == "add":
        assert graph.add_edge(target, label) == (target not in model)
        model.setdefault(target, label)
    elif kind == "remove":
        assert graph.remove_edge(target) == (target in model)
        model.pop(target, None)
    elif model:
        live = list(model)[target % len(model)]
        if kind == "remove_live":
            assert graph.remove_edge(live)
            del model[live]
        else:
            graph.relabel(live, label)
            model[live] = label


def assert_matches(graph: ConflictHypergraph, model: dict) -> None:
    assert graph.as_dict() == model
    assert list(graph.edges) == list(model)
    assert len(graph) == len(model)
    conflicting = {v for e in model for v in e}
    assert graph.vertex_count == len(conflicting)
    assert set(graph.conflicting_vertices()) == conflicting
    for v in VERTICES:
        assert graph.edges_of(v) == [e for e in model if v in e]
    for relation in ("r", "s"):
        assert graph.conflicting_tids(relation) == {
            v.tid for v in conflicting if v.relation == relation
        }
    for query in QUERIES:
        assert set(graph.subset_edges(query)) == {
            e for e in model if e <= query
        }
        assert set(graph.superset_edges(query)) == (
            {e for e in model if query < e} if query else set()
        )
        assert graph.is_independent(query) == (
            not any(e <= query for e in model)
        )
    per_relation: dict[str, int] = {}
    for v in conflicting:
        per_relation[v.relation] = per_relation.get(v.relation, 0) + 1
    assert graph.summary() == {
        "edges": len(model),
        "conflicting_tuples": len(conflicting),
        "max_edge_size": max(map(len, model), default=0),
        "singleton_edges": sum(1 for e in model if len(e) == 1),
        "conflicting_per_relation": per_relation,
    }


@settings(max_examples=200, deadline=None)
@given(stream=operations)
# Removing the first edge keeps the rest in insertion order, in the edge
# list and in every vertex's incident edges.
@example(
    stream=[
        ("add", edge(0, 1), "l0"),
        ("add", edge(1, 2), "l1"),
        ("add", edge(1, 3), "l2"),
        ("remove", edge(0, 1), None),
        ("add", edge(0, 1), "l2"),
    ]
)
# A relabel keeps the edge where it was.
@example(
    stream=[
        ("add", edge(0), "l0"),
        ("add", edge(1, 3), "l1"),
        ("relabel", 0, "l2"),
        ("remove_live", 1, None),
    ]
)
def test_graph_equals_the_plain_model(stream):
    graph = ConflictHypergraph()
    model: dict = {}
    for operation in stream:
        step(graph, model, operation)
        assert_matches(graph, model)
        assert_matches(pickle.loads(pickle.dumps(graph)), model)
