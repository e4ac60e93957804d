"""The violation store keeps exactly the minimal hypergraph (hypothesis).

A :class:`~repro.conflicts.hypergraph.ViolationStore` is the one place
that decides which violations are hyperedges and how each is labelled.
Whatever stream of ``add`` / ``withdraw`` / ``retract`` calls reaches it,
its graph must equal the brute-force answer over the violations still
supported: every supported edge with no supported strict subset,
labelled by its earliest supporter in the store's order.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.conflicts import ViolationStore, vertex

LABELS = ("l0", "l1", "l2", "l3")
VERTICES = [vertex("r", tid) for tid in range(8)]

edges = st.frozensets(st.sampled_from(VERTICES), min_size=1, max_size=3)
labels = st.sampled_from(LABELS)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), edges, labels),
        # The withdrawn edge is picked among the live ones at run time.
        st.tuples(
            st.just("withdraw"),
            st.integers(0, 63),
            st.frozensets(labels, min_size=1),
        ),
        st.tuples(st.just("retract"), st.sampled_from(VERTICES), st.none()),
    ),
    max_size=40,
)


def add(members, label):
    return ("add", frozenset(VERTICES[i] for i in members), label)


def minimal(support):
    """Brute force: supported edges with no supported strict subset,
    each labelled by its earliest supporter."""
    return {
        edge: min(supports, key=LABELS.index)
        for edge, supports in support.items()
        if not any(other < edge for other in support)
    }


def assert_matches(store, support):
    expected = minimal(support)
    assert store.graph.as_dict() == expected
    stored = Counter(expected.values())
    found = Counter(label for supports in support.values() for label in supports)
    assert store.stored() == {label: stored[label] for label in LABELS}
    assert store.subsumed() == {
        label: found[label] - stored[label] for label in LABELS
    }
    for label in LABELS:
        assert set(store.supported_by(label)) == {
            edge for edge, supports in support.items() if label in supports
        }


@settings(max_examples=300, deadline=None)
@given(stream=operations)
# A superset and a duplicate: the smaller edge, labelled by its
# earliest supporter, is all that is stored.
@example(stream=[add({1, 2, 3}, "l0"), add({1, 2}, "l1"), add({1, 2}, "l2")])
# Incomparable edges are both kept.
@example(stream=[add({1, 2}, "l0"), add({2, 3}, "l0")])
# Withdrawing the subsuming edge resurrects the superset; withdrawing
# the earliest supporter relabels.
@example(
    stream=[
        add({1}, "l3"),
        add({1, 2}, "l1"),
        add({1}, "l2"),
        ("withdraw", 0, frozenset({"l2"})),
        ("withdraw", 0, frozenset({"l3"})),
    ]
)
def test_graph_is_the_minimal_supported_set(stream):
    store = ViolationStore(LABELS)
    support: dict = {}
    for op, target, arg in stream:
        if op == "add":
            store.add(target, arg)
            support.setdefault(target, set()).add(arg)
        elif op == "withdraw":
            if not support:
                continue
            edge = sorted(support, key=sorted)[target % len(support)]
            store.withdraw(edge, arg)
            support[edge] -= arg
            if not support[edge]:
                del support[edge]
        else:
            store.retract(target)
            support = {edge: s for edge, s in support.items() if target not in edge}
        assert_matches(store, support)

    # The same violations added in the opposite order give the same graph.
    replayed = ViolationStore(LABELS)
    for edge, supports in reversed(list(support.items())):
        for label in sorted(supports, reverse=True):
            replayed.add(edge, label)
    assert replayed.graph.as_dict() == store.graph.as_dict()
