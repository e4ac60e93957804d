# hippolint-fixture: src/repro/conflicts/incremental.py
"""Bad: reaching into ConflictHypergraph internals from outside hypergraph.py."""


def patch(graph, vtx, edge) -> None:
    graph._position[vtx] = 3
    graph._incidence[vtx].add(edge)
    graph.edges.append(edge)
    del graph.edge_labels[edge]
    graph._labels[edge] = "c"
