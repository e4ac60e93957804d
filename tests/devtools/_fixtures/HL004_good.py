# hippolint-fixture: src/repro/conflicts/incremental.py
"""Good: read the public surface, never mutate it from outside."""


def summarize(graph) -> tuple:
    width = len(graph.edges)
    labels = graph.as_dict()
    return width, labels
