# hippolint-fixture: src/repro/engine/feed/segments.py
"""Bad: library code printing to stdout corrupts shell/pipe consumers."""


def rotate(segment) -> None:
    print("rotating", segment)
