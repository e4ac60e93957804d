# hippolint-fixture: src/repro/engine/feed/segments.py
"""Good: specific exceptions, and failures are surfaced or re-raised."""
import contextlib


def read_segment(path) -> list:
    try:
        return decode(path)
    except ValueError as exc:
        raise FeedError(f"torn segment {path}") from exc


def sweep(paths) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            unlink(path)
