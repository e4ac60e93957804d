# hippolint-fixture: src/repro/engine/feed/segments.py
"""Bad: swallowed durability errors hide torn segments from operators."""
import contextlib


def read_segment(path) -> list:
    try:
        return decode(path)
    except:  # bare except also traps KeyboardInterrupt
        return []


def sweep(paths) -> None:
    for path in paths:
        try:
            unlink(path)
        except FeedError:
            pass


def reopen(path) -> None:
    with contextlib.suppress(Exception):
        bootstrap(path)
