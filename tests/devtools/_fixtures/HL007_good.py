# hippolint-fixture: src/repro/engine/feed/segments.py
"""Good: every wire emit pins allow_nan=False so floats round-trip."""
import json


def store_offsets(handle, offsets) -> None:
    json.dump({"offsets": offsets}, handle, allow_nan=False)


def envelope(record) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)
