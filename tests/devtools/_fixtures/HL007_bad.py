# hippolint-fixture: src/repro/engine/feed/segments.py
"""Bad: default json emit silently writes NaN/Infinity the decoder rejects."""
import json


def store_offsets(handle, offsets) -> None:
    json.dump({"offsets": offsets}, handle)


def envelope(record) -> str:
    return json.dumps(record, separators=(",", ":"))
