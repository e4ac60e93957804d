# hippolint-fixture: src/repro/engine/feed/segments.py
"""Bad: rename without fsync, and manifest commit before the segment seal."""
import json
import os


def atomic_json(path, payload) -> None:
    temp = path.with_suffix(".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, allow_nan=False)
    os.replace(temp, path)  # published bytes were never fsync'ed


class SegmentLog:
    def _rotate(self) -> None:
        self._store_manifest()  # names a segment that is not on disk yet
        self._write_sealed()
