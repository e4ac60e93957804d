# hippolint-fixture: src/repro/engine/feed/segments.py
"""Good: fsync before the publishing rename; seal before the manifest."""
import json
import os


def atomic_json(path, payload) -> None:
    temp = path.with_suffix(".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, allow_nan=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


class SegmentLog:
    def _rotate(self) -> None:
        self._write_sealed()
        self._store_manifest()
