# hippolint-fixture: src/repro/engine/feed/segments.py
"""Bad: a path reaches the manifest mutation with the lock released."""


class SegmentLog:
    def reclaim(self) -> None:
        self._merge_disk_retention()
        self._sweep_orphans()
        atomic_json(self.directory / MANIFEST, {"segments": []})

    def compact(self, fast: bool) -> None:
        if fast:
            with self.manifest_lock():
                self._merge_disk_retention()
        # Outside the with: on every path the lock is already released
        # by the time the sweep mutates segment state.
        self._sweep_orphans()
