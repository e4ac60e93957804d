# hippolint-fixture: src/repro/engine/feed/segments.py
"""Good: every manifest mutation runs with the lock held -- lexically
inside the ``with``, or with the lock context flowing through a variable
(the must-analysis still proves it held; a purely lexical check cannot).
"""


class SegmentLog:
    def reclaim(self) -> None:
        with self.manifest_lock():
            self._merge_disk_retention()
            self._sweep_orphans()
            atomic_json(self.directory / MANIFEST, {"segments": []})

    def offsets(self) -> None:
        # Non-manifest writes need no lock.
        atomic_json(self.directory / COMMITS, {"offsets": {}})

    def compact(self) -> None:
        guard = self.manifest_lock()
        with guard:
            self._merge_disk_retention()
            self._sweep_orphans()

    def store(self) -> None:
        with self.manifest_lock():
            self._merge_disk_retention()
