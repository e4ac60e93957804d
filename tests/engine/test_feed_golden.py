"""On-disk compatibility: a feed directory written before the split.

``_golden/feed_v2`` was written by the commit *before* ``ChangeFeed``
was split into a log and a group store (manifest ``"version": 2``,
12-digit segment names, a rotation at 3 records, a subscribed consumer
registration, a writer checkpoint with its offsets sidecar).  The split
code must reopen it to the same rows and offsets -- and, driven through
the same statements, write the same bytes.
"""

import shutil
from pathlib import Path

from repro.engine.database import Database
from repro.engine.feed import ChangeFeed

GOLDEN = Path(__file__).parent / "_golden" / "feed_v2"

EMP = [
    (0, ("ann", 10)),
    (1, ("ann", 20)),
    (2, ("bob", 6)),
    (3, ("cyd", 7)),
    (4, ("dan", 9)),
]
READING = [(0, ("s1", float("inf"))), (1, ("s2", 1.5))]


def files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_golden_directory_reopens(tmp_path):
    directory = tmp_path / "feed"
    shutil.copytree(GOLDEN, directory)
    feed = ChangeFeed(directory, segment_records=3)
    assert feed.end_offsets() == {"_schema": 2, "emp": 7, "reading": 2}
    assert [(t.name, t.start, t.end, t.segments) for t in feed.topics()] == [
        ("_schema", 0, 2, 1),
        ("emp", 0, 7, 3),
        ("reading", 0, 2, 1),
    ]
    assert feed.next_seq == 11 and feed.schema_version == 2
    db = Database(feed=feed)
    # The writer checkpoint + its sidecar: snapshot, then the suffix.
    assert db.restore_mode == "snapshot" and db.restore_records == 3
    assert sorted(db.table("emp").items()) == EMP
    assert sorted(db.table("reading").items()) == READING
    points = feed.recovery_points()
    assert points["__writer__"].source == "snapshot"
    assert points["__writer__"].floor == {"_schema": 2, "emp": 4, "reading": 2}
    assert points["reader"].topics == frozenset({"emp", "_schema"})
    # The registered consumer resumes from its committed cut.
    reader = feed.consumer("reader", topics=["emp", "_schema"])
    assert reader.committed == {"_schema": 2, "emp": 2}
    records, lost = reader.poll()
    assert not lost
    assert [(r.seq, r.offset) for r in records] == [
        (4, 2),
        (5, 3),
        (8, 4),
        (9, 5),
        (10, 6),
    ]
    # And a full replay from offset 0 agrees with the snapshot path.
    replayed = [r.seq for r in feed.iter_records()]
    assert replayed == list(range(11))
    feed.close()


def test_same_statements_write_the_same_bytes(tmp_path):
    directory = tmp_path / "feed"
    feed = ChangeFeed(directory, segment_records=3)
    db = Database(feed=feed)
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute("CREATE TABLE reading (sensor TEXT, value REAL)")
    db.execute(
        "INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5), ('cyd', 7)"
    )
    db.insert_rows("reading", [("s1", float("inf")), ("s2", 1.5)])
    db.checkpoint()
    db.execute("INSERT INTO emp VALUES ('dan', 9)")
    db.execute("UPDATE emp SET salary = 6 WHERE name = 'bob'")
    reader = feed.consumer(
        "reader", start="beginning", topics=["emp", "_schema"]
    )
    reader.poll(4)
    reader.commit()
    feed.close()
    assert files(directory) == files(GOLDEN)
