"""Caller-supplied names never become paths unchecked.

Group and topic names are spliced into file and directory names by the
group store and the segment log; each test pins one way a hostile (or
merely unlucky) name used to escape, nest below, or collide inside the
feed directory -- and asserts the refusal happens *before* anything is
written.
"""

import os

import pytest

from repro.conflicts import ReplicaHypergraph
from repro.engine.database import Database
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed
from repro.errors import CatalogError, FeedError

BAD_COMPONENTS = ["../../evil", "..", ".", "", "a/b", "a\\b", "nul\0byte"]


def tree(root) -> list[str]:
    """Every file and directory under ``root``, relative, sorted."""
    found = []
    for directory, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            found.append(os.path.relpath(os.path.join(directory, name), root))
    return sorted(found)


@pytest.mark.parametrize("group", BAD_COMPONENTS)
def test_group_name_must_be_a_single_path_component(tmp_path, group):
    directory = tmp_path / "x" / "y" / "feed"
    feed = ChangeFeed(directory)
    before = tree(tmp_path)
    with pytest.raises(FeedError, match="single path component"):
        feed.consumer(group)
    assert tree(tmp_path) == before  # nothing written, inside or outside
    assert group not in feed.groups()
    feed.close()


@pytest.mark.parametrize("group", BAD_COMPONENTS)
def test_group_file_operations_refuse_bad_names(tmp_path, group):
    feed = ChangeFeed(tmp_path / "feed")
    before = tree(tmp_path)
    for operation in (
        lambda: feed.store_snapshot(group, {}, {}),
        lambda: feed.load_snapshot(group),
        lambda: feed.drop_group(group),
        lambda: feed.update_subscription(group, ["t"]),
    ):
        with pytest.raises(FeedError, match="single path component"):
            operation()
    assert tree(tmp_path) == before
    feed.close()


@pytest.mark.parametrize("topic", ["..", "a/b", ".", "a\\b"])
def test_topic_name_must_be_a_single_path_component(tmp_path, topic):
    directory = tmp_path / "feed"
    feed = ChangeFeed(directory)
    feed.publish_change("ok", 0, (1,), "insert")
    feed.flush()
    before = tree(tmp_path)
    with pytest.raises(FeedError, match="single path component"):
        feed.publish_change(topic, 0, (1,), "insert")
    assert tree(tmp_path) == before
    # The refused topic left no trace in memory or in the manifest.
    assert [t.name for t in feed.topics()] == ["ok"]
    feed.publish_change("ok", 1, (2,), "insert")
    feed.close()
    reopened = ChangeFeed(directory)
    assert reopened.end_offsets() == {"ok": 2}
    reopened.close()


def test_durable_database_refuses_path_like_table_names(tmp_path):
    directory = tmp_path / "db"
    db = Database(durable=str(directory))
    db.execute('CREATE TABLE ".." (x INT)')
    db.execute('CREATE TABLE "a/b" (x INT)')
    db.changes.feed.flush()
    before = tree(tmp_path)
    for table in ("..", "a/b"):
        with pytest.raises(FeedError, match="single path component"):
            db.execute(f'INSERT INTO "{table}" VALUES (1)')
    assert tree(tmp_path) == before
    # No segment landed beside the manifest, and nothing nested.
    assert sorted(os.listdir(directory / "topics")) == [SCHEMA_TOPIC]
    assert not (directory / "000000000000.jsonl").exists()
    db.changes.feed.close()


def test_in_memory_feeds_build_no_paths_and_accept_any_name():
    feed = ChangeFeed()
    consumer = feed.consumer("../../evil", start="beginning")
    feed.publish_change("a/b", 0, (1,), "insert")
    records, lost = consumer.poll()
    assert not lost and [r.topic for r in records] == ["a/b"]


def test_schema_topic_is_not_a_relation_name(tmp_path):
    directory = str(tmp_path / "db")
    db = Database(durable=directory)
    db.execute("CREATE TABLE t (x INT)")
    for name in ("_schema", "_SCHEMA"):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute(f"CREATE TABLE {name} (x INT)")
    assert db.catalog.table_names() == ["t"]
    db.execute("INSERT INTO t VALUES (1)")
    writer_version = db.changes.feed.schema_version
    db.changes.feed.flush()
    # A replica subscribed only to ``t`` sees t's rows and the DDL --
    # no relation's rows ride the DDL topic.
    reader = ChangeFeed(directory)
    replica = ReplicaHypergraph(reader, [], group="only-t", topics=["t"])
    replica.sync()
    assert replica.applied_records == {SCHEMA_TOPIC: 1, "t": 1}
    replica.close()
    reader.close()
    db.changes.feed.close()
    reopened = Database(durable=directory)
    assert reopened.changes.feed.schema_version == writer_version == 1
    reopened.changes.feed.close()
