"""Tests for the interactive CLI frontend."""

from __future__ import annotations

import io


from repro.cli import HippoShell, _parse_cli_value, main


def run_shell(script: str) -> str:
    out = io.StringIO()
    shell = HippoShell(out=out)
    shell.run(script.splitlines())
    return out.getvalue()


SETUP = """
CREATE TABLE emp (name TEXT, salary INTEGER);
INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5);
.constraint FD emp: name -> salary
"""


class TestShellCommands:
    def test_sql_and_consistent(self):
        output = run_shell(SETUP + ".consistent SELECT * FROM emp;")
        assert "(bob, 5)" in output
        assert "1 consistent answer" in output

    def test_possible(self):
        output = run_shell(SETUP + ".possible SELECT * FROM emp;")
        assert "3 possible answers" in output

    def test_cleaned_and_raw(self):
        output = run_shell(
            SETUP + ".cleaned SELECT * FROM emp;\n.raw SELECT * FROM emp;"
        )
        assert "1 row" in output and "3 rows" in output

    def test_detect_summary(self):
        output = run_shell(SETUP + ".detect")
        assert "1 edges" in output and "2 conflicting tuples" in output

    def test_constraints_listing(self):
        output = run_shell(SETUP + ".constraints")
        assert "FD emp: name -> salary" in output

    def test_rewrite_shows_sql(self):
        output = run_shell(SETUP + ".rewrite SELECT * FROM emp;")
        assert "NOT EXISTS" in output

    def test_classify_rewritable(self):
        output = run_shell(SETUP + ".classify SELECT * FROM emp;")
        assert "path: first-order-rewriting" in output
        assert "first-order rewriting applies" in output

    def test_classify_unsupported(self):
        output = run_shell(SETUP + ".classify SELECT name FROM emp;")
        assert "path: unsupported" in output

    def test_explain_shows_envelope(self):
        output = run_shell(SETUP + ".explain SELECT * FROM emp WHERE salary > 1;")
        assert "envelope: SELECT DISTINCT" in output

    def test_explain_shows_the_match_plan_of_dml(self):
        output = run_shell(
            SETUP
            + "CREATE INDEX emp_name ON emp (name);\n"
            + ".explain DELETE FROM emp WHERE name = 'ann' AND salary > 10;"
        )
        assert "match plan:\nFilter\n  IndexScan(emp on [name] +tid)" in output
        assert "envelope" not in output

    def test_explain_prints_the_native_plan_outside_sjud(self):
        residue = (
            ".explain SELECT * FROM emp e WHERE NOT EXISTS"
            " (SELECT * FROM emp t WHERE t.{0} = e.{0} AND t.{1} <> e.{1});"
        )
        output = run_shell(
            SETUP
            + residue.format("name", "salary")
            + "\n"
            + residue.format("salary", "name")
        )
        assert "error" not in output and "envelope" not in output
        assert output.count("outside the SJUD class (subqueries in WHERE") == 2
        # The FD's detector indexes emp(name): that residue probes the
        # live index; salary has none, so its partner is hashed.
        plan = "native plan:\nProject\n  HashSemiJoin(anti, 1 keys)\n    Scan(emp)\n"
        assert plan + "    IndexProbe(emp on [name])\n" in output
        assert plan + "    Hash(1 keys)\n      Scan(emp)\n" in output

    def test_why_consistent(self):
        output = run_shell(SETUP + ".why SELECT * FROM emp ; 'bob', 5")
        assert "consistent; decided by: core" in output

    def test_why_inconsistent_names_counterexample(self):
        output = run_shell(SETUP + ".why SELECT * FROM emp ; 'ann', 10")
        assert "possible but not consistent; decided by: refuted" in output
        assert "excluding" in output

    def test_why_a_tuple_no_core_produces(self):
        output = run_shell(SETUP + ".why SELECT * FROM emp ; 'zoe', 1")
        assert "not even possible; decided by: envelope" in output
        assert "no core of the query produces it over the database" in output
        assert "depends on facts" not in output
        assert "falsifies" not in output

    def test_why_refuses_a_tuple_of_the_wrong_arity(self):
        for candidate in ("'bob', 5, 6", "'bob'"):
            output = run_shell(SETUP + f".why SELECT * FROM emp ; {candidate}")
            assert "error:" in output and "returns 2: (name, salary)" in output
            assert "consistent" not in output

    def test_repair_count(self):
        output = run_shell(SETUP + ".repairs")
        assert "2 repairs" in output

    def test_select_through_sql_path(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1), (2);\n"
            "SELECT a FROM t ORDER BY a;"
        )
        assert "(2 rows)" in output

    def test_error_reported_not_raised(self):
        output = run_shell("SELECT * FROM missing;")
        assert "error:" in output

    def test_blank_lines_and_comments_skipped(self):
        output = run_shell("\n-- nothing\n  \n")
        assert output == ""

    def test_unknown_meta_command(self):
        output = run_shell(".frobnicate")
        assert "unknown command" in output

    def test_quit_stops_processing(self):
        output = run_shell(".quit\nSELECT * FROM missing;")
        assert "error" not in output

    def test_help(self):
        output = run_shell(".help")
        assert ".consistent" in output

    def test_repairs_fresh_after_dml(self):
        script = SETUP + (
            ".repairs\nINSERT INTO emp VALUES ('bob', 6);\n.repairs"
        )
        output = run_shell(script)
        assert "2 repairs" in output  # ann's pair only
        assert "4 repairs" in output  # bob's new pair folded in

    def test_query_refresh_after_dml(self):
        # The engine must re-detect conflicts after data changes.
        script = SETUP + (
            ".consistent SELECT * FROM emp;\n"
            "DELETE FROM emp WHERE salary = 20;\n"
            ".consistent SELECT * FROM emp;"
        )
        output = run_shell(script)
        assert "2 consistent answers" in output  # ann(10) recovered


class TestDurableShell:
    def test_durable_shell_restores_and_feed_reports_directory(self, tmp_path):
        directory = str(tmp_path / "db")
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (1), (2);",
                ".feed",
            ]
        )
        shell.db.changes.feed.close()
        assert f"durable at {directory}" in out.getvalue()

        out2 = io.StringIO()
        restored = HippoShell(out=out2, durable=directory)
        restored.run(["SELECT a FROM t ORDER BY a;"])
        restored.db.changes.feed.close()
        assert "(2 rows)" in out2.getvalue()

    def test_durable_shell_flushes_acknowledged_statements_on_error(
        self, tmp_path
    ):
        # A failing statement mid-batch must not strand the earlier,
        # already-acknowledged ones in the userspace buffer.
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (1); INSERT INTO t VALUES ('x');",
            ]
        )
        assert "ok (1 rows affected)" in out.getvalue()
        assert "error:" in out.getvalue()
        # A concurrent reader (not a reopen) sees the acknowledged row.
        reader = ChangeFeed(directory)
        records, _ = reader.consumer("probe", start="beginning").poll()
        assert [(r.topic, r.kind) for r in records] == [
            ("_schema", "create_table"),
            ("t", "change"),
        ]
        reader.close()
        shell.db.changes.feed.close()

    def test_checkpoint_and_feed_compact(self, tmp_path):
        from repro.engine.database import WRITER_GROUP, Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (1), (2), (3);",
                ".checkpoint",
                ".feed compact",
            ]
        )
        shell.db.changes.feed.close()
        output = out.getvalue()
        assert "checkpoint stored (committed _schema=1, t=3)" in output
        # Everything fits one active segment: nothing is reclaimable.
        assert "(nothing to reclaim)" in output

        feed = ChangeFeed(directory)
        assert feed.load_snapshot(WRITER_GROUP) is not None
        restored = Database(feed=feed)
        assert restored.restore_mode == "snapshot"
        feed.close()

    def test_feed_compact_reports_reclaimed_topics(self, tmp_path):
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = tmp_path / "db"
        out = io.StringIO()
        shell = HippoShell(out=out)
        # Tiny segments so a handful of inserts spans several of them
        # (the default-sized shell would keep everything in one).
        shell.db = Database(feed=ChangeFeed(directory, segment_records=2))
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (1);",
                "INSERT INTO t VALUES (2);",
                "INSERT INTO t VALUES (3);",
                "INSERT INTO t VALUES (4);",
                "INSERT INTO t VALUES (5);",
                ".checkpoint",
                ".feed compact",
            ]
        )
        output = out.getvalue()
        assert "topic t: reclaimed below offset" in output
        shell.db.changes.feed.close()

    def test_checkpoint_and_compact_need_a_durable_shell(self):
        output = run_shell(".checkpoint")
        assert "error:" in output and "durable" in output
        output = run_shell(".feed compact")
        assert "compaction needs a durable feed" in output

    def test_main_parses_durable_flag(self, tmp_path):
        directory = str(tmp_path / "db")
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (7);\n")
        assert main([str(script), "--durable", directory]) == 0
        # The mutations landed in the feed directory.
        assert (tmp_path / "db" / "manifest.json").exists()

    def test_feed_tail_follows_another_processs_feed(self, tmp_path):
        directory = str(tmp_path / "db")
        writer_out = io.StringIO()
        writer = HippoShell(out=writer_out, durable=directory)
        # No explicit flush: a durable shell makes every statement batch
        # durable on its own, or a concurrent tail would see nothing.
        writer.run(
            [
                "CREATE TABLE emp (name TEXT, salary INTEGER);",
                "INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5);",
            ]
        )

        out = io.StringIO()
        tailer = HippoShell(out=out)
        tailer.run(
            [
                ".constraint FD emp: name -> salary",
                f".feed tail {directory} 0.2",
            ]
        )
        text = out.getvalue()
        assert "4 records" in text  # schema + 3 rows streamed in live
        assert "1 edges" in text and "2 conflicting tuples" in text
        # The inspection tail left no consumer-group state behind.
        consumers = tmp_path / "db" / "consumers"
        leftovers = (
            [p.name for p in consumers.glob("cli-tail*")]
            if consumers.exists()
            else []
        )
        assert leftovers == []
        writer.db.changes.feed.close()

    def test_feed_tail_seeds_from_a_reclaimed_feeds_checkpoint(
        self, tmp_path
    ):
        # Tailing a feed whose prefix retention already reclaimed used
        # to die with "history was dropped"; the tail's fresh group now
        # seeds from the writer's checkpoint and follows the suffix.
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        db.checkpoint()
        db.execute("INSERT INTO emp VALUES ('ann', 20)")
        drain = feed.consumer("drain", start="beginning")
        drain.poll()
        drain.commit()
        assert any(t.start > 0 for t in feed.topics())  # prefix is gone
        feed.flush()

        output = run_shell(
            ".constraint FD emp: name -> salary\n"
            f".feed tail {directory} 0.2"
        )
        assert "history was dropped" not in output
        assert "1 edges, 2 conflicting tuples" in output
        feed.close()

    def test_feed_tail_usage_message(self):
        output = run_shell(".feed tail")
        assert "usage: .feed tail" in output

    def test_feed_tail_rejects_bad_seconds(self, tmp_path):
        output = run_shell(f".feed tail {tmp_path} 2s")
        assert "usage: .feed tail" in output

    def test_feed_tail_refuses_a_missing_feed(self, tmp_path):
        missing = tmp_path / "typo"
        output = run_shell(f".feed tail {missing} 0.1")
        assert "no change feed at" in output
        assert not missing.exists()  # the tail must not fabricate one

    def test_feed_shows_each_groups_recovery_point(self, tmp_path):
        # Operators need to see why retention is pinned: the snapshot
        # floor when a group checkpointed, else its committed offsets.
        from repro.conflicts import ReplicaHypergraph
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (1), (2), (3);",
            ]
        )
        # A replica group whose checkpoint trails its committed cut.
        reader = ChangeFeed(directory)
        replica = ReplicaHypergraph(reader, [], group="replica")
        replica.sync(limit=2)
        replica.checkpoint()  # snapshot floor at _schema=1, t=1
        replica.sync()
        replica._consumer.close()  # keep commits, skip the auto-snapshot
        reader.close()

        shell.run([".checkpoint", ".feed"])
        shell.db.changes.feed.close()
        output = out.getvalue()
        # The writer checkpointed: its recovery point is its snapshot.
        assert "consumer __writer__: lag 0" in output
        assert "recovery point: snapshot (_schema=1, t=3)" in output
        # The replica's snapshot floor trails its committed offsets --
        # exactly the state that pins retention.
        assert "consumer replica: lag 0 (committed _schema=1, t=3)" in output
        assert "recovery point: snapshot (_schema=1, t=1)" in output

    def test_feed_shows_committed_recovery_point_without_snapshot(
        self, tmp_path
    ):
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run(["CREATE TABLE t (a INTEGER);", "INSERT INTO t VALUES (1);"])
        reader = ChangeFeed(directory)
        probe = reader.consumer("probe", start="beginning", topics=["t"])
        probe.poll()
        probe.commit()
        reader.close()
        shell.run([".feed"])
        shell.db.changes.feed.close()
        output = out.getvalue()
        # A group that never checkpointed recovers from its commits --
        # and its topic subscription is visible.
        assert "consumer probe: lag 0 (committed t=1) [topics t]" in output
        assert "recovery point: committed (t=1)" in output

    def test_shards_reports_the_constraint_aware_plan(self):
        output = run_shell(
            "CREATE TABLE p (id INTEGER);\n"
            "CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER);\n"
            "CREATE TABLE u (id INTEGER, v INTEGER);\n"
            ".constraint FD c: id -> v\n"
            ".constraint FK c (pid) REFERENCES p (id)\n"
            ".shards 2"
        )
        assert "shard plan: 2 workers over 3 topics" in output
        assert "(0 cross-shard)" in output
        # Co-referenced relations land together; u gets the other worker.
        assert "owns [c, p]" in output
        assert "owns [u]" in output
        assert "FK c(pid) -> p(id)" in output

    def test_shards_rejects_a_bad_worker_count(self):
        output = run_shell(".shards two")
        assert "usage: .shards" in output

    def test_shards_live_reports_manifest_lag_and_subscriptions(
        self, tmp_path
    ):
        from repro.conflicts import (
            Ownership,
            ShardCoordinator,
            store_ownership,
        )
        from repro.constraints import FunctionalDependency
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        db.execute("CREATE TABLE a (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER, v INTEGER)")
        db.execute("INSERT INTO a VALUES (1, 1), (1, 2)")
        db.execute("INSERT INTO b VALUES (1, 1)")
        feed.flush()
        coordinator = ShardCoordinator(
            feed,
            [FunctionalDependency("a", ["id"], ["v"])],
            workers=2,
            assignment={"a": 0, "b": 1},
        )
        coordinator.drain()
        coordinator.checkpoint()
        coordinator.close()
        # A handoff of a to worker 1 in flight: granted, adopted, but
        # the old owner has not let go yet.
        store_ownership(
            directory, Ownership(workers=2, owner={"a": 1, "b": 1}, epoch=3)
        )
        feed.update_subscription("shard-1", ["_schema", "a", "b"], {"a": 2})
        db.execute("INSERT INTO b VALUES (2, 2)")  # post-checkpoint lag
        feed.flush()
        feed.close()
        output = run_shell(f".shards --live {directory}")
        assert "process executor: 2 workers, epoch 3" in output
        assert "topic a -> worker 1" in output
        assert "topic b -> worker 1" in output
        # Both registrations hold a, so the handoff is visible.
        assert (
            "worker 0 (shard-0): lag 0, owns [-], subscribed [_schema, a]"
            in output
        )
        # The crashed-or-lagging worker is *visible*, never absent.
        assert (
            "worker 1 (shard-1): lag 1, owns [a, b],"
            " subscribed [_schema, a, b]"
        ) in output

    def test_shards_live_ignores_lookalike_groups(self, tmp_path):
        # Regression: worker groups were matched by a "-N" suffix, so an
        # unrelated consumer group such as "bench-replica-1" was listed
        # as shard worker 1.  The manifest records the group prefix and
        # the listing matches "{prefix}-{index}" exactly.
        from repro.conflicts import (
            Ownership,
            ReplicaHypergraph,
            ShardCoordinator,
            store_ownership,
        )
        from repro.constraints import FunctionalDependency
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        constraints = [FunctionalDependency("a", ["id"], ["v"])]
        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        db.execute("CREATE TABLE a (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER, v INTEGER)")
        db.execute("INSERT INTO a VALUES (1, 1), (1, 2)")
        feed.flush()
        coordinator = ShardCoordinator(
            feed,
            constraints,
            workers=2,
            assignment={"a": 0, "b": 1},
            group_prefix="pool",
        )
        coordinator.drain()
        coordinator.close()
        decoy = ReplicaHypergraph(feed, constraints, group="bench-replica-1")
        decoy.close()
        store_ownership(
            directory,
            Ownership(
                workers=2, owner={"a": 0, "b": 1}, epoch=0, group_prefix="pool"
            ),
        )
        feed.close()
        output = run_shell(f".shards --live {directory}")
        assert "worker 0 (pool-0): lag 0" in output
        assert "worker 1 (pool-1): lag 0" in output
        assert "bench-replica-1" not in output

    def test_shards_live_without_manifest(self, tmp_path):
        output = run_shell(f".shards --live {tmp_path}")
        assert "no ownership manifest" in output

    def test_shards_live_needs_a_directory_in_memory(self):
        output = run_shell(".shards --live")
        assert "usage: .shards --live" in output

    def test_rebalance_advises_the_skew_minimizing_move(self, tmp_path):
        from repro.conflicts import Ownership, store_ownership
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        for name, rows in (("a", 6), ("b", 3), ("c", 1)):
            db.execute(f"CREATE TABLE {name} (id INTEGER)")
            for i in range(rows):
                db.execute(f"INSERT INTO {name} VALUES ({i})")
        feed.flush()
        feed.close()
        store_ownership(
            directory,
            Ownership(workers=2, owner={"a": 0, "b": 0, "c": 0}, epoch=0),
        )
        output = run_shell(f".rebalance {directory}")
        assert "advice: move topic a from worker 0 to worker 1" in output
        assert "dry run, weighing lag only" in output

    def test_rebalance_reports_balance(self, tmp_path):
        from repro.conflicts import Ownership, store_ownership
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        for name in ("a", "b"):
            db.execute(f"CREATE TABLE {name} (id INTEGER)")
            db.execute(f"INSERT INTO {name} VALUES (1)")
        feed.flush()
        feed.close()
        store_ownership(
            directory, Ownership(workers=2, owner={"a": 0, "b": 1}, epoch=0)
        )
        output = run_shell(f".rebalance {directory}")
        assert "balanced: no single move improves the skew" in output

    def test_rebalance_needs_a_directory_in_memory(self):
        output = run_shell(".rebalance")
        assert "usage: .rebalance" in output

    def test_feed_listing_shows_a_crashed_worker_as_lagging(self, tmp_path):
        # The `.feed` half of the regression: a shard group whose
        # process died between checkpoint and commit keeps its
        # registration, so the listing shows it lagging -- not gone.
        from repro.conflicts import ShardCoordinator
        from repro.constraints import FunctionalDependency
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        directory = str(tmp_path / "db")
        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        db.execute("CREATE TABLE a (id INTEGER, v INTEGER)")
        db.execute("INSERT INTO a VALUES (1, 1), (1, 2)")
        feed.flush()
        coordinator = ShardCoordinator(
            feed,
            [FunctionalDependency("a", ["id"], ["v"])],
            workers=1,
        )
        coordinator.drain()
        coordinator.checkpoint()
        coordinator.workers[0]._consumer.abandon()  # crash, not close
        coordinator.close()
        db.execute("INSERT INTO a VALUES (2, 2)")
        feed.flush()
        feed.close()
        out = io.StringIO()
        shell = HippoShell(out=out, durable=directory)
        shell.run([".feed"])
        shell.db.changes.feed.close()
        output = out.getvalue()
        assert "consumer shard-0: lag 1" in output
        assert "recovery point: snapshot" in output

    def test_feed_tail_follows_one_shard_of_the_plan(self, tmp_path):
        directory = str(tmp_path / "db")
        writer_out = io.StringIO()
        writer = HippoShell(out=writer_out, durable=directory)
        writer.run(
            [
                "CREATE TABLE emp (name TEXT, salary INTEGER);",
                "CREATE TABLE log (msg TEXT);",
                "INSERT INTO emp VALUES ('ann', 10), ('ann', 20);",
                "INSERT INTO log VALUES ('a'), ('b'), ('c');",
            ]
        )
        out = io.StringIO()
        tailer = HippoShell(out=out)
        tailer.run(
            [
                ".constraint FD emp: name -> salary",
                f".feed tail {directory} 0.2 0/2",
            ]
        )
        text = out.getvalue()
        assert "shard 0/2: topics [emp]" in text
        # Only emp's records (+ DDL) stream in: 2 schema + 2 rows, not
        # the 3 log rows the other shard owns.
        assert "4 records" in text
        assert "1 edges" in text and "2 conflicting tuples" in text
        writer.db.changes.feed.close()

    def test_feed_tail_rejects_a_bad_shard_spec(self, tmp_path):
        output = run_shell(f".feed tail {tmp_path} 0.1 5/2")
        assert "usage: .feed tail" in output

    @staticmethod
    def _feed_with_manifest(directory: str) -> None:
        """Four one-row tables; a process executor's manifest puts r, s
        and u on worker 0 and w on worker 1 (a fresh plan would deal
        them out r, u -> 0 and s, w -> 1)."""
        from repro.conflicts import Ownership, store_ownership
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed

        feed = ChangeFeed(directory)
        db = Database(feed=feed)
        for name in ("r", "s", "u", "w"):
            db.execute(f"CREATE TABLE {name} (id INTEGER)")
            db.execute(f"INSERT INTO {name} VALUES (1)")
        feed.flush()
        feed.close()
        store_ownership(
            directory,
            Ownership(workers=2, owner={"r": 0, "s": 0, "u": 0, "w": 1}, epoch=3),
        )

    def test_feed_tail_follows_the_ownership_manifest(self, tmp_path):
        directory = str(tmp_path / "db")
        self._feed_with_manifest(directory)
        output = run_shell(f".feed tail {directory} 0.1 1/2")
        assert "shard 1/2: topics [w]" in output
        output = run_shell(f".feed tail {directory} 0.1 0/2")
        assert "shard 0/2: topics [r, s, u]" in output

    def test_feed_tail_rejects_a_worker_count_the_manifest_lacks(self, tmp_path):
        directory = str(tmp_path / "db")
        self._feed_with_manifest(directory)
        output = run_shell(f".feed tail {directory} 0.1 1/3")
        assert "error: the ownership manifest" in output
        assert "has 2 workers, not 3" in output
        assert "shard 1/3" not in output


class TestMultiLineStatements:
    def test_insert_spanning_lines(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES\n  (1),\n  (2);\n"
            "SELECT a FROM t;"
        )
        assert "(2 rows)" in output

    def test_trailing_statement_without_semicolon_flushed(self):
        output = run_shell("CREATE TABLE t (a INTEGER);\nSELECT 1 + 1")
        assert "(1 rows)" in output

    def test_meta_not_interpreted_mid_statement(self):
        # A line starting with '.' inside a pending statement is SQL text
        # (and will fail to parse) rather than a silent meta-command.
        output = run_shell("SELECT\n.help\n;")
        assert "error:" in output


class TestBackendCommand:
    def test_show_current_and_available(self):
        output = run_shell(SETUP + ".backend")
        assert "backend: native" in output
        assert "available: native, sqlite" in output

    def test_switch_to_sqlite_and_back(self):
        output = run_shell(
            SETUP
            + ".backend sqlite\nSELECT * FROM emp WHERE salary > 1;\n"
            + ".backend\n.backend native\n.backend"
        )
        assert "backend: sqlite" in output
        assert "(3 rows)" in output
        assert output.count("backend: native") >= 1

    def test_sqlite_backend_answers_match_native(self):
        script = SETUP + ".consistent SELECT * FROM emp;"
        native = run_shell(script)
        pushed = run_shell(SETUP + ".backend sqlite\n.consistent SELECT * FROM emp;")
        assert "(bob, 5)" in native and "(bob, 5)" in pushed

    def test_switching_keeps_the_engine(self):
        """The executor belongs to the database: the engine (and its
        hypergraph) survives a switch, and its raw answers follow it."""
        shell = HippoShell(out=io.StringIO())
        shell.run((SETUP + ".consistent SELECT * FROM emp;").splitlines())
        engine = shell._engine
        shell.run([".backend sqlite", ".raw SELECT * FROM emp;"])
        assert shell._engine is engine
        assert shell.db.stats.backend_pushdowns == 1
        shell.db.backend.close()

    def test_stats_show_pushdown_counters(self):
        output = run_shell(
            SETUP + ".backend sqlite\nSELECT * FROM emp;\n.stats"
        )
        assert "backend_pushdowns" in output
        assert "backend_fallbacks" in output

    def test_unknown_backend_is_an_error(self):
        output = run_shell(SETUP + ".backend postgres")
        assert "error:" in output and "unknown backend" in output

    def test_missing_duckdb_driver_reported(self):
        from repro.backends import duckdb_available

        if duckdb_available():  # pragma: no cover - driver-dependent
            output = run_shell(SETUP + ".backend duckdb")
            assert "backend: duckdb" in output
        else:
            output = run_shell(SETUP + ".backend duckdb")
            assert "error:" in output and "not installed" in output


class TestExplainParameterized:
    def test_explain_prints_parameterized_envelope(self):
        output = run_shell(SETUP + ".explain SELECT * FROM emp WHERE salary > 1;")
        assert "envelope: SELECT DISTINCT" in output
        assert "WHERE (emp.salary > ?)" in output or "salary > ?" in output
        assert "bound arguments: 1" in output

    def test_explain_without_literals_has_no_arguments(self):
        output = run_shell(SETUP + ".explain SELECT * FROM emp;")
        assert "bound arguments: (none)" in output

    def test_explain_quotes_text_arguments(self):
        output = run_shell(
            SETUP + ".explain SELECT * FROM emp WHERE name = 'ann';"
        )
        assert "bound arguments: 'ann'" in output

    def test_explain_prints_the_plan_the_envelope_gets(self):
        output = run_shell(
            SETUP
            + "CREATE INDEX emp_salary ON emp (salary);\n"
            + ".explain SELECT * FROM emp WHERE salary = 5;"
        )
        # One plan per core: Q-down is read off the same rows' tids.
        assert "\nplan:\nProject\n  IndexScan(emp on [salary] +tid)" in output
        assert output.count("plan:") == 1 and "restricted" not in output
        assert (
            "down: this plan's rows whose every tid is conflict-free"
            " (conflicting tuples: emp 2)" in output
        )


class TestScriptedDemo:
    def test_edbt_demo_session(self):
        from pathlib import Path

        demo = (
            Path(__file__).resolve().parents[2] / "demos" / "edbt_demo.hippo"
        )
        output = run_shell(demo.read_text())
        assert "4 repairs" in output
        assert "(ann, cs)" in output  # part 1: recovered certain fact
        assert "NOT EXISTS" in output  # part 2: rewriting shown
        assert "envelope: SELECT DISTINCT" in output  # part 3
        assert "error" not in output


class TestValueParsing:
    def test_parse_values(self):
        assert _parse_cli_value(" 3 ") == 3
        assert _parse_cli_value("3.5") == 3.5
        assert _parse_cli_value("NULL") is None
        assert _parse_cli_value("'ann'") == "ann"
        assert _parse_cli_value("bare") == "bare"


class TestMainEntry:
    def test_main_reads_files(self, tmp_path, capsys, monkeypatch):
        script = tmp_path / "session.hippo"
        script.write_text(SETUP + ".consistent SELECT * FROM emp;")
        monkeypatch.setattr("sys.stdout", io.StringIO())
        import sys

        assert main([str(script)]) == 0
        assert "(bob, 5)" in sys.stdout.getvalue()
