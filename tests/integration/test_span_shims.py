"""The bench_e2e ledger patches ``src/`` names *by string*
(``benchmarks/e2e/spans.py``): a rename there breaks only the separate
``bench-e2e`` job.  Resolving every binding here makes the tier-1
command fail on it too."""

import importlib
import importlib.util
from pathlib import Path

from repro.backends import SQLiteBackend
from repro.conflicts import ReplicaHypergraph
from repro.constraints import FunctionalDependency
from repro.core.hippo import HippoEngine
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_e2e_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_shim_binding_resolves():
    spans = load_spans()
    assert spans.SHIMS
    unresolved = []
    for module, owner, attribute, _layer, _hot in spans.SHIMS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attribute, None)):
            unresolved.append((module, owner, attribute))
    assert not unresolved


def test_every_follower_polls_and_commits_through_the_shimmed_names():
    # The followers share one poll -> apply -> commit step; the ledger
    # sees it only if that step calls FeedConsumer.poll / .commit.
    spans = load_spans()
    feed = ChangeFeed()
    fd = FunctionalDependency("emp", ["name"], ["salary"])
    replica = ReplicaHypergraph(feed, [fd], group="replica")
    db = Database(feed=feed)
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
    engine = HippoEngine(db, [fd])
    db.attach_backend(SQLiteBackend())
    replica.sync()
    db.query("SELECT name FROM emp")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op("follow"):
            db.execute("INSERT INTO emp VALUES ('ann', 20)")
            assert engine.consistent_answers("SELECT * FROM emp").rows == [
                ("bob", 5)
            ]
            assert replica.sync().records == 1
            assert len(db.query("SELECT name FROM emp WHERE salary > 0").rows) == 3
    finally:
        tracer.uninstall()
    layers = tracer.ops[-1]["layers"]
    for layer in (
        "engine.feed.poll",
        "engine.feed.commit",
        "core.hippo.sync",
        "conflicts.replica.sync",
        "backends.mirror.sync",
    ):
        assert layers.get(layer, [0])[0] >= 1, layer
    assert spans.shims_present() == []
    db.backend.close()
