"""Unit tests for the dataflow engine and its abstract domains."""

import ast

from repro.devtools.hippoflow.cfg import build_cfg
from repro.devtools.hippoflow.dataflow import analyze, replay
from repro.devtools.hippoflow.domains import (
    AcquisitionSpec,
    LockDomain,
    ResourceDomain,
    TaintDomain,
)

SPEC = AcquisitionSpec(
    calls={"open": "file handle", "connect": "connection"},
    methods={("_writers", "pop"): "popped writer"},
)


def first_function(source: str):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise AssertionError("no function in source")


def leaks_of(source: str):
    func = first_function(source)
    cfg = build_cfg(func)
    domain = ResourceDomain(SPEC, func)
    return domain.leaks(cfg, analyze(cfg, domain))


# ------------------------------------------ the solver (over TaintDomain)


def taint_at_exit(source: str) -> frozenset[str]:
    cfg = build_cfg(first_function(source))
    return analyze(cfg, TaintDomain())[cfg.exit.id]


def test_solver_joins_branches():
    at_exit = taint_at_exit(
        """
def f(x, t):
    if x:
        a = f"{t}"
    else:
        b = f"{t}"
    return 0
"""
    )
    assert at_exit == {"a", "b"}


def test_solver_kills_on_reassignment():
    at_exit = taint_at_exit(
        """
def f(t):
    a = f"{t}"
    a = "SELECT 1"
    return a
"""
    )
    assert at_exit == frozenset()


def test_loop_reaches_fixpoint():
    at_exit = taint_at_exit(
        """
def f(n, t):
    a = "x"
    b = "y"
    while n:
        b = a
        a = f"{t}"
    return b
"""
    )
    # b is tainted only through the back edge: a second pass is needed.
    assert at_exit == {"a", "b"}


def test_replay_yields_state_before_each_element():
    cfg = build_cfg(
        first_function(
            """
def f(t):
    a = f"{t}"
    b = 2
"""
        )
    )
    domain = TaintDomain()
    states = analyze(cfg, domain)
    seen = {}
    for element, state in replay(cfg, domain, states):
        if isinstance(element, ast.Assign):
            seen[element.lineno] = state
    assert seen[3] == frozenset()  # before `a = f"{t}"`
    assert seen[4] == {"a"}  # after it, before `b = 2`


# ------------------------------------------------------- resource domain


def test_straight_line_close_is_clean():
    assert not leaks_of(
        """
def f(path):
    handle = open(path)
    handle.close()
"""
    )


def test_exception_between_acquire_and_close_leaks():
    leaks = leaks_of(
        """
def f(path):
    handle = open(path)
    handle.write("x")
    handle.close()
"""
    )
    assert [kind for _, kind in leaks] == ["exception"]


def test_try_finally_close_is_clean():
    assert not leaks_of(
        """
def f(path):
    handle = open(path)
    try:
        handle.write("x")
    finally:
        handle.close()
"""
    )


def test_with_managed_resource_is_clean():
    assert not leaks_of(
        """
def f(path):
    with open(path) as handle:
        return handle.read()
"""
    )


def test_returned_resource_escapes():
    assert not leaks_of(
        """
def f(path):
    handle = open(path)
    return handle
"""
    )


def test_stored_resource_escapes():
    assert not leaks_of(
        """
def f(self, path):
    self._registry[path] = open(path)
"""
    )


def test_passed_resource_escapes():
    assert not leaks_of(
        """
def f(path, sink):
    handle = open(path)
    sink.adopt(handle)
"""
    )


def test_fall_through_without_close_leaks():
    leaks = leaks_of(
        """
def f(path):
    handle = open(path)
    handle = None
    return 0
"""
    )
    # Rebinding drops tracking (escaped), not a report -- the idiom is
    # too common to flag -- but a *discarded* acquisition does report.
    assert not leaks


def test_discarded_acquisition_leaks():
    leaks = leaks_of(
        """
def f(path):
    open(path)
"""
    )
    assert leaks


def test_constructor_attribute_leaks_only_on_exception_path():
    source = """
def __init__(self, feed):
    self._consumer = feed.consumer()
    self.setup()
"""
    func = first_function(source)
    cfg = build_cfg(func)
    spec = AcquisitionSpec(calls={"consumer": "feed consumer"})
    domain = ResourceDomain(spec, func)
    leaks = domain.leaks(cfg, analyze(cfg, domain))
    assert [kind for _, kind in leaks] == ["exception"]


def test_constructor_guard_clears_exception_leak():
    source = """
def __init__(self, feed):
    self._consumer = feed.consumer()
    try:
        self.setup()
    except BaseException:
        self._consumer.close()
        raise
"""
    func = first_function(source)
    cfg = build_cfg(func)
    spec = AcquisitionSpec(calls={"consumer": "feed consumer"})
    domain = ResourceDomain(spec, func)
    assert not domain.leaks(cfg, analyze(cfg, domain))


def test_close_passed_as_callback_escapes():
    # weakref.finalize(self, self._consumer.close) hands lifetime off.
    source = """
def __init__(self, feed):
    self._consumer = feed.consumer()
    finalize(self, self._consumer.close)
    self.setup()
"""
    func = first_function(source)
    cfg = build_cfg(func)
    spec = AcquisitionSpec(calls={"consumer": "feed consumer"})
    domain = ResourceDomain(spec, func)
    assert not domain.leaks(cfg, analyze(cfg, domain))


def test_popped_writer_close_in_loop_is_clean():
    assert not leaks_of(
        """
def close(self):
    for name in list(self._writers):
        writer = self._writers.pop(name)
        try:
            writer.flush()
        finally:
            writer.close()
"""
    )


# ------------------------------------------------------------ lock domain


def lock_states(source: str):
    func = first_function(source)
    cfg = build_cfg(func)
    domain = LockDomain()
    return cfg, domain, analyze(cfg, domain)


def guarded_call_held(source: str, name: str) -> bool:
    cfg, domain, states = lock_states(source)
    for element, state in replay(cfg, domain, states):
        if isinstance(element, ast.AST):
            for node in ast.walk(element):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name
                ):
                    return LockDomain.held(state)
    raise AssertionError(f"no call to {name}")


def test_direct_with_lock_is_held():
    assert guarded_call_held(
        """
def f(self):
    with self.manifest_lock():
        self._sweep_orphans()
""",
        "_sweep_orphans",
    )


def test_laundered_lock_variable_is_held():
    assert guarded_call_held(
        """
def f(self):
    guard = self.manifest_lock()
    with guard:
        self._sweep_orphans()
""",
        "_sweep_orphans",
    )


def test_call_after_with_is_not_held():
    assert not guarded_call_held(
        """
def f(self):
    with self.manifest_lock():
        pass
    self._sweep_orphans()
""",
        "_sweep_orphans",
    )


def test_conditionally_held_joins_to_not_held():
    assert not guarded_call_held(
        """
def f(self, fast):
    if fast:
        self._lock_token = self.manifest_lock().__enter__()
    self._sweep_orphans()
""",
        "_sweep_orphans",
    )


# ----------------------------------------------------------- taint domain


def taints_sink(source: str) -> bool:
    func = first_function(source)
    cfg = build_cfg(func)
    domain = TaintDomain()
    states = analyze(cfg, domain)
    for element, state in replay(cfg, domain, states):
        if isinstance(element, ast.AST):
            for node in ast.walk(element):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "execute"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    return node.args[0].id in state
    raise AssertionError("no execute sink in source")


def test_fstring_through_variable_taints():
    assert taints_sink(
        """
def f(conn, t):
    q = f"SELECT * FROM {t}"
    conn.execute(q)
"""
    )


def test_concat_and_augmented_concat_taint():
    assert taints_sink(
        """
def f(conn, t):
    q = "SELECT * FROM " + t
    q += " WHERE x"
    conn.execute(q)
"""
    )


def test_copy_propagates_taint():
    assert taints_sink(
        """
def f(conn, t):
    a = "DELETE FROM %s" % t
    b = a
    conn.execute(b)
"""
    )


def test_constant_query_is_clean():
    assert not taints_sink(
        """
def f(conn):
    q = "SELECT 1"
    conn.execute(q)
"""
    )


def test_reassignment_kills_taint():
    assert not taints_sink(
        """
def f(conn, t):
    q = f"SELECT * FROM {t}"
    q = "SELECT 1"
    conn.execute(q)
"""
    )


def test_tainted_on_one_branch_taints_join():
    assert taints_sink(
        """
def f(conn, t, fast):
    if fast:
        q = "SELECT 1"
    else:
        q = "SELECT * FROM " + t
    conn.execute(q)
"""
    )
