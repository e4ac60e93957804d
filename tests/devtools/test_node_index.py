"""The per-module node index every hippolint rule reads.

A module is traversed once, the first time a rule asks for its nodes;
the rules filter that index and never walk the tree again.  These tests
pin the index's contents against :func:`ast.walk` and the scoped walker,
and the single traversal itself.
"""

import ast
from pathlib import Path

from repro.devtools import SourceModule, Suppressions, analyze_source
from repro.devtools.hippoflow.cfg import executed_nodes

REPO_ROOT = Path(__file__).resolve().parents[2]
SEGMENTS = "src/repro/engine/feed/segments.py"

NESTED = '''\
@decorate(lambda d: d.in_decorator_lambda)
def outer(a=make_default(), *, b: Hint = None) -> Result:
    first = 1

    def nested(c=nested_default):
        return in_nested_body

    callback = lambda e: in_lambda_body

    class Local:
        in_class_body = 3

    return first
'''


def module_for(source: str, path: str = "example.py") -> SourceModule:
    return SourceModule(path, source, ast.parse(source), Suppressions())


def names(nodes) -> set[str]:
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def test_local_body_lists_nested_scopes_but_not_their_bodies():
    module = module_for(NESTED)
    outer, nested = module.functions
    assert (outer.name, nested.name) == ("outer", "nested")
    local = module.local_nodes(outer)
    kinds = {type(node) for node in local}
    assert {ast.FunctionDef, ast.Lambda, ast.ClassDef} <= kinds
    assert names(local) == {
        "decorate",
        "make_default",
        "Hint",
        "Result",
        "first",
        "callback",
    }
    assert names(module.local_nodes(nested)) == {
        "nested_default",
        "in_nested_body",
    }


def test_body_nodes_cover_only_the_def_body():
    module = module_for(NESTED)
    outer = module.functions[0]
    body = module.body_nodes(outer)
    assert names(body) == {"first", "callback"}
    assert list(body) == [
        node for statement in outer.body for node in executed_nodes(statement)
    ]


def test_index_matches_ast_walk_and_the_scoped_walker():
    source = (REPO_ROOT / SEGMENTS).read_text(encoding="utf-8")
    module = module_for(source, SEGMENTS)
    walked = list(ast.walk(module.tree))
    assert list(module.nodes(ast.AST)) == walked
    assert list(module.nodes(ast.Attribute, ast.Call)) == [
        node for node in walked if isinstance(node, (ast.Attribute, ast.Call))
    ]
    assert list(module.functions) == [
        node
        for node in walked
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for func in module.functions:
        assert list(module.local_nodes(func)) == [
            node
            for child in ast.iter_child_nodes(func)
            for node in executed_nodes(child)
        ], func.name


def test_analyzing_a_module_walks_it_once(monkeypatch):
    """Every rule reads one index; only the CFGs of the few functions a
    flow rule's pre-filter admits re-walk their own statements."""
    source = (REPO_ROOT / SEGMENTS).read_text(encoding="utf-8")
    node_count = sum(1 for _ in ast.walk(ast.parse(source)))
    calls = 0
    iter_child_nodes = ast.iter_child_nodes

    def counting(node):
        nonlocal calls
        calls += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    analyze_source(source, SEGMENTS)
    assert calls <= 2 * node_count, (calls, node_count)
