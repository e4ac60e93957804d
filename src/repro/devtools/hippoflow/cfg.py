"""Per-function control-flow graphs over ``ast``.

A :class:`CFG` has one block per straight-line run of statements plus
three distinguished blocks: ``entry``, ``exit`` (normal completion --
every ``return`` and the final fall-off route here) and ``raise_exit``
(an exception escaped the function).  Two edge kinds connect blocks:

* **normal** edges (``Block.succ``) carry the state a block's transfer
  produced at its end;
* **exception** edges (``Block.exc``) carry the state observed *at the
  raising element* -- the dataflow engine joins the pre-transfer state
  of every may-raise element in the block (see
  :func:`repro.devtools.hippoflow.dataflow.analyze`).

``with`` statements insert :class:`WithEnter`/:class:`WithExit` marker
elements so abstract domains observe context-manager scope on the
normal path; the exceptional path routes through a cleanup block that
holds the :class:`WithExit` markers before propagating outward.

The graph deliberately over-approximates feasible paths: a ``finally``
body is built once and its end fans out to every continuation that
routed through it (fall-through, exception propagation, ``return``,
``break``/``continue``), and loop conditions always get a false edge.
Extra paths keep may-analyses (leaks, taint) sound and make
must-analyses (lock held) conservative -- both err toward reporting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

#: The function node kinds a CFG is built for.
FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Nodes whose bodies run in a scope of their own, not where they stand.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@dataclass(frozen=True)
class WithEnter:
    """Marker element: a ``with`` item's context was just entered."""

    item: ast.withitem
    lineno: int
    col: int


@dataclass(frozen=True)
class WithExit:
    """Marker element: a ``with`` item's context is being exited."""

    item: ast.withitem
    lineno: int
    col: int


#: What a block's ``elements`` list holds: statements and expressions in
#: evaluation order, plus the ``with`` scope markers.
Element = Union[ast.AST, WithEnter, WithExit]


@dataclass(eq=False)  # identity semantics: blocks are graph nodes
class Block:
    """One straight-line run of elements plus its outgoing edges."""

    id: int
    label: str
    elements: list[Element] = field(default_factory=list)
    succ: list["Block"] = field(default_factory=list)
    exc: list["Block"] = field(default_factory=list)

    def __repr__(self) -> str:  # keep dataflow debugging readable
        return f"<Block {self.id} {self.label!r}>"


@dataclass
class CFG:
    """A function's control-flow graph."""

    func: FuncDef
    blocks: list[Block]
    entry: Block
    exit: Block
    raise_exit: Block

    def reachable(self) -> set[int]:
        """Ids of blocks reachable from ``entry`` along any edge kind."""
        seen: set[int] = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.id in seen:
                continue
            seen.add(block.id)
            stack.extend(block.succ)
            stack.extend(block.exc)
        return seen


def may_raise(element: Element) -> bool:
    """Whether executing ``element`` can raise.

    The heuristic is call-centric: calls, ``raise``, ``assert`` and
    loop-iteration elements get exception edges; pure name/attribute
    traffic does not.  Nested function and lambda bodies do not execute
    here, so calls inside them are ignored.
    """
    if isinstance(element, (WithEnter, WithExit)):
        return False
    if isinstance(element, (ast.Raise, ast.Assert, ast.For, ast.AsyncFor)):
        return True
    if isinstance(element, ast.ExceptHandler):
        # The element only stands for the `except E as name:` binding;
        # the handler body is decomposed into its own elements.
        return element.type is not None and any(
            isinstance(node, ast.Call)
            for node in executed_nodes(element.type)
        )
    return any(isinstance(node, ast.Call) for node in executed_nodes(element))


def _catches_all(handler: ast.ExceptHandler) -> bool:
    """Whether a handler intercepts every exception.

    ``except:`` and ``except BaseException:`` are total; ``except
    Exception:`` is not (KeyboardInterrupt/SystemExit still escape), so
    cleanup that must hold on *all* paths needs the wider form.
    """
    if handler.type is None:
        return True
    node: ast.expr = handler.type
    if isinstance(node, ast.Attribute):
        return node.attr == "BaseException"
    return isinstance(node, ast.Name) and node.id == "BaseException"


def executed_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` skipping bodies that only run later (defs/lambdas)."""
    yield node
    if isinstance(node, SCOPES):
        return
    for child in ast.iter_child_nodes(node):
        yield from executed_nodes(child)


@dataclass
class _Unwind:
    """A cleanup region (``finally`` body or ``with`` exit) under build.

    ``conts`` accumulates every continuation block that control may
    proceed to after the cleanup ran; it is wired up once the region's
    body has been built.
    """

    entry: Block
    conts: list[Block] = field(default_factory=list)
    #: ``len(loop_stack)`` at creation -- break/continue only unwind
    #: through regions opened inside their own loop.
    loop_depth: int = 0
    #: ``with`` cleanups only serve abnormal paths; ``finally`` bodies
    #: also sit on the fall-through path.
    on_normal_path: bool = False

    def add_cont(self, block: Block) -> None:
        if block not in self.conts:
            self.conts.append(block)


class _Builder:
    """Single-use CFG builder for one function definition."""

    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.entry = self._block("entry")
        self.exit = self._block("exit")
        self.raise_exit = self._block("raise-exit")
        #: innermost-last stack of blocks exceptions currently flow to.
        self.exc_stack: list[Block] = [self.raise_exit]
        #: innermost-last ``(head, after)`` per enclosing loop.
        self.loop_stack: list[tuple[Block, Block]] = []
        #: innermost-last cleanup regions ``return``/``break`` unwind
        #: through.
        self.unwind_stack: list[_Unwind] = []

    def build(self) -> CFG:
        end = self._body(self.func.body, self.entry)
        if end is not None:
            self._edge(end, self.exit)
        return CFG(self.func, self.blocks, self.entry, self.exit, self.raise_exit)

    # ------------------------------------------------------------ plumbing

    def _block(self, label: str) -> Block:
        block = Block(len(self.blocks), label)
        self.blocks.append(block)
        return block

    def _edge(self, source: Block, target: Block) -> None:
        if target not in source.succ:
            source.succ.append(target)

    def _exc_edge(self, source: Block, target: Block) -> None:
        if target not in source.exc:
            source.exc.append(target)

    def _append(self, block: Block, element: Element) -> None:
        block.elements.append(element)
        if may_raise(element):
            self._exc_edge(block, self.exc_stack[-1])

    def _unwind_to(self, current: Block, target: Block, for_loop: bool) -> None:
        """Route an abnormal exit through enclosing cleanup regions.

        ``return`` unwinds through every region; ``break``/``continue``
        only through regions opened inside the innermost loop.
        """
        if for_loop:
            depth = len(self.loop_stack)
            chain = [r for r in self.unwind_stack if r.loop_depth >= depth]
        else:
            chain = list(self.unwind_stack)
        if not chain:
            self._edge(current, target)
            return
        self._edge(current, chain[-1].entry)
        for index in range(len(chain) - 1, 0, -1):
            chain[index].add_cont(chain[index - 1].entry)
        chain[0].add_cont(target)

    # ---------------------------------------------------------- statements

    def _body(
        self, stmts: list[ast.stmt], current: Optional[Block]
    ) -> Optional[Block]:
        """Build ``stmts`` starting at ``current``.

        Returns the open block after the sequence, or ``None`` when
        control cannot fall through (return/raise/break/continue on
        every path).  Dead statements after a terminator land in a
        fresh unreachable block so their structure still exists.
        """
        for stmt in stmts:
            if current is None:
                current = self._block("unreachable")
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.Return):
            self._append(current, stmt)
            self._unwind_to(current, self.exit, for_loop=False)
            return None
        if isinstance(stmt, ast.Raise):
            self._append(current, stmt)
            return None
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self._unwind_to(current, self.loop_stack[-1][1], for_loop=True)
            return None
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self._unwind_to(current, self.loop_stack[-1][0], for_loop=True)
            return None
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if _TRY_STAR is not None and isinstance(stmt, _TRY_STAR):
            return self._try(stmt, current)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        # Simple statement (including nested def/class, whose bodies are
        # separate CFGs): one element, in order.
        self._append(current, stmt)
        return current

    def _if(self, stmt: ast.If, current: Block) -> Optional[Block]:
        self._append(current, stmt.test)
        after = self._block("after-if")
        then_start = self._block("if-then")
        self._edge(current, then_start)
        then_end = self._body(stmt.body, then_start)
        if then_end is not None:
            self._edge(then_end, after)
        if stmt.orelse:
            else_start = self._block("if-else")
            self._edge(current, else_start)
            else_end = self._body(stmt.orelse, else_start)
            if else_end is not None:
                self._edge(else_end, after)
        else:
            self._edge(current, after)
        return after

    def _while(self, stmt: ast.While, current: Block) -> Block:
        head = self._block("loop-head")
        self._edge(current, head)
        self._append(head, stmt.test)
        after = self._block("after-loop")
        body_start = self._block("loop-body")
        self._edge(head, body_start)
        self.loop_stack.append((head, after))
        body_end = self._body(stmt.body, body_start)
        self.loop_stack.pop()
        if body_end is not None:
            self._edge(body_end, head)
        self._loop_else(stmt.orelse, head, after)
        return after

    def _for(self, stmt: Union[ast.For, ast.AsyncFor], current: Block) -> Block:
        self._append(current, stmt.iter)
        head = self._block("loop-head")
        self._edge(current, head)
        # The For node itself stands for "bind target from the iterator"
        # so domains see the target assignment once per entry.
        self._append(head, stmt)
        after = self._block("after-loop")
        body_start = self._block("loop-body")
        self._edge(head, body_start)
        self.loop_stack.append((head, after))
        body_end = self._body(stmt.body, body_start)
        self.loop_stack.pop()
        if body_end is not None:
            self._edge(body_end, head)
        self._loop_else(stmt.orelse, head, after)
        return after

    def _loop_else(
        self, orelse: list[ast.stmt], head: Block, after: Block
    ) -> None:
        if orelse:
            else_start = self._block("loop-else")
            self._edge(head, else_start)
            else_end = self._body(orelse, else_start)
            if else_end is not None:
                self._edge(else_end, after)
        else:
            self._edge(head, after)

    def _with(
        self, stmt: Union[ast.With, ast.AsyncWith], current: Block
    ) -> Optional[Block]:
        for item in stmt.items:
            self._append(current, item.context_expr)
            self._append(
                current,
                WithEnter(item, stmt.lineno, stmt.col_offset),
            )
        cleanup = self._block("with-cleanup")
        for item in reversed(stmt.items):
            cleanup.elements.append(
                WithExit(item, stmt.lineno, stmt.col_offset)
            )
        outer_exc = self.exc_stack[-1]
        record = _Unwind(cleanup, loop_depth=len(self.loop_stack))
        record.add_cont(outer_exc)
        self.exc_stack.append(cleanup)
        self.unwind_stack.append(record)
        body_start = self._block("with-body")
        self._edge(current, body_start)
        body_end = self._body(stmt.body, body_start)
        self.unwind_stack.pop()
        self.exc_stack.pop()
        for cont in record.conts:
            self._edge(cleanup, cont)
        if body_end is None:
            return None
        for item in reversed(stmt.items):
            body_end.elements.append(
                WithExit(item, stmt.lineno, stmt.col_offset)
            )
        return body_end

    def _try(self, stmt: ast.Try, current: Block) -> Optional[Block]:
        after = self._block("after-try")
        outer_exc = self.exc_stack[-1]
        record: Optional[_Unwind] = None
        if stmt.finalbody:
            fin_entry = self._block("finally")
            record = _Unwind(
                fin_entry,
                loop_depth=len(self.loop_stack),
                on_normal_path=True,
            )
            record.add_cont(outer_exc)
            self.unwind_stack.append(record)
            normal_cont = fin_entry
            escape_target = fin_entry
        else:
            normal_cont = after
            escape_target = outer_exc

        dispatch: Optional[Block] = None
        if stmt.handlers:
            dispatch = self._block("except-dispatch")
            # An exception no handler matches keeps propagating -- unless
            # a catch-all handler (`except:` / `except BaseException:`)
            # guarantees every raise is intercepted.
            if not any(_catches_all(handler) for handler in stmt.handlers):
                self._edge(dispatch, escape_target)
            body_exc: Block = dispatch
        else:
            body_exc = escape_target

        body_start = self._block("try-body")
        self._edge(current, body_start)
        self.exc_stack.append(body_exc)
        body_end = self._body(stmt.body, body_start)
        self.exc_stack.pop()

        # else runs after the body completed without raising; its own
        # exceptions are NOT caught by this try's handlers.
        self.exc_stack.append(escape_target)
        if body_end is not None and stmt.orelse:
            body_end = self._body(stmt.orelse, body_end)
        if body_end is not None:
            self._edge(body_end, normal_cont)
        for handler in stmt.handlers:
            assert dispatch is not None
            handler_start = self._block("except")
            self._edge(dispatch, handler_start)
            # The handler node stands for binding `except E as name:`.
            handler_start.elements.append(handler)
            handler_end = self._body(handler.body, handler_start)
            if handler_end is not None:
                self._edge(handler_end, normal_cont)
        self.exc_stack.pop()

        if record is not None:
            self.unwind_stack.pop()
            record.add_cont(after)
            fin_end = self._body(stmt.finalbody, record.entry)
            if fin_end is not None:
                for cont in record.conts:
                    self._edge(fin_end, cont)
        return after

    def _match(self, stmt: ast.Match, current: Block) -> Block:
        self._append(current, stmt.subject)
        after = self._block("after-match")
        for case in stmt.cases:
            case_start = self._block("match-case")
            self._edge(current, case_start)
            if case.guard is not None:
                self._append(case_start, case.guard)
            case_end = self._body(case.body, case_start)
            if case_end is not None:
                self._edge(case_end, after)
        self._edge(current, after)  # no case may match
        return after


_TRY_STAR = getattr(ast, "TryStar", None)


def build_cfg(func: FuncDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()
