"""Plain recursive AST walks and per-helper CU units: the oracle for the
iterative walks and the one-walk units of :mod:`repro.cu.detect`.

``walk_stmts`` and ``walk_exprs`` are recursive generators with the
library's preorder.  ``flatten_units`` builds each statement's unit from
seven helpers, each its own walk over the statement's subtree: the five
``stmt_*`` helpers of :mod:`repro.lang.analysis` and the two containment
tests below, which also decide whether an ``if`` is transparent.  They
recurse as deep as the AST nests.
"""

from __future__ import annotations

from repro.cu.detect import _Unit
from repro.lang.analysis import (
    expr_reads,
    stmt_calls,
    stmt_declares,
    stmt_lines,
    stmt_reads,
    stmt_writes,
)
from repro.lang.ast_nodes import (
    ArrayRef,
    BinOp,
    Break,
    Call,
    Continue,
    For,
    If,
    Return,
    UnaryOp,
    VarDecl,
    While,
)


def child_stmts(stmt):
    """The immediate child statements of *stmt* (bodies flattened)."""
    if isinstance(stmt, If):
        yield from stmt.then_body
        yield from stmt.else_body
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield stmt.init
        if stmt.step is not None:
            yield stmt.step
        yield from stmt.body
    elif isinstance(stmt, While):
        yield from stmt.body


def walk_stmts(body):
    for stmt in body:
        yield stmt
        yield from walk_stmts(list(child_stmts(stmt)))


def walk_exprs(expr):
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, ArrayRef):
        for ix in expr.indices:
            yield from walk_exprs(ix)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_exprs(arg)


def contains_call_or_loop(stmt, user_funcs):
    for s in walk_stmts([stmt]):
        if isinstance(s, (For, While)):
            return True
        for call in stmt_calls(s, recursive=False):
            if call.name in user_funcs:
                return True
    return False


def contains_return(stmt):
    return any(isinstance(s, Return) for s in walk_stmts([stmt]))


def unit_for_stmt(stmt, user_funcs):
    calls = [c.name for c in stmt_calls(stmt) if c.name in user_funcs]
    if isinstance(stmt, (For, While)):
        kind = "loop"
    elif calls:
        kind = "call"
    elif isinstance(stmt, Return) or (isinstance(stmt, If) and contains_return(stmt)):
        kind = "return"
    else:
        kind = "plain"
    return _Unit(
        kind=kind,
        stmts=[stmt],
        lines=stmt_lines(stmt),
        reads=stmt_reads(stmt),
        writes=stmt_writes(stmt),
        declares=stmt_declares(stmt),
        callees=calls,
        early_exit=isinstance(stmt, If) and contains_return(stmt),
    )


def flatten_units(body, user_funcs):
    units = []
    for stmt in body:
        if isinstance(stmt, If) and contains_call_or_loop(stmt, user_funcs):
            guard = _Unit(kind="guard", stmts=[stmt], lines={stmt.line})
            guard.reads = expr_reads(stmt.cond)
            units.append(guard)
            units.extend(flatten_units(stmt.then_body, user_funcs))
            units.extend(flatten_units(stmt.else_body, user_funcs))
            continue
        if isinstance(stmt, (Break, Continue)):
            continue
        if isinstance(stmt, Return) and stmt.value is None:
            continue
        if isinstance(stmt, VarDecl) and stmt.init is None and not stmt.dims:
            continue
        units.append(unit_for_stmt(stmt, user_funcs))
    return units
