"""Loop fusion as an AST rewrite.

Given a fusion candidate (both loops do-all, ``a = 1, b = 0``), merge the
second loop's body into the first.  The loops must be ``for`` loops in the
same statement list with structurally identical ranges; the second loop's
induction variable is renamed to the first's throughout its body.

The rewritten program is *re-emitted and re-parsed*, so statement ids,
region ids, and line numbers are consistent for further analysis, and it is
re-validated — a fused program is a first-class MiniC program.
"""

from __future__ import annotations

import copy

from repro.errors import ReproError
from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    For,
    Program,
    Stmt,
    VarDecl,
    VarLV,
    VarRef,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.lang.parser import parse_program
from repro.lang.printer import format_expr, format_program
from repro.lang.validate import validate_program


class FusionError(ReproError):
    """The requested loops cannot be fused."""


def _find_loop_parent(body: list[Stmt], region: int) -> tuple[list[Stmt], int] | None:
    for i, stmt in enumerate(body):
        if isinstance(stmt, For) and stmt.region_id == region:
            return body, i
        for child_body in _child_bodies(stmt):
            found = _find_loop_parent(child_body, region)
            if found is not None:
                return found
    return None


def _child_bodies(stmt: Stmt) -> list[list[Stmt]]:
    from repro.lang.ast_nodes import If, While

    if isinstance(stmt, If):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, (For, While)):
        return [stmt.body]
    return []


def _range_signature(loop: For) -> tuple[str, str, str]:
    def fmt(node) -> str:
        if node is None:
            return ""
        if isinstance(node, VarDecl):
            init = format_expr(node.init) if node.init is not None else ""
            return f"{node.type}=:{init}"
        if isinstance(node, Assign):
            return f"{node.op}:{format_expr(node.value)}"
        return format_expr(node)

    return fmt(loop.init), _norm_cond(loop), fmt(loop.step)


def _norm_cond(loop: For) -> str:
    from repro.lang.printer import format_expr as fe

    cond = loop.cond
    if cond is None:
        return ""
    text = fe(cond)
    var = _induction_name(loop)
    return text.replace(var, "<iv>") if var else text


def _induction_name(loop: For) -> str | None:
    if isinstance(loop.init, VarDecl):
        return loop.init.name
    if isinstance(loop.init, Assign) and isinstance(loop.init.target, VarLV):
        return loop.init.target.name
    return None


def _rename_var(stmts: list[Stmt], old: str, new: str) -> None:
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, (VarLV, ArrayLV)) and stmt.target.name == old:
                stmt.target.name = new
        if isinstance(stmt, VarDecl) and stmt.name == old:
            raise FusionError(
                f"second loop redeclares induction variable {old!r}"
            )
        for expr in stmt_exprs(stmt):
            for node in walk_exprs(expr):
                if isinstance(node, (VarRef, ArrayRef)) and node.name == old:
                    node.name = new


def fuse_loops(program: Program, region_x: int, region_y: int) -> Program:
    """Fuse loop *region_y* into loop *region_x*; returns a new Program."""
    work = copy.deepcopy(program)

    loc_x = None
    loc_y = None
    for func in work.functions:
        loc_x = loc_x or _find_loop_parent(func.body, region_x)
        loc_y = loc_y or _find_loop_parent(func.body, region_y)
    if loc_x is None or loc_y is None:
        raise FusionError("loop region not found in program")
    body_x, ix = loc_x
    body_y, iy = loc_y
    if body_x is not body_y:
        raise FusionError("loops are not in the same statement list")
    loop_x = body_x[ix]
    loop_y = body_y[iy]
    if not isinstance(loop_x, For) or not isinstance(loop_y, For):
        raise FusionError("only for-loops can be fused")

    iv_x = _induction_name(loop_x)
    iv_y = _induction_name(loop_y)
    if iv_x is None or iv_y is None:
        raise FusionError("loops lack canonical induction variables")
    if _range_signature(loop_x) != _range_signature(loop_y):
        raise FusionError(
            f"loop ranges differ: {_range_signature(loop_x)} vs "
            f"{_range_signature(loop_y)}"
        )

    fused_body = list(loop_y.body)
    if iv_y != iv_x:
        _rename_var(fused_body, iv_y, iv_x)
    loop_x.body = list(loop_x.body) + fused_body
    del body_y[iy]

    # Re-emit and re-parse so ids, lines, and regions are consistent.
    source = format_program(work)
    fused = parse_program(source)
    validate_program(fused)
    return fused
