"""Semantic validation of parsed MiniC programs.

The validator catches the errors most likely to produce confusing dynamic
failures: undeclared variables, arity mismatches, indexing scalars,
re-declaration in the same scope, ``break``/``continue`` outside loops, and
calls to unknown functions (intrinsics excepted).
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    For,
    If,
    Program,
    Return,
    Stmt,
    VarDecl,
    VarRef,
    While,
    walk_exprs,
)
from repro.runtime.intrinsics import INTRINSICS


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.vars: dict[str, int] = {}  # name -> array rank

    def declare(self, name: str, rank: int, line: int) -> None:
        if name in self.vars:
            raise ValidationError(f"redeclaration of {name!r}", line=line)
        self.vars[name] = rank

    def lookup(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None


def validate_program(program: Program) -> None:
    """Raise :class:`ValidationError` on the first semantic problem found."""
    func_arity = {f.name: len(f.params) for f in program.functions}
    globals_scope = _Scope()
    for g in program.globals:
        globals_scope.declare(g.name, len(g.dims), g.line)
        if g.init is not None:
            _check_expr(g.init, globals_scope, func_arity)

    seen_funcs: set[str] = set()
    for func in program.functions:
        if func.name in seen_funcs:
            raise ValidationError(f"duplicate function {func.name!r}", line=func.line)
        if func.name in INTRINSICS:
            raise ValidationError(
                f"function {func.name!r} shadows an intrinsic", line=func.line
            )
        seen_funcs.add(func.name)
        scope = _Scope(globals_scope)
        for param in func.params:
            scope.declare(param.name, param.array_rank, param.line)
        # The body's top level shares the parameter scope (as in C): a
        # declaration there may not redeclare a parameter.
        for stmt in func.body:
            _check_stmt(stmt, scope, func_arity, in_loop=False)


def _check_body(body: list[Stmt], scope: _Scope, funcs: dict[str, int], in_loop: bool) -> None:
    local = _Scope(scope)
    for stmt in body:
        _check_stmt(stmt, local, funcs, in_loop)


def _check_stmt(stmt: Stmt, scope: _Scope, funcs: dict[str, int], in_loop: bool) -> None:
    if isinstance(stmt, VarDecl):
        for dim in stmt.dims:
            _check_expr(dim, scope, funcs)
        if stmt.init is not None:
            _check_expr(stmt.init, scope, funcs)
        scope.declare(stmt.name, len(stmt.dims), stmt.line)
    elif isinstance(stmt, Assign):
        rank = scope.lookup(stmt.target.name)
        if rank is None:
            raise ValidationError(f"assignment to undeclared {stmt.target.name!r}", line=stmt.line)
        if isinstance(stmt.target, ArrayLV):
            if rank == 0:
                raise ValidationError(f"indexing scalar {stmt.target.name!r}", line=stmt.line)
            if len(stmt.target.indices) != rank:
                raise ValidationError(
                    f"{stmt.target.name!r} expects {rank} indices, got {len(stmt.target.indices)}",
                    line=stmt.line,
                )
            for ix in stmt.target.indices:
                _check_expr(ix, scope, funcs)
        elif rank != 0:
            raise ValidationError(
                f"cannot assign whole array {stmt.target.name!r}", line=stmt.line
            )
        _check_expr(stmt.value, scope, funcs)
    elif isinstance(stmt, If):
        _check_expr(stmt.cond, scope, funcs)
        _check_body(stmt.then_body, scope, funcs, in_loop)
        _check_body(stmt.else_body, scope, funcs, in_loop)
    elif isinstance(stmt, For):
        loop_scope = _Scope(scope)
        if stmt.init is not None:
            _check_stmt(stmt.init, loop_scope, funcs, in_loop)
        if stmt.cond is not None:
            _check_expr(stmt.cond, loop_scope, funcs)
        if stmt.step is not None:
            _check_stmt(stmt.step, loop_scope, funcs, in_loop)
        _check_body(stmt.body, loop_scope, funcs, in_loop=True)
    elif isinstance(stmt, While):
        _check_expr(stmt.cond, scope, funcs)
        _check_body(stmt.body, scope, funcs, in_loop=True)
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            _check_expr(stmt.value, scope, funcs)
    elif isinstance(stmt, (Break, Continue)):
        if not in_loop:
            kind = "break" if isinstance(stmt, Break) else "continue"
            raise ValidationError(f"{kind} outside loop", line=stmt.line)
    elif isinstance(stmt, ExprStmt):
        _check_expr(stmt.expr, scope, funcs)
    else:  # pragma: no cover - exhaustiveness guard
        raise ValidationError(f"unknown statement {stmt!r}", line=getattr(stmt, "line", None))


def _check_expr(expr: Expr, scope: _Scope, funcs: dict[str, int]) -> None:
    for node in walk_exprs(expr):
        if isinstance(node, VarRef):
            rank = scope.lookup(node.name)
            if rank is None:
                raise ValidationError(f"use of undeclared {node.name!r}", line=node.line)
        elif isinstance(node, ArrayRef):
            rank = scope.lookup(node.name)
            if rank is None:
                raise ValidationError(f"use of undeclared {node.name!r}", line=node.line)
            if rank == 0:
                raise ValidationError(f"indexing scalar {node.name!r}", line=node.line)
            if len(node.indices) != rank:
                raise ValidationError(
                    f"{node.name!r} expects {rank} indices, got {len(node.indices)}",
                    line=node.line,
                )
        elif isinstance(node, Call):
            if node.name in INTRINSICS:
                spec = INTRINSICS[node.name]
                if spec.arity is not None and len(node.args) != spec.arity:
                    raise ValidationError(
                        f"intrinsic {node.name!r} expects {spec.arity} args, got {len(node.args)}",
                        line=node.line,
                    )
            elif node.name in funcs:
                if len(node.args) != funcs[node.name]:
                    raise ValidationError(
                        f"function {node.name!r} expects {funcs[node.name]} args, "
                        f"got {len(node.args)}",
                        line=node.line,
                    )
            else:
                raise ValidationError(f"call to unknown function {node.name!r}", line=node.line)
