"""Static access-site table for MiniC programs.

Every memory-access event the interpreter can emit originates at one of a
small, statically known set of AST positions — a ``VarRef`` read, an
``ArrayRef`` element read, the read/write halves of an assignment, a scalar
declaration's initializing store, or a by-value parameter store.  The
profiler only ever needs the ``(line, var, element)`` triple of an access,
never the expression itself, so this module indexes those positions once per
program into a :class:`SiteTable` and tags each AST node with its site id
(``_sid``).  The interpreter and the closure compiler then emit compact
``(tag, addr, sid)`` event tuples instead of re-packing the same strings and
flags into every event, and the profiler keys its derivation memos and its
first-touch state by sid.  An event's tag carries the access direction, so
the table holds none.
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    Program,
    VarDecl,
    VarRef,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)


class SiteTable:
    """Parallel arrays describing each static access site.

    ``lines[sid]``, ``vars[sid]`` and ``elements[sid]`` give the source
    line, variable name and array-element flag of site ``sid``.
    """

    __slots__ = ("lines", "vars", "elements")

    def __init__(self) -> None:
        self.lines: list[int] = []
        self.vars: list[str] = []
        self.elements: list[bool] = []

    def _add(self, line: int, var: str, element: bool) -> int:
        sid = len(self.lines)
        self.lines.append(line)
        self.vars.append(var)
        self.elements.append(element)
        return sid


def build_site_table(program: Program) -> SiteTable:
    """Index every static access site and tag the AST nodes with sids."""
    table = SiteTable()
    for func in program.functions:
        for param in func.params:
            if not (param.is_array or param.by_ref):
                # by-value parameter store, attributed to the signature line
                param._sid = table._add(func.line, param.name, False)
        for stmt in walk_stmts(func.body):
            kind = type(stmt)
            if kind is VarDecl:
                if stmt.init is not None and not stmt.dims:
                    stmt._sid = table._add(stmt.line, stmt.name, False)
            elif kind is Assign:
                element = type(stmt.target) is ArrayLV
                # the read half only fires for compound ops, but a sid is
                # cheap and the compiler picks the variant it needs
                stmt._sid_read = table._add(stmt.line, stmt.target.name, element)
                stmt._sid_write = table._add(stmt.line, stmt.target.name, element)
            for root in stmt_exprs(stmt):
                for expr in walk_exprs(root):
                    ekind = type(expr)
                    if ekind is VarRef:
                        expr._sid = table._add(expr.line, expr.name, False)
                    elif ekind is ArrayRef:
                        expr._sid = table._add(expr.line, expr.name, True)
    return table


def get_site_table(program: Program) -> SiteTable:
    """The program's :class:`SiteTable`, built once and cached on it."""
    table = getattr(program, "_site_table", None)
    if table is None:
        table = build_site_table(program)
        program._site_table = table
    return table
