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
flags into every event, and the profiler keys its derivation memos by sid.

The table also answers one static question the profiler exploits:
:attr:`SiteTable.alias_free`.  MiniC has exactly one aliasing mechanism —
array and ``&``-reference parameters share the caller's storage.  If every
such argument is passed under the *same name* as the parameter that receives
it (``f(A)`` into ``float A[]``), then every address in the program is only
ever accessed under a single variable name, and the profiler's per-iteration
first-touch bookkeeping can skip work for variables whose ``read_first``
classification is already decided (see ``repro.profiling.profiler``).
Programs that rename storage across a call boundary simply run with the
skip disabled — the analysis is a pure go-faster flag, never a semantics
change.
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    Call,
    Program,
    VarDecl,
    VarRef,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)


class SiteTable:
    """Parallel arrays describing each static access site.

    ``lines[sid]``, ``vars[sid]``, ``writes[sid]`` and ``elements[sid]``
    give the source line, variable name, direction, and array-element flag
    of site ``sid``.
    """

    __slots__ = ("lines", "vars", "writes", "elements", "alias_free")

    def __init__(self) -> None:
        self.lines: list[int] = []
        self.vars: list[str] = []
        self.writes: list[bool] = []
        self.elements: list[bool] = []
        self.alias_free = True

    def _add(self, line: int, var: str, write: bool, element: bool) -> int:
        sid = len(self.lines)
        self.lines.append(line)
        self.vars.append(var)
        self.writes.append(write)
        self.elements.append(element)
        return sid


def _check_alias_freedom(program: Program, table: SiteTable) -> None:
    """``alias_free`` iff shared storage never changes name across a call.

    By-value scalars copy, and every declaration allocates fresh storage, so
    the only way one address gets two names is an array or ``&``-reference
    argument whose name differs from the receiving parameter's.
    """
    funcs = {f.name: f for f in program.functions}
    for func in program.functions:
        for stmt in walk_stmts(func.body):
            for root in stmt_exprs(stmt):
                for expr in walk_exprs(root):
                    if type(expr) is not Call:
                        continue
                    callee = funcs.get(expr.name)
                    if callee is None:
                        continue  # intrinsic or unknown: no shared storage
                    if len(expr.args) != len(callee.params):
                        table.alias_free = False
                        return
                    for param, arg in zip(callee.params, expr.args):
                        if not (param.is_array or param.by_ref):
                            continue
                        if type(arg) is not VarRef or arg.name != param.name:
                            table.alias_free = False
                            return


def build_site_table(program: Program) -> SiteTable:
    """Index every static access site and tag the AST nodes with sids."""
    table = SiteTable()
    for func in program.functions:
        for param in func.params:
            if not (param.is_array or param.by_ref):
                # by-value parameter store, attributed to the signature line
                param._sid = table._add(func.line, param.name, True, False)
        for stmt in walk_stmts(func.body):
            kind = type(stmt)
            if kind is VarDecl:
                if stmt.init is not None and not stmt.dims:
                    stmt._sid = table._add(stmt.line, stmt.name, True, False)
            elif kind is Assign:
                element = type(stmt.target) is ArrayLV
                # the read half only fires for compound ops, but a sid is
                # cheap and the compiler picks the variant it needs
                stmt._sid_read = table._add(stmt.line, stmt.target.name, False, element)
                stmt._sid_write = table._add(stmt.line, stmt.target.name, True, element)
            for root in stmt_exprs(stmt):
                for expr in walk_exprs(root):
                    ekind = type(expr)
                    if ekind is VarRef:
                        expr._sid = table._add(expr.line, expr.name, False, False)
                    elif ekind is ArrayRef:
                        expr._sid = table._add(expr.line, expr.name, False, True)
    _check_alias_freedom(program, table)
    return table


def get_site_table(program: Program) -> SiteTable:
    """The program's :class:`SiteTable`, built once and cached on it."""
    table = getattr(program, "_site_table", None)
    if table is None:
        table = build_site_table(program)
        program._site_table = table
    return table
