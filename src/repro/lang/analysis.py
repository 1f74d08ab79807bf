"""Static analysis helpers over MiniC ASTs.

These helpers answer purely lexical questions used throughout the library:
which variables a statement reads/writes, which functions it calls, which
loops enclose a region, and source LOC.  Dynamic (dependence) questions are
the profiler's job.
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Call,
    Expr,
    For,
    Function,
    Program,
    Stmt,
    VarDecl,
    VarRef,
    While,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.lang.lexer import tokenize


def expr_reads(expr: Expr) -> set[str]:
    """Names of variables read by *expr* (arrays count as their base name)."""
    reads: set[str] = set()
    for node in walk_exprs(expr):
        if isinstance(node, VarRef):
            reads.add(node.name)
        elif isinstance(node, ArrayRef):
            reads.add(node.name)
    return reads


def expr_calls(expr: Expr) -> list[Call]:
    """All call expressions inside *expr*, in evaluation order."""
    return [node for node in walk_exprs(expr) if isinstance(node, Call)]


def stmt_reads(stmt: Stmt, recursive: bool = True) -> set[str]:
    """Variables read by *stmt*; with *recursive*, includes nested bodies."""
    reads: set[str] = set()
    stmts = walk_stmts([stmt]) if recursive else [stmt]
    for s in stmts:
        for expr in stmt_exprs(s):
            reads.update(expr_reads(expr))
        if isinstance(s, Assign) and s.op != "=":
            # Compound assignment also reads the target.
            reads.add(s.target.name)
    return reads


def stmt_writes(stmt: Stmt, recursive: bool = True) -> set[str]:
    """Variables written by *stmt*; with *recursive*, includes nested bodies."""
    writes: set[str] = set()
    stmts = walk_stmts([stmt]) if recursive else [stmt]
    for s in stmts:
        if isinstance(s, Assign):
            writes.add(s.target.name)
        elif isinstance(s, VarDecl) and (s.init is not None or not s.dims):
            writes.add(s.name)
    return writes


def stmt_calls(stmt: Stmt, recursive: bool = True) -> list[Call]:
    """Call expressions inside *stmt*, in source order."""
    calls: list[Call] = []
    stmts = walk_stmts([stmt]) if recursive else [stmt]
    for s in stmts:
        for expr in stmt_exprs(s):
            calls.extend(expr_calls(expr))
    return calls


def stmt_declares(stmt: Stmt, recursive: bool = True) -> set[str]:
    """Variable names declared by *stmt* (including nested declarations)."""
    names: set[str] = set()
    stmts = walk_stmts([stmt]) if recursive else [stmt]
    for s in stmts:
        if isinstance(s, VarDecl):
            names.add(s.name)
    return names


def stmt_lines(stmt: Stmt) -> set[int]:
    """All source lines covered by *stmt* including nested statements."""
    lines: set[int] = set()
    for s in walk_stmts([stmt]):
        lines.add(s.line)
        for expr in stmt_exprs(s):
            for node in walk_exprs(expr):
                if node.line:
                    lines.add(node.line)
    return lines


def function_loops(func: Function) -> list[For | While]:
    """All loops in *func*, in source order, at any nesting depth."""
    return [s for s in walk_stmts(func.body) if isinstance(s, (For, While))]


def enclosing_loops(program: Program, region: int) -> list[int]:
    """The loop regions enclosing *region*, innermost first (none for a
    function body or an unknown region).  The only walk up the static
    region tree's parents."""
    loops: list[int] = []
    reg = program.regions.get(region)
    while reg is not None and reg.parent is not None:
        reg = program.regions.get(reg.parent)
        if reg is not None and reg.kind == "loop":
            loops.append(reg.region_id)
    return loops


def loop_induction_vars(program: Program, loop: int) -> set[str]:
    """Induction variables of *loop* and every loop nested inside it."""
    region = program.regions.get(loop)
    if region is None or region.node is None:
        return set()
    names = set(getattr(region.node, "induction_vars", ()))
    for other in program.regions.values():
        if other.node is not None and loop in enclosing_loops(
            program, other.region_id
        ):
            names |= other.node.induction_vars
    return names


def non_escaping_names(program: Program, loop: int) -> set[str]:
    """Names that cannot be observed outside the loop's function: declared
    locals and by-value scalar parameters.  Only these may be privatized."""
    region = program.regions.get(loop)
    if region is None or not program.has_function(region.function):
        return set()
    func = program.function(region.function)
    names = {p.name for p in func.params if not p.is_array and not p.by_ref}
    for stmt in walk_stmts(func.body):
        if isinstance(stmt, VarDecl):
            names.add(stmt.name)
    return names


def called_functions(func: Function, program: Program) -> list[Function]:
    """User functions called directly from *func* (unique, in call order)."""
    seen: set[str] = set()
    out: list[Function] = []
    for stmt in func.body:
        for call in stmt_calls(stmt):
            if call.name not in seen and program.has_function(call.name):
                seen.add(call.name)
                out.append(program.function(call.name))
    return out


def is_recursive(func: Function, program: Program) -> bool:
    """True when *func* can reach itself through direct calls."""
    seen: set[str] = set()
    stack = [func.name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if not program.has_function(name):
            continue
        for callee in called_functions(program.function(name), program):
            if callee.name == func.name:
                return True
            stack.append(callee.name)
    return False


def array_names(program: Program) -> set[str]:
    """Every name bound to an array anywhere in *program* (globals,
    parameters, declarations)."""
    names: set[str] = set()
    for g in program.globals:
        if g.dims:
            names.add(g.name)
    for func in program.functions:
        for param in func.params:
            if param.is_array:
                names.add(param.name)
        for stmt in walk_stmts(func.body):
            if isinstance(stmt, VarDecl) and stmt.dims:
                names.add(stmt.name)
    return names


def source_loc(source: str) -> int:
    """Lines holding at least one token — Table III's LOC, which counts
    neither blank lines nor lines that only hold comments."""
    return len({tok.line for tok in tokenize(source)[:-1]})
