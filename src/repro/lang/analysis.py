"""Static analysis helpers over MiniC ASTs.

These helpers answer purely lexical questions used throughout the library:
which variables a statement reads/writes, which functions it calls, the loop
structure of a function, and source LOC.  Dynamic (dependence) questions are
the profiler's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Call,
    Expr,
    For,
    Function,
    If,
    Program,
    Stmt,
    VarDecl,
    VarRef,
    While,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)


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


def top_level_loops(body: list[Stmt]) -> list[For | While]:
    """Loops appearing in *body* (descending through ifs but not loops)."""
    loops: list[For | While] = []
    for stmt in body:
        if isinstance(stmt, (For, While)):
            loops.append(stmt)
        elif isinstance(stmt, If):
            loops.extend(top_level_loops(stmt.then_body))
            loops.extend(top_level_loops(stmt.else_body))
    return loops


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
    """Non-blank, non-comment-only lines of code, matching Table III's LOC."""
    count = 0
    in_block = False
    for raw in source.splitlines():
        line = raw.strip()
        if in_block:
            if "*/" in line:
                in_block = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block = True
                continue
            line = line.split("*/", 1)[1].strip()
        if not line or line.startswith("//"):
            continue
        count += 1
    return count


@dataclass
class LoopNestInfo:
    """Summary of a loop nest rooted at ``loop``."""

    loop: For | While
    depth: int
    inner: list["LoopNestInfo"] = field(default_factory=list)

    def flat(self) -> list[For | While]:
        loops = [self.loop]
        for child in self.inner:
            loops.extend(child.flat())
        return loops


def loop_nests(body: list[Stmt], depth: int = 0) -> list[LoopNestInfo]:
    """The loop-nest forest of *body*."""
    nests: list[LoopNestInfo] = []
    for stmt in body:
        if isinstance(stmt, (For, While)):
            info = LoopNestInfo(loop=stmt, depth=depth)
            info.inner = loop_nests(stmt.body, depth + 1)
            nests.append(info)
        elif isinstance(stmt, If):
            nests.extend(loop_nests(stmt.then_body, depth))
            nests.extend(loop_nests(stmt.else_body, depth))
    return nests


def max_loop_depth(func: Function) -> int:
    """Deepest loop nesting level in *func* (0 when loop-free)."""

    def depth_of(nests: list[LoopNestInfo]) -> int:
        best = 0
        for nest in nests:
            best = max(best, 1 + depth_of(nest.inner))
        return best

    return depth_of(loop_nests(func.body))
