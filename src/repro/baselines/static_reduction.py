"""Static (AST-only) reduction detectors modelling icc and Sambamba.

Both detectors share :func:`find_lexical_reductions`, which recognizes the
scalar-accumulator statement shapes a static analysis can prove inside a
loop's *lexical* extent.  The subclasses differ only in their feasibility
rules — the knobs that reproduce Table VI's hit/miss/NA pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.lang.analysis import is_recursive, function_loops, stmt_calls
from repro.lang.ast_nodes import (
    ArrayLV,
    Assign,
    BinOp,
    For,
    Function,
    Program,
    Stmt,
    VarLV,
    VarRef,
    While,
    walk_stmts,
)


class Verdict(Enum):
    """Per-program outcome of a static detector."""

    FOUND = "found"
    MISSED = "missed"
    NOT_APPLICABLE = "NA"


@dataclass(frozen=True)
class StaticFinding:
    """One statically-proven reduction."""

    function: str
    loop_line: int
    var: str
    operator: str


def _loop_induction(loop: For | While) -> set[str]:
    return set(getattr(loop, "induction_vars", frozenset()))


def _accumulator_shape(stmt: Stmt) -> tuple[str, str] | None:
    """(var, op) when *stmt* is a recognizable scalar accumulation."""
    if not isinstance(stmt, Assign) or not isinstance(stmt.target, VarLV):
        return None
    var = stmt.target.name
    if stmt.op in ("+=", "*="):
        return var, stmt.op[0]
    if stmt.op == "=" and isinstance(stmt.value, BinOp) and stmt.value.op in ("+", "*"):
        left = stmt.value.left
        right = stmt.value.right
        left_is_var = isinstance(left, VarRef) and left.name == var
        right_is_var = isinstance(right, VarRef) and right.name == var
        if left_is_var != right_is_var:
            return var, stmt.value.op
    return None


def find_lexical_reductions(
    program: Program, loop: For | While
) -> list[StaticFinding]:
    """Scalar accumulations provable inside *loop*'s lexical extent."""
    induction = _loop_induction(loop)
    body_stmts = list(walk_stmts(loop.body))
    # Induction variables of nested loops are loop bookkeeping, not
    # accumulators, even though their step clause matches the shape.
    for stmt in body_stmts:
        if isinstance(stmt, (For, While)):
            induction |= _loop_induction(stmt)
    # Count writes per variable: an accumulator must have exactly one write.
    writes: dict[str, int] = {}
    for stmt in body_stmts:
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarLV):
            writes[stmt.target.name] = writes.get(stmt.target.name, 0) + 1
    out: list[StaticFinding] = []
    for stmt in body_stmts:
        shape = _accumulator_shape(stmt)
        if shape is None:
            continue
        var, op = shape
        if var in induction or writes.get(var, 0) != 1:
            continue
        out.append(
            StaticFinding(function="", loop_line=loop.line, var=var, operator=op)
        )
    return out


class StaticReductionDetector:
    """Base class; subclasses set the feasibility rules."""

    name = "static"

    def applicable(self, program: Program) -> bool:
        """Whether the modelled tool can process *program* at all."""
        return True

    def loop_feasible(self, program: Program, func: Function, loop: For | While) -> bool:
        """Whether the modelled tool would attempt this loop."""
        return True

    def analyze(self, program: Program) -> tuple[Verdict, list[StaticFinding]]:
        """Run the detector over every loop of every function."""
        if not self.applicable(program):
            return Verdict.NOT_APPLICABLE, []
        findings: list[StaticFinding] = []
        seen: set[tuple[str, str]] = set()
        for func in program.functions:
            for loop in function_loops(func):
                if not self.loop_feasible(program, func, loop):
                    continue
                for f in find_lexical_reductions(program, loop):
                    # report each accumulator once, for its innermost loop
                    key = (func.name, f.var)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        StaticFinding(
                            function=func.name,
                            loop_line=f.loop_line,
                            var=f.var,
                            operator=f.operator,
                        )
                    )
        return (Verdict.FOUND if findings else Verdict.MISSED), findings


def _function_writes_arrays(func: Function) -> bool:
    for stmt in walk_stmts(func.body):
        if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayLV):
            return True
    return False


def _loop_has_user_calls(program: Program, loop: For | While) -> bool:
    user = {f.name for f in program.functions}
    return any(c.name in user for c in stmt_calls(loop))


def _loop_calls_loop_bearing(program: Program, loop: For | While) -> bool:
    user = {f.name for f in program.functions}
    for call in stmt_calls(loop):
        if call.name in user and function_loops(program.function(call.name)):
            return True
    return False


class IccLikeDetector(StaticReductionDetector):
    """Models icc's conservative auto-reduction.

    icc compiles anything (never NA) but proves a reduction only when

    * the loop body contains no user-function calls (side effects unknown),
    * the enclosing function writes no arrays (pointer parameters might
      alias, so loads feeding the accumulator cannot be licensed), and
    * the accumulator is a plain scalar in the loop's lexical extent.

    This reproduces Table VI's icc row: ``sum_local`` is found; nqueens and
    kmeans fail on calls; bicg/gesummv fail on the array-write alias rule;
    ``sum_module`` is invisible lexically.
    """

    name = "icc"

    def loop_feasible(self, program: Program, func: Function, loop: For | While) -> bool:
        if _loop_has_user_calls(program, loop):
            return False
        if _function_writes_arrays(func):
            return False
        return True


class SambambaLikeDetector(StaticReductionDetector):
    """Models Sambamba's more precise but less robust static analysis.

    Parameter arrays are assumed non-aliasing, so array-writing kernels like
    bicg/gesummv are fine; but the tool bails out (NA) on programs with
    recursion or hot loops calling loop-bearing functions — Table VI's NA
    entries for nqueens and kmeans.
    """

    name = "sambamba"

    def applicable(self, program: Program) -> bool:
        for func in program.functions:
            if is_recursive(func, program):
                return False
            for loop in function_loops(func):
                if _loop_calls_loop_bearing(program, loop):
                    return False
        return True

    def loop_feasible(self, program: Program, func: Function, loop: For | While) -> bool:
        # Calls with unknown bodies still defeat the intra-procedural proof.
        return not _loop_has_user_calls(program, loop)
