"""Reduction detection — Algorithm 3 (Section III-D).

A loop variable is a reduction candidate when

1. it participates in an inter-iteration (loop-carried) RAW dependence of
   the loop, and
2. it is written at exactly one source line inside the loop's dynamic
   extent, and
3. it is read at exactly that same line inside the loop.

Because both conditions are evaluated over the *dynamic* access tables, the
pattern is found even when the accumulating statement lives in a callee
(Listing 9's ``sum_module``) — precisely where the static comparators of
Table VI fail.

As an extension beyond the paper (its future work), :func:`infer_operator`
identifies the associative operator at the reported line when the statement
has one of the recognizable shapes.
"""

from __future__ import annotations

from repro.lang.analysis import loop_induction_vars, stmt_reads
from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Call,
    Program,
    VarLV,
    VarRef,
)
from repro.patterns.framework import AnalysisResult, Detector
from repro.patterns.result import ReductionCandidate
from repro.profiling.model import RAW, WAW, Profile

_COMMUTATIVE = {"+", "*"}


def detect_reductions(
    program: Program, profile: Profile, loop: int
) -> list[ReductionCandidate]:
    """Run Algorithm 3 on one loop region; returns candidates in var order."""
    # induction variables, nested loops' too, are loop bookkeeping
    induction = loop_induction_vars(program, loop)

    # The paper's pass instruments only the instructions *creating*
    # inter-iteration dependences (Section III-D), so the write/read line
    # sets come from the carried dependence records — not from every access
    # that happened to execute inside the loop's dynamic extent (a nested
    # recursive call's local initialization must not count).
    write_lines_of: dict[str, set[int]] = {}
    read_lines_of: dict[str, set[int]] = {}
    carried_raw_vars: set[str] = set()
    carried_waw_vars: set[str] = set()
    for dep in profile.deps:
        if dep.var in induction:
            continue
        if dep.carrier == loop:
            if dep.kind == RAW:
                carried_raw_vars.add(dep.var)
                write_lines_of.setdefault(dep.var, set()).add(dep.src_line)
                read_lines_of.setdefault(dep.var, set()).add(dep.dst_line)
            elif dep.kind == WAW:
                carried_waw_vars.add(dep.var)
                write_lines_of.setdefault(dep.var, set()).update(
                    (dep.src_line, dep.dst_line)
                )
            else:  # WAR
                read_lines_of.setdefault(dep.var, set()).add(dep.src_line)
                write_lines_of.setdefault(dep.var, set()).add(dep.dst_line)
        elif dep.region == loop and dep.carrier is None:
            # Loop-independent flow *within* the loop: a value consumed at
            # another line in the same iteration (``s += A[i]; B[i] = s;``
            # is a prefix sum, not a reduction).
            if dep.kind == RAW:
                read_lines_of.setdefault(dep.var, set()).add(dep.dst_line)
    out: list[ReductionCandidate] = []
    for var in sorted(carried_raw_vars):
        # Refinement over the paper's Algorithm 3 (DESIGN.md §5): a true
        # accumulator is *rewritten* every iteration, so its location also
        # shows a loop-carried WAW.  An array recurrence like
        # ``path[i] = path[i-1] + ...`` writes each location once (no
        # carried WAW) yet satisfies the single-line write/read test; the
        # WAW evidence filters it out.
        if var not in carried_waw_vars:
            continue
        write_lines = write_lines_of.get(var, set())
        if len(write_lines) != 1:
            continue
        read_lines = read_lines_of.get(var, set())
        if read_lines != write_lines:
            continue
        line = next(iter(write_lines))
        out.append(
            ReductionCandidate(
                loop=loop,
                var=var,
                line=line,
                operator=infer_operator(program, line, var),
            )
        )
    return out


def infer_operator(program: Program, line: int, var: str) -> str | None:
    """Identify the reduction operator at *line*, if the shape is recognized.

    Recognized shapes (``v`` the reduction variable)::

        v += e;   v -= e;  v *= e;           -> '+', '-', '*'
        v = v + e;  v = e + v;  v = v * e;   -> '+', '*'
        v = min(v, e);  v = max(v, e);       -> 'min', 'max'
    """
    for stmt in program.stmts.values():
        if stmt.line != line or not isinstance(stmt, Assign):
            continue
        if not isinstance(stmt.target, VarLV) or stmt.target.name != var:
            continue
        if stmt.op in ("+=", "-=", "*="):
            if var in stmt_reads(stmt) - {var} or _mentions(stmt.value, var):
                return None  # v appears on the RHS too: not a simple reduction
            return stmt.op[0]
        if stmt.op == "=":
            value = stmt.value
            if isinstance(value, BinOp) and value.op in _COMMUTATIVE | {"-"}:
                left_is_var = isinstance(value.left, VarRef) and value.left.name == var
                right_is_var = isinstance(value.right, VarRef) and value.right.name == var
                if left_is_var != right_is_var:
                    if value.op == "-" and right_is_var:
                        return None  # v = e - v is not associative
                    other = value.right if left_is_var else value.left
                    if not _mentions(other, var):
                        return value.op
            if isinstance(value, Call) and value.name in ("min", "max"):
                var_args = [
                    arg
                    for arg in value.args
                    if isinstance(arg, VarRef) and arg.name == var
                ]
                if len(var_args) == 1:
                    return value.name
    return None


def _mentions(expr, var: str) -> bool:
    from repro.lang.ast_nodes import walk_exprs

    return any(isinstance(n, VarRef) and n.name == var for n in walk_exprs(expr))


def reduction_found(result: AnalysisResult) -> bool:
    """Table VI's verdict for the dynamic detector: Algorithm 3 found a
    candidate in a hotspot loop or in any classified loop."""
    return bool(result.reductions) or any(
        lc.reductions for lc in result.loop_classes.values()
    )


class ReductionDetector(Detector):
    """Algorithm 3's candidates per hotspot loop, read from the loop's
    classification (the only place Algorithm 3 runs)."""

    name = "reductions"

    def run(self, ctx, result, trace):
        from repro.patterns.framework import Evidence

        evidence = []
        for hotspot in result.hotspots:
            if hotspot.kind != "loop":
                continue
            trace.count("hotspot-loops")
            candidates = ctx.loop_class(hotspot.region).reductions
            if candidates:
                result.reductions[hotspot.region] = candidates
                trace.count("candidates", len(candidates))
                evidence.extend(
                    Evidence(
                        detector=self.name,
                        kind="reduction",
                        regions=(hotspot.region,),
                        status="accepted",
                        reason="algorithm-3-candidate",
                        detail=f"{c.var} @ line {c.line} ({c.operator or '?'})",
                    )
                    for c in candidates
                )
        return evidence
