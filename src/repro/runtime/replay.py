"""Reordered-execution validation of loop classifications.

A loop is do-all exactly when its iterations can run in any order.  The
profiler *infers* this from dependences; this module *checks* it
empirically: re-execute the program with one loop's iterations permuted
(reversed, shuffled, or block-interleaved as a parallel chunk schedule
would) and compare all observable outputs against the serial run.

This is the dynamic counterpart of the paper's validation-by-manual-
parallelization: if a loop the detector called do-all changes the
program's result under reordering, the classification was wrong (the tool
has a bug or the dependence coverage was insufficient for this input) —
the test suite uses this as an oracle over every registry benchmark.

Only *canonical* loops can be replayed: ``for (i = start; i <
bound; i += step)`` with a loop-invariant bound and step.  The replayer
evaluates the induction sequence once, then runs the body per value in the
requested order.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError
from repro.lang.ast_nodes import Assign, For, IntLit, Program, VarDecl, VarLV
from repro.runtime import costs
from repro.runtime.interpreter import Interpreter, RunResult, _BreakSignal, _ContinueSignal
from repro.runtime.values import ScalarCell


class ReplayError(ReproError):
    """The requested loop cannot be replayed out of order."""


def _canonical_parts(loop: For):
    """(induction name, start expr, cond op, bound expr, step const)."""
    if isinstance(loop.init, VarDecl):
        name = loop.init.name
        start = loop.init.init
    elif isinstance(loop.init, Assign) and isinstance(loop.init.target, VarLV):
        name = loop.init.target.name
        start = loop.init.value
    else:
        raise ReplayError("loop lacks a canonical init clause")
    cond = loop.cond
    from repro.lang.ast_nodes import BinOp, VarRef

    if (
        not isinstance(cond, BinOp)
        or cond.op not in ("<", "<=", ">", ">=")
        or not isinstance(cond.left, VarRef)
        or cond.left.name != name
    ):
        raise ReplayError("loop condition is not a canonical bound test")
    step = loop.step
    if (
        not isinstance(step, Assign)
        or not isinstance(step.target, VarLV)
        or step.target.name != name
        or step.op not in ("+=", "-=")
        or not isinstance(step.value, IntLit)
    ):
        raise ReplayError("loop step is not a constant increment")
    delta = step.value.value if step.op == "+=" else -step.value.value
    if delta == 0:
        raise ReplayError("zero step")
    return name, start, cond.op, cond.right, delta


class ReplayInterpreter(Interpreter):
    """Interpreter that executes one chosen loop in a permuted order."""

    def __init__(
        self,
        program: Program,
        target_region: int,
        order: str = "reverse",
        seed: int = 0,
        chunks: int = 4,
        max_cost: int = 500_000_000,
    ) -> None:
        super().__init__(program, sink=None, max_cost=max_cost)
        region = program.regions.get(target_region)
        if region is None or region.kind != "loop":
            raise ReplayError(f"region {target_region} is not a loop")
        if not isinstance(region.node, For):
            raise ReplayError("only canonical for-loops can be replayed")
        _canonical_parts(region.node)  # fail fast on non-canonical shapes
        self.target_region = target_region
        self.order = order
        self.seed = seed
        self.chunks = chunks

    def _permute(self, values: list[int]) -> list[int]:
        if self.order == "reverse":
            return list(reversed(values))
        if self.order == "shuffle":
            rng = random.Random(self.seed)
            shuffled = list(values)
            rng.shuffle(shuffled)
            return shuffled
        if self.order == "interleave":
            # the order a cyclic P-thread schedule would interleave work in
            p = max(1, min(self.chunks, len(values)))
            out: list[int] = []
            for lane in range(p):
                out.extend(values[lane::p])
            return out
        raise ReplayError(f"unknown order {self.order!r}")

    def _exec_for(self, loop: For, frame) -> None:
        if loop.region_id != self.target_region:
            super()._exec_for(loop, frame)
            return
        name, start_expr, op, bound_expr, delta = _canonical_parts(loop)
        start = int(self._eval(start_expr, frame))
        bound = int(self._eval(bound_expr, frame))

        values: list[int] = []
        i = start
        while (
            (op == "<" and i < bound)
            or (op == "<=" and i <= bound)
            or (op == ">" and i > bound)
            or (op == ">=" and i >= bound)
        ):
            values.append(i)
            i += delta
            if len(values) > 10_000_000:  # pragma: no cover - runaway guard
                raise ReplayError("loop bound does not converge")

        # bind the induction variable exactly as the init clause would
        if isinstance(loop.init, VarDecl):
            self._exec_decl(loop.init, frame)
            cell = frame.vars[name]
        else:
            slot = self._lookup(name, frame, loop.line)
            cell = slot
        if not isinstance(cell, ScalarCell):
            raise ReplayError("induction variable is not a scalar")

        for value in self._permute(values):
            cell.value = value
            try:
                self._exec_body(loop.body, frame)
            except _ContinueSignal:
                continue
            except _BreakSignal:
                raise ReplayError(
                    "loop breaks early: iteration set is data-dependent"
                )
        # leave the induction variable past the end, like the serial loop
        if values:
            cell.value = values[-1] + delta
        else:
            cell.value = start
        self._charge(loop.line, costs.BRANCH)


def run_with_loop_order(
    program: Program,
    entry: str,
    args: Sequence[Any],
    loop_region: int,
    order: str = "reverse",
    seed: int = 0,
    chunks: int = 4,
) -> RunResult:
    """Run ``entry(*args)`` with *loop_region*'s iterations permuted."""
    interp = ReplayInterpreter(
        program, target_region=loop_region, order=order, seed=seed, chunks=chunks
    )
    return interp.run(entry, args)


def results_equal(a: RunResult, b: RunResult, atol: float = 1e-9) -> bool:
    """Observable equality of two runs: return value, arrays, ref scalars,
    and globals."""

    def close(x, y) -> bool:
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return np.allclose(x, y, atol=atol, equal_nan=True)
        if isinstance(x, float) or isinstance(y, float):
            return abs(float(x) - float(y)) <= atol * max(1.0, abs(float(x)))
        return x == y

    if (a.value is None) != (b.value is None):
        return False
    if a.value is not None and not close(a.value, b.value):
        return False
    for name in a.arrays:
        if not close(a.arrays[name], b.arrays[name]):
            return False
    for name in a.scalars:
        if not close(a.scalars[name], b.scalars[name]):
            return False
    for name in a.globals:
        if not close(a.globals[name], b.globals[name]):
            return False
    return True


def validate_doall(
    program: Program,
    entry: str,
    args: Sequence[Any],
    loop_region: int,
    orders: Sequence[str] = ("reverse", "shuffle", "interleave"),
    atol: float = 1e-9,
) -> bool:
    """Empirically check a do-all claim: the program's observable outputs
    must be identical under every reordering of the loop's iterations.

    Floating-point reductions are *not* reorder-stable in general, which is
    exactly why they are classified separately from do-all.
    """
    serial = Interpreter(program).run(entry, args)
    for order in orders:
        permuted = run_with_loop_order(
            program, entry, args, loop_region, order=order
        )
        if not results_equal(serial, permuted, atol=atol):
            return False
    return True
