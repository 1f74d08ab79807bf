"""Tree-walking, instrumented interpreter for MiniC.

The interpreter is the reproduction's stand-in for the paper's
LLVM-instrumented native execution: it runs the program with concrete inputs
while reporting memory accesses, region transitions, loop iterations, and an
IR-like cost to an attached :class:`~repro.runtime.events.Sink`.

Semantics notes
---------------
* ``int``/``int`` division truncates toward zero and ``%`` follows C sign
  rules.
* Scalar locals declared inside a loop body behave like stack slots: the cell
  (and hence the address) is allocated once per *function activation* and
  reused across iterations, so the profiler observes the same WAR/WAW
  patterns DiscoPoP sees — and can prove privatization.
* Function namespaces are flat per activation; redeclaring a name in
  *disjoint* scopes is fine, but MiniC does not support using an outer
  variable after an inner scope shadowed it.
* ``&``-reference parameters share the caller's scalar cell; array parameters
  share the caller's array.  Aliasing is therefore visible to the profiler.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import InterpreterError, StepLimitExceeded
from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Function,
    If,
    IntLit,
    Program,
    Return,
    Stmt,
    UnaryOp,
    VarDecl,
    VarRef,
    While,
)
from repro.runtime import costs
from repro.runtime.events import (
    EV_COST,
    EV_ENTER_FUNC,
    EV_ENTER_LOOP,
    EV_EXIT_FUNC,
    EV_EXIT_LOOP,
    EV_ITER,
    EV_READ,
    EV_STMT,
    EV_WRITE,
    Sink,
)
from repro.runtime.intrinsics import INTRINSICS
from repro.runtime.sites import get_site_table
from repro.runtime.values import AddressSpace, ArrayValue, ScalarCell

# Cost constants hoisted to module level: attribute lookups on the `costs`
# module are measurable in the per-expression hot path.
_LOAD = costs.LOAD
_STORE = costs.STORE
_ARITH = costs.ARITH
_COMPARE = costs.COMPARE
_UNARY = costs.UNARY
_BRANCH = costs.BRANCH
_INDEX = costs.INDEX
_CALL = costs.CALL
_RETURN = costs.RETURN

#: Flush the event buffer to the sink once it reaches this many events.
#: Checked at statement granularity, so the buffer can overshoot by one
#: statement's worth of events — never unboundedly.
EVENT_CHUNK = 8192

_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))

#: Interpreter recursion limit while a MiniC program runs.
_RECURSION_LIMIT = 40_000


def build_globals(
    program: Program, space: AddressSpace
) -> dict[str, ScalarCell | ArrayValue]:
    """Allocate and initialize the program's global variables.

    Shared by the tree-walking interpreter and the closure compiler so both
    engines resolve identical global storage (addresses included — both
    allocate globals first from a fresh :class:`AddressSpace`).
    """
    globals_: dict[str, ScalarCell | ArrayValue] = {}

    def const_expr(expr: Expr) -> int | float:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return -const_expr(expr.operand)
        if isinstance(expr, BinOp):
            left = const_expr(expr.left)
            right = const_expr(expr.right)
            return Interpreter._apply_binop(expr.op, left, right, expr.line)
        if isinstance(expr, VarRef):
            slot = globals_.get(expr.name)
            if isinstance(slot, ScalarCell):
                return slot.value
        raise InterpreterError("global initializer must be constant", line=expr.line)

    for decl in program.globals:
        if decl.dims:
            extents = [const_expr(d) for d in decl.dims]
            globals_[decl.name] = ArrayValue(decl.type, extents, space, name=decl.name)
        else:
            value: int | float = 0 if decl.type == "int" else 0.0
            if decl.init is not None:
                value = const_expr(decl.init)
                value = int(value) if decl.type == "int" else float(value)
            globals_[decl.name] = ScalarCell(
                addr=space.alloc(1), value=value, name=decl.name
            )
    return globals_


def run_entry(
    engine, entry: str, args: Sequence[Any], invoke: Callable[[Function, list], Any]
) -> RunResult:
    """The ``run`` of both engines: bind *args*, call *entry*, collect.

    *engine* is an :class:`Interpreter` or a compiled engine.  Checks the
    arity, binds the Python *args* into fresh storage in ``engine.space``,
    calls ``invoke(func, bound)`` under a raised recursion limit, flushes
    the engine's pending events to its sink, and builds the
    :class:`RunResult` from the bound storage and ``engine.globals``.
    """
    func = engine._functions.get(entry)
    if func is None:
        raise InterpreterError(f"no function named {entry!r}")
    if len(args) != len(func.params):
        raise InterpreterError(
            f"{entry}() expects {len(func.params)} arguments, got {len(args)}"
        )
    bound: list[ScalarCell | ArrayValue | int | float] = []
    arrays: dict[str, ArrayValue] = {}
    ref_cells: dict[str, ScalarCell] = {}
    for param, arg in zip(func.params, args):
        if param.is_array:
            if isinstance(arg, ArrayValue):
                value = arg
            else:
                arr = np.asarray(
                    arg, dtype=np.int64 if param.type == "int" else np.float64
                )
                if arr.ndim != param.array_rank:
                    raise InterpreterError(
                        f"argument for {param.name!r} has rank {arr.ndim}, "
                        f"expected {param.array_rank}"
                    )
                value = ArrayValue.from_numpy(arr, engine.space, name=param.name)
            arrays[param.name] = value
            bound.append(value)
        elif param.by_ref:
            cell = ScalarCell(
                addr=engine.space.alloc(1),
                value=int(arg) if param.type == "int" else float(arg),
                name=param.name,
            )
            ref_cells[param.name] = cell
            bound.append(cell)
        else:
            bound.append(int(arg) if param.type == "int" else float(arg))

    # The limit is process-wide and concurrent runs share it, so it is only
    # ever raised: restoring it after one run would lower it under a
    # neighbouring run still deep in recursion.
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    value = invoke(func, bound)
    engine._flush()
    if engine.sink is not None:
        engine._flush_events()
        engine.sink.finish()
    return RunResult(
        value=value,
        total_cost=engine.total_cost,
        arrays={name: a.to_numpy() for name, a in arrays.items()},
        scalars={name: c.value for name, c in ref_cells.items()},
        globals={
            name: (slot.to_numpy() if isinstance(slot, ArrayValue) else slot.value)
            for name, slot in engine.globals.items()
        },
    )


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


@dataclass(slots=True)
class _Frame:
    """One function activation: flat name table plus per-decl-site cells."""

    func: Function
    vars: dict[str, ScalarCell | ArrayValue] = field(default_factory=dict)
    decl_slots: dict[int, ScalarCell | ArrayValue] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of one interpreted run."""

    value: Any
    total_cost: int
    arrays: dict[str, np.ndarray]
    scalars: dict[str, int | float]
    globals: dict[str, Any]


def _c_int_div(a: int, b: int, line: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero", line=line)
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_int_mod(a: int, b: int, line: int) -> int:
    if b == 0:
        raise InterpreterError("integer modulo by zero", line=line)
    r = abs(a) % abs(b)
    return -r if a < 0 else r


class Interpreter:
    """Executes a MiniC :class:`Program`, reporting events to a sink."""

    def __init__(
        self,
        program: Program,
        sink: Sink | None = None,
        max_cost: int = 500_000_000,
    ) -> None:
        self.program = program
        self.sink = sink
        self.max_cost = max_cost
        self.space = AddressSpace()
        self.globals: dict[str, ScalarCell | ArrayValue] = {}
        self.total_cost = 0
        self._acc_line = -1
        self._acc_cost = 0
        self._next_activation = 0
        self._functions = {f.name: f for f in program.functions}
        # Buffered event fast path: instead of one sink method call per
        # event, tagged tuples accumulate here and flush to the sink in
        # chunks (order preserved).  Unused when no sink is attached.
        self._events: list[tuple] = []
        if sink is not None:
            sink.set_site_table(get_site_table(program))
        self._init_globals()

    # ------------------------------------------------------------------
    # cost / event plumbing
    # ------------------------------------------------------------------

    def _charge(self, line: int, amount: int) -> None:
        self.total_cost += amount
        if self.total_cost > self.max_cost:
            raise StepLimitExceeded(
                f"execution exceeded the cost budget of {self.max_cost} instructions"
            )
        if self.sink is None:
            return
        if line != self._acc_line:
            self._flush()
            self._acc_line = line
        self._acc_cost += amount

    def _flush(self) -> None:
        if self.sink is not None and self._acc_cost:
            self._events.append((EV_COST, self._acc_line, self._acc_cost))
        self._acc_cost = 0

    def _flush_events(self) -> None:
        if self._events:
            self.sink.consume_batch(self._events)
            self._events.clear()

    def _new_activation(self) -> int:
        self._next_activation += 1
        return self._next_activation

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        self.globals = build_globals(self.program, self.space)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, entry: str, args: Sequence[Any] = ()) -> RunResult:
        """Call *entry* with Python *args*, returning a :class:`RunResult`.

        Array arguments may be numpy arrays or (nested) lists and are copied
        into fresh :class:`ArrayValue` storage; their final contents are
        exposed in ``RunResult.arrays`` keyed by parameter name.  Scalars are
        passed by value; ``&``-reference scalar parameters receive a fresh
        cell whose final value appears in ``RunResult.scalars``.
        """
        return run_entry(
            self, entry, args, lambda func, bound: self._invoke(func, bound, func.line)
        )

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _invoke(
        self,
        func: Function,
        bound: list[ScalarCell | ArrayValue | int | float],
        call_line: int,
    ) -> Any:
        frame = _Frame(func=func)
        self._charge(call_line, _CALL)
        self._flush()
        activation = self._new_activation()
        if self.sink is not None:
            events = self._events
            if len(events) >= EVENT_CHUNK:
                self._flush_events()  # clears in place; `events` stays bound
            events.append((EV_ENTER_FUNC, func.region_id, activation, call_line))
            # Anchor the new activation's site at the signature line so the
            # parameter stores below are not attributed to the call site.
            events.append((EV_STMT, func.line))
        try:
            for param, value in zip(func.params, bound):
                if param.is_array or param.by_ref:
                    frame.vars[param.name] = value  # shared storage
                else:
                    cell = ScalarCell(
                        addr=self.space.alloc(1), value=value, name=param.name
                    )
                    frame.vars[param.name] = cell
                    if self.sink is not None:
                        self._events.append(
                            (EV_WRITE, cell.addr, param._sid)
                        )
                    self._charge(func.line, _STORE)
            result: Any = None
            try:
                self._exec_body(func.body, frame)
            except _ReturnSignal as sig:
                result = sig.value
            self._charge(func.line, _RETURN)
            return result
        finally:
            self._flush()
            if self.sink is not None:
                self._events.append((EV_EXIT_FUNC, func.region_id, activation))

    def _call(self, call: Call, frame: _Frame) -> Any:
        if call.name in INTRINSICS:
            spec = INTRINSICS[call.name]
            values = [self._eval(a, frame) for a in call.args]
            self._charge(call.line, spec.cost)
            try:
                return spec.fn(*values)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise InterpreterError(
                    f"intrinsic {call.name}() failed: {exc}", line=call.line
                ) from exc
        func = self._functions.get(call.name)
        if func is None:
            raise InterpreterError(f"call to unknown function {call.name!r}", line=call.line)
        if len(call.args) != len(func.params):
            raise InterpreterError(
                f"{call.name}() expects {len(func.params)} args, got {len(call.args)}",
                line=call.line,
            )
        bound: list[ScalarCell | ArrayValue | int | float] = []
        for param, arg in zip(func.params, call.args):
            if param.is_array:
                if not isinstance(arg, VarRef):
                    raise InterpreterError(
                        f"array argument for {param.name!r} must be an array name",
                        line=call.line,
                    )
                slot = self._lookup(arg.name, frame, arg.line)
                if not isinstance(slot, ArrayValue):
                    raise InterpreterError(
                        f"{arg.name!r} is not an array", line=arg.line
                    )
                if slot.rank != param.array_rank:
                    raise InterpreterError(
                        f"array {arg.name!r} has rank {slot.rank}, parameter "
                        f"{param.name!r} expects {param.array_rank}",
                        line=call.line,
                    )
                bound.append(slot)
            elif param.by_ref:
                if not isinstance(arg, VarRef):
                    raise InterpreterError(
                        f"reference argument for {param.name!r} must be a variable",
                        line=call.line,
                    )
                slot = self._lookup(arg.name, frame, arg.line)
                if not isinstance(slot, ScalarCell):
                    raise InterpreterError(
                        f"{arg.name!r} is not a scalar", line=arg.line
                    )
                bound.append(slot)
            else:
                value = self._eval(arg, frame)
                bound.append(int(value) if param.type == "int" else float(value))
        return self._invoke(func, bound, call_line=call.line)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _exec_body(self, body: list[Stmt], frame: _Frame) -> None:
        for stmt in body:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: Stmt, frame: _Frame) -> None:
        if self.sink is not None:
            events = self._events
            if len(events) >= EVENT_CHUNK:
                self._flush_events()  # clears in place; `events` stays bound
            events.append((EV_STMT, stmt.line))
        kind = type(stmt)
        if kind is Assign:
            self._exec_assign(stmt, frame)
        elif kind is VarDecl:
            self._exec_decl(stmt, frame)
        elif kind is If:
            cond = self._eval(stmt.cond, frame)
            self._charge(stmt.line, _BRANCH)
            if cond:
                self._exec_body(stmt.then_body, frame)
            else:
                self._exec_body(stmt.else_body, frame)
        elif kind is For:
            self._exec_for(stmt, frame)
        elif kind is While:
            self._exec_while(stmt, frame)
        elif kind is Return:
            value = None if stmt.value is None else self._eval(stmt.value, frame)
            raise _ReturnSignal(value)
        elif kind is ExprStmt:
            self._eval(stmt.expr, frame)
        elif kind is Break:
            raise _BreakSignal()
        elif kind is Continue:
            raise _ContinueSignal()
        else:  # pragma: no cover - exhaustiveness guard
            raise InterpreterError(f"unknown statement {stmt!r}", line=stmt.line)

    def _exec_decl(self, decl: VarDecl, frame: _Frame) -> None:
        slot = frame.decl_slots.get(decl.stmt_id)
        if slot is None:
            if decl.dims:
                extents = [int(self._eval(d, frame)) for d in decl.dims]
                slot = ArrayValue(decl.type, extents, self.space, name=decl.name)
            else:
                slot = ScalarCell(
                    addr=self.space.alloc(1),
                    value=0 if decl.type == "int" else 0.0,
                    name=decl.name,
                )
            frame.decl_slots[decl.stmt_id] = slot
        frame.vars[decl.name] = slot
        if decl.init is not None and isinstance(slot, ScalarCell):
            value = self._eval(decl.init, frame)
            slot.value = int(value) if decl.type == "int" else float(value)
            if self.sink is not None:
                self._events.append((EV_WRITE, slot.addr, decl._sid))
            self._charge(decl.line, _STORE)

    def _exec_assign(self, stmt: Assign, frame: _Frame) -> None:
        target = stmt.target
        line = stmt.line
        slot = self._lookup(target.name, frame, line)
        if isinstance(target, ArrayLV):
            if not isinstance(slot, ArrayValue):
                raise InterpreterError(f"{target.name!r} is not an array", line=line)
            indices = [int(self._eval(ix, frame)) for ix in target.indices]
            self._charge(line, _INDEX * len(indices))
            flat = slot.flat_index(indices, line=line)
            addr = slot.base + flat
            if stmt.op == "=":
                value = self._eval(stmt.value, frame)
            else:
                current = slot.data[flat]
                if self.sink is not None:
                    self._events.append((EV_READ, addr, stmt._sid_read))
                self._charge(line, _LOAD)
                rhs = self._eval(stmt.value, frame)
                value = self._apply_binop(stmt.op[0], current, rhs, line)
                self._charge(line, _ARITH)
            slot.set(flat, value)
            if self.sink is not None:
                self._events.append((EV_WRITE, addr, stmt._sid_write))
            self._charge(line, _STORE)
        else:
            if not isinstance(slot, ScalarCell):
                raise InterpreterError(
                    f"cannot assign to array {target.name!r} without indices", line=line
                )
            if stmt.op == "=":
                value = self._eval(stmt.value, frame)
            else:
                if self.sink is not None:
                    self._events.append((EV_READ, slot.addr, stmt._sid_read))
                self._charge(line, _LOAD)
                rhs = self._eval(stmt.value, frame)
                value = self._apply_binop(stmt.op[0], slot.value, rhs, line)
                self._charge(line, _ARITH)
            if isinstance(slot.value, int) and not isinstance(value, int):
                value = int(value)
            slot.value = value
            if self.sink is not None:
                self._events.append((EV_WRITE, slot.addr, stmt._sid_write))
            self._charge(line, _STORE)

    def _exec_for(self, loop: For, frame: _Frame) -> None:
        self._flush()
        activation = self._new_activation()
        if self.sink is not None:
            self._events.append((EV_ENTER_LOOP, loop.region_id, activation, loop.line))
        trips = 0
        try:
            if loop.init is not None:
                self._exec_stmt(loop.init, frame)
            while True:
                if self.sink is not None:
                    # flush the per-line cost buffer so per-iteration cost
                    # accounting sees this iteration's charges
                    self._flush()
                    self._events.append((EV_ITER, loop.region_id, trips))
                if loop.cond is not None:
                    self._charge(loop.line, _BRANCH)
                    if not self._eval(loop.cond, frame):
                        break
                try:
                    self._exec_body(loop.body, frame)
                except _ContinueSignal:
                    pass
                except _BreakSignal:
                    trips += 1
                    break
                if loop.step is not None:
                    self._exec_stmt(loop.step, frame)
                trips += 1
        finally:
            self._flush()
            if self.sink is not None:
                self._events.append(
                    (EV_EXIT_LOOP, loop.region_id, activation, trips)
                )

    def _exec_while(self, loop: While, frame: _Frame) -> None:
        self._flush()
        activation = self._new_activation()
        if self.sink is not None:
            self._events.append((EV_ENTER_LOOP, loop.region_id, activation, loop.line))
        trips = 0
        try:
            while True:
                if self.sink is not None:
                    self._flush()
                    self._events.append((EV_ITER, loop.region_id, trips))
                self._charge(loop.line, _BRANCH)
                if not self._eval(loop.cond, frame):
                    break
                try:
                    self._exec_body(loop.body, frame)
                except _ContinueSignal:
                    pass
                except _BreakSignal:
                    trips += 1
                    break
                trips += 1
        finally:
            self._flush()
            if self.sink is not None:
                self._events.append(
                    (EV_EXIT_LOOP, loop.region_id, activation, trips)
                )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _lookup(self, name: str, frame: _Frame, line: int) -> ScalarCell | ArrayValue:
        slot = frame.vars.get(name)
        if slot is None:
            slot = self.globals.get(name)
        if slot is None:
            raise InterpreterError(f"use of undeclared variable {name!r}", line=line)
        return slot

    def _eval(self, expr: Expr, frame: _Frame) -> Any:
        # Dispatch ordered by dynamic frequency (BinOp/VarRef/IntLit dominate
        # real workloads); variable lookup is inlined on the scalar fast path.
        kind = type(expr)
        if kind is BinOp:
            op = expr.op
            if op == "&&":
                left = self._eval(expr.left, frame)
                self._charge(expr.line, _ARITH)
                if not left:
                    return 0
                return 1 if self._eval(expr.right, frame) else 0
            if op == "||":
                left = self._eval(expr.left, frame)
                self._charge(expr.line, _ARITH)
                if left:
                    return 1
                return 1 if self._eval(expr.right, frame) else 0
            left = self._eval(expr.left, frame)
            right = self._eval(expr.right, frame)
            self._charge(expr.line, _COMPARE if op in _CMP_OPS else _ARITH)
            return self._apply_binop(op, left, right, expr.line)
        if kind is VarRef:
            name = expr.name
            slot = frame.vars.get(name)
            if slot is None:
                slot = self.globals.get(name)
                if slot is None:
                    raise InterpreterError(
                        f"use of undeclared variable {name!r}", line=expr.line
                    )
            if type(slot) is not ScalarCell:
                raise InterpreterError(
                    f"array {name!r} used as a scalar", line=expr.line
                )
            if self.sink is not None:
                self._events.append((EV_READ, slot.addr, expr._sid))
            self._charge(expr.line, _LOAD)
            return slot.value
        if kind is IntLit:
            return expr.value
        if kind is ArrayRef:
            slot = self._lookup(expr.name, frame, expr.line)
            if not isinstance(slot, ArrayValue):
                raise InterpreterError(f"{expr.name!r} is not an array", line=expr.line)
            indices = [int(self._eval(ix, frame)) for ix in expr.indices]
            self._charge(expr.line, _INDEX * len(indices))
            flat = slot.flat_index(indices, line=expr.line)
            if self.sink is not None:
                self._events.append(
                    (EV_READ, slot.base + flat, expr._sid)
                )
            self._charge(expr.line, _LOAD)
            return slot.data[flat]
        if kind is FloatLit:
            return expr.value
        if kind is UnaryOp:
            value = self._eval(expr.operand, frame)
            self._charge(expr.line, _UNARY)
            if expr.op == "-":
                return -value
            if expr.op == "!":
                return 0 if value else 1
            raise InterpreterError(f"unknown unary operator {expr.op!r}", line=expr.line)
        if kind is Call:
            return self._call(expr, frame)
        raise InterpreterError(f"unknown expression {expr!r}", line=getattr(expr, "line", None))

    @staticmethod
    def _apply_binop(op: str, left: Any, right: Any, line: int) -> Any:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return _c_int_div(left, right, line)
            if right == 0:
                raise InterpreterError("float division by zero", line=line)
            return left / right
        if op == "%":
            if isinstance(left, int) and isinstance(right, int):
                return _c_int_mod(left, right, line)
            raise InterpreterError("% requires integer operands", line=line)
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise InterpreterError(f"unknown operator {op!r}", line=line)


def run_program(
    program: Program,
    entry: str,
    args: Sequence[Any] = (),
    sink: Sink | None = None,
    max_cost: int = 500_000_000,
) -> RunResult:
    """Convenience wrapper: build an :class:`Interpreter` and run *entry*."""
    return Interpreter(program, sink=sink, max_cost=max_cost).run(entry, args)
