"""MiniC → Python closure compiler.

The tree-walking interpreter pays a per-node price on every execution of
every expression: a ``type()`` dispatch, attribute loads on the AST node,
name resolution through two dict lookups, and a ``_charge`` call per
operator.  This module removes all of it by lowering each function body
*once* into nested Python closures:

* **Pre-resolved variable slots** — each function's flat namespace is
  compiled to a plain list (``frame``), one slot per distinct local name
  plus one cell per declaration site (mirroring the interpreter's
  ``vars`` / ``decl_slots`` split).  Names that never appear as locals
  bind directly to the global's storage object at compile time.
* **Pre-bound operators** — every ``BinOp`` compiles to a closure
  specialized for its operator, with C division/modulo semantics inlined.
* **Hoisted constants** — literal-only subtrees fold to a constant at
  compile time (only for operators that cannot raise).
* **Static cost summarization** — the interpreter charges IR cost one
  operator at a time; the compiler sums each statement's statically known
  cost per source line and issues one ``charge`` call.  This is exact:
  within a window bounded by region transitions (``ENTER``/``EXIT``/
  ``ITER`` flushes), every profiler cost consumer is additive per
  ``(activation, line)``, so merging and reordering charges inside one
  statement cannot change any profile.  Conditional costs (short-circuit
  right operands, first-execution array-declaration extents) and call
  costs stay dynamic, exactly where the interpreter charges them.

The event stream is replicated access-for-access: ``EV_READ``/``EV_WRITE``
/ ``EV_STMT`` / region events are emitted in exactly the interpreter's
order, so a :class:`~repro.profiling.profiler.Profiler` fed by this engine
produces a byte-identical profile digest (the differential suite in
``tests/test_compile_engine.py`` enforces this across the benchmark
registry and seeded generated programs).  Only ``EV_COST`` events may
coalesce differently — the one transformation the profile is provably
blind to.

Semantics (error messages included) mirror ``runtime/interpreter.py``; the
tree-walker remains the executable reference.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

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
    walk_stmts,
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
from repro.runtime.interpreter import (
    EVENT_CHUNK,
    RunResult,
    _c_int_div,
    _c_int_mod,
    build_globals,
    run_entry,
)
from repro.runtime.intrinsics import INTRINSICS
from repro.runtime.sites import get_site_table
from repro.runtime.values import AddressSpace, ArrayValue, ScalarCell

_LOAD = costs.LOAD
_STORE = costs.STORE
_ARITH = costs.ARITH
_COMPARE = costs.COMPARE
_UNARY = costs.UNARY
_BRANCH = costs.BRANCH
_INDEX = costs.INDEX
_CALL = costs.CALL
_RETURN = costs.RETURN

_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))

# Control-flow signals threaded through statement closures as return values
# (the interpreter uses exceptions; sentinel returns are cheaper and make
# the propagation explicit).  A statement closure returns None for normal
# completion, one of these two for break/continue, or the _RET sentinel —
# the return *value* travels in the engine's side-channel cell.
_BRK = object()
_CNT = object()
_RET = object()

_DYN = object()  # "not a compile-time constant" marker


def _arith_fn(op: str, line: int) -> Callable[[Any, Any], Any]:
    """A two-argument callable applying *op* with C semantics."""
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    if op == "/":

        def div(a, b):
            if isinstance(a, int) and isinstance(b, int):
                return _c_int_div(a, b, line)
            if b == 0:
                raise InterpreterError("float division by zero", line=line)
            return a / b

        return div
    if op == "%":

        def mod(a, b):
            if isinstance(a, int) and isinstance(b, int):
                return _c_int_mod(a, b, line)
            raise InterpreterError("% requires integer operands", line=line)

        return mod
    if op == "==":
        return lambda a, b: 1 if a == b else 0
    if op == "!=":
        return lambda a, b: 1 if a != b else 0
    if op == "<":
        return lambda a, b: 1 if a < b else 0
    if op == "<=":
        return lambda a, b: 1 if a <= b else 0
    if op == ">":
        return lambda a, b: 1 if a > b else 0
    if op == ">=":
        return lambda a, b: 1 if a >= b else 0

    def bad(a, b):
        raise InterpreterError(f"unknown operator {op!r}", line=line)

    return bad


def _add_cost(dst: dict[int, int], line: int, amount: int) -> None:
    if amount:
        dst[line] = dst.get(line, 0) + amount


class _FunctionCompiler:
    """Compiles one function body into closures over an engine's state."""

    def __init__(self, engine: "CompiledEngine", func: Function) -> None:
        self.engine = engine
        self.func = func
        self.emit = engine.sink is not None
        # flat namespace: one frame index per distinct local name
        self.name_ix: dict[str, int] = {}
        # what a name's frame slot can hold, for check elision:
        # "scalar" | "array" | "mixed"; params are always bound at entry
        self.name_kind: dict[str, str] = {}
        self.param_names: set[str] = set()
        for param in func.params:
            self._add_name(param.name, "array" if param.is_array else "scalar")
            self.param_names.add(param.name)
        decls: list[VarDecl] = []
        for stmt in walk_stmts(func.body):
            if type(stmt) is VarDecl:
                decls.append(stmt)
                self._add_name(stmt.name, "array" if stmt.dims else "scalar")
        # one persistent cell slot per declaration site (allocated lazily,
        # reused across loop iterations — interpreter's decl_slots)
        base = len(self.name_ix)
        self.cell_ix: dict[int, int] = {
            id(stmt): base + i for i, stmt in enumerate(decls)
        }
        self.frame_size = base + len(decls)

    def _add_name(self, name: str, kind: str) -> None:
        if name not in self.name_ix:
            self.name_ix[name] = len(self.name_ix)
            self.name_kind[name] = kind
        elif self.name_kind[name] != kind:
            self.name_kind[name] = "mixed"

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def _resolve(self, name: str, line: int) -> Callable[[list], Any]:
        """A closure returning the slot bound to *name* (interpreter's
        ``_lookup``): current frame binding, else global, else error."""
        ix = self.name_ix.get(name)
        gslot = self.engine.globals.get(name)
        if ix is None:
            if gslot is None:

                def missing(frame):
                    raise InterpreterError(
                        f"use of undeclared variable {name!r}", line=line
                    )

                return missing
            return lambda frame: gslot
        if name in self.param_names:
            # params are bound before the body runs; a later declaration
            # only ever rebinds to another live slot
            return lambda frame: frame[ix]
        if gslot is None:

            def local(frame):
                s = frame[ix]
                if s is None:
                    raise InterpreterError(
                        f"use of undeclared variable {name!r}", line=line
                    )
                return s

            return local

        def local_or_global(frame):
            s = frame[ix]
            return gslot if s is None else s

        return local_or_global

    def _raiser(self, message: str, line: int) -> Callable[[list], Any]:
        def fn(frame):
            raise InterpreterError(message, line=line)

        return fn

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def expr(self, e: Expr) -> tuple[Callable[[list], Any], dict[int, int], Any]:
        """Compile *e* → ``(fn, static_cost, const_value)``.

        ``fn`` performs all memory events and *dynamic* charges itself;
        ``static_cost`` (line → amount) is owed by the enclosing statement,
        which issues it in one merged charge.  ``const_value`` is ``_DYN``
        unless the subtree folded to a compile-time constant.
        """
        kind = type(e)
        if kind is IntLit or kind is FloatLit:
            v = e.value
            return (lambda frame: v), {}, v
        if kind is BinOp:
            return self._expr_binop(e)
        if kind is VarRef:
            return self._expr_varref(e)
        if kind is ArrayRef:
            return self._expr_arrayref(e)
        if kind is UnaryOp:
            return self._expr_unary(e)
        if kind is Call:
            return self._expr_call(e)
        line = getattr(e, "line", None)
        return self._raiser(f"unknown expression {e!r}", line), {}, _DYN

    def _expr_binop(self, e: BinOp):
        op = e.op
        line = e.line
        if op == "&&" or op == "||":
            lf, lcost, _ = self.expr(e.left)
            rf, rcost, _ = self.expr(e.right)
            cost = dict(lcost)
            _add_cost(cost, line, _ARITH)
            # the right operand's cost is conditional: charged only on the
            # iterations that actually evaluate it, as the interpreter does
            charge_right = self._charger(rcost)
            if op == "&&":

                def fn(frame):
                    if not lf(frame):
                        return 0
                    charge_right()
                    return 1 if rf(frame) else 0

            else:

                def fn(frame):
                    if lf(frame):
                        return 1
                    charge_right()
                    return 1 if rf(frame) else 0

            return fn, cost, _DYN
        lf, lcost, lconst = self.expr(e.left)
        rf, rcost, rconst = self.expr(e.right)
        cost = dict(lcost)
        for ln, amt in rcost.items():
            _add_cost(cost, ln, amt)
        _add_cost(cost, line, _COMPARE if op in _CMP_OPS else _ARITH)
        if lconst is not _DYN and rconst is not _DYN and op not in ("/", "%"):
            # fold operators that cannot raise; cost is still charged
            v = _arith_fn(op, line)(lconst, rconst)
            return (lambda frame: v), cost, v
        if op == "+":
            fn = lambda frame: lf(frame) + rf(frame)
        elif op == "-":
            fn = lambda frame: lf(frame) - rf(frame)
        elif op == "*":
            fn = lambda frame: lf(frame) * rf(frame)
        elif op == "<":
            fn = lambda frame: 1 if lf(frame) < rf(frame) else 0
        elif op == "<=":
            fn = lambda frame: 1 if lf(frame) <= rf(frame) else 0
        elif op == ">":
            fn = lambda frame: 1 if lf(frame) > rf(frame) else 0
        elif op == ">=":
            fn = lambda frame: 1 if lf(frame) >= rf(frame) else 0
        elif op == "==":
            fn = lambda frame: 1 if lf(frame) == rf(frame) else 0
        elif op == "!=":
            fn = lambda frame: 1 if lf(frame) != rf(frame) else 0
        else:
            apply = _arith_fn(op, line)
            fn = lambda frame: apply(lf(frame), rf(frame))
        return fn, cost, _DYN

    def _expr_varref(self, e: VarRef):
        name = e.name
        line = e.line
        cost = {line: _LOAD}
        sid = getattr(e, "_sid", -1)
        emit = self.emit
        append = self.engine._events.append
        nkind = self.name_kind.get(name)
        if name in self.param_names and nkind == "scalar":
            ix = self.name_ix[name]
            if emit:

                def fn(frame):
                    s = frame[ix]
                    append((EV_READ, s.addr, sid))
                    return s.value

            else:

                def fn(frame):
                    return frame[ix].value

            return fn, cost, _DYN
        if nkind is None:
            gslot = self.engine.globals.get(name)
            if gslot is None:
                return (
                    self._raiser(f"use of undeclared variable {name!r}", line),
                    cost,
                    _DYN,
                )
            if type(gslot) is not ScalarCell:
                return (
                    self._raiser(f"array {name!r} used as a scalar", line),
                    cost,
                    _DYN,
                )
            addr = gslot.addr
            if emit:

                def fn(frame):
                    append((EV_READ, addr, sid))
                    return gslot.value

            else:

                def fn(frame):
                    return gslot.value

            return fn, cost, _DYN
        resolve = self._resolve(name, line)
        gslot = self.engine.globals.get(name)
        if nkind == "array" and (gslot is None or not isinstance(gslot, ScalarCell)):
            # every binding this name can take is an array
            return (
                self._raiser(f"array {name!r} used as a scalar", line),
                cost,
                _DYN,
            )
        # elide the type check only when every reachable binding — local
        # declarations, parameters, and the global fallback hit before a
        # local declaration executes — is a scalar cell
        check = nkind != "scalar" or isinstance(gslot, ArrayValue)
        if emit:

            def fn(frame):
                s = resolve(frame)
                if check and type(s) is not ScalarCell:
                    raise InterpreterError(
                        f"array {name!r} used as a scalar", line=line
                    )
                append((EV_READ, s.addr, sid))
                return s.value

        else:

            def fn(frame):
                s = resolve(frame)
                if check and type(s) is not ScalarCell:
                    raise InterpreterError(
                        f"array {name!r} used as a scalar", line=line
                    )
                return s.value

        return fn, cost, _DYN

    def _array_slot(self, name: str, line: int) -> Callable[[list], ArrayValue]:
        """Resolve *name* to an :class:`ArrayValue` (with the interpreter's
        "is not an array" check elided when the binding is statically an
        array)."""
        nkind = self.name_kind.get(name)
        if nkind is None:
            gslot = self.engine.globals.get(name)
            if gslot is None:
                return self._raiser(f"use of undeclared variable {name!r}", line)
            if not isinstance(gslot, ArrayValue):
                return self._raiser(f"{name!r} is not an array", line)
            return lambda frame: gslot
        resolve = self._resolve(name, line)
        gslot = self.engine.globals.get(name)
        if nkind == "array" and (gslot is None or isinstance(gslot, ArrayValue)):
            return resolve

        def fn(frame):
            s = resolve(frame)
            if not isinstance(s, ArrayValue):
                raise InterpreterError(f"{name!r} is not an array", line=line)
            return s

        return fn

    def _flat_addr(
        self, name: str, line: int, index_fns: list
    ) -> Callable[[list, ArrayValue], int]:
        """Bounds-checked row-major flat offset, rank-specialized.

        Replicates :meth:`ArrayValue.flat_index` including error text.
        """
        n = len(index_fns)
        if n == 1:
            ix0 = index_fns[0]

            def flat1(frame, slot):
                i0 = int(ix0(frame))
                shape = slot.shape
                if len(shape) != 1:
                    raise InterpreterError(
                        f"array {slot.name!r} expects {len(shape)} indices, got 1",
                        line=line,
                    )
                if i0 < 0 or i0 >= shape[0]:
                    raise InterpreterError(
                        f"index {i0} out of bounds for extent {shape[0]} "
                        f"of array {slot.name!r}",
                        line=line,
                    )
                return i0

            return flat1
        if n == 2:
            ix0, ix1 = index_fns

            def flat2(frame, slot):
                i0 = int(ix0(frame))
                i1 = int(ix1(frame))
                shape = slot.shape
                if len(shape) != 2:
                    raise InterpreterError(
                        f"array {slot.name!r} expects {len(shape)} indices, got 2",
                        line=line,
                    )
                s0, s1 = shape
                if i0 < 0 or i0 >= s0:
                    raise InterpreterError(
                        f"index {i0} out of bounds for extent {s0} "
                        f"of array {slot.name!r}",
                        line=line,
                    )
                if i1 < 0 or i1 >= s1:
                    raise InterpreterError(
                        f"index {i1} out of bounds for extent {s1} "
                        f"of array {slot.name!r}",
                        line=line,
                    )
                return i0 * s1 + i1

            return flat2
        fns = tuple(index_fns)

        def flatn(frame, slot):
            return slot.flat_index([int(f(frame)) for f in fns], line=line)

        return flatn

    def _expr_arrayref(self, e: ArrayRef):
        name = e.name
        line = e.line
        sid = getattr(e, "_sid", -1)
        slot_fn = self._array_slot(name, line)
        cost: dict[int, int] = {}
        index_fns = []
        for ix in e.indices:
            f, c, _ = self.expr(ix)
            index_fns.append(f)
            for ln, amt in c.items():
                _add_cost(cost, ln, amt)
        _add_cost(cost, line, _INDEX * len(index_fns) + _LOAD)
        flat_fn = self._flat_addr(name, line, index_fns)
        append = self.engine._events.append
        if self.emit:

            def fn(frame):
                slot = slot_fn(frame)
                flat = flat_fn(frame, slot)
                append((EV_READ, slot.base + flat, sid))
                return slot.data[flat]

        else:

            def fn(frame):
                slot = slot_fn(frame)
                return slot.data[flat_fn(frame, slot)]

        return fn, cost, _DYN

    def _expr_unary(self, e: UnaryOp):
        f, cost, const = self.expr(e.operand)
        cost = dict(cost)
        _add_cost(cost, e.line, _UNARY)
        if e.op == "-":
            if const is not _DYN:
                v = -const
                return (lambda frame: v), cost, v
            return (lambda frame: -f(frame)), cost, _DYN
        if e.op == "!":
            if const is not _DYN:
                v = 0 if const else 1
                return (lambda frame: v), cost, v
            return (lambda frame: 0 if f(frame) else 1), cost, _DYN
        op = e.op
        line = e.line

        def bad(frame):
            f(frame)
            raise InterpreterError(f"unknown unary operator {op!r}", line=line)

        return bad, cost, _DYN

    def _expr_call(self, e: Call):
        line = e.line
        if e.name in INTRINSICS:
            spec = INTRINSICS[e.name]
            cost: dict[int, int] = {}
            arg_fns = []
            for a in e.args:
                f, c, _ = self.expr(a)
                arg_fns.append(f)
                for ln, amt in c.items():
                    _add_cost(cost, ln, amt)
            _add_cost(cost, line, spec.cost)
            spec_fn = spec.fn
            name = e.name
            args = tuple(arg_fns)

            def fn(frame):
                values = [a(frame) for a in args]
                try:
                    return spec_fn(*values)
                except (ValueError, OverflowError, ZeroDivisionError) as exc:
                    raise InterpreterError(
                        f"intrinsic {name}() failed: {exc}", line=line
                    ) from exc

            return fn, cost, _DYN
        func = self.engine._functions.get(e.name)
        if func is None:
            return (
                self._raiser(f"call to unknown function {e.name!r}", line),
                {},
                _DYN,
            )
        if len(e.args) != len(func.params):
            return (
                self._raiser(
                    f"{e.name}() expects {len(func.params)} args, got {len(e.args)}",
                    line,
                ),
                {},
                _DYN,
            )
        cost = {}
        binders = []
        for param, arg in zip(func.params, e.args):
            if param.is_array:
                if not isinstance(arg, VarRef):
                    binders.append(
                        self._raiser(
                            f"array argument for {param.name!r} must be an array name",
                            line,
                        )
                    )
                    continue
                resolve = self._resolve(arg.name, arg.line)
                binders.append(
                    self._bind_array(resolve, arg.name, arg.line, line, param)
                )
            elif param.by_ref:
                if not isinstance(arg, VarRef):
                    binders.append(
                        self._raiser(
                            f"reference argument for {param.name!r} must be a variable",
                            line,
                        )
                    )
                    continue
                resolve = self._resolve(arg.name, arg.line)
                binders.append(self._bind_ref(resolve, arg.name, arg.line))
            else:
                f, c, _ = self.expr(arg)
                for ln, amt in c.items():
                    _add_cost(cost, ln, amt)
                conv = int if param.type == "int" else float
                binders.append(lambda frame, f=f, conv=conv: conv(f(frame)))
        binders_t = tuple(binders)
        engine = self.engine
        fname = e.name
        inv_cell: list = []

        def fn(frame):
            bound = [b(frame) for b in binders_t]
            if inv_cell:
                inv = inv_cell[0]
            else:
                inv = engine._get_invoke(fname)
                inv_cell.append(inv)
            return inv(bound, line)

        return fn, cost, _DYN

    @staticmethod
    def _bind_array(resolve, arg_name: str, arg_line: int, call_line: int, param):
        rank = param.array_rank
        pname = param.name

        def bind(frame):
            slot = resolve(frame)
            if not isinstance(slot, ArrayValue):
                raise InterpreterError(f"{arg_name!r} is not an array", line=arg_line)
            if slot.rank != rank:
                raise InterpreterError(
                    f"array {arg_name!r} has rank {slot.rank}, parameter "
                    f"{pname!r} expects {rank}",
                    line=call_line,
                )
            return slot

        return bind

    @staticmethod
    def _bind_ref(resolve, arg_name: str, arg_line: int):
        def bind(frame):
            slot = resolve(frame)
            if not isinstance(slot, ScalarCell):
                raise InterpreterError(f"{arg_name!r} is not a scalar", line=arg_line)
            return slot

        return bind

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _charger(self, cost: dict[int, int]) -> Callable[[], None]:
        """A zero-argument closure issuing the merged static charges."""
        charge = self.engine._charge
        items = tuple((ln, amt) for ln, amt in cost.items() if amt)
        if not items:
            return lambda: None
        if len(items) == 1:
            ln, amt = items[0]
            return lambda: charge(ln, amt)

        def do():
            for ln, amt in items:
                charge(ln, amt)

        return do

    def _wrap(self, line: int, cost: dict[int, int], core):
        """Statement prologue: chunk check, ``EV_STMT``, static charges."""
        charge = self.engine._charge
        items = tuple((ln, amt) for ln, amt in cost.items() if amt)
        if self.emit:
            events = self.engine._events
            append = events.append
            flush_events = self.engine._flush_events
            ev = (EV_STMT, line)
            if len(items) == 1:
                cl, ca = items[0]

                def fn(frame):
                    if len(events) >= EVENT_CHUNK:
                        flush_events()
                    append(ev)
                    charge(cl, ca)
                    return core(frame)

            elif not items:

                def fn(frame):
                    if len(events) >= EVENT_CHUNK:
                        flush_events()
                    append(ev)
                    return core(frame)

            else:

                def fn(frame):
                    if len(events) >= EVENT_CHUNK:
                        flush_events()
                    append(ev)
                    for ln, amt in items:
                        charge(ln, amt)
                    return core(frame)

        else:
            if len(items) == 1:
                cl, ca = items[0]

                def fn(frame):
                    charge(cl, ca)
                    return core(frame)

            elif not items:
                fn = core
            else:

                def fn(frame):
                    for ln, amt in items:
                        charge(ln, amt)
                    return core(frame)

        return fn

    def body(self, stmts: list[Stmt]) -> Callable[[list], Any]:
        fns = tuple(self.stmt(s) for s in stmts)
        if not fns:
            return lambda frame: None
        if len(fns) == 1:
            return fns[0]

        def run_body(frame):
            for f in fns:
                r = f(frame)
                if r is not None:
                    return r
            return None

        return run_body

    def stmt(self, s: Stmt) -> Callable[[list], Any]:
        kind = type(s)
        if kind is Assign:
            return self._stmt_assign(s)
        if kind is VarDecl:
            return self._stmt_decl(s)
        if kind is If:
            return self._stmt_if(s)
        if kind is For:
            return self._stmt_for(s)
        if kind is While:
            return self._stmt_while(s)
        if kind is Return:
            return self._stmt_return(s)
        if kind is ExprStmt:
            f, cost, _ = self.expr(s.expr)

            def core(frame):
                f(frame)
                return None

            return self._wrap(s.line, cost, core)
        if kind is Break:
            return self._wrap(s.line, {}, lambda frame: _BRK)
        if kind is Continue:
            return self._wrap(s.line, {}, lambda frame: _CNT)
        line = s.line
        return self._wrap(
            line, {}, self._raiser(f"unknown statement {s!r}", line)
        )

    def _stmt_assign(self, s: Assign):
        line = s.line
        target = s.target
        emit = self.emit
        append = self.engine._events.append
        vf, vcost, _ = self.expr(s.value)
        if isinstance(target, ArrayLV):
            slot_fn = self._array_slot(target.name, line)
            cost: dict[int, int] = {}
            index_fns = []
            for ix in target.indices:
                f, c, _ = self.expr(ix)
                index_fns.append(f)
                for ln, amt in c.items():
                    _add_cost(cost, ln, amt)
            _add_cost(cost, line, _INDEX * len(index_fns))
            flat_fn = self._flat_addr(target.name, line, index_fns)
            for ln, amt in vcost.items():
                _add_cost(cost, ln, amt)
            sid_w = getattr(s, "_sid_write", -1)
            if s.op == "=":
                _add_cost(cost, line, _STORE)

                def core(frame):
                    slot = slot_fn(frame)
                    flat = flat_fn(frame, slot)
                    value = vf(frame)
                    slot.data[flat] = (
                        int(value) if slot.dtype == "int" else float(value)
                    )
                    if emit:
                        append((EV_WRITE, slot.base + flat, sid_w))
                    return None

            else:
                _add_cost(cost, line, _LOAD + _ARITH + _STORE)
                apply = _arith_fn(s.op[0], line)
                sid_r = getattr(s, "_sid_read", -1)

                def core(frame):
                    slot = slot_fn(frame)
                    flat = flat_fn(frame, slot)
                    current = slot.data[flat]
                    if emit:
                        append((EV_READ, slot.base + flat, sid_r))
                    rhs = vf(frame)
                    value = apply(current, rhs)
                    slot.data[flat] = (
                        int(value) if slot.dtype == "int" else float(value)
                    )
                    if emit:
                        append((EV_WRITE, slot.base + flat, sid_w))
                    return None

            return self._wrap(line, cost, core)
        # scalar target
        name = target.name
        nkind = self.name_kind.get(name)
        resolve = self._resolve(name, line)
        gslot = self.engine.globals.get(name)
        if nkind is None and type(gslot) is ScalarCell:
            resolve = lambda frame: gslot
            check = False
        else:
            check = nkind != "scalar" or isinstance(gslot, ArrayValue)
        cost = dict(vcost)
        sid_w = getattr(s, "_sid_write", -1)
        if s.op == "=":
            _add_cost(cost, line, _STORE)

            def core(frame):
                slot = resolve(frame)
                if check and not isinstance(slot, ScalarCell):
                    raise InterpreterError(
                        f"cannot assign to array {name!r} without indices", line=line
                    )
                value = vf(frame)
                if isinstance(slot.value, int) and not isinstance(value, int):
                    value = int(value)
                slot.value = value
                if emit:
                    append((EV_WRITE, slot.addr, sid_w))
                return None

        else:
            _add_cost(cost, line, _LOAD + _ARITH + _STORE)
            apply = _arith_fn(s.op[0], line)
            sid_r = getattr(s, "_sid_read", -1)

            def core(frame):
                slot = resolve(frame)
                if check and not isinstance(slot, ScalarCell):
                    raise InterpreterError(
                        f"cannot assign to array {name!r} without indices", line=line
                    )
                if emit:
                    append((EV_READ, slot.addr, sid_r))
                rhs = vf(frame)
                value = apply(slot.value, rhs)
                if isinstance(slot.value, int) and not isinstance(value, int):
                    value = int(value)
                slot.value = value
                if emit:
                    append((EV_WRITE, slot.addr, sid_w))
                return None

        return self._wrap(line, cost, core)

    def _stmt_decl(self, s: VarDecl):
        line = s.line
        name_ix = self.name_ix[s.name]
        cell_ix = self.cell_ix[id(s)]
        space_alloc = self.engine.space.alloc
        emit = self.emit
        append = self.engine._events.append
        if s.dims:
            dim_fns = []
            dim_cost: dict[int, int] = {}
            for d in s.dims:
                f, c, _ = self.expr(d)
                dim_fns.append(f)
                for ln, amt in c.items():
                    _add_cost(dim_cost, ln, amt)
            # extent evaluation only happens on the allocating execution,
            # so its cost stays conditional (exactly the interpreter)
            charge_dims = self._charger(dim_cost)
            dims_t = tuple(dim_fns)
            dtype = s.type
            name = s.name
            space = self.engine.space

            def core(frame):
                slot = frame[cell_ix]
                if slot is None:
                    charge_dims()
                    extents = [int(f(frame)) for f in dims_t]
                    slot = ArrayValue(dtype, extents, space, name=name)
                    frame[cell_ix] = slot
                frame[name_ix] = slot
                return None

            return self._wrap(line, {}, core)
        dtype = s.type
        name = s.name
        zero = 0 if dtype == "int" else 0.0
        if s.init is None:

            def core(frame):
                slot = frame[cell_ix]
                if slot is None:
                    slot = ScalarCell(addr=space_alloc(1), value=zero, name=name)
                    frame[cell_ix] = slot
                frame[name_ix] = slot
                return None

            return self._wrap(line, {}, core)
        initf, icost, _ = self.expr(s.init)
        cost = dict(icost)
        _add_cost(cost, line, _STORE)
        conv = int if dtype == "int" else float
        sid = getattr(s, "_sid", -1)

        def core(frame):
            slot = frame[cell_ix]
            if slot is None:
                slot = ScalarCell(addr=space_alloc(1), value=zero, name=name)
                frame[cell_ix] = slot
            frame[name_ix] = slot
            value = initf(frame)
            slot.value = conv(value)
            if emit:
                append((EV_WRITE, slot.addr, sid))
            return None

        return self._wrap(line, cost, core)

    def _stmt_if(self, s: If):
        condf, cost, _ = self.expr(s.cond)
        cost = dict(cost)
        _add_cost(cost, s.line, _BRANCH)
        then_fn = self.body(s.then_body)
        else_fn = self.body(s.else_body)

        def core(frame):
            if condf(frame):
                return then_fn(frame)
            return else_fn(frame)

        return self._wrap(s.line, cost, core)

    def _stmt_return(self, s: Return):
        ret = self.engine._ret
        if s.value is None:

            def core(frame):
                ret[0] = None
                return _RET

            return self._wrap(s.line, {}, core)
        vf, cost, _ = self.expr(s.value)

        def core(frame):
            ret[0] = vf(frame)
            return _RET

        return self._wrap(s.line, cost, core)

    def _stmt_for(self, s: For):
        engine = self.engine
        emit = self.emit
        flush = engine._flush
        append = engine._events.append
        act = engine._act
        region = s.region_id
        line = s.line
        init_fn = self.stmt(s.init) if s.init is not None else None
        step_fn = self.stmt(s.step) if s.step is not None else None
        body_fn = self.body(s.body)
        if s.cond is not None:
            condf, ccost, _ = self.expr(s.cond)
            ccost = dict(ccost)
            _add_cost(ccost, line, _BRANCH)
            charge_cond = self._charger(ccost)
        else:
            condf = None
            charge_cond = None

        def core(frame):
            flush()
            act[0] = activation = act[0] + 1
            if emit:
                append((EV_ENTER_LOOP, region, activation, line))
            trips = 0
            r = None
            try:
                if init_fn is not None:
                    sig = init_fn(frame)
                    if sig is not None:  # pragma: no cover - grammar excludes
                        r = sig
                        return r
                while True:
                    if emit:
                        flush()
                        append((EV_ITER, region, trips))
                    if condf is not None:
                        charge_cond()
                        if not condf(frame):
                            break
                    sig = body_fn(frame)
                    if sig is not None:
                        if sig is _CNT:
                            pass
                        elif sig is _BRK:
                            trips += 1
                            break
                        else:
                            r = sig
                            break
                    if step_fn is not None:
                        step_fn(frame)
                    trips += 1
                return r
            finally:
                flush()
                if emit:
                    append((EV_EXIT_LOOP, region, activation, trips))

        return self._wrap(line, {}, core)

    def _stmt_while(self, s: While):
        engine = self.engine
        emit = self.emit
        flush = engine._flush
        append = engine._events.append
        act = engine._act
        region = s.region_id
        line = s.line
        body_fn = self.body(s.body)
        condf, ccost, _ = self.expr(s.cond)
        ccost = dict(ccost)
        _add_cost(ccost, line, _BRANCH)
        charge_cond = self._charger(ccost)

        def core(frame):
            flush()
            act[0] = activation = act[0] + 1
            if emit:
                append((EV_ENTER_LOOP, region, activation, line))
            trips = 0
            r = None
            try:
                while True:
                    if emit:
                        flush()
                        append((EV_ITER, region, trips))
                    charge_cond()
                    if not condf(frame):
                        break
                    sig = body_fn(frame)
                    if sig is not None:
                        if sig is _CNT:
                            pass
                        elif sig is _BRK:
                            trips += 1
                            break
                        else:
                            r = sig
                            break
                    trips += 1
                return r
            finally:
                flush()
                if emit:
                    append((EV_EXIT_LOOP, region, activation, trips))

        return self._wrap(line, {}, core)

    # ------------------------------------------------------------------
    # function entry
    # ------------------------------------------------------------------

    def compile_invoke(self) -> Callable[[list, int], Any]:
        engine = self.engine
        func = self.func
        emit = self.emit
        charge = engine._charge
        flush = engine._flush
        flush_events = engine._flush_events
        events = engine._events
        append = events.append
        act = engine._act
        ret = engine._ret
        space_alloc = engine.space.alloc
        region = func.region_id
        func_line = func.line
        body_fn = self.body(func.body)
        frame_size = self.frame_size
        # (frame index, shared storage?, sid, name) per parameter, in order
        plan = tuple(
            (
                self.name_ix[p.name],
                p.is_array or p.by_ref,
                getattr(p, "_sid", -1),
                p.name,
            )
            for p in func.params
        )
        n_value = sum(1 for p in func.params if not (p.is_array or p.by_ref))
        store_cost = _STORE * n_value

        def invoke(bound: list, call_line: int) -> Any:
            charge(call_line, _CALL)
            flush()
            act[0] = activation = act[0] + 1
            if emit:
                if len(events) >= EVENT_CHUNK:
                    flush_events()
                append((EV_ENTER_FUNC, region, activation, call_line))
                append((EV_STMT, func_line))
            frame = [None] * frame_size
            try:
                for (ix, shared, sid, pname), value in zip(plan, bound):
                    if shared:
                        frame[ix] = value
                    else:
                        cell = ScalarCell(
                            addr=space_alloc(1), value=value, name=pname
                        )
                        frame[ix] = cell
                        if emit:
                            append((EV_WRITE, cell.addr, sid))
                if store_cost:
                    charge(func_line, store_cost)
                sig = body_fn(frame)
                if sig is _RET:
                    result = ret[0]
                    ret[0] = None
                else:
                    result = None
                charge(func_line, _RETURN)
                return result
            finally:
                flush()
                if emit:
                    append((EV_EXIT_FUNC, region, activation))

        return invoke


class CompiledEngine:
    """Executes a MiniC :class:`Program` through compiled closures.

    Drop-in alternative to :class:`~repro.runtime.interpreter.Interpreter`:
    same constructor signature, same :meth:`run` contract, same event
    stream, same error behavior.  Compilation happens lazily per function
    the first time it is invoked and is cached for the engine's lifetime
    (one engine = one run's address space, like the interpreter).
    """

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
        self._functions = {f.name: f for f in program.functions}
        self._events: list[tuple] = []
        self._tot = [0]  # running cost total (cell: closures mutate it)
        self._acc = [-1, 0]  # per-line cost accumulator [line, amount]
        self._act = [0]  # activation-id counter
        self._ret: list[Any] = [None]  # return-value side channel
        if sink is not None:
            sink.set_site_table(get_site_table(program))
        self.globals = build_globals(program, self.space)
        self._compiled: dict[str, Callable[[list, int], Any]] = {}
        self._make_plumbing()

    @property
    def total_cost(self) -> int:
        return self._tot[0]

    def _make_plumbing(self) -> None:
        max_cost = self.max_cost
        tot = self._tot
        budget_msg = (
            f"execution exceeded the cost budget of {max_cost} instructions"
        )
        sink = self.sink
        if sink is None:

            def charge(line: int, amount: int) -> None:
                tot[0] += amount
                if tot[0] > max_cost:
                    raise StepLimitExceeded(budget_msg)

            def flush() -> None:
                pass

            def flush_events() -> None:
                pass

        else:
            events = self._events
            acc = self._acc
            append = events.append

            def charge(line: int, amount: int) -> None:
                tot[0] += amount
                if tot[0] > max_cost:
                    raise StepLimitExceeded(budget_msg)
                if line != acc[0]:
                    if acc[1]:
                        append((EV_COST, acc[0], acc[1]))
                        acc[1] = 0
                    acc[0] = line
                acc[1] += amount

            def flush() -> None:
                if acc[1]:
                    append((EV_COST, acc[0], acc[1]))
                    acc[1] = 0

            consume = sink.consume_batch

            def flush_events() -> None:
                if events:
                    consume(events)
                    events.clear()

        self._charge = charge
        self._flush = flush
        self._flush_events = flush_events

    def _get_invoke(self, name: str) -> Callable[[list, int], Any]:
        inv = self._compiled.get(name)
        if inv is None:
            inv = _FunctionCompiler(self, self._functions[name]).compile_invoke()
            self._compiled[name] = inv
        return inv

    def run(self, entry: str, args: Sequence[Any] = ()) -> RunResult:
        """Call *entry* with Python *args*; see :meth:`Interpreter.run`."""
        return run_entry(
            self, entry, args, lambda func, bound: self._get_invoke(entry)(bound, func.line)
        )


def run_compiled(
    program: Program,
    entry: str,
    args: Sequence[Any] = (),
    sink: Sink | None = None,
    max_cost: int = 500_000_000,
) -> RunResult:
    """Convenience wrapper: build a :class:`CompiledEngine` and run *entry*."""
    return CompiledEngine(program, sink=sink, max_cost=max_cost).run(entry, args)
