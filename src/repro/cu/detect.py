"""CU detection: forming read-compute-write units from a region's AST.

The procedure mirrors Figure 1 of the paper:

1. The region's body is flattened into *units*.  Loops are atomic units;
   statements containing user-function calls are atomic units; ``if``
   statements without calls or loops anywhere inside are atomic units;
   other ``if`` statements are transparent (their condition becomes a
   *guard* unit and their branches are flattened).
2. Units are classified as **anchors** (loops, calls, value-returning
   statements, and writes to *state* — anything that is not a scalar
   declared inside the region) or **plain** temp computations.
3. Consecutive plain units merge into groups.  A group consumed by exactly
   one anchor is absorbed into that anchor's CU (the "compute" part of
   read-compute-write); a group consumed by several anchors becomes its own
   CU (shared prologue, like ``cilksort``'s quarter computation — CU_0 in
   Figure 3); guards with no writes merge into the next plain group.
4. Finally, anchors that read-modify-write the *same* state variable are
   merged, reproducing Figure 1's CU_x = {read x, compute, write x}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cu.model import CU
from repro.errors import AnalysisError
from repro.lang.analysis import expr_reads
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Break,
    Call,
    Continue,
    For,
    If,
    Program,
    Return,
    Stmt,
    VarDecl,
    VarRef,
    While,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)


def region_body(program: Program, region: int) -> list[Stmt]:
    """The statement list owned by a static *region* (function or loop)."""
    reg = program.regions.get(region)
    if reg is None:
        raise AnalysisError(f"unknown region {region}")
    node = reg.node
    return list(node.body)


@dataclass
class _Unit:
    kind: str  # 'loop' | 'call' | 'return' | 'plain' | 'guard'
    stmts: list[Stmt] = field(default_factory=list)
    lines: set[int] = field(default_factory=set)
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    declares: set[str] = field(default_factory=set)
    callees: list[str] = field(default_factory=list)
    early_exit: bool = False


def _unit_for_stmt(stmt: Stmt, user_funcs: set[str]) -> tuple[_Unit, bool]:
    """The unit of *stmt*, and whether its subtree holds a loop or a call
    of a user function (which makes an ``If`` transparent).

    One walk over the subtree collects every line, read, write,
    declaration and user-function call, in the statement walk's order.
    """
    lines: set[int] = set()
    reads: set[str] = set()
    writes: set[str] = set()
    declares: set[str] = set()
    callees: list[str] = []
    has_loop = has_return = False
    for s in walk_stmts([stmt]):
        lines.add(s.line)
        if isinstance(s, Assign):
            writes.add(s.target.name)
            if s.op != "=":  # compound assignment also reads the target
                reads.add(s.target.name)
        elif isinstance(s, VarDecl):
            declares.add(s.name)
            if s.init is not None or not s.dims:
                writes.add(s.name)
        elif isinstance(s, (For, While)):
            has_loop = True
        elif isinstance(s, Return):
            has_return = True
        for root in stmt_exprs(s):
            for node in walk_exprs(root):
                if node.line:
                    lines.add(node.line)
                if isinstance(node, (VarRef, ArrayRef)):
                    reads.add(node.name)
                elif isinstance(node, Call) and node.name in user_funcs:
                    callees.append(node.name)
    early_exit = isinstance(stmt, If) and has_return
    if isinstance(stmt, (For, While)):
        kind = "loop"
    elif callees:
        kind = "call"
    elif isinstance(stmt, Return) or early_exit:
        kind = "return"
    else:
        kind = "plain"
    unit = _Unit(kind=kind, stmts=[stmt], lines=lines, reads=reads, writes=writes,
                 declares=declares, callees=callees, early_exit=early_exit)
    return unit, has_loop or bool(callees)


def _flatten_units(body: list[Stmt], user_funcs: set[str]) -> list[_Unit]:
    units: list[_Unit] = []
    for stmt in body:
        if isinstance(stmt, (Break, Continue)):
            continue
        if isinstance(stmt, Return) and stmt.value is None:
            continue
        if isinstance(stmt, VarDecl) and stmt.init is None and not stmt.dims:
            # bare scalar declaration: pure bookkeeping, no unit
            continue
        unit, holds_loop_or_call = _unit_for_stmt(stmt, user_funcs)
        if isinstance(stmt, If) and holds_loop_or_call:
            # transparent if: guard + flattened branches
            guard = _Unit(kind="guard", stmts=[stmt], lines={stmt.line})
            guard.reads = expr_reads(stmt.cond)
            units.append(guard)
            units.extend(_flatten_units(stmt.then_body, user_funcs))
            units.extend(_flatten_units(stmt.else_body, user_funcs))
            continue
        units.append(unit)
    return units


def detect_cus(program: Program, region: int) -> list[CU]:
    """Form the CUs of *region* (Figure 1's procedure, see module docs)."""
    body = region_body(program, region)
    user_funcs = {f.name for f in program.functions}
    units = _flatten_units(body, user_funcs)
    if not units:
        return []

    # State variables: everything not declared at this region's level.
    # (Bare declarations produce no unit but still introduce temporaries.)
    declared_here: set[str] = set()

    def collect_decls(stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, VarDecl):
                declared_here.add(stmt.name)
            elif isinstance(stmt, If):
                collect_decls(stmt.then_body)
                collect_decls(stmt.else_body)

    collect_decls(body)
    for unit in units:
        declared_here.update(unit.declares)

    def writes_state(unit: _Unit) -> bool:
        return any(v not in declared_here for v in unit.writes)

    def is_anchor(unit: _Unit) -> bool:
        if unit.kind in ("loop", "call"):
            return True
        if unit.kind == "return":
            return bool(unit.reads) or unit.early_exit
        if unit.kind == "guard":
            return False
        return writes_state(unit)

    # -- step 3a: merge guards into the next plain group -------------------
    anchors: list[_Unit] = []
    plain_groups: list[_Unit] = []  # merged plain groups, in order
    order: list[tuple[str, int]] = []  # ('anchor'|'group', index) in serial order

    pending_guards: list[_Unit] = []
    current_group: _Unit | None = None

    def close_group() -> None:
        nonlocal current_group
        if current_group is not None:
            order.append(("group", len(plain_groups)))
            plain_groups.append(current_group)
            current_group = None

    def merge_into(dst: _Unit, src: _Unit) -> None:
        dst.stmts.extend(src.stmts)
        dst.lines.update(src.lines)
        dst.reads.update(src.reads)
        dst.writes.update(src.writes)
        dst.declares.update(src.declares)
        dst.callees.extend(src.callees)
        dst.early_exit = dst.early_exit or src.early_exit

    for unit in units:
        if is_anchor(unit):
            close_group()
            for guard in pending_guards:
                # no plain group followed the guard before this anchor and
                # none will absorb it later if we keep holding it; a guard
                # directly followed by an anchor folds into that anchor
                merge_into(unit, guard)
            pending_guards = []
            order.append(("anchor", len(anchors)))
            anchors.append(unit)
        elif unit.kind == "guard":
            pending_guards.append(unit)
        else:
            if current_group is None:
                current_group = _Unit(kind="plain")
            for guard in pending_guards:
                merge_into(current_group, guard)
            pending_guards = []
            merge_into(current_group, unit)
    close_group()
    for guard in pending_guards:  # trailing guards with nothing after them
        if anchors:
            merge_into(anchors[-1], guard)

    if not anchors:
        # A region of pure temp computation: everything is one CU.
        cu = CU(cu_id=0, region=region, kind="plain")
        for group in plain_groups:
            cu.stmts.extend(group.stmts)
            cu.lines.update(group.lines)
            cu.reads.update(group.reads)
            cu.writes.update(group.writes)
        return [cu] if cu.stmts else []

    # -- step 3b: resolve plain groups to consumers ------------------------
    # Track, per variable, which order-entry last wrote it.
    consumers: dict[int, list[int]] = {gi: [] for gi in range(len(plain_groups))}
    last_writer: dict[str, tuple[str, int]] = {}
    for entry_kind, idx in order:
        unit = anchors[idx] if entry_kind == "anchor" else plain_groups[idx]
        if entry_kind == "anchor":
            for var in unit.reads:
                writer = last_writer.get(var)
                if writer is not None and writer[0] == "group":
                    if idx not in consumers[writer[1]]:
                        consumers[writer[1]].append(idx)
        for var in unit.writes:
            last_writer[var] = (entry_kind, idx)

    standalone_groups: list[int] = []
    for gi, group in enumerate(plain_groups):
        if len(consumers[gi]) == 1:
            merge_into(anchors[consumers[gi][0]], group)
        else:
            standalone_groups.append(gi)

    # -- step 4: merge read-modify-write chains on the same state var ------
    # Work on the final unit list in serial (first-line) order.
    final_units: list[_Unit] = [plain_groups[gi] for gi in standalone_groups] + anchors
    final_units.sort(key=lambda u: min(u.lines) if u.lines else 0)

    merged_away: set[int] = set()
    for i, unit in enumerate(final_units):
        if i in merged_away or unit.kind != "plain":
            continue
        state_writes = {v for v in unit.writes if v not in declared_here}
        if not state_writes:
            continue
        for j in range(i + 1, len(final_units)):
            if j in merged_away:
                continue
            later = final_units[j]
            if later.kind not in ("plain",):
                continue
            shared = state_writes & {
                v for v in later.writes if v not in declared_here
            }
            if shared and (later.reads & shared):
                merge_into(later, unit)
                merged_away.add(i)
                break
            if later.writes & state_writes:
                break  # someone else redefined the state var: chain broken

    result_units = [u for i, u in enumerate(final_units) if i not in merged_away]
    result_units.sort(key=lambda u: min(u.lines) if u.lines else 0)

    cus: list[CU] = []
    for i, unit in enumerate(result_units):
        cus.append(
            CU(
                cu_id=i,
                region=region,
                kind=unit.kind if unit.kind != "guard" else "plain",
                stmts=unit.stmts,
                lines=unit.lines,
                reads=unit.reads,
                writes=unit.writes,
                callees=unit.callees,
                early_exit=unit.early_exit,
            )
        )
    return cus
