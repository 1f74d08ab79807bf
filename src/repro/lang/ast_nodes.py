"""AST node definitions for MiniC.

Every node carries the 1-based source ``line`` it begins on.  After parsing,
:func:`assign_ids` walks the tree and assigns

* a unique ``stmt_id`` to every statement, and
* a unique ``region_id`` to every *control region* — each function body and
  each loop — mirroring the control regions DiscoPoP reports (Section II of
  the paper).

Regions are the currency of the profiler: the Program Execution Tree (PET)
nodes are dynamic activations of these static regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class IntLit:
    value: int
    line: int = 0


@dataclass
class FloatLit:
    value: float
    line: int = 0


@dataclass
class VarRef:
    """Read of a scalar variable."""

    name: str
    line: int = 0


@dataclass
class ArrayRef:
    """Read of an array element ``name[i][j]...``."""

    name: str
    indices: list["Expr"]
    line: int = 0


@dataclass
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    line: int = 0


@dataclass
class UnaryOp:
    op: str  # '-' or '!'
    operand: "Expr"
    line: int = 0


@dataclass
class Call:
    """Call of a user function or intrinsic, usable as expression or stmt."""

    name: str
    args: list["Expr"]
    line: int = 0


Expr = Union[IntLit, FloatLit, VarRef, ArrayRef, BinOp, UnaryOp, Call]

# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------


@dataclass
class VarLV:
    name: str
    line: int = 0


@dataclass
class ArrayLV:
    name: str
    indices: list[Expr]
    line: int = 0


LValue = Union[VarLV, ArrayLV]

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class VarDecl:
    """Declaration ``int x = e;`` or ``float A[10][10];``.

    ``dims`` holds constant extent expressions for array declarations and is
    empty for scalars.  Globals allow only literal extents.
    """

    type: str  # 'int' | 'float'
    name: str
    dims: list[Expr] = field(default_factory=list)
    init: Expr | None = None
    line: int = 0
    stmt_id: int = -1


@dataclass
class Assign:
    """Assignment ``lv = e;`` with ``op`` in ``{'=', '+=', '-=', '*=', '/=', '%='}``."""

    target: LValue
    op: str
    value: Expr
    line: int = 0
    stmt_id: int = -1


@dataclass
class If:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"] = field(default_factory=list)
    line: int = 0
    stmt_id: int = -1


@dataclass
class For:
    """C-style for loop.  ``init``/``step`` may be ``None``.

    A ``For`` is a control region; ``region_id`` is assigned by
    :func:`assign_ids`.  ``induction_vars`` collects scalar names written by
    the init/step clauses — these are excluded from loop-carried dependence
    classification exactly as a compiler would exclude the canonical
    induction variable.
    """

    init: Union["Assign", "VarDecl", None]
    cond: Expr | None
    step: Union["Assign", None]
    body: list["Stmt"] = field(default_factory=list)
    line: int = 0
    stmt_id: int = -1
    region_id: int = -1
    induction_vars: frozenset[str] = frozenset()


@dataclass
class While:
    cond: Expr
    body: list["Stmt"] = field(default_factory=list)
    line: int = 0
    stmt_id: int = -1
    region_id: int = -1
    induction_vars: frozenset[str] = frozenset()


@dataclass
class Return:
    value: Expr | None = None
    line: int = 0
    stmt_id: int = -1


@dataclass
class Break:
    line: int = 0
    stmt_id: int = -1


@dataclass
class Continue:
    line: int = 0
    stmt_id: int = -1


@dataclass
class ExprStmt:
    """A bare expression statement — in practice always a call."""

    expr: Expr
    line: int = 0
    stmt_id: int = -1


Stmt = Union[VarDecl, Assign, If, For, While, Return, Break, Continue, ExprStmt]

LOOP_TYPES = (For, While)

# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """Function parameter.

    * scalar by value:      ``int n``
    * scalar by reference:  ``int &sum``   (needed for Listing 9's reduction)
    * array by reference:   ``float A[]`` / ``float B[][]``
    """

    type: str
    name: str
    array_rank: int = 0
    by_ref: bool = False
    line: int = 0

    @property
    def is_array(self) -> bool:
        return self.array_rank > 0


@dataclass
class Function:
    ret_type: str  # 'int' | 'float' | 'void'
    name: str
    params: list[Param]
    body: list[Stmt] = field(default_factory=list)
    line: int = 0
    region_id: int = -1


@dataclass
class Program:
    """A parsed MiniC translation unit."""

    globals: list[VarDecl] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    source: str = ""
    #: region_id -> Region metadata, filled by assign_ids()
    regions: dict[int, "Region"] = field(default_factory=dict)
    #: stmt_id -> statement, filled by assign_ids()
    stmts: dict[int, Stmt] = field(default_factory=dict)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.functions)


@dataclass
class Region:
    """Static control region: a function body or a loop.

    ``parent`` is the region_id of the enclosing region (``None`` for
    function bodies).  ``function`` is the name of the enclosing function.
    """

    region_id: int
    kind: str  # 'function' | 'loop'
    name: str  # function name, or e.g. 'for@12'
    line: int
    function: str
    parent: int | None = None
    node: Function | For | While | None = None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in *body*, depth-first, including nested ones.

    Preorder: a statement, then its children -- an ``If``'s then-branch and
    else-branch, a ``For``'s init, step and body, a ``While``'s body.  Site
    ids, CU ids and dependence insertion order all follow this order.  The
    walk keeps its own stack, so nesting costs no Python frames; it reads a
    statement's children when it resumes after yielding the statement.
    """
    stack = list(body)
    stack.reverse()
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, If):
            stack += stmt.else_body[::-1]
            stack += stmt.then_body[::-1]
        elif isinstance(stmt, For):
            stack += stmt.body[::-1]
            if stmt.step is not None:
                stack.append(stmt.step)
            if stmt.init is not None:
                stack.append(stmt.init)
        elif isinstance(stmt, While):
            stack += stmt.body[::-1]


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions directly owned by *stmt* (not nested stmts)."""
    if isinstance(stmt, VarDecl):
        yield from stmt.dims
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, Assign):
        if isinstance(stmt.target, ArrayLV):
            yield from stmt.target.indices
        yield stmt.value
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, For):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and every sub-expression, depth-first.

    Preorder, left operand before right and indices and arguments in
    source order, from an explicit stack like :func:`walk_stmts`.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, ArrayRef):
            stack += node.indices[::-1]
        elif isinstance(node, Call):
            stack += node.args[::-1]


def _induction_vars(loop: For | While) -> frozenset[str]:
    names: set[str] = set()
    if isinstance(loop, For):
        for clause in (loop.init, loop.step):
            if isinstance(clause, Assign) and isinstance(clause.target, VarLV):
                names.add(clause.target.name)
            elif isinstance(clause, VarDecl):
                names.add(clause.name)
    return frozenset(names)


def assign_ids(program: Program) -> Program:
    """Assign stmt_ids and region_ids; populate ``program.regions``/``stmts``.

    Idempotent: calling it again renumbers consistently.
    """
    program.regions = {}
    program.stmts = {}
    next_stmt = [0]
    next_region = [0]

    def new_region(kind: str, name: str, line: int, func: str, parent: int | None, node) -> int:
        rid = next_region[0]
        next_region[0] += 1
        program.regions[rid] = Region(
            region_id=rid, kind=kind, name=name, line=line, function=func, parent=parent, node=node
        )
        return rid

    def visit_body(body: list[Stmt], func: str, parent_region: int) -> None:
        for stmt in body:
            stmt.stmt_id = next_stmt[0]
            next_stmt[0] += 1
            program.stmts[stmt.stmt_id] = stmt
            if isinstance(stmt, (For, While)):
                label = f"{'for' if isinstance(stmt, For) else 'while'}@{stmt.line}"
                stmt.region_id = new_region("loop", label, stmt.line, func, parent_region, stmt)
                stmt.induction_vars = _induction_vars(stmt)
                inner: list[Stmt] = []
                if isinstance(stmt, For):
                    if stmt.init is not None:
                        inner.append(stmt.init)
                    if stmt.step is not None:
                        inner.append(stmt.step)
                for extra in inner:
                    extra.stmt_id = next_stmt[0]
                    next_stmt[0] += 1
                    program.stmts[extra.stmt_id] = extra
                visit_body(stmt.body, func, stmt.region_id)
            elif isinstance(stmt, If):
                visit_body(stmt.then_body, func, parent_region)
                visit_body(stmt.else_body, func, parent_region)

    for g in program.globals:
        g.stmt_id = next_stmt[0]
        next_stmt[0] += 1
        program.stmts[g.stmt_id] = g

    for func in program.functions:
        func.region_id = new_region("function", func.name, func.line, func.name, None, func)
        visit_body(func.body, func.name, func.region_id)

    return program
