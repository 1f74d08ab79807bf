"""Data model for profiling results.

Everything in a :class:`Profile` is plain data keyed by *static* program
entities (region ids, source lines, variable names), so profiles from
different runs of the same program can be merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

RAW = "RAW"
WAR = "WAR"
WAW = "WAW"


class DepKey(NamedTuple):
    """An aggregated data dependence.

    ``region`` is the static id of the deepest control region whose single
    activation contained both endpoints; ``src_site``/``dst_site`` are the
    source lines of the statements *at that region's level* that were
    executing (call sites / loop statements for nested work) — these are what
    CU-graph edges are built from.  ``src_line``/``dst_line`` are the lines
    of the actual memory instructions (what Algorithm 3 reports).

    ``carrier`` is the static id of the loop that carries the dependence, or
    ``None`` for a loop-independent dependence.  For RAW, src is the write
    and dst the read; for WAR, src is the read; for WAW, src is the earlier
    write.
    """

    kind: str
    var: str
    region: int
    carrier: int | None
    src_line: int
    dst_line: int
    src_site: int
    dst_site: int


def _dep_sort_key(key: DepKey) -> tuple:
    # `carrier` is None for loop-independent edges; map it below any real
    # region id so mixed edges order deterministically.
    return (
        key.kind,
        key.var,
        key.region,
        -1 if key.carrier is None else key.carrier,
        key.src_line,
        key.dst_line,
        key.src_site,
        key.dst_site,
    )


def sorted_deps(deps: dict[DepKey, int]) -> dict[DepKey, int]:
    """*deps* in ``_dep_sort_key`` order, the order a decoded profile has.

    Detectors insert edges in ``deps`` iteration order, so a live profile
    must iterate as one read back from the cache does.
    """
    return {key: deps[key] for key in sorted(deps, key=_dep_sort_key)}


def _preorder(root: PETNode | CallNode) -> Iterator:
    """*root*, then each child's subtree in order.

    An explicit stack, not recursion: a call tree is as deep as the
    program's recursion, deeper than the interpreter's default limit.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@dataclass(slots=True)
class PETNode:
    """A node of the Program Execution Tree.

    Loop iterations are merged into one node; recursive re-entries of a
    function merge into the existing ancestor node with ``recursive=True``
    (Section II).  ``exclusive_cost`` counts IR instructions charged directly
    while this node was the innermost active region; ``inclusive_cost`` adds
    all descendants (and, for recursive nodes, all merged activations).
    """

    node_id: int
    region: int
    kind: str  # 'function' | 'loop'
    name: str
    line: int
    parent: "PETNode | None" = None
    children: list["PETNode"] = field(default_factory=list)
    exclusive_cost: int = 0
    inclusive_cost: int = 0
    invocations: int = 0
    total_trips: int = 0
    recursive: bool = False

    def child_for(self, region: int) -> "PETNode | None":
        for child in self.children:
            if child.region == region:
                return child
        return None

    def walk(self) -> Iterator["PETNode"]:
        return _preorder(self)

    def max_depth(self) -> int:
        """Height of this subtree in nodes (a leaf is depth 1)."""
        return 1 + max((c.max_depth() for c in self.children), default=0)

    def compute_inclusive(self) -> int:
        self.inclusive_cost = self.exclusive_cost + sum(
            c.compute_inclusive() for c in self.children
        )
        return self.inclusive_cost


@dataclass(slots=True)
class CallNode:
    """A node of the dynamic activation tree (functions *and* loops).

    ``site_line`` is the source line in the parent activation that caused
    this activation (call site or loop statement).  ``per_iter_cost`` is the
    inclusive cost of each iteration for loop activations.
    """

    act_id: int
    region: int
    kind: str
    site_line: int
    parent: "CallNode | None" = None
    children: list["CallNode"] = field(default_factory=list)
    inclusive_cost: int = 0
    exclusive_cost: int = 0
    per_iter_cost: list[int] = field(default_factory=list)

    def walk(self) -> Iterator["CallNode"]:
        """The activations of this subtree in execution order."""
        return _preorder(self)


@dataclass(slots=True)
class Profile:
    """Aggregated result of one or more instrumented runs."""

    total_cost: int = 0
    #: dependence -> occurrence count
    deps: dict[DepKey, int] = field(default_factory=dict)
    #: (loop region, var) -> source lines where var was written inside the loop
    loop_var_writes: dict[tuple[int, str], set[int]] = field(default_factory=dict)
    #: (loop region, var) -> source lines where var was read inside the loop
    loop_var_reads: dict[tuple[int, str], set[int]] = field(default_factory=dict)
    #: (loop region, var) pairs where some iteration's first access was a read
    read_first: set[tuple[int, str]] = field(default_factory=set)
    #: (loop region, var) pairs accessed inside the loop at all
    loop_accessed: set[tuple[int, str]] = field(default_factory=set)
    #: (loop_x region, loop_y region) -> (i_x, i_y) iteration pairs
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = field(default_factory=dict)
    #: line -> instructions charged at that line
    line_costs: dict[int, int] = field(default_factory=dict)
    #: (region, site line) -> inclusive instructions under that site
    site_costs: dict[tuple[int, int], int] = field(default_factory=dict)
    #: loop region -> (invocations, total trips, max trip)
    loop_trips: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    pet: PETNode | None = None
    calltree: CallNode | None = None
    runs: int = 1
    #: distinct array-element addresses touched (the working set that must
    #: stream from memory) and the number of array-element accesses
    unique_array_addresses: int = 0
    array_accesses: int = 0
    #: region -> its call-tree activations, built by :meth:`activations`
    _activations: dict[int, tuple[CallNode, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def streaming_fraction(self) -> float:
        """Working-set units per instruction — feeds the bandwidth model.

        High-reuse kernels (matmul: O(N³) work over O(N²) data) get a small
        value and scale with threads; streaming kernels (bicg: one pass over
        the matrix) get a large value and saturate memory bandwidth early.
        """
        if self.total_cost <= 0:
            return 0.0
        return self.unique_array_addresses / self.total_cost

    # ------------------------------------------------------------------
    # convenience queries
    # ------------------------------------------------------------------

    def carried_raw_vars(self, loop: int) -> set[str]:
        return {d.var for d in self.deps if d.carrier == loop and d.kind == RAW}

    def live_deps(self, live_vars: "set[str] | frozenset[str]") -> Iterable[DepKey]:
        """Dependences on variables in *live_vars*, in ``deps`` order.

        The feature-extraction hook for :mod:`repro.learn`: transforms that
        add write-only (dead) locals introduce dependences the live view of
        the program never sees, so extractors iterate this instead of
        ``deps`` to stay invariant under them.
        """
        return (d for d in self.deps if d.var in live_vars)

    def trip_count(self, loop: int) -> int:
        """Total body executions of *loop* across all activations."""
        info = self.loop_trips.get(loop)
        return info[1] if info else 0

    def max_trip(self, loop: int) -> int:
        info = self.loop_trips.get(loop)
        return info[2] if info else 0

    def activations(self, region: int) -> tuple[CallNode, ...]:
        """The call-tree activations of *region*, in execution order.

        The first call indexes every region with one walk of the call tree;
        a profile is not mutated after ``Profiler.finish()``, so the index
        stays valid.
        """
        if self._activations is None:
            index: dict[int, list[CallNode]] = {}
            if self.calltree is not None:
                for node in self.calltree.walk():
                    index.setdefault(node.region, []).append(node)
            self._activations = {r: tuple(acts) for r, acts in index.items()}
        return self._activations.get(region, ())

    def region_cost(self, region: int) -> int:
        """Inclusive cost of *region* summed over its PET occurrences."""
        if self.pet is None:
            return 0
        return sum(n.inclusive_cost for n in self.pet.walk() if n.region == region)

    # ------------------------------------------------------------------
    # merging (multiple representative inputs, Section II)
    # ------------------------------------------------------------------

    def merge(self, other: "Profile") -> "Profile":
        """Merge *other* into a new Profile (both unmodified)."""
        out = Profile(runs=self.runs + other.runs)
        out.total_cost = self.total_cost + other.total_cost
        deps = dict(self.deps)
        for key, count in other.deps.items():
            deps[key] = deps.get(key, 0) + count
        out.deps = sorted_deps(deps)
        for attr in ("loop_var_writes", "loop_var_reads"):
            merged: dict[tuple[int, str], set[int]] = {
                k: set(v) for k, v in getattr(self, attr).items()
            }
            for k, v in getattr(other, attr).items():
                merged.setdefault(k, set()).update(v)
            setattr(out, attr, merged)
        out.read_first = set(self.read_first) | set(other.read_first)
        out.loop_accessed = set(self.loop_accessed) | set(other.loop_accessed)
        out.pairs = {k: list(v) for k, v in self.pairs.items()}
        for k, v in other.pairs.items():
            out.pairs.setdefault(k, []).extend(v)
        out.line_costs = dict(self.line_costs)
        for line, cost in other.line_costs.items():
            out.line_costs[line] = out.line_costs.get(line, 0) + cost
        out.site_costs = dict(self.site_costs)
        for key, cost in other.site_costs.items():
            out.site_costs[key] = out.site_costs.get(key, 0) + cost
        out.loop_trips = dict(self.loop_trips)
        for loop, (inv, total, peak) in other.loop_trips.items():
            if loop in out.loop_trips:
                i0, t0, m0 = out.loop_trips[loop]
                out.loop_trips[loop] = (i0 + inv, t0 + total, max(m0, peak))
            else:
                out.loop_trips[loop] = (inv, total, peak)
        out.loop_trips = {k: out.loop_trips[k] for k in sorted(out.loop_trips)}
        out.unique_array_addresses = max(
            self.unique_array_addresses, other.unique_array_addresses
        )
        out.array_accesses = self.array_accesses + other.array_accesses
        out.pet = _merge_pet(self.pet, other.pet)
        # Call trees are per-run artifacts; keep the one from the larger run
        # (falling back to whichever exists).
        if self.calltree is None:
            out.calltree = other.calltree
        elif other.calltree is None:
            out.calltree = self.calltree
        else:
            out.calltree = (
                self.calltree
                if self.total_cost >= other.total_cost
                else other.calltree
            )
        return out


def _merge_pet(a: PETNode | None, b: PETNode | None) -> PETNode | None:
    if a is None:
        return b
    if b is None:
        return a
    counter = [0]

    def clone(node: PETNode, parent: PETNode | None) -> PETNode:
        out = PETNode(
            node_id=counter[0],
            region=node.region,
            kind=node.kind,
            name=node.name,
            line=node.line,
            parent=parent,
            exclusive_cost=node.exclusive_cost,
            invocations=node.invocations,
            total_trips=node.total_trips,
            recursive=node.recursive,
        )
        counter[0] += 1
        for child in node.children:
            out.children.append(clone(child, out))
        return out

    def fold(dst: PETNode, src: PETNode) -> None:
        dst.exclusive_cost += src.exclusive_cost
        dst.invocations += src.invocations
        dst.total_trips += src.total_trips
        dst.recursive = dst.recursive or src.recursive
        for src_child in src.children:
            dst_child = dst.child_for(src_child.region)
            if dst_child is None:
                dst.children.append(clone(src_child, dst))
            else:
                fold(dst_child, src_child)

    if a.region != b.region:
        raise ValueError("cannot merge PETs with different roots")
    merged = clone(a, None)
    fold(merged, b)
    merged.compute_inclusive()
    return merged
