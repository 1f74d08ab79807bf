"""Result types for pattern detection, and the Table I mapping."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cu.model import CU
from repro.graphs.digraph import DiGraph

#: Table I — algorithm structure patterns mapped to their best supporting
#: structures.
SUPPORTING_STRUCTURE: dict[str, str] = {
    "Task parallelism": "Master/worker",
    "Geometric decomposition": "SPMD",
    "Reduction": "SPMD",
    "Multi-loop pipeline": "SPMD",
}

#: Table I — the concurrency type each pattern exploits.
PATTERN_TYPE: dict[str, str] = {
    "Task parallelism": "Task",
    "Geometric decomposition": "Data",
    "Reduction": "Data",
    "Multi-loop pipeline": "Flow of data",
}


class LoopClassification(enum.Enum):
    """How a loop's iterations relate."""

    DOALL = "do-all"
    REDUCTION = "reduction"
    SEQUENTIAL = "sequential"


@dataclass
class LoopClass:
    """Classification of one loop region."""

    region: int
    classification: LoopClassification
    #: carried dependences that block do-all, after induction/privatization
    #: filtering (empty for DOALL; only reduction-pattern ones for REDUCTION)
    blocking_vars: set[str] = field(default_factory=set)
    #: variables proven privatizable (never read before written per iteration)
    privatizable: set[str] = field(default_factory=set)
    reductions: list["ReductionCandidate"] = field(default_factory=list)

    @property
    def is_doall(self) -> bool:
        return self.classification is LoopClassification.DOALL

    @property
    def is_reduction(self) -> bool:
        return self.classification is LoopClassification.REDUCTION

    @property
    def parallelizable(self) -> bool:
        return self.classification is not LoopClassification.SEQUENTIAL


@dataclass
class ReductionCandidate:
    """One reduction opportunity (Algorithm 3 output)."""

    loop: int
    var: str
    line: int
    #: inferred associative operator ('+', '*', 'min', 'max') — an extension
    #: beyond the paper, which leaves operator identification to the user.
    operator: str | None = None


@dataclass
class MultiLoopPipeline:
    """A detected multi-loop pipeline between two loops (Section III-A)."""

    loop_x: int
    loop_y: int
    a: float
    b: float
    efficiency: float
    n_pairs: int
    trips_x: int
    trips_y: int
    stage_x: LoopClass | None = None
    stage_y: LoopClass | None = None

    @property
    def is_perfect(self) -> bool:
        """Each i-th iteration of y depends exactly on the i-th of x."""
        return abs(self.a - 1.0) < 1e-9 and abs(self.b) < 1e-9


@dataclass
class WavefrontCandidate:
    """A wavefront / skewed-pipeline shape between two dependent loops.

    ``direction`` is ``'backward'`` when the writer loop lies lexically
    after the reader loop — the dependence is then carried by the common
    enclosing loop ``carrier`` and a wavefront schedule overlaps the
    carrier's iterations along the diagonal — and ``'forward'`` for a
    skewed pipeline (negative intercept: iteration i of loop y waits only
    for iteration ``a·i + b < i`` of loop x).
    """

    loop_x: int
    loop_y: int
    #: region id of the common enclosing loop carrying a backward
    #: dependence; ``None`` for forward (skewed-pipeline) shapes
    carrier: int | None
    a: float
    b: float
    r2: float
    n_pairs: int
    direction: str  # 'backward' | 'forward'

    @property
    def is_carried(self) -> bool:
        return self.direction == "backward"


@dataclass
class FusionCandidate:
    """Two do-all loops fusable into a single do-all loop."""

    loop_x: int
    loop_y: int
    pipeline: MultiLoopPipeline


@dataclass
class TaskParallelism:
    """Output of Algorithm 1 on one region's CU graph (Section III-B)."""

    region: int
    cus: list[CU]
    graph: DiGraph
    #: cu_id -> 'fork' | 'worker' | 'barrier'
    marks: dict[int, str]
    #: barrier cu_id -> the worker/barrier cu_ids it waits on
    barrier_inputs: dict[int, list[int]]
    #: pairs of barriers that may run in parallel (no path either way)
    parallel_barriers: list[tuple[int, int]]
    total_instructions: int
    critical_path_instructions: int
    critical_path: list[int] = field(default_factory=list)
    #: a heaviest antichain of the CU graph: CUs with no path between any
    #: two of them — the tasks that can actually run concurrently.  This
    #: covers both Algorithm 1's workers and the independent-forks case
    #: (mvt's two loops, fdtd-2d's three field updates).
    concurrent_tasks: list[int] = field(default_factory=list)
    #: dynamic instruction weight per CU
    weights: dict[int, float] = field(default_factory=dict)

    def significant_tasks(self, min_share: float = 0.08) -> list[int]:
        """Concurrent tasks carrying at least *min_share* of the region's
        CU weight — the grain filter that keeps statement-level
        "parallelism" inside tiny loop bodies from being reported."""
        total = sum(self.weights.values())
        if total <= 0:
            return []
        return [
            cu
            for cu in self.concurrent_tasks
            if self.weights.get(cu, 0.0) >= min_share * total
        ]
    #: conservative variant of the metric that, like the paper's tool, does
    #: not unroll recursion: worker subtrees are opaque single steps.
    single_step_total: int = 0
    single_step_cp: int = 0

    @property
    def estimated_speedup(self) -> float:
        """Total instructions / critical-path instructions (work over span)."""
        if self.critical_path_instructions <= 0:
            return 1.0
        return self.total_instructions / self.critical_path_instructions

    @property
    def single_step_speedup(self) -> float:
        """The paper's one-recursive-step estimate (Section IV-B notes it
        underestimates recursive benchmarks like fib)."""
        if self.single_step_cp <= 0:
            return self.estimated_speedup
        return self.single_step_total / self.single_step_cp

    def of_kind(self, mark: str) -> list[int]:
        return sorted(cu for cu, m in self.marks.items() if m == mark)

    @property
    def forks(self) -> list[int]:
        return self.of_kind("fork")

    @property
    def workers(self) -> list[int]:
        return self.of_kind("worker")

    @property
    def barriers(self) -> list[int]:
        return self.of_kind("barrier")


@dataclass
class GeometricDecomposition:
    """A function suitable for geometric decomposition (Section III-C)."""

    region: int
    function: str
    #: loop region -> classification, for every loop Algorithm 2 examined
    analyzed_loops: dict[int, LoopClass]
    #: directly-called functions whose loops were also examined
    called_functions: list[str] = field(default_factory=list)
