"""Simulated machine model.

All costs are in the interpreter's IR-instruction units.  The defaults are
calibrated once against the qualitative shape of the paper's Table III
(large kernels scale to 32 threads; fine-grained synchronization peaks at
8–16; two-stage pipelines with a sequential stage saturate early) and then
frozen — benchmarks must not tune them per program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Machine:
    """Overhead parameters of the simulated shared-memory machine."""

    threads: int = 1
    #: cost to fork one task / hand one chunk to a worker
    spawn_cost: float = 60.0
    #: fixed cost of a barrier episode
    barrier_base: float = 50.0
    #: additional barrier cost per participating thread
    barrier_per_thread: float = 12.0
    #: per-level cost of a tree reduction combine
    reduction_combine: float = 30.0
    #: synchronization cost per cross-stage handoff in a pipeline
    pipeline_sync: float = 20.0
    #: per-task bookkeeping under a work-stealing runtime (work-first: the
    #: common case pays only a frame push, not a full spawn)
    task_overhead: float = 4.0
    #: memory-bandwidth saturation: bandwidth stops scaling past this many
    #: threads (two memory controllers on the paper's 2×8-core Xeon)
    bw_saturation: int = 6
    #: bandwidth-time units needed to stream one working-set element
    streaming_cost: float = 13.0

    def with_threads(self, threads: int) -> "Machine":
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return replace(self, threads=threads)

    def barrier_cost(self, threads: int | None = None) -> float:
        p = self.threads if threads is None else threads
        return self.barrier_base + self.barrier_per_thread * p

    def parallel_time(
        self,
        work: float,
        threads: int | None = None,
        streaming_fraction: float = 0.0,
    ) -> float:
        """Time for *work* units of parallel computation under the roofline.

        ``streaming_fraction`` is the profile's working-set density
        (:attr:`Profile.streaming_fraction`): the memory subsystem must
        stream ``work × fraction × streaming_cost`` units through a
        bandwidth that saturates at :attr:`bw_saturation` threads.  Compute
        time scales with P; the roofline is the max of the two — this is
        what makes streaming kernels (bicg/gesummv) flatten at ~8 threads
        while high-reuse kernels (2mm) scale to 32, as in Table III.
        """
        p = self.threads if threads is None else threads
        if p <= 1:
            return work
        t_cpu = work / p
        t_mem = (
            work * streaming_fraction * self.streaming_cost / min(p, self.bw_saturation)
        )
        return max(t_cpu, t_mem)


#: the frozen default calibration used by all benchmarks
DEFAULT_MACHINE = Machine()
