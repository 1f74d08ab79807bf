"""Ablation — machine-model sensitivity of the simulated Table III.

Two knobs are swept:

* synchronization overheads (spawn/barrier) — compute-bound kernels should
  be insensitive, fine-grained ones (reg_detect's pipeline handoffs,
  kmeans' chunk scheduling) should degrade as overheads grow;
* the memory-bandwidth roofline — removing it should let the streaming
  kernels (gesummv) scale past their paper peak, demonstrating that the
  roofline term is what reproduces the ~8-thread saturation.
"""

import dataclasses

import pytest

from repro.bench_programs import analyze_benchmark
from repro.reporting.tables import format_table
from repro.sim import plan_and_simulate
from repro.sim.machine import DEFAULT_MACHINE

SCALES = (0.25, 1.0, 4.0)


def _with_overhead_scale(scale: float):
    return dataclasses.replace(
        DEFAULT_MACHINE,
        spawn_cost=DEFAULT_MACHINE.spawn_cost * scale,
        barrier_base=DEFAULT_MACHINE.barrier_base * scale,
        barrier_per_thread=DEFAULT_MACHINE.barrier_per_thread * scale,
        pipeline_sync=DEFAULT_MACHINE.pipeline_sync * scale,
    )


def _best(name: str, machine) -> float:
    return plan_and_simulate(analyze_benchmark(name), machine=machine).best_speedup


@pytest.fixture(scope="module")
def overhead_grid():
    names = ("2mm", "reg_detect", "kmeans", "gesummv", "fdtd-2d")
    return {
        name: {scale: _best(name, _with_overhead_scale(scale)) for scale in SCALES}
        for name in names
    }


def test_ablation_machine(benchmark, save_artifact, overhead_grid):
    benchmark(lambda: _best("2mm", DEFAULT_MACHINE))
    rows = [
        [name] + [grid[scale] for scale in SCALES]
        for name, grid in overhead_grid.items()
    ]
    save_artifact(
        "ablation_machine.txt",
        format_table(
            ["Application"] + [f"overhead x{s}" for s in SCALES],
            rows,
            title="Ablation: sync-overhead scaling vs best simulated speedup",
        ),
    )


class TestOverheadSensitivity:
    def test_speedups_monotone_in_overhead(self, overhead_grid):
        for name, grid in overhead_grid.items():
            values = [grid[s] for s in SCALES]
            assert values[0] >= values[1] >= values[2], name

    def test_compute_bound_kernel_insensitive(self, overhead_grid):
        grid = overhead_grid["2mm"]
        assert grid[4.0] > 0.7 * grid[0.25]

    def test_fine_grained_kernels_sensitive(self, overhead_grid):
        # fdtd-2d pays several barriers per time step: overheads bite hard
        grid = overhead_grid["fdtd-2d"]
        assert grid[4.0] < 0.5 * grid[0.25]


class TestRooflineAblation:
    def test_removing_roofline_unleashes_streaming_kernels(self):
        no_bw = dataclasses.replace(DEFAULT_MACHINE, streaming_cost=0.0)
        result = analyze_benchmark("gesummv")
        capped = plan_and_simulate(result)
        uncapped = plan_and_simulate(result, machine=no_bw)
        assert uncapped.best_speedup > 1.5 * capped.best_speedup
        assert uncapped.best_threads >= capped.best_threads

    def test_roofline_barely_affects_high_reuse_kernels(self):
        no_bw = dataclasses.replace(DEFAULT_MACHINE, streaming_cost=0.0)
        result = analyze_benchmark("3mm")
        capped = plan_and_simulate(result)
        uncapped = plan_and_simulate(result, machine=no_bw)
        assert uncapped.best_speedup < 1.35 * capped.best_speedup
