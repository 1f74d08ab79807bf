"""Table III — overall pattern detection results for all 17 applications.

For every benchmark: the detected pattern label must equal the expected one
(all 17 match the paper's column, except fdtd-2d where we additionally
report "+ Do-all"; see EXPERIMENTS.md), and the simulated best speedup must
fall within a factor 3 band of the paper's measured speedup with the
peak-thread ordering preserved.
"""

import pytest

from repro.bench_programs import all_benchmarks, analyze_benchmark
from repro.reporting.tables import format_table
from repro.sim import plan_and_simulate

SPECS = {spec.name: spec for spec in all_benchmarks()}


@pytest.fixture(scope="module")
def results():
    return {name: plan_and_simulate(analyze_benchmark(name)) for name in SPECS}


def test_table3(benchmark, save_artifact, results):
    # the benchmarkable unit: one full thread sweep over a cached analysis
    benchmark(lambda: plan_and_simulate(analyze_benchmark("mvt")))
    rows = []
    for name, spec in SPECS.items():
        outcome = results[name]
        rows.append(
            [
                name,
                spec.suite,
                spec.loc,
                100 * outcome.share,
                outcome.best_speedup,
                outcome.best_threads,
                outcome.label,
                f"{spec.paper.speedup}x@{spec.paper.threads}",
            ]
        )
    save_artifact(
        "table3.txt",
        format_table(
            [
                "Application",
                "Suite",
                "LOC",
                "Hotspot %",
                "Speedup",
                "Threads",
                "Detected Pattern",
                "Paper",
            ],
            rows,
            title="Table III (reproduced; speedups simulated, see DESIGN.md §2)",
        ),
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_detected_pattern_matches(name, results):
    assert results[name].label == SPECS[name].expected_label


@pytest.mark.parametrize("name", sorted(SPECS))
def test_speedup_band(name, results):
    outcome = results[name]
    paper = SPECS[name].paper.speedup
    assert outcome.best_speedup >= max(1.15, paper / 3), (
        f"{name}: simulated {outcome.best_speedup:.2f} below band of paper {paper}"
    )
    assert outcome.best_speedup <= paper * 3, (
        f"{name}: simulated {outcome.best_speedup:.2f} above band of paper {paper}"
    )


class TestPeakThreadOrdering:
    """The qualitative saturation structure of Table III."""

    def test_fluidanimate_saturates_early(self, results):
        outcome = results["fluidanimate"]
        assert outcome.best_threads <= 4

    def test_fine_grained_kernels_peak_below_max(self, results):
        for name in ("gesummv", "kmeans"):
            outcome = results[name]
            assert outcome.best_threads <= 16, name

    def test_bicg_declines_past_its_peak(self, results):
        outcome = results["bicg"]
        sweep = dict(outcome.sweep.as_rows())
        assert sweep[32] < outcome.best_speedup

    def test_scalable_kernels_reach_high_thread_counts(self, results):
        for name in ("fib", "2mm", "correlation", "mvt", "3mm", "nqueens"):
            outcome = results[name]
            assert outcome.best_threads >= 16, name

    def test_pipelines_stay_modest(self, results):
        for name in ("reg_detect", "fluidanimate"):
            outcome = results[name]
            assert outcome.best_speedup < 4.0, name

    def test_big_kernels_beat_small_ones(self, results):
        big = min(results[n].best_speedup for n in ("2mm", "rot-cc", "correlation"))
        small = max(results[n].best_speedup for n in ("reg_detect", "fluidanimate"))
        assert big > 2 * small
