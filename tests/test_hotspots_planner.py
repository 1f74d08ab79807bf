"""Hotspot ranking and planner behaviour tests."""

import numpy as np
import pytest

from repro.patterns.engine import analyze, applicable_patterns, region_share
from repro.profiling import hotspot_regions, profile_run
from repro.sim import plan_and_simulate, sweep_pattern
from repro.sim.planner import loop_invocation_costs, pipeline_co_invocations

from conftest import parsed


class TestHotspots:
    def test_same_region_summed_across_pet_positions(self):
        # helper called from two places: its loop appears twice in the PET
        prog = parsed(
            """\
void helper(float A[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = A[i] + 1.0;
    }
}
void a(float A[], int n) { helper(A, n); }
void b(float A[], int n) { helper(A, n); }
void f(float A[], int n) {
    a(A, n);
    b(A, n);
}
"""
        )
        profile, _ = profile_run(prog, "f", [np.zeros(32), 32])
        loop = next(r.region_id for r in prog.regions.values() if r.kind == "loop")
        positions = [n for n in profile.pet.walk() if n.region == loop]
        assert len(positions) == 2
        hs = hotspot_regions(profile, prog, threshold=0.3)
        loop_hs = [h for h in hs if h.region == loop]
        assert len(loop_hs) == 1  # reported once, costs summed
        assert loop_hs[0].inclusive_cost == sum(p.inclusive_cost for p in positions)

    def test_region_coverage_fraction(self, reduction_program):
        profile, _ = profile_run(reduction_program, "total", [np.ones(16), 16])
        region = reduction_program.function("total").region_id
        assert 0.9 < region_share(profile, [region]) <= 1.0

    def test_empty_profile_has_no_hotspots(self):
        from repro.profiling.model import Profile

        assert hotspot_regions(Profile()) == []


class TestPlannerExtraction:
    def test_region_activations_in_order(self, fib_program):
        profile, _ = profile_run(fib_program, "fib", [6])
        region = fib_program.function("fib").region_id
        acts = profile.activations(region)
        assert len(acts) == 25  # calls of fib(6)
        ids = [a.act_id for a in acts]
        assert ids[0] == min(ids)

    def test_loop_invocation_costs_shape(self):
        prog = parsed(
            """\
void g(float A[], int n) {
    for (int i = 0; i < n; i++) { A[i] = A[i] + 1.0; }
}
void f(float A[], int n) {
    g(A, n);
    g(A, n);
}
"""
        )
        profile, _ = profile_run(prog, "f", [np.zeros(6), 6])
        loop = next(r.region_id for r in prog.regions.values() if r.kind == "loop")
        invs = loop_invocation_costs(profile, loop)
        assert len(invs) == 2
        assert all(len(inv) == 6 for inv in invs)
        assert all(c > 0 for inv in invs for c in inv)

    def test_pipeline_co_invocations_pair_by_parent(self, pipeline_program):
        profile, _ = profile_run(
            pipeline_program, "kernel", [np.ones(12), np.zeros(12), 12]
        )
        (pair_key,) = profile.pairs.keys()
        pairs = pipeline_co_invocations(profile, *pair_key)
        assert len(pairs) == 1
        cx, cy = pairs[0]
        assert len(cx) == 12 and len(cy) == 11


class TestSimulateAnalysis:
    def test_label_override(self, pipeline_program):
        result = analyze(
            pipeline_program, "kernel", [[np.ones(32), np.zeros(32), 32]]
        )
        found = dict(applicable_patterns(result))
        as_pipeline = sweep_pattern(
            result, "Multi-loop pipeline", found["Multi-loop pipeline"], (8,)
        )
        as_doall = sweep_pattern(result, "Do-all", found["Do-all"], (8,))
        assert as_pipeline.speedups[8] != as_doall.speedups[8]

    def test_unknown_label_neutral(self, pipeline_program):
        result = analyze(
            pipeline_program, "kernel", [[np.ones(16), np.zeros(16), 16]]
        )
        assert sweep_pattern(result, "Nonsense", [], (8,)).speedups == {8: 1.0}

    def test_single_thread_is_identity(self, reduction_program):
        result = analyze(reduction_program, "total", [[np.ones(32), 32]])
        assert plan_and_simulate(result, (1,)).best_speedup == pytest.approx(1.0)

    def test_plan_outcome_fields(self, reduction_program):
        result = analyze(reduction_program, "total", [[np.ones(64), 64]])
        outcome = plan_and_simulate(result, thread_counts=(1, 2, 4))
        assert outcome.label == "Reduction"
        assert set(dict(outcome.sweep.as_rows())) == {1, 2, 4}
        assert outcome.best_speedup >= 1.0

    def test_speedups_bounded_by_threads(self, reduction_program):
        result = analyze(reduction_program, "total", [[np.ones(64), 64]])
        for p, s in plan_and_simulate(result).sweep.as_rows():
            assert s <= p + 1e-9
