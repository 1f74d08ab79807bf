"""Schedule simulator tests: do-all, reduction, tasks, pipeline, geometric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph
from repro.sim import (
    Machine,
    compose_speedup,
    simulate_doall,
    simulate_geometric,
    simulate_pipeline_chain,
    simulate_recursive_tasks,
    simulate_reduction,
    simulate_task_graph,
)
from repro.sim.result import SimOutcome

M = Machine()


class TestMachine:
    def test_serial_time_unchanged(self):
        assert M.parallel_time(1000.0, 1) == 1000.0

    def test_compute_scaling(self):
        assert M.parallel_time(1000.0, 4) == pytest.approx(250.0)

    def test_roofline_binds_streaming_work(self):
        # fully streaming work cannot scale past bw_saturation
        capped = M.parallel_time(1000.0, 32, streaming_fraction=1.0)
        assert capped == pytest.approx(1000.0 * M.streaming_cost / M.bw_saturation)

    def test_with_threads_validates(self):
        with pytest.raises(ValueError):
            M.with_threads(0)

    @given(
        work=st.floats(1.0, 1e6),
        p=st.integers(1, 64),
        sf=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_parallel_time_bounds(self, work, p, sf):
        t = M.parallel_time(work, p, sf)
        assert t >= work / p - 1e-9
        if sf == 0.0:
            assert t == pytest.approx(work / p)


class TestDoAll:
    def test_single_thread_is_serial(self):
        out = simulate_doall([[10.0] * 8], M.with_threads(1))
        assert out.speedup == 1.0

    def test_balanced_loop_scales(self):
        out = simulate_doall([[100.0] * 64], M.with_threads(8))
        assert 4.0 < out.speedup <= 8.0

    def test_imbalanced_block_limits(self):
        costs = [1.0] * 63 + [1000.0]
        out = simulate_doall([costs], M.with_threads(8))
        assert out.parallel_time >= 1000.0

    def test_many_invocations_pay_many_barriers(self):
        one = simulate_doall([[10.0] * 64], M.with_threads(8))
        many = simulate_doall([[10.0] * 8] * 8, M.with_threads(8))
        assert many.parallel_time > one.parallel_time

    def test_serial_time_is_total_work(self):
        out = simulate_doall([[3.0, 4.0], [5.0]], M.with_threads(4))
        assert out.serial_time == 12.0

    @given(
        n=st.integers(1, 100),
        cost=st.floats(1.0, 100.0),
        p=st.integers(2, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_speedup_never_exceeds_threads(self, n, cost, p):
        out = simulate_doall([[cost] * n], M.with_threads(p))
        assert out.speedup <= p + 1e-9


class TestReduction:
    def test_combine_cost_added(self):
        base = simulate_doall([[50.0] * 32], M.with_threads(8))
        red = simulate_reduction([[50.0] * 32], M.with_threads(8))
        assert red.parallel_time > base.parallel_time

    def test_array_combine_scales_with_elements(self):
        small = simulate_reduction([[50.0] * 32], M.with_threads(8), n_reduction_vars=1)
        big = simulate_reduction([[50.0] * 32], M.with_threads(8), n_reduction_vars=64)
        assert big.parallel_time > small.parallel_time

    def test_single_thread_no_combine(self):
        out = simulate_reduction([[50.0] * 32], M.with_threads(1))
        assert out.speedup == 1.0


class TestTaskGraph:
    def graph(self, edges, n):
        g = DiGraph()
        for i in range(n):
            g.add_node(i)
        for a, b in edges:
            g.add_edge(a, b)
        return g

    def test_chain_cannot_speed_up(self):
        g = self.graph([(0, 1), (1, 2)], 3)
        out = simulate_task_graph(g, {0: 100.0, 1: 100.0, 2: 100.0}, M.with_threads(4))
        assert out.speedup < 1.0  # overheads only

    def test_independent_tasks_scale(self):
        g = self.graph([], 8)
        out = simulate_task_graph(g, {i: 1000.0 for i in range(8)}, M.with_threads(8))
        assert out.speedup > 4.0

    def test_diamond_respects_dependences(self):
        g = self.graph([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        w = {0: 10.0, 1: 100.0, 2: 100.0, 3: 10.0}
        out = simulate_task_graph(g, w, M.with_threads(4))
        # lower bound: critical path 0 -> worker -> 3
        assert out.parallel_time >= 120.0

    def test_single_thread_serial(self):
        g = self.graph([], 4)
        out = simulate_task_graph(g, {i: 10.0 for i in range(4)}, M.with_threads(1))
        assert out.parallel_time == out.serial_time


class TestRecursiveTasks:
    def test_brent_bound_shape(self):
        out = simulate_recursive_tasks(
            work=100_000.0, span=1_000.0, n_tasks=100, machine=M.with_threads(8)
        )
        assert out.parallel_time >= 100_000.0 / 8
        assert out.parallel_time >= 1_000.0

    def test_span_dominates_at_high_threads(self):
        out = simulate_recursive_tasks(
            work=10_000.0, span=5_000.0, n_tasks=10, machine=M.with_threads(32)
        )
        assert out.speedup < 2.1

    def test_task_overhead_charged(self):
        few = simulate_recursive_tasks(10_000.0, 10.0, 10, M.with_threads(4))
        many = simulate_recursive_tasks(10_000.0, 10.0, 10_000, M.with_threads(4))
        assert many.parallel_time > few.parallel_time


class TestPipeline:
    def test_perfect_pipeline_overlaps(self):
        cx = [100.0] * 20
        cy = [10.0] * 20
        out = simulate_pipeline_chain([cx, cy], [(1.0, 0.0)], M.with_threads(8))
        # stage 1 parallelized over 7 threads; y trails slightly
        assert out.speedup > 3.0

    def test_sequential_producer_two_stage_cap(self):
        cx = [100.0] * 20
        cy = [100.0] * 20
        out = simulate_pipeline_chain(
            [cx, cy], [(1.0, 0.0)], M.with_threads(8), stage0_parallel=False
        )
        assert out.speedup < 2.1

    def test_full_serialization_when_y_needs_everything(self):
        cx = [100.0] * 20
        cy = [100.0] * 20
        # b = -20: y's first iteration needs x's last
        out = simulate_pipeline_chain(
            [cx, cy], [(1.0, -20.0)], M.with_threads(4), stage0_parallel=False
        )
        assert out.speedup < 1.1

    def test_single_thread_serial(self):
        out = simulate_pipeline_chain(
            [[10.0] * 4, [10.0] * 4], [(1.0, 0.0)], M.with_threads(1)
        )
        assert out.parallel_time == out.serial_time

    def test_empty_stage(self):
        out = simulate_pipeline_chain([[], [10.0]], [(1.0, 0.0)], M.with_threads(4))
        assert out.speedup == 1.0


class TestGeometric:
    def test_chunks_limit_parallelism(self):
        out = simulate_geometric([1000.0] * 4, M.with_threads(32))
        assert out.speedup <= 4.0

    def test_lpt_handles_imbalance(self):
        out = simulate_geometric([800.0, 100.0, 100.0, 100.0, 100.0], M.with_threads(4))
        assert out.parallel_time >= 800.0
        assert out.speedup > 1.2

    def test_single_chunk_serial(self):
        out = simulate_geometric([500.0], M.with_threads(8))
        assert out.speedup == 1.0


class TestCompose:
    def test_amdahl_limits(self):
        region = SimOutcome(threads=8, serial_time=500.0, parallel_time=62.5)
        total = 1000.0  # half the program stays serial
        speedup = compose_speedup(total, [region])
        assert speedup == pytest.approx(1000.0 / 562.5)
        assert speedup < 2.0

    def test_full_coverage(self):
        region = SimOutcome(threads=8, serial_time=1000.0, parallel_time=125.0)
        assert compose_speedup(1000.0, [region]) == pytest.approx(8.0)

    def test_multiple_regions_sum(self):
        r1 = SimOutcome(threads=4, serial_time=400.0, parallel_time=100.0)
        r2 = SimOutcome(threads=4, serial_time=400.0, parallel_time=100.0)
        assert compose_speedup(1000.0, [r1, r2]) == pytest.approx(1000.0 / 400.0)

    def test_outcome_addition(self):
        r1 = SimOutcome(threads=4, serial_time=10.0, parallel_time=5.0)
        r2 = SimOutcome(threads=4, serial_time=20.0, parallel_time=5.0)
        total = sum([r1, r2])
        assert total.serial_time == 30.0
        assert total.parallel_time == 10.0

    def test_outcome_addition_thread_mismatch(self):
        r1 = SimOutcome(threads=4, serial_time=1.0, parallel_time=1.0)
        r2 = SimOutcome(threads=8, serial_time=1.0, parallel_time=1.0)
        with pytest.raises(ValueError):
            r1 + r2
