"""n-stage pipeline chain simulation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sim as ref

from repro.errors import SimulationError
from repro.sim import Machine
from repro.sim.pipeline import simulate_pipeline_chain

M = Machine()

_COSTS = st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=24)


class TestChainSim:
    def test_two_stage_chain_close_to_pairwise(self):
        cx = [100.0] * 20
        cy = [20.0] * 20
        pairwise = ref.simulate_pipeline(cx, cy, 1.0, 0.0, M, threads=8)
        chain = simulate_pipeline_chain([cx, cy], [(1.0, 0.0)], M.with_threads(8))
        assert chain.parallel_time == pytest.approx(pairwise.parallel_time, rel=0.05)

    def test_subnormal_slope_waits_for_whole_producer(self):
        # (j - b) / a overflows to inf: each consumer iteration past b
        # needs the producer's last iteration, as for any tiny slope
        stages = [[10.0] * 4, [10.0] * 4]
        tiny = simulate_pipeline_chain(
            stages, [(2.2e-309, 0.0)], M.with_threads(2), stage0_parallel=False
        )
        small = simulate_pipeline_chain(
            stages, [(1e-9, 0.0)], M.with_threads(2), stage0_parallel=False
        )
        assert tiny.parallel_time == small.parallel_time

    @settings(max_examples=300, deadline=None)
    @given(
        cx=_COSTS,
        cy=_COSTS,
        a=st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False)),
        b=st.floats(-30.0, 30.0, allow_nan=False),
        threads=st.integers(1, 32),
        stage_x_parallel=st.booleans(),
        streaming=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_two_stage_chain_equals_pairwise_reference(
        self, cx, cy, a, b, threads, stage_x_parallel, streaming
    ):
        chain = simulate_pipeline_chain(
            [cx, cy], [(a, b)], M.with_threads(threads),
            stage0_parallel=stage_x_parallel, streaming=streaming,
        )
        pairwise = ref.simulate_pipeline(
            cx, cy, a, b, M, threads=threads,
            stage_x_parallel=stage_x_parallel, streaming=streaming,
        )
        assert (chain.threads, chain.serial_time, chain.parallel_time) == (
            pairwise.threads, pairwise.serial_time, pairwise.parallel_time
        )

    def test_three_stages_better_than_serial(self):
        stages = [[50.0] * 16, [50.0] * 16, [50.0] * 16]
        fits = [(1.0, 0.0), (1.0, 0.0)]
        out = simulate_pipeline_chain(
            stages, fits, M.with_threads(8), stage0_parallel=False
        )
        # three equal sequential stages overlapping: ~3x minus sync
        assert 1.8 < out.speedup <= 3.0

    def test_chain_drains_every_stage(self):
        # last stage is tiny; time must still cover stage 0's full work
        stages = [[100.0] * 16, [1.0] * 16]
        out = simulate_pipeline_chain(
            stages, [(1.0, 0.0)], M.with_threads(2), stage0_parallel=False
        )
        assert out.parallel_time >= 1600.0

    def test_blocking_fit_serializes(self):
        stages = [[50.0] * 10, [50.0] * 10]
        out = simulate_pipeline_chain(
            stages, [(1.0, -10.0)], M.with_threads(4), stage0_parallel=False
        )
        assert out.speedup < 1.1

    def test_single_thread_serial(self):
        stages = [[10.0] * 4, [10.0] * 4]
        out = simulate_pipeline_chain(stages, [(1.0, 0.0)], M.with_threads(1))
        assert out.parallel_time == out.serial_time

    def test_argument_validation(self):
        with pytest.raises(SimulationError):
            simulate_pipeline_chain([[1.0]], [], M.with_threads(2))
        with pytest.raises(SimulationError):
            simulate_pipeline_chain(
                [[1.0], [1.0]], [(1.0, 0.0), (1.0, 0.0)], M.with_threads(2)
            )

    def test_parallel_stage0_helps(self):
        stages = [[100.0] * 32, [10.0] * 32]
        serial0 = simulate_pipeline_chain(
            stages, [(1.0, 0.0)], M.with_threads(8), stage0_parallel=False
        )
        parallel0 = simulate_pipeline_chain(
            stages, [(1.0, 0.0)], M.with_threads(8), stage0_parallel=True
        )
        assert parallel0.parallel_time < serial0.parallel_time
