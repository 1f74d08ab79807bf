"""Process-parallel registry analysis must be indistinguishable from serial."""

import numpy as np

from repro.bench_programs.registry import all_benchmarks
from repro.runtime.parallel import BenchmarkOutcome, analyze_one, analyze_registry
from repro.sim.sweep import sweep_threads


class TestParallelEqualsSerial:
    def test_full_registry(self):
        """Every registry program: labels, coefficients, speedups, and the
        canonical profile digest agree between serial and pooled runs."""
        names = [spec.name for spec in all_benchmarks()]
        serial = analyze_registry(names, parallel=False)
        parallel = analyze_registry(names, parallel=True)

        assert [o.name for o in serial] == names  # deterministic ordering
        assert [o.name for o in parallel] == names
        for s, p in zip(serial, parallel):
            assert s.label == p.label, s.name
            assert s.pipelines == p.pipelines, s.name  # (a, b, efficiency) exact
            assert s.best_speedup == p.best_speedup, s.name
            assert s.best_threads == p.best_threads, s.name
            assert s.primary_share == p.primary_share, s.name
            assert s.profile_digest == p.profile_digest, s.name
            assert s == p

    def test_subset_order_follows_names(self):
        names = ["reg_detect", "gesummv"]
        outcomes = analyze_registry(names, parallel=True, max_workers=2)
        assert [o.name for o in outcomes] == names

    def test_outcomes_are_picklable_plain_data(self):
        import pickle

        outcome = analyze_one("gesummv")
        assert isinstance(outcome, BenchmarkOutcome)
        assert pickle.loads(pickle.dumps(outcome)) == outcome


class TestSharedCache:
    def test_workers_share_on_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        first = analyze_registry(["gesummv"], parallel=True, cache_dir=cache_dir)
        second = analyze_registry(["gesummv"], parallel=True, cache_dir=cache_dir)
        assert first == second
        cached = list((tmp_path / "shared").rglob("*.json"))
        assert len(cached) == 1


class TestPickling:
    SRC = """\
int count(int A[], int n) {
    int c = 0;
    for (int i = 0; i < n; i++) {
        c += A[i];
    }
    return c;
}
"""

    def test_profile_trees_pickle_with_slots(self):
        """PET/call-tree nodes use __slots__ and carry parent<->child cycles;
        profiles must still pickle (workers and caches depend on it)."""
        import pickle

        from repro.api import compile_source
        from repro.profiling import profile_digest, profile_runs

        program = compile_source(self.SRC)
        profile = profile_runs(program, "count", [[np.ones(8, dtype=np.int64), 8]])
        assert profile.pet is not None and profile.calltree is not None
        clone = pickle.loads(pickle.dumps(profile))
        assert profile_digest(clone) == profile_digest(profile)
        assert clone.calltree.children[0].parent is clone.calltree


class TestSweepMapFn:
    def test_default_map_unchanged(self):
        sweep = sweep_threads(lambda p: 1.0 + np.log2(p), thread_counts=(1, 2))
        assert sweep.best_threads == 2
