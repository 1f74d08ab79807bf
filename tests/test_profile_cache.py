"""Content-addressed profile cache: keying, invalidation, recovery."""

import json

import numpy as np
import pytest

from repro.api import compile_source
from repro.profiling import (
    canonical_profile_json,
    profile_digest,
    profile_runs,
)
from repro.profiling.cache import (
    ProfileCache,
    cached_profile_runs,
    encode_entry,
    profile_cache_key,
)

SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

SRC_VARIANT = SRC.replace("s += A[i];", "s += A[i] * 2.0;")


@pytest.fixture
def program():
    return compile_source(SRC)


@pytest.fixture
def args():
    return [[np.ones(16), 16]]


@pytest.fixture
def cache(tmp_path):
    return ProfileCache(root=tmp_path / "profiles")


class TestCacheKey:
    def test_identical_inputs_identical_key(self, args):
        k1 = profile_cache_key(SRC, "total", args)
        k2 = profile_cache_key(SRC, "total", [[np.ones(16), 16]])
        assert k1 == k2

    def test_changed_source_changes_key(self, args):
        assert profile_cache_key(SRC, "total", args) != profile_cache_key(
            SRC_VARIANT, "total", args
        )

    def test_changed_input_changes_key(self):
        base = profile_cache_key(SRC, "total", [[np.ones(16), 16]])
        assert base != profile_cache_key(SRC, "total", [[np.zeros(16), 16]])
        assert base != profile_cache_key(SRC, "total", [[np.ones(17), 17]])
        assert base != profile_cache_key(SRC, "total", [[np.ones(16), 15]])

    def test_changed_config_changes_key(self, args):
        base = profile_cache_key(SRC, "total", args)
        assert base != profile_cache_key(SRC, "total", args, max_cost=1_000)

    def test_key_is_pinned(self, args):
        # A moved key orphans every cache entry and every source-job digest.
        assert profile_cache_key(SRC, "total", args) == (
            "1bdb83ab0a1148e08cbb9ca9016f618a6d54749fd4d98e220514ebeb95954969"
        )
        assert profile_cache_key(SRC, "total", args, max_cost=1_000) == (
            "96c997072be3a93b27f05bccbea8b9ba0811275c40e8cb399e75e04f3b4c4e49"
        )

    def test_int_float_args_distinct(self):
        assert profile_cache_key(SRC, "total", [[1]]) != profile_cache_key(
            SRC, "total", [[1.0]]
        )


class TestCachedRuns:
    def test_miss_then_hit(self, program, args, cache):
        p1, hit1 = cached_profile_runs(program, "total", args, cache=cache)
        p2, hit2 = cached_profile_runs(program, "total", args, cache=cache)
        assert (hit1, hit2) == (False, True)
        assert cache.stats.stores == 1 and cache.stats.hits == 1
        assert profile_digest(p1) == profile_digest(p2)

    def test_hit_performs_zero_reinterpretation(self, program, args, cache, monkeypatch):
        cached_profile_runs(program, "total", args, cache=cache)

        def _fail(*_a, **_k):  # pragma: no cover - would mean a cache miss
            raise AssertionError("interpreter ran despite a warm cache")

        monkeypatch.setattr("repro.profiling.cache.profile_runs", _fail)
        profile, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert hit and profile.total_cost > 0

    def test_changed_input_misses(self, program, cache):
        _, hit1 = cached_profile_runs(program, "total", [[np.ones(16), 16]], cache=cache)
        _, hit2 = cached_profile_runs(program, "total", [[np.ones(8), 8]], cache=cache)
        assert not hit1 and not hit2
        assert cache.stats.stores == 2

    def test_changed_config_misses(self, program, args, cache):
        cached_profile_runs(program, "total", args, cache=cache)
        _, hit = cached_profile_runs(
            program, "total", args, max_cost=1_000_000, cache=cache
        )
        assert not hit

    def test_no_cache_always_computes_and_writes_nothing(
        self, program, args, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "default"))
        _, hit1 = cached_profile_runs(program, "total", args, cache=None)
        _, hit2 = cached_profile_runs(program, "total", args, cache=None)
        assert (hit1, hit2) == (False, False)
        assert not (tmp_path / "default").exists()

    def test_cached_profile_drives_same_detection(self, program, args, cache):
        from repro.patterns.engine import analyze_profile, summarize_patterns

        fresh = profile_runs(program, "total", args)
        cached_profile_runs(program, "total", args, cache=cache)
        warm, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert hit
        assert summarize_patterns(analyze_profile(program, warm)) == summarize_patterns(
            analyze_profile(program, fresh)
        )


def _with_columns(**edits):
    """A corruption that rewrites call-tree columns of a layout-2 entry."""

    def corrupt(entry: bytes) -> bytes:
        doc = json.loads(entry)
        for name, edit in edits.items():
            doc["calltree"][name] = edit(doc["calltree"][name])
        return json.dumps(doc).encode()

    return corrupt


class TestCorruption:
    def test_corrupted_entry_is_evicted_and_recomputed(self, program, args, cache):
        _, _ = cached_profile_runs(program, "total", args, cache=cache)
        key = profile_cache_key(program.source, "total", args)
        path = cache.path_for(key)
        path.write_text("{ truncated garbage")

        assert cache.load(key) is None
        assert not path.exists()
        assert cache.stats.evictions == 1

        profile, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert not hit and profile.total_cost > 0
        assert path.exists()

    def test_valid_json_wrong_schema_is_evicted(self, program, args, cache):
        cached_profile_runs(program, "total", args, cache=cache)
        key = profile_cache_key(program.source, "total", args)
        cache.path_for(key).write_text(json.dumps({"version": 999}))
        assert cache.load(key) is None
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: b"null",
            lambda entry: b"[]",
            lambda entry: entry[:40] + b"\xff" + entry[40:],
            _with_columns(region=lambda col: col[:-1]),
            # the root of the two-node tree claims two children, then none
            _with_columns(children=lambda col: [2] + col[1:]),
            _with_columns(children=lambda col: [0] + col[1:]),
        ],
        ids=["null", "list", "bad-utf8", "short-column", "open-child-count",
             "second-tree-child-count"],
    )
    def test_undecodable_entry_is_evicted_and_recomputed(
        self, program, args, cache, corrupt
    ):
        computed, _ = cached_profile_runs(program, "total", args, cache=cache)
        key = profile_cache_key(program.source, "total", args)
        path = cache.path_for(key)
        path.write_bytes(corrupt(path.read_bytes()))

        assert cache.load(key) is None
        assert cache.stats.evictions == 1
        assert not path.exists()

        profile, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert not hit
        assert profile_digest(profile) == profile_digest(computed)

    def test_missing_entry_is_plain_miss(self, cache):
        assert cache.load("0" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.evictions == 0


class TestFailurePaths:
    """Cache trouble must never forfeit a computed profile."""

    def test_unwritable_root_still_returns_profile(self, program, args, tmp_path):
        # the root sits under a regular *file*, so every mkdir/write fails
        # with a real OSError — works even when the suite runs as root,
        # unlike permission-bit tricks
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ProfileCache(root=blocker / "cache")
        profile, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert not hit and profile.total_cost > 0
        assert cache.stats.store_errors == 1
        assert cache.stats.stores == 0

    def test_unwritable_root_recomputes_every_call(self, program, args, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ProfileCache(root=blocker / "cache")
        p1, _ = cached_profile_runs(program, "total", args, cache=cache)
        p2, hit = cached_profile_runs(program, "total", args, cache=cache)
        assert not hit
        assert cache.stats.store_errors == 2
        assert profile_digest(p1) == profile_digest(p2)

    def test_unreadable_entry_counts_read_error_not_cold_miss(self, cache):
        key = "ab" + "0" * 62
        # a directory where the entry file should be: read_text raises
        # IsADirectoryError (an OSError that is not FileNotFoundError)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.mkdir()
        assert cache.load(key) is None
        assert cache.stats.read_errors == 1
        assert cache.stats.misses == 1  # still a miss: caller recomputes
        assert cache.stats.evictions == 0

    def test_cold_miss_does_not_count_read_error(self, cache):
        assert cache.load("0" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.read_errors == 0

    def test_store_error_does_not_mask_later_success(self, program, args, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        broken = ProfileCache(root=blocker / "cache")
        cached_profile_runs(program, "total", args, cache=broken)
        healthy = ProfileCache(root=tmp_path / "profiles")
        _, hit1 = cached_profile_runs(program, "total", args, cache=healthy)
        _, hit2 = cached_profile_runs(program, "total", args, cache=healthy)
        assert (hit1, hit2) == (False, True)
        assert healthy.stats.store_errors == 0


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, program, args):
        a = canonical_profile_json(profile_runs(program, "total", args))
        b = canonical_profile_json(profile_runs(program, "total", args))
        assert a == b

    def test_round_trip_byte_identical(self, program, args):
        from repro.profiling import profile_from_dict

        text = canonical_profile_json(profile_runs(program, "total", args))
        rebuilt = profile_from_dict(json.loads(text))
        assert canonical_profile_json(rebuilt) == text

    def test_stored_entry_is_the_layout_encoding(self, program, args, cache):
        profile, _ = cached_profile_runs(program, "total", args, cache=cache)
        key = profile_cache_key(program.source, "total", args)
        assert cache.path_for(key).read_text() == encode_entry(profile)
        loaded = cache.load(key)
        assert loaded is not None
        assert profile_digest(loaded) == profile_digest(profile)


class TestStatsConcurrency:
    """CacheStats.bump is the only mutation path and must be atomic."""

    def test_concurrent_bumps_lose_no_increments(self):
        import threading

        from repro.profiling.cache import CacheStats

        stats = CacheStats()
        threads_per_counter = 4
        bumps_each = 500

        def hammer(counter):
            for _ in range(bumps_each):
                stats.bump(counter)

        threads = [
            threading.Thread(target=hammer, args=(counter,))
            for counter in ("hits", "misses", "stores")
            for _ in range(threads_per_counter)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = threads_per_counter * bumps_each
        snap = stats.as_dict()
        assert snap["hits"] == expected
        assert snap["misses"] == expected
        assert snap["stores"] == expected

    def test_bump_rejects_unknown_counter(self):
        from repro.profiling.cache import CacheStats

        with pytest.raises(ValueError, match="unknown cache counter"):
            CacheStats().bump("wins")

    def test_stats_survive_pickling_without_the_lock(self):
        # workers ship stats across process boundaries; the lock must be
        # dropped on the way out and recreated on the way in
        import pickle

        from repro.profiling.cache import CacheStats

        stats = CacheStats()
        stats.bump("hits", 3)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.hits == 3
        clone.bump("hits")  # the recreated lock works
        assert clone.hits == 4

    def test_merge_accumulates_a_snapshot(self):
        from repro.profiling.cache import CacheStats

        a, b = CacheStats(), CacheStats()
        a.bump("hits", 2)
        b.bump("hits", 5)
        b.bump("read_errors")
        a.merge(b)
        assert a.hits == 7 and a.read_errors == 1
