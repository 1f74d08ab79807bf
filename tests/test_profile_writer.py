"""The direct format-1 writer and the cache's layout 2, against their oracle.

``canonical_json(profile_to_dict(p))`` defines format 1, the text behind
``profile_digest``.  ``canonical_profile_json`` writes that text directly,
with no per-node dicts, so it must match the oracle byte for byte.  A
profile cache entry is layout 2 (``repro.profiling.cache``): format 1 with
the call tree stored as preorder columns.  Decoding an entry must give back
a profile whose ``profile_to_dict`` encodes to the same text, with
consistent parent pointers.

Inputs: the 17 registry programs, an adversarial corpus draw, the seeded
programs of ``test_compile_engine.py``, and the call-tree shapes those do
not reach: no call tree, a tree cut short by the node cap, a profile
merged from several runs, and a recursion deeper than the interpreter's
default recursion limit.
"""

import sys

import numpy as np
import pytest

from test_compile_engine import _compile, _generated_cases

from repro.api import compile_source
from repro.bench_programs.registry import all_benchmarks
from repro.corpus import generate_programs
from repro.profiling import Profiler, canonical_profile_json, profile_runs, profile_to_dict
from repro.profiling.cache import decode_entry, encode_entry
from repro.profiling.serialize import canonical_json
from repro.runtime.compile import CompiledEngine
from repro.service.jobs import build_call_args


def _assert_same_text(ours, oracle):
    # A failure names the first differing offset: pytest's own diff of two
    # megabyte-long one-line texts would take minutes.
    if ours != oracle:
        at = next(
            (i for i, (a, b) in enumerate(zip(ours, oracle)) if a != b),
            min(len(ours), len(oracle)),
        )
        window = slice(max(0, at - 80), at + 80)
        pytest.fail(f"texts differ at offset {at}:\n{ours[window]!r}\n{oracle[window]!r}")


def _assert_matches_oracle(profile):
    oracle = canonical_json(profile_to_dict(profile))
    _assert_same_text(canonical_profile_json(profile), oracle)
    loaded = decode_entry(encode_entry(profile).encode("utf-8"))
    _assert_same_text(canonical_json(profile_to_dict(loaded)), oracle)
    if loaded.calltree is not None:
        assert loaded.calltree.parent is None
        assert all(
            child.parent is node for node in loaded.calltree.walk() for child in node.children
        )


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_profile(spec):
    _assert_matches_oracle(profile_runs(spec.program, spec.entry, spec.arg_sets()))


_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_profile(idx):
    tp = _CORPUS[idx]
    program = _compile(tp.source)
    _assert_matches_oracle(
        profile_runs(program, tp.entry, [build_call_args(tp.arg_specs, seed=0)])
    )


@pytest.mark.parametrize(
    "idx,source", _generated_cases(), ids=lambda v: str(v) if isinstance(v, int) else None
)
def test_generated_profile(idx, source):
    n = 10
    args = [np.arange(-n // 2, n - n // 2, dtype=np.int64), np.zeros(n, dtype=np.int64), n]
    _assert_matches_oracle(profile_runs(_compile(source), "f", [args]))


# Recursion with a loop in every activation: nodes with several children,
# per-iteration costs, and loop activations below function activations.
FIB = """\
int fib(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s = s + i;
    }
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2) + s;
}
"""

TOTAL = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

DEEP = """\
int depth(int n) {
    if (n == 0) {
        return 0;
    }
    return depth(n - 1) + 1;
}
"""


def test_profile_without_a_call_tree():
    profiler = Profiler(max_calltree_nodes=0)
    CompiledEngine(compile_source(FIB), sink=profiler).run("fib", [8])
    profile = profiler.profile
    assert profile.calltree is None
    _assert_matches_oracle(profile)


def test_call_tree_cut_short_by_the_node_cap():
    profiler = Profiler(max_calltree_nodes=40)
    CompiledEngine(compile_source(FIB), sink=profiler).run("fib", [10])
    profile = profiler.profile
    assert len(list(profile.calltree.walk())) == 40
    _assert_matches_oracle(profile)


def test_profile_merged_from_several_runs():
    arg_sets = [[np.ones(16), 16], [np.arange(8.0), 8], [np.zeros(24), 24]]
    profile = profile_runs(compile_source(TOTAL), "total", arg_sets)
    assert profile.runs == 3
    _assert_matches_oracle(profile)


def test_recursion_deeper_than_the_default_limit():
    profile = profile_runs(compile_source(DEEP), "depth", [[3000]])
    assert len(list(profile.calltree.walk())) == 3001
    # Profiling raised the process-wide limit; a process that only reads
    # the profile from the cache runs under CPython's default of 1000.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        _assert_matches_oracle(profile)
    finally:
        sys.setrecursionlimit(limit)
