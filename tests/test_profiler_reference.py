"""The profiler's derivation memos and first-touch skips against a plain fold.

Each program runs through the compiled engine twice, into
:class:`~repro.profiling.profiler.Profiler` and into
:class:`reference_fold.ReferenceFold`, which derives every dependence per
access (the engine's event stream is deterministic).  The two must agree
exactly: dependences with their counts, multi-loop pairs in the same list
order, and the per-loop access tables.

Inputs: an adversarial corpus draw covering all ten templates, the seeded
programs of ``test_compile_engine.py``, and the recursive registry programs,
which exercise the same-stack memos under activation churn.
"""

import numpy as np
import pytest

from reference_fold import ReferenceFold
from test_compile_engine import _compile, _generated_cases

from repro.bench_programs.registry import get_benchmark
from repro.corpus import generate_programs
from repro.profiling import Profiler
from repro.runtime.compile import CompiledEngine
from repro.service.jobs import build_call_args


def _assert_matches_reference(program, entry, args):
    profiler = Profiler()
    reference = ReferenceFold()
    CompiledEngine(program, sink=profiler).run(entry, args)
    CompiledEngine(program, sink=reference).run(entry, args)
    profile = profiler.profile
    assert profile.deps == reference.deps
    assert profile.pairs == reference.pairs
    assert list(profile.pairs) == list(reference.pairs)
    assert profile.read_first == reference.read_first
    assert profile.loop_accessed == reference.loop_accessed
    assert profile.loop_var_reads == reference.loop_var_reads
    assert profile.loop_var_writes == reference.loop_var_writes


_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_program_matches_reference(idx):
    tp = _CORPUS[idx]
    _assert_matches_reference(
        _compile(tp.source), tp.entry, build_call_args(tp.arg_specs, seed=0)
    )


def test_corpus_draw_covers_every_template():
    from repro.corpus.templates import ADVERSARIAL_TEMPLATES, TEMPLATES

    assert len({tp.template for tp in _CORPUS}) == len(TEMPLATES + ADVERSARIAL_TEMPLATES)


@pytest.mark.parametrize("idx,source", _generated_cases(), ids=lambda v: str(v) if isinstance(v, int) else None)
def test_generated_program_matches_reference(idx, source):
    n = 10
    args = [np.arange(-n // 2, n - n // 2, dtype=np.int64), np.zeros(n, dtype=np.int64), n]
    _assert_matches_reference(_compile(source), "f", args)


@pytest.mark.parametrize("name", ["fib", "sort", "strassen", "nqueens"])
def test_recursive_registry_program_matches_reference(name):
    spec = get_benchmark(name)
    for args in spec.arg_sets():
        _assert_matches_reference(spec.program, spec.entry, args)


def test_same_site_lines_at_two_levels_keep_their_regions():
    # Everything on one line: the last call's reads find the memo derived
    # at the r loop with the same site lines, but they diverge at f.  A memo
    # may be revalidated for aged snapshots only when the region matches.
    source = (
        "void g(int A[], int n) { for (int i = 0; i < n; i++) { A[i] = A[i] + 1; } }\n"
        "void f(int A[], int n) { for (int r = 0; r < 2; r++) { g(A, n); } g(A, n); }\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.zeros(4, dtype=np.int64), 4])
