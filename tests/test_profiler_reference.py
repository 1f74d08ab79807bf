"""The profiler's derivation memos and first-touch skips against a plain fold.

Each program runs through the compiled engine twice, into
:class:`~repro.profiling.profiler.Profiler` and into
:class:`reference_fold.ReferenceFold`, which derives every dependence per
access (the engine's event stream is deterministic).  The two must agree
exactly: dependences with their counts, multi-loop pairs in the same list
order, the per-loop access tables, and the array-element access count and
distinct element addresses.

Inputs: an adversarial corpus draw covering all ten templates, the seeded
programs of ``test_compile_engine.py``, every registry program (the
recursive ones exercise the memos under activation churn, the loop kernels
the cross-stack memos that outlive their activations), hand cases for
each rule that keeps a cross-stack memo valid, and a seeded draw of
``fold_shapes`` programs that vary three of those hand cases.
"""

import numpy as np
import pytest

from fold_shapes import generate_shapes
from reference_fold import ReferenceFold
from test_compile_engine import _compile, _generated_cases

from repro.bench_programs.registry import all_benchmarks, get_benchmark
from repro.corpus import generate_programs
from repro.profiling import Profiler
from repro.runtime.compile import CompiledEngine
from repro.service.jobs import build_call_args


def _assert_matches_reference(program, entry, args):
    profiler = Profiler()
    reference = ReferenceFold()
    CompiledEngine(program, sink=profiler).run(entry, args)
    CompiledEngine(program, sink=reference).run(entry, args)
    assert reference.mismatches(profiler.profile) == []


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


_SHAPES = generate_shapes(90, seed=0)


@pytest.mark.parametrize(
    "idx", range(len(_SHAPES)), ids=lambda idx: f"{idx}-{_SHAPES[idx].shape}"
)
def test_fold_shape_matches_reference(idx):
    shape = _SHAPES[idx]
    _assert_matches_reference(_compile(shape.source), shape.entry, shape.args)


_RECURSIVE = ("fib", "sort", "strassen", "nqueens")


def _assert_registry_program_matches_reference(name):
    spec = get_benchmark(name)
    for args in spec.arg_sets():
        _assert_matches_reference(spec.program, spec.entry, args)


@pytest.mark.parametrize("name", _RECURSIVE)
def test_recursive_registry_program_matches_reference(name):
    _assert_registry_program_matches_reference(name)


@pytest.mark.parametrize(
    "name", [spec.name for spec in all_benchmarks() if spec.name not in _RECURSIVE]
)
def test_loop_registry_program_matches_reference(name):
    _assert_registry_program_matches_reference(name)


def test_same_site_lines_at_two_levels_keep_their_regions():
    # Everything on one line: the last call's reads find the memo derived
    # at the r loop with the same site lines, but they diverge at f.  A memo
    # may be refreshed at another level only when the region there matches.
    source = (
        "void g(int A[], int n) { for (int i = 0; i < n; i++) { A[i] = A[i] + 1; } }\n"
        "void f(int A[], int n) { for (int r = 0; r < 2; r++) { g(A, n); } g(A, n); }\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.zeros(4, dtype=np.int64), 4])


def test_one_loop_reached_from_two_loops_rebuilds_the_pair_recipe():
    # g's reads of A diverge from init's writes at f's level in every call,
    # under the same site lines there, but the reader's region one level
    # down is the r loop, then the s loop, then g itself: each needs its
    # own multi-loop pair key (and the direct call none).
    source = (
        "void g(int A[], int B[], int n) { for (int i = 0; i < n; i++) { B[i] = A[i]; } }\n"
        "void f(int A[], int B[], int n) {\n"
        "  for (int i = 0; i < n; i++) { A[i] = i; }\n"
        "  for (int r = 0; r < 2; r++) { g(A, B, n); } for (int s = 0; s < 2; s++) { g(A, B, n); } g(A, B, n);\n"
        "}\n"
    )
    args = [np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 4]
    _assert_matches_reference(_compile(source), "f", args)


def test_recursion_moves_a_site_pairs_divergence_level():
    # Each activation reads what its caller's loop wrote: the same write
    # and read sites diverge one level deeper per recursion step.
    source = (
        "void rec(int A[], int n, int d) {\n"
        "  if (d > 0) {\n"
        "    for (int i = 0; i < n; i++) { A[i] = A[i] + d; }\n"
        "    rec(A, n, d - 1);\n"
        "  }\n"
        "}\n"
        "void f(int A[], int n) { rec(A, n, 4); rec(A, n, 2); }\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.zeros(5, dtype=np.int64), 5])


def test_for_init_reads_what_the_previous_activation_wrote():
    # The inner loop's init runs before its first iteration and reads k,
    # last written by the previous activation of the same loop.
    source = (
        "void f(int A[], int n) {\n"
        "  int k = 0;\n"
        "  for (int r = 0; r < 3; r++) {\n"
        "    for (int i = k; i < n; i++) { k = i; A[i] = A[i] + k; }\n"
        "    k = k - 2;\n"
        "  }\n"
        "}\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.zeros(6, dtype=np.int64), 6])


def test_zero_trip_loop_between_a_write_and_a_read():
    # The j loop enters, tests its condition once and exits between the
    # write of s and its read: the read must still see the write as this
    # iteration's first touch.
    source = (
        "void f(int A[], int n, int m) {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    s = A[i];\n"
        "    for (int j = 0; j < m; j++) { s = s + j; }\n"
        "    A[i] = s + 1;\n"
        "  }\n"
        "}\n"
    )
    program = _compile(source)
    _assert_matches_reference(program, "f", [np.zeros(4, dtype=np.int64), 4, 0])
    _assert_matches_reference(program, "f", [np.zeros(4, dtype=np.int64), 4, 2])


def test_two_loops_at_one_level_keep_their_regions():
    # h's r loop and k's s loop sit at the same depth with the same site
    # lines (one source line), and g's sites see both as the divergence
    # level: a live memo must not carry r's region into s.
    source = (
        "void g(int A[], int n) { for (int i = 0; i < n; i++) { A[i] = A[i] + 1; } }\n"
        "void h(int A[], int n) { for (int r = 0; r < 2; r++) { g(A, n); g(A, n); } }"
        " void k(int B[], int n) { for (int s = 0; s < 2; s++) { g(B, n); g(B, n); } }\n"
        "void f(int A[], int B[], int n) { h(A, n); k(B, n); }\n"
    )
    args = [np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 3]
    _assert_matches_reference(_compile(source), "f", args)


def test_aliased_names_share_a_first_touch():
    # P and Q name the same array: Q's read follows P's read of the same
    # address in the same iteration, so it is not a first touch for Q.
    source = (
        "void g(int P[], int Q[], int n) {\n"
        "  for (int i = 0; i < n; i++) { int t = P[i]; int u = Q[i]; Q[i] = t + u; }\n"
        "}\n"
        "void f(int A[], int n) { g(A, A, n); }\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.ones(4, dtype=np.int64), 4])


def test_a_level_left_unmarked_is_marked_later():
    # s is written first in the early i iterations, so the reads in the j
    # loop mark it read-first only at j until an i iteration skips the
    # write: that later read must still mark i.
    source = (
        "void f(int A[], int n) {\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    if (i < 2) { s = i; }\n"
        "    for (int j = 0; j < n; j++) { A[j] = A[j] + s; }\n"
        "  }\n"
        "}\n"
    )
    _assert_matches_reference(_compile(source), "f", [np.zeros(4, dtype=np.int64), 4])


def test_a_read_of_an_earlier_calls_write_diverges_above_it():
    # In the second call of g, the j loop first reads what this call's i
    # loop wrote (divergence at g), then what the first call wrote
    # (divergence at f), with the same site lines at g's level in both.
    source = (
        "void g(int A[], int B[], int n, int k) {\n"
        "  for (int i = 0; i < k; i++) { A[i] = i; }\n"
        "  for (int j = 0; j < n; j++) { B[j] = A[j]; }\n"
        "}\n"
        "void f(int A[], int B[], int n) { g(A, B, n, n); g(A, B, n, 2); }\n"
    )
    args = [np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 4]
    _assert_matches_reference(_compile(source), "f", args)
