"""Differential tests: the compiled closure engine vs the tree walker.

The closure compiler (``repro.runtime.compile``) must be observationally
indistinguishable from the reference interpreter: same return value, same
total cost, same final memory, and — the property the profiling pipeline
stands on — a byte-identical canonical profile for every program.  These
tests sweep the full benchmark registry plus a deterministic family of
seeded generated programs (loops, conditionals, calls, recursion, break /
continue / early return, truncating division) through both engines and
compare ``profile_digest`` on each, so any divergence in event streams is
caught at the serialized-profile level.  The registry digests are also
pinned to the benchmark's committed references
(``benchmarks/perf/expected.json``), which catches a profiler change that
alters both engines' profiles alike, and each registry analysis on the
default path must do exactly the work committed in ``registry_counts.json``
(events per tag, batches, exact derivations, evidence), which catches that
path falling back to the tree walker, or the profiler fold falling back to
per-access derivation.

C-style truncating division and modulo (``_c_int_div`` / ``_c_int_mod``)
get direct unit coverage for negative operands — the one place MiniC
semantics differ from Python's floor division — and the non-local control
signals (break, continue, return) are exercised through both engines from
every nesting shape the compiler handles specially.
"""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.bench_programs.registry import all_benchmarks
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.profiling import Profiler, runner
from repro.profiling.runner import profile_run, profile_runs
from repro.profiling.serialize import profile_digest
from repro.runtime.compile import CompiledEngine, run_compiled
from repro.runtime.events import (
    EV_COST, EV_ENTER_FUNC, EV_ENTER_LOOP, EV_ITER, EV_READ, EV_STMT, EV_WRITE,
)
from repro.runtime.interpreter import Interpreter, InterpreterError, _c_int_div, _c_int_mod
from repro.runtime.parallel import analyze_registry

# ---------------------------------------------------------------------------
# helpers


def _compile(source: str):
    program = parse_program(source)
    validate_program(program)
    return program


def _run_both(program, entry, args):
    """Run through both engines; return the two (RunResult, digest) pairs."""
    prof_tree = Profiler()
    res_tree = Interpreter(program, sink=prof_tree).run(entry, args)
    prof_comp = Profiler()
    res_comp = CompiledEngine(program, sink=prof_comp).run(entry, args)
    return (
        (res_tree, profile_digest(prof_tree.profile)),
        (res_comp, profile_digest(prof_comp.profile)),
    )


def _assert_equivalent(program, entry, args):
    (res_t, dig_t), (res_c, dig_c) = _run_both(program, entry, args)
    assert dig_c == dig_t, "profile digests diverge between engines"
    assert res_c.value == res_t.value
    assert res_c.total_cost == res_t.total_cost
    assert res_c.scalars == res_t.scalars
    assert set(res_c.arrays) == set(res_t.arrays)
    for name in res_t.arrays:
        np.testing.assert_array_equal(res_c.arrays[name], res_t.arrays[name])
    assert set(res_c.globals) == set(res_t.globals)
    for name in res_t.globals:
        np.testing.assert_array_equal(
            np.asarray(res_c.globals[name]), np.asarray(res_t.globals[name])
        )


# ---------------------------------------------------------------------------
# full-registry differential sweep


# The benchmark's committed tree-engine references.  Both engines feed the
# same Profiler, so comparing them with each other cannot catch a profiler
# change that alters both profiles alike; the committed digests can.
_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "expected.json").read_text()
)["registry"]

# Exact work counts of each registry analysis on the product's default path:
# events per tag and batches the profiler consumed, the profiler's exact
# dependence derivations (its memo misses), and the detectors' accepted and
# rejected evidence.  They are deterministic, so they carry no tolerance.
# The digest cannot see which engine produced a profile, but the counts
# can: the compiled engine coalesces EV_COST events that the tree walker
# emits one by one.  Nor can it see a fold that falls back to deriving
# every access exactly, which the derivation count shows.  A change that
# means to move a count updates exactly the rows it explains.
_COUNTS = json.loads(Path(__file__).with_name("registry_counts.json").read_text())

_EVENT_TAGS = {
    EV_READ: "read", EV_WRITE: "write", EV_COST: "cost", EV_STMT: "stmt",
    EV_ITER: "iter", EV_ENTER_FUNC: "call", EV_ENTER_LOOP: "loop",
}


@pytest.mark.parametrize(
    "spec", all_benchmarks(), ids=lambda spec: spec.name
)
def test_registry_profiles_identical_across_engines(spec, monkeypatch):
    tree = profile_runs(spec.program, spec.entry, spec.arg_sets(), engine="tree")
    assert profile_digest(tree) == _EXPECTED[spec.name]["profile_digest"]

    tags, batches, derivations = Counter(), [], []

    class CountingProfiler(Profiler):
        def consume_batch(self, events):
            batches.append(len(events))
            tags.update(event[0] for event in events)
            super().consume_batch(events)

        def finish(self):
            super().finish()
            derivations.append(self.derivations)

    # The serial path of `table3 --no-parallel`, with every engine default.
    monkeypatch.setattr(runner, "Profiler", CountingProfiler)
    (outcome,) = analyze_registry([spec.name], parallel=False)
    assert outcome.profile_digest == profile_digest(tree)
    assert outcome.label == _EXPECTED[spec.name]["label"]
    observed = {name: tags[tag] for tag, name in _EVENT_TAGS.items()}
    observed.update(
        batches=len(batches),
        derivations=sum(derivations),
        evidence_accepted=outcome.evidence_accepted,
        evidence_rejected=outcome.evidence_rejected,
    )
    assert observed == _COUNTS[spec.name], json.dumps({spec.name: observed})


def test_unknown_engine_rejected():
    spec = all_benchmarks()[0]
    with pytest.raises(ValueError, match="unknown engine"):
        profile_run(spec.program, spec.entry, spec.arg_sets()[0], engine="jit")


# ---------------------------------------------------------------------------
# seeded generated programs

_N_GENERATED = 60

# Statement templates over scalars s/t, index vars, and arrays A (input),
# B (output).  {i} is the innermost loop index, {k} a unique suffix for
# fresh declarations.
_STMTS = (
    "B[{i}] = A[{i}] * 2 + s;",
    "B[{i}] = B[{i}] + A[n - 1 - {i}];",
    "s += A[{i}] - t;",
    "s = s + B[{i}] % 5;",
    "t = A[{i}] / 3 + B[{i}] / (0 - 2);",
    "t = (0 - A[{i}]) % 3;",
    "int x{k} = A[{i}] * t; B[{i}] = x{k} - s;",
    "s = helper(A[{i}], t);",
    "B[{i}] = fib(A[{i}] % 4 + 2);",
    "if (A[{i}] % 2 == 0) {{ s += 1; }} else {{ t -= 1; }}",
)

# Control shapes wrapping a body; break/continue/return exercise the
# compiled engine's non-local signal handling inside loops.
_GUARDS = (
    "if (s > 100) {{ break; }}\n            {body}",
    "if (A[{i}] % 3 == 0) {{ continue; }}\n            {body}",
    "if (s < 0 - 50) {{ return s; }}\n            {body}",
    "{body}",
    "{body}",
)

_HELPERS = """\
int helper(int a, int b) {
    int r = 0;
    while (a > 0) {
        r += a % 7;
        a = a / 2;
        if (r > 40) { break; }
    }
    return r + b;
}

int fib(int k) {
    if (k <= 1) { return k; }
    return fib(k - 1) + fib(k - 2);
}
"""


def _generate_program(rng: random.Random) -> str:
    """One random but always-valid MiniC program with two array params."""
    depth = rng.choice([1, 1, 2])
    inner = "i" if depth == 1 else "j"
    stmts = [
        rng.choice(_STMTS).format(i=inner, k=k)
        for k in range(rng.randint(2, 4))
    ]
    body = "\n            ".join(stmts)
    guarded = rng.choice(_GUARDS).format(body=body, i=inner)
    if depth == 2:
        loop = (
            "for (int i = 0; i < n; i++) {{\n"
            "        for (int j = 0; j < n; j++) {{\n"
            "            {g}\n"
            "        }}\n"
            "    }}"
        ).format(g=guarded)
    else:
        loop = (
            "for (int i = 0; i < n; i++) {{\n"
            "            {g}\n"
            "    }}"
        ).format(g=guarded)
    return (
        _HELPERS
        + "\nint f(int A[], int B[], int n) {\n"
        + "    int s = 3;\n    int t = 0 - 2;\n    "
        + loop
        + "\n    return s * 10 + t;\n}\n"
    )


def _generated_cases():
    rng = random.Random(20260808)
    return [(idx, _generate_program(rng)) for idx in range(_N_GENERATED)]


@pytest.mark.parametrize(
    "idx,source", _generated_cases(), ids=lambda case: str(case) if isinstance(case, int) else None
)
def test_generated_programs_identical_across_engines(idx, source):
    program = _compile(source)
    n = 10
    args = [
        np.arange(-n // 2, n - n // 2, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        n,
    ]
    _assert_equivalent(program, "f", args)


def _corpus_cases():
    from repro.corpus import generate_programs

    return [(tp.template, idx, tp) for idx, tp in enumerate(generate_programs(105, 7))]


@pytest.mark.parametrize(
    "template,idx,tp", _corpus_cases(),
    ids=lambda v: v if isinstance(v, str) else (str(v) if isinstance(v, int) else None),
)
def test_corpus_programs_identical_across_engines(template, idx, tp):
    # the corpus templates reach shapes the ad-hoc generator above never
    # emits (2-D fields, wavefront skews, task DAGs); digest parity must
    # hold across all of them, transforms included
    from repro.service.jobs import build_call_args

    program = _compile(tp.source)
    _assert_equivalent(program, tp.entry, build_call_args(tp.arg_specs, seed=0))


# ---------------------------------------------------------------------------
# C truncating division / modulo with negative operands


@pytest.mark.parametrize(
    "a,b,quotient,remainder",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (1, 3, 0, 1),
        (-1, 3, 0, -1),
        (6, 3, 2, 0),
        (-6, 3, -2, 0),
        (0, 5, 0, 0),
    ],
)
def test_c_truncating_div_mod(a, b, quotient, remainder):
    assert _c_int_div(a, b, line=1) == quotient
    assert _c_int_mod(a, b, line=1) == remainder
    # invariant C guarantees: (a/b)*b + a%b == a
    assert quotient * b + remainder == a


def test_c_div_mod_by_zero_raises():
    with pytest.raises(InterpreterError, match="division by zero"):
        _c_int_div(1, 0, line=7)
    with pytest.raises(InterpreterError, match="modulo by zero"):
        _c_int_mod(1, 0, line=7)


_DIVMOD_SRC = """\
int f(int a, int b) {
    int q = a / b;
    int r = a % b;
    return q * 1000 + r * 10 + (0 - 13) / 4 + (0 - 13) % 4;
}
"""


@pytest.mark.parametrize("engine", ["compiled", "tree"])
@pytest.mark.parametrize("a,b", [(-7, 2), (7, -2), (-7, -2), (-13, 4)])
def test_negative_div_mod_through_engines(engine, a, b):
    program = _compile(_DIVMOD_SRC)
    profile, result = profile_run(program, "f", [a, b], engine=engine)
    q, r = _c_int_div(a, b, 1), _c_int_mod(a, b, 1)
    # -13/4 truncates to -3 (not -4) and -13%4 is -1 (not 3) in C
    assert result.value == q * 1000 + r * 10 + (-3) + (-1)


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_div_by_zero_raises_in_both_engines(engine):
    program = _compile(_DIVMOD_SRC)
    with pytest.raises(InterpreterError, match="division by zero"):
        profile_run(program, "f", [1, 0], engine=engine)


# ---------------------------------------------------------------------------
# break / continue / return signal handling, mirrored across engines

_SIGNAL_SOURCES = {
    "break_inner": """\
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            if (j > i) { break; }
            s += 1;
        }
    }
    return s;
}
""",
    "continue_skips": """\
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 3 == 0) { continue; }
        s += i;
    }
    return s;
}
""",
    "return_from_nested_loop": """\
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            s += 1;
            if (s >= 7) { return s; }
        }
    }
    return 0 - s;
}
""",
    "break_in_while": """\
int f(int n) {
    int s = 0;
    while (1 == 1) {
        s += 1;
        if (s >= n) { break; }
    }
    return s;
}
""",
    "continue_in_while": """\
int f(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        i += 1;
        if (i % 2 == 0) { continue; }
        s += i;
    }
    return s;
}
""",
    "return_through_call": """\
int inner(int x) {
    for (int i = 0; i < 10; i++) {
        if (i == x) { return i * i; }
    }
    return 0 - 1;
}

int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += inner(i);
    }
    return s;
}
""",
}


@pytest.mark.parametrize("name", sorted(_SIGNAL_SOURCES), ids=str)
def test_signal_handling_identical_across_engines(name):
    program = _compile(_SIGNAL_SOURCES[name])
    _assert_equivalent(program, "f", [9])


# ---------------------------------------------------------------------------
# Document parity: `analyze(..., engine=)` agrees byte-for-byte across engines


def test_analysis_json_identical_across_engines():
    from repro.patterns.engine import analyze
    from repro.patterns.schema import analysis_to_dict, strip_trace_timings
    from repro.profiling.serialize import canonical_json

    program = _compile(_SIGNAL_SOURCES["return_through_call"])

    def document(engine):
        # no cache, so both engines really execute
        result = analyze(program, "f", [[9]], engine=engine)
        return canonical_json(strip_trace_timings(analysis_to_dict(result)))

    assert document("compiled") == document("tree")


def test_run_compiled_matches_interpreter_without_sink():
    program = _compile(_SIGNAL_SOURCES["return_from_nested_loop"])
    plain = Interpreter(program).run("f", [9])
    compiled = run_compiled(program, "f", [9])
    assert compiled.value == plain.value
    assert compiled.total_cost == plain.total_cost
