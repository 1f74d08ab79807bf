"""The analysis document's bytes, pinned.

``canonical_json(analysis_to_dict(result))`` is schema v1's wire format:
the daemon returns it for every source job and ``repro result`` reads it
back.  This file pins the sha256 of each document's timing-free form
(``strip_trace_timings``) for the 17 registry programs and an adversarial
corpus draw, committed in ``analysis_golden.json``.  Between them the
documents hold fusions, pipelines with stage classes, tasks, spans,
geometric decompositions, reductions and both wavefront directions.

A digest that moves is a format change: it needs a schema version bump or
a declared extension, and the digest file is updated in the same change.
A failing test prints the observed digest.

Each full document, spans and timings included, must also survive
``analysis_from_dict`` and encode back to the same text.  A document
analysed from a live profile must equal the one analysed from the same
profile read back from the profile cache: detectors insert CU-graph edges
in ``profile.deps`` order, so a live profile must iterate its dependences
as a decoded one does.

The same analyses pin the simulation layer in ``sim_golden.json``: for
each program, ``plan_and_simulate``'s label, hotspot share and speedup at
every default thread count, and every ``rank_patterns`` option (label,
best speedup, best threads, effort, lines touched), all compared exactly.
A failing test prints the observed entry.  At one thread every pattern's
schedule, primary and ranked, must run exactly as fast as the serial
program, and the ranked option for the primary label (ranked options carry
the label up to any " + " suffix) must read the primary sweep's best
speedup at the same thread count.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench_programs.registry import all_benchmarks, analyze_benchmark
from repro.corpus import generate_programs
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.patterns.engine import analyze
from repro.patterns.ranking import rank_patterns
from repro.patterns.schema import analysis_from_dict, analysis_to_dict, strip_trace_timings
from repro.profiling.cache import ProfileCache
from repro.profiling.serialize import canonical_json
from repro.service.jobs import build_call_args
from repro.sim import plan_and_simulate

_DIGESTS = json.loads(Path(__file__).with_name("analysis_golden.json").read_text())
_SIM = json.loads(Path(__file__).with_name("sim_golden.json").read_text())

_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


def _assert_pinned(section, key, result):
    text = canonical_json(analysis_to_dict(result))
    assert canonical_json(analysis_to_dict(analysis_from_dict(json.loads(text)))) == text
    stripped = canonical_json(strip_trace_timings(analysis_to_dict(result)))
    observed = hashlib.sha256(stripped.encode("utf-8")).hexdigest()
    assert observed == _DIGESTS[section][key], json.dumps({key: observed})


def _assert_cold_equals_warm(cache_dir, program, entry, arg_sets, **options):
    cache = ProfileCache(cache_dir)
    cold, warm = (
        canonical_json(strip_trace_timings(analysis_to_dict(
            analyze(program, entry, arg_sets, cache=cache, **options)
        )))
        for _ in range(2)
    )
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)
    assert cold == warm


def _assert_sim_pinned(section, key, result):
    outcome = plan_and_simulate(result)
    observed = {
        "label": outcome.label,
        "share": outcome.share,
        "speedups": [speedup for _, speedup in outcome.sweep.as_rows()],
        "ranking": [
            [o.label, o.best_speedup, o.best_threads, o.effort, o.lines_touched]
            for o in rank_patterns(result)
        ],
    }
    assert observed == _SIM[section][key], json.dumps({key: observed}, sort_keys=True)


def _assert_ranked_primary_reads_the_primary_sweep(key, result):
    primary = plan_and_simulate(result)
    base = primary.label.split(" + ")[0]
    observed = [
        [o.best_speedup, o.best_threads]
        for o in rank_patterns(result) if o.label == base
    ]
    expected = [] if base == "None" else [
        [primary.sweep.best_speedup, primary.sweep.best_threads]
    ]
    assert observed == expected, json.dumps({key: [observed, expected]})


def _assert_serial_at_one_thread(key, result):
    primary = plan_and_simulate(result, thread_counts=(1,))
    observed = [[primary.label, primary.best_speedup]] + [
        [o.label, o.best_speedup] for o in rank_patterns(result, thread_counts=(1,))
    ]
    assert all(speedup == 1.0 for _, speedup in observed), json.dumps({key: observed})


@pytest.fixture(
    scope="module",
    params=range(len(_CORPUS)),
    ids=lambda idx: f"{idx}-{_CORPUS[idx].template}",
)
def corpus_case(request):
    """``(key, result)`` for one corpus program, shared by its two tests."""
    # analysed as repro.corpus.score.analyze_entry analyses a corpus file
    tp = _CORPUS[request.param]
    program = parse_program(tp.source)
    validate_program(program)
    result = analyze(program, tp.entry, [build_call_args(tp.arg_specs, seed=0)])
    return f"{request.param}-{tp.template}", result


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_document(spec):
    _assert_pinned("registry", spec.name, analyze_benchmark(spec.name))


def test_corpus_document(corpus_case):
    _assert_pinned("corpus", *corpus_case)


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_cold_document_equals_warm(spec, tmp_path):
    _assert_cold_equals_warm(
        tmp_path, spec.program, spec.entry, spec.arg_sets(),
        hotspot_threshold=spec.hotspot_threshold, min_pairs=spec.min_pairs,
    )


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_cold_document_equals_warm(idx, tmp_path):
    tp = _CORPUS[idx]
    program = parse_program(tp.source)
    validate_program(program)
    _assert_cold_equals_warm(
        tmp_path, program, tp.entry, [build_call_args(tp.arg_specs, seed=0)]
    )


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_sim(spec):
    _assert_sim_pinned("registry", spec.name, analyze_benchmark(spec.name))


def test_corpus_sim(corpus_case):
    _assert_sim_pinned("corpus", *corpus_case)


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_ranked_primary_reads_the_primary_sweep(spec):
    _assert_ranked_primary_reads_the_primary_sweep(spec.name, analyze_benchmark(spec.name))


def test_corpus_ranked_primary_reads_the_primary_sweep(corpus_case):
    _assert_ranked_primary_reads_the_primary_sweep(*corpus_case)


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_serial_at_one_thread(spec):
    _assert_serial_at_one_thread(spec.name, analyze_benchmark(spec.name))


def test_corpus_serial_at_one_thread(corpus_case):
    _assert_serial_at_one_thread(*corpus_case)
