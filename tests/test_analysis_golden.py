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
``analysis_from_dict`` and encode back to the same text.
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
from repro.patterns.schema import analysis_from_dict, analysis_to_dict, strip_trace_timings
from repro.profiling.serialize import canonical_json
from repro.service.jobs import build_call_args

_DIGESTS = json.loads(Path(__file__).with_name("analysis_golden.json").read_text())

_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


def _assert_pinned(section, key, result):
    text = canonical_json(analysis_to_dict(result))
    assert canonical_json(analysis_to_dict(analysis_from_dict(json.loads(text)))) == text
    stripped = canonical_json(strip_trace_timings(analysis_to_dict(result)))
    observed = hashlib.sha256(stripped.encode("utf-8")).hexdigest()
    assert observed == _DIGESTS[section][key], json.dumps({key: observed})


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_document(spec):
    _assert_pinned("registry", spec.name, analyze_benchmark(spec.name))


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_document(idx):
    # analysed as repro.corpus.score.analyze_entry analyses a corpus file
    tp = _CORPUS[idx]
    program = parse_program(tp.source)
    validate_program(program)
    result = analyze(program, tp.entry, [build_call_args(tp.arg_specs, seed=0)])
    _assert_pinned("corpus", f"{idx}-{tp.template}", result)
