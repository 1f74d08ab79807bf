#!/usr/bin/env python3
"""Regenerate ``expected.json``, the references every benchmark run checks.

The references come from the tree-walking interpreter, the executable
reference semantics, so the compiled engine the benchmark times is checked
against an independent implementation:

* ``registry`` — for each Table III program, its label (which must equal
  the registry's ``expected_label``) and its canonical profile digest;
* ``corpus`` — at the default seed, how many verdicts per pattern
  dimension agree with the corpus ground truth.

Run from the repository root (takes about a minute)::

    python3 benchmarks/perf/make_expected.py
"""

from __future__ import annotations

import json
import sys

from benchenv import DEFAULT_SEED, HERE, use_checkout_sources


def registry_references() -> dict:
    from repro.bench_programs.registry import all_benchmarks
    from repro.runtime.parallel import analyze_one

    refs = {}
    for spec in all_benchmarks():
        outcome = analyze_one(spec.name, engine="tree")
        if outcome.label != spec.expected_label:
            raise SystemExit(
                f"{spec.name}: tree engine labels {outcome.label!r}, "
                f"Table III says {spec.expected_label!r}"
            )
        refs[spec.name] = {"label": outcome.label, "profile_digest": outcome.profile_digest}
    return refs


def corpus_reference(count: int) -> dict:
    from repro.corpus import generate_programs, predicted_patterns
    from repro.corpus.templates import PATTERN_DIMENSIONS
    from repro.lang.parser import parse_program
    from repro.lang.validate import validate_program
    from repro.patterns.engine import analyze
    from repro.service.jobs import build_call_args

    table = {dim: {"correct": 0, "checked": 0} for dim in PATTERN_DIMENSIONS}
    for tp in generate_programs(count, DEFAULT_SEED, adversarial=True):
        program = parse_program(tp.source)
        validate_program(program)
        args = build_call_args(tp.arg_specs, seed=0)
        verdict = predicted_patterns(analyze(program, tp.entry, [args], engine="tree"))
        for dim in PATTERN_DIMENSIONS:
            table[dim]["checked"] += 1
            table[dim]["correct"] += bool(verdict[dim]) == bool(tp.truth[dim])
    return {"seed": DEFAULT_SEED, "count": count, "dimensions": table}


def main() -> int:
    use_checkout_sources()
    from workloads import CORPUS_COUNT

    doc = {
        "engine": "tree",
        "registry": registry_references(),
        "corpus": corpus_reference(CORPUS_COUNT),
    }
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
