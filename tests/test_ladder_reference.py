"""The one-walk precedence ladder against the two-walk reference.

:func:`repro.patterns.engine.primary_pattern` walks Table III's ladder
once and returns the label with the regions the winning rung found.
:mod:`reference_ladder` keeps the two walks it replaced: one for the
label, one for the regions.  Every result must get the same label,
regions and "Exec Inst % in Hotspot" share from both, and
``plan_and_simulate`` must report that label and share.

Inputs: the 17 registry programs, an adversarial corpus draw, and the
results ``test_summary_precedence.py`` grafts onto each rung (through
:func:`assert_matches_reference`).

A Fusion label's regions are the loops the Fusion plan fuses: for every
program ``sim_golden.json`` labels Fusion, the regions are exactly the
loops whose costs the plan reads.  A Do-all label's region is the loop the
Do-all plan parallelizes: for every program ``sim_golden.json`` labels
Do-all, ``plan_and_simulate``'s share is the share of the one loop whose
costs the plan reads.
"""

import json
from pathlib import Path

import pytest

import reference_ladder as ref

from repro.bench_programs.registry import all_benchmarks, analyze_benchmark
from repro.corpus import generate_programs
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.patterns.engine import (
    analyze,
    primary_pattern,
    region_share,
    summarize_patterns,
)
from repro.service.jobs import build_call_args
from repro.sim import plan_and_simulate, planner

_CORPUS = generate_programs(count=200, seed=7, adversarial=True)

_SIM = json.loads(Path(__file__).with_name("sim_golden.json").read_text())


def _golden_keys(label):
    return [
        (section, key)
        for section, entries in sorted(_SIM.items())
        for key, entry in entries.items()
        if entry["label"] == label
    ]


def assert_matches_reference(result):
    label, regions = primary_pattern(result)
    assert (label, regions) == (
        ref.summarize_patterns(result),
        ref.primary_pattern_regions(result),
    )
    assert summarize_patterns(result) == label
    share = region_share(result.profile, regions)
    assert share == ref.primary_pattern_share(result)
    outcome = plan_and_simulate(result, thread_counts=())
    assert (outcome.label, outcome.share) == (label, share)


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_program(spec):
    assert_matches_reference(analyze_benchmark(spec.name))


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_program(idx):
    assert_matches_reference(_analyze_corpus_program(idx))


def _analyze_corpus_program(idx):
    tp = _CORPUS[idx]
    program = parse_program(tp.source)
    validate_program(program)
    return analyze(program, tp.entry, [build_call_args(tp.arg_specs, seed=0)])


def _analyze_golden(section, key):
    if section == "registry":
        return analyze_benchmark(key)
    return _analyze_corpus_program(int(key.split("-")[0]))


def _record_loop_reads(monkeypatch):
    """The loops whose costs the planner reads from now on, in read order."""
    loops: list[int] = []
    read_costs = planner.loop_invocation_costs

    def recording(profile, loop):
        loops.append(loop)
        return read_costs(profile, loop)

    monkeypatch.setattr(planner, "loop_invocation_costs", recording)
    return loops


@pytest.mark.parametrize("section,key", _golden_keys("Fusion"), ids=lambda v: v)
def test_fusion_regions_are_the_loops_the_plan_fuses(section, key, monkeypatch):
    result = _analyze_golden(section, key)
    fused = _record_loop_reads(monkeypatch)
    label, regions = primary_pattern(result)
    planner.sweep_pattern(result, label, regions, thread_counts=())
    assert label == "Fusion"
    assert sorted(regions) == sorted(fused)


@pytest.mark.parametrize("section,key", _golden_keys("Do-all"), ids=lambda v: v)
def test_doall_share_is_the_loop_the_plan_parallelizes(section, key, monkeypatch):
    result = _analyze_golden(section, key)
    parallelized = _record_loop_reads(monkeypatch)
    outcome = plan_and_simulate(result, thread_counts=())
    assert outcome.label == "Do-all"
    assert len(parallelized) == 1
    assert outcome.share == region_share(result.profile, parallelized)
