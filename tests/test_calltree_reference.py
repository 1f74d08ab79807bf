"""The call-tree reads against plain recursive definitions.

The library reads a profile's call tree through an iterative preorder walk,
a per-profile activation index (``Profile.activations``), a nesting depth
computed from that index and parent pointers, and a recursive span that
shares one topological order per CU graph and memoizes spans on activation
shape.  :mod:`reference_calltree` defines each of these plainly: recursion,
full-tree filters, and one critical path per activation.  They must agree
exactly (spans to the last float bit) on every region of every program.

Inputs: the 17 registry programs, the seeded programs of
``test_compile_engine.py``, and an adversarial corpus draw.  No CU graph
of these programs has a cycle, so random digraphs check one shared
topological order, cycles condensed, against per-weighting critical paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import reference_calltree as ref
from test_compile_engine import _compile, _generated_cases
from test_graphs import random_digraph

from repro.bench_programs.registry import all_benchmarks
from repro.corpus import generate_programs
from repro.cu.detect import detect_cus
from repro.cu.graph import build_cu_graph, cu_weight
from repro.graphs.algorithms import longest_path, path_order
from repro.patterns.tasks import _recursive_span, _single_step
from repro.profiling import profile_runs
from repro.service.jobs import build_call_args
from repro.sim.planner import _max_depth


def _same_nodes(ours, theirs):
    assert [id(n) for n in ours] == [id(n) for n in theirs]


def _assert_matches_reference(program, entry, arg_sets):
    profile = profile_runs(program, entry, arg_sets)
    _same_nodes(profile.calltree.walk(), ref.walk(profile.calltree))
    _same_nodes(profile.pet.walk(), ref.walk(profile.pet))
    regions = sorted({n.region for n in profile.calltree.walk()})
    for region in regions:
        _same_nodes(profile.activations(region), ref.activations(profile, region))
        assert _max_depth(profile, region) == ref.max_depth(profile, region), region
        cus = detect_cus(program, region)
        graph = build_cu_graph(cus, profile, region)
        order = path_order(graph)
        assert _recursive_span(profile, region, cus, order) == ref.recursive_span(
            profile, region, cus, graph
        ), region
        assert _single_step(profile, region, cus, order) == ref.single_step(
            profile, region, cus, graph
        ), region
        weights = {cu.cu_id: float(cu_weight(cu, profile)) for cu in cus}
        assert longest_path(order, lambda cu: weights.get(cu, 0.0)) == ref.critical_path(
            graph, lambda cu: weights.get(cu, 0.0)
        ), region
    # A region with no activations reads as empty everywhere.
    assert profile.activations(-1) == ()
    assert _max_depth(profile, -1) == ref.max_depth(profile, -1) == 1


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_program_matches_reference(spec):
    _assert_matches_reference(spec.program, spec.entry, spec.arg_sets())


@pytest.mark.parametrize(
    "idx,source", _generated_cases(), ids=lambda v: str(v) if isinstance(v, int) else None
)
def test_generated_program_matches_reference(idx, source):
    n = 10
    args = [np.arange(-n // 2, n - n // 2, dtype=np.int64), np.zeros(n, dtype=np.int64), n]
    _assert_matches_reference(_compile(source), "f", [args])


_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_program_matches_reference(idx):
    tp = _CORPUS[idx]
    _assert_matches_reference(
        _compile(tp.source), tp.entry, [build_call_args(tp.arg_specs, seed=0)]
    )


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_one_path_order_serves_every_weighting(data):
    graph, _, _ = data
    order = path_order(graph)
    for k in range(3):
        weight = lambda node: float((7 * node + k) % 5)  # noqa: E731
        assert longest_path(order, weight) == ref.critical_path(graph, weight)
