"""The AST walks and CU units against plain recursive definitions.

The library walks statements and expressions from explicit stacks and
builds each CU unit from one walk over the statement's subtree.
:mod:`reference_ast` defines both plainly: recursive generators, and a
unit built by seven helpers that each walk the subtree again.  Walk order
is part of the contract (site ids, CU ids and dependence insertion order
follow it), so the walks must yield the same nodes, by identity and in
order, and CU detection must form the same CUs on every region.

Inputs: the 17 registry programs, the seeded programs of
``test_compile_engine.py`` and an adversarial corpus draw.
"""

import pytest

import reference_ast as ref
from test_compile_engine import _compile, _generated_cases

from repro.bench_programs.registry import all_benchmarks
from repro.corpus import generate_programs
from repro.cu import detect
from repro.cu.detect import detect_cus, region_body
from repro.lang.ast_nodes import stmt_exprs, walk_exprs, walk_stmts


def _same_nodes(ours, theirs):
    assert [id(n) for n in ours] == [id(n) for n in theirs]


def _cu_fields(cus):
    return [
        (cu.cu_id, cu.region, cu.kind, [id(s) for s in cu.stmts], cu.lines, cu.reads,
         cu.writes, cu.callees, cu.early_exit)
        for cu in cus
    ]


def _assert_matches_reference(program, monkeypatch):
    bodies = [program.globals] + [f.body for f in program.functions]
    bodies += [region_body(program, region) for region in program.regions]
    for body in bodies:
        _same_nodes(walk_stmts(body), ref.walk_stmts(body))
    user_funcs = {f.name for f in program.functions}
    for stmt in walk_stmts(program.globals + [s for f in program.functions for s in f.body]):
        for root in stmt_exprs(stmt):
            _same_nodes(walk_exprs(root), ref.walk_exprs(root))
        unit, holds_loop_or_call = detect._unit_for_stmt(stmt, user_funcs)
        expected = ref.unit_for_stmt(stmt, user_funcs)
        assert vars(unit) == vars(expected), stmt
        assert holds_loop_or_call == ref.contains_call_or_loop(stmt, user_funcs), stmt
    ours = {region: _cu_fields(detect_cus(program, region)) for region in program.regions}
    monkeypatch.setattr(detect, "_flatten_units", ref.flatten_units)
    theirs = {region: _cu_fields(detect_cus(program, region)) for region in program.regions}
    assert ours == theirs


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_program_matches_reference(spec, monkeypatch):
    _assert_matches_reference(spec.program, monkeypatch)


@pytest.mark.parametrize(
    "idx,source", _generated_cases(), ids=lambda v: str(v) if isinstance(v, int) else None
)
def test_generated_program_matches_reference(idx, source, monkeypatch):
    _assert_matches_reference(_compile(source), monkeypatch)


_CORPUS = generate_programs(count=200, seed=7, adversarial=True)


@pytest.mark.parametrize(
    "idx", range(len(_CORPUS)), ids=lambda idx: f"{idx}-{_CORPUS[idx].template}"
)
def test_corpus_program_matches_reference(idx, monkeypatch):
    _assert_matches_reference(_compile(_CORPUS[idx].source), monkeypatch)
