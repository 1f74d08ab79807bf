"""Metamorphic invariants of the learned baseline.

The corpus transforms are semantics-preserving relabelings of the same
computation: *rename* is alpha-conversion, *dead-statement insertion*
adds write-only locals no live statement ever reads.  A feature vector
that moved under either would be learning names or noise, so the suite
pins byte-equality of the extracted features — and therefore of every
learned prediction — across each transform, every template (base and
adversarial), multiple seeds, and both profiling engines.

This is the test-side half of the live-view contract documented in
:mod:`repro.learn.features`: dead dependences are dropped, dead line
costs are subtracted from every *dynamically* enclosing region, dead CUs
are excluded, and no feature mentions a line number or identifier.
"""

import random

import pytest

from repro.corpus.templates import ADVERSARIAL_TEMPLATES, TEMPLATES
from repro.corpus.transforms import insert_dead_statements, rename_identifiers
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.learn import extract_features, train_model
from repro.profiling.cache import cached_profile_runs
from repro.service.jobs import build_call_args

ALL_TEMPLATES = TEMPLATES + ADVERSARIAL_TEMPLATES

TRANSFORMS = {
    "rename": rename_identifiers,
    "dead-statements": insert_dead_statements,
}


def _features(source: str, entry: str, arg_specs, engine: str = "compiled"):
    program = parse_program(source)
    validate_program(program)
    args = build_call_args(arg_specs, seed=0)
    profile, _ = cached_profile_runs(
        program, entry, [args], cache=None, engine=engine
    )
    return extract_features(program, profile)


def _template_case(template, seed: int):
    tp = template(random.Random(f"meta:{seed}"))
    base = _features(tp.source, tp.entry, tp.arg_specs)
    return tp, base


@pytest.mark.parametrize("template", ALL_TEMPLATES,
                         ids=lambda t: t.__name__)
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_features_invariant_under_transform(template, seed, transform):
    tp, base = _template_case(template, seed)
    transformed = TRANSFORMS[transform](tp.source, random.Random(seed))
    if transformed == tp.source:  # transform found nothing to do
        pytest.skip("transform was the identity on this program")
    other = _features(transformed, tp.entry, tp.arg_specs)
    diffs = {k: (base[k], other[k]) for k in base if base[k] != other[k]}
    assert not diffs


@pytest.mark.parametrize("template", ALL_TEMPLATES,
                         ids=lambda t: t.__name__)
def test_features_invariant_across_engines(template):
    tp, base = _template_case(template, 0)
    tree = _features(tp.source, tp.entry, tp.arg_specs, engine="tree")
    assert tree == base


def test_predictions_invariant_under_all_transforms():
    # train one model per kind on the untransformed features, then demand
    # identical verdicts for every transformed variant: equality of the
    # vectors makes this a corollary, but the check goes through the real
    # predict path so a future feature/model skew cannot hide
    rows = []
    cases = []
    for index, template in enumerate(ALL_TEMPLATES):
        tp, base = _template_case(template, 1)
        rows.append(
            {"name": f"p{index}", "features": base, "truth": tp.truth}
        )
        cases.append((tp, base))
    model = train_model(rows, seed=3, trained_on={})
    for tp, base in cases:
        expected = model.predict(base)
        for name, transform in sorted(TRANSFORMS.items()):
            variant = transform(tp.source, random.Random(5))
            feats = _features(variant, tp.entry, tp.arg_specs)
            assert model.predict(feats) == expected, (
                f"verdict moved under {name} for {tp.template}"
            )
