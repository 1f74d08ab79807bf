"""Learned baseline vs rule-based detectors on a held-out adversarial split.

The learned-detection counterpart of the Table III regeneration: train the
stdlib logistic classifiers on the train side of a fixed-seed
adversarial corpus and report per-pattern precision/recall/F1 side by side
with the rule-based registry on the *same* held-out programs, written to
``benchmarks/output/learned_compare.txt``.

Acceptance criteria pinned here:

* the learned logistic model reaches F1 ≥ 0.8 on the held-out ``doall``
  and ``reduction`` dimensions;
* the evaluation document is byte-deterministic for fixed
  ``(corpus, model, seed)``;
* the adversarial templates do their job — the corpus contains negative
  programs for every rotation cycle, so precision cannot saturate by
  construction alone.
"""

import pytest

from repro.corpus import generate_corpus, load_corpus
from repro.corpus.templates import ADVERSARIAL_TEMPLATES, PATTERN_DIMENSIONS
from repro.learn import comparison_table, evaluate_corpus
from repro.profiling.serialize import canonical_json

COUNT = 40
CORPUS_SEED = 7
EVAL_SEED = 7
GATED_DIMENSIONS = ("doall", "reduction")
MIN_F1 = 0.8


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("learned-compare") / "corpus"
    generate_corpus(COUNT, CORPUS_SEED, out, adversarial=True)
    return load_corpus(out)


@pytest.fixture(scope="module")
def eval_doc(suite):
    return evaluate_corpus(suite, seed=EVAL_SEED)


def test_learned_compare(benchmark, save_artifact, suite, eval_doc):
    doc = benchmark(lambda: evaluate_corpus(suite, seed=EVAL_SEED))
    assert canonical_json(doc) == canonical_json(eval_doc)
    save_artifact("learned_compare.txt", comparison_table(eval_doc))


@pytest.mark.parametrize("dim", GATED_DIMENSIONS)
def test_learned_f1_gate(eval_doc, dim):
    f1 = eval_doc["learned"][dim]["f1"]
    assert f1 is not None and f1 >= MIN_F1


def test_rules_scored_on_the_same_split(eval_doc):
    held = eval_doc["split"]["held_out"]
    for dim in PATTERN_DIMENSIONS:
        for side in ("learned", "rules"):
            cell = eval_doc[side][dim]
            assert cell["tp"] + cell["fp"] + cell["fn"] + cell["tn"] == held


def test_corpus_carries_adversarial_negatives(suite):
    adversarial = {
        t.__name__.removeprefix("t_") for t in ADVERSARIAL_TEMPLATES
    }
    present = {e.template for e in suite.entries}
    assert adversarial <= present
    assert any(
        not any(e.truth.values())
        for e in suite.entries
        if e.template in adversarial
    )
