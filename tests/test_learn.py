"""The learned detection baseline: features, models, eval, CLI.

The properties locked here are the ones the subsystem exists to provide:
feature vectors are versioned and finite, training is a pure function of
``(corpus, seed)`` (byte-identical artifacts run-to-run), the model
artifact round-trips through its content-addressed JSON form, and
``learn eval`` judges the learned classifiers and the rule-based
detectors on the *same* held-out programs through the same scoring
machinery.
"""

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.corpus import generate_corpus, load_corpus
from repro.corpus.templates import PATTERN_DIMENSIONS
from repro.learn import (
    DEFAULT_HOLDOUT,
    FEATURE_NAMES,
    FEATURES_VERSION,
    LearnedModel,
    comparison_csv,
    comparison_table,
    corpus_features,
    evaluate_corpus,
    features_csv,
    features_table,
    holdout_split,
    model_digest,
    train_model,
    train_on_corpus,
    validate_model_record,
)
from repro.profiling.serialize import canonical_json


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("learn") / "corpus"
    generate_corpus(20, 11, out, adversarial=True)
    return load_corpus(out)


@pytest.fixture(scope="module")
def features_doc(suite):
    return corpus_features(suite)


class TestFeatures:
    def test_vector_is_versioned_ordered_and_finite(self, features_doc):
        assert features_doc["features_version"] == FEATURES_VERSION
        assert tuple(features_doc["feature_names"]) == FEATURE_NAMES
        assert len(features_doc["programs"]) == 20
        for row in features_doc["programs"]:
            assert tuple(row["features"]) == FEATURE_NAMES
            assert all(math.isfinite(v) for v in row["features"].values())
            assert set(row["truth"]) == set(PATTERN_DIMENSIONS)

    def test_document_is_byte_deterministic(self, suite, features_doc):
        again = corpus_features(suite)
        assert canonical_json(again) == canonical_json(features_doc)

    def test_parallel_extraction_error_runs_once_and_propagates(
        self, suite, tmp_path, monkeypatch
    ):
        from repro.learn import features

        # every extraction, in a pool worker or not, appends its program's name
        extracted = tmp_path / "extracted"
        failing = suite.entries[0].name
        extract = features.features_for_entry

        def logged(entry, cache=None):
            with extracted.open("a") as fh:
                fh.write(entry.name + "\n")
            if entry.name == failing:
                raise RecursionError("maximum recursion depth exceeded")
            return extract(entry, cache=cache)

        monkeypatch.setattr(features, "features_for_entry", logged)
        with pytest.raises(RecursionError):
            corpus_features(suite, parallel=True)
        assert extracted.read_text().split().count(failing) == 1

    def test_renderers_cover_every_program(self, features_doc):
        table = features_table(features_doc)
        csv_text = features_csv(features_doc)
        for row in features_doc["programs"]:
            assert row["name"] in table
            assert row["name"] in csv_text
        header = csv_text.splitlines()[0]
        assert header.split(",")[2:] == list(FEATURE_NAMES)


class TestHoldoutSplit:
    def test_split_is_deterministic_and_order_preserving(self):
        names = [f"p{i}" for i in range(10)]
        train, held = holdout_split(names, seed=3)
        train2, held2 = holdout_split(names, seed=3)
        assert (train, held) == (train2, held2)
        assert train == [n for n in names if n in set(train)]
        assert held == [n for n in names if n in set(held)]
        assert sorted(train + held) == sorted(names)

    def test_seed_moves_the_split(self):
        names = [f"p{i}" for i in range(12)]
        assert holdout_split(names, seed=1) != holdout_split(names, seed=2)

    def test_both_sides_nonempty_when_possible(self):
        names = ["a", "b"]
        train, held = holdout_split(names, seed=0, holdout=0.01)
        assert len(train) == 1 and len(held) == 1
        train, held = holdout_split(names, seed=0, holdout=0.99)
        assert len(train) == 1 and len(held) == 1

    def test_zero_holdout_keeps_everything(self):
        names = ["a", "b", "c"]
        assert holdout_split(names, seed=0, holdout=0.0) == (names, [])

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError, match="holdout"):
            holdout_split(["a"], seed=0, holdout=1.0)


class TestModel:
    @pytest.fixture(scope="class", params=["logistic"])
    def model(self, request, features_doc):
        model = train_model(
            features_doc["programs"], seed=7, trained_on={"corpus": "test"}
        )
        assert model.kind == request.param
        return model

    def test_training_is_byte_deterministic(self, features_doc, model):
        again = train_model(
            features_doc["programs"], seed=7, trained_on={"corpus": "test"}
        )
        assert again.to_json() == model.to_json()
        assert again.model_digest == model.model_digest

    def test_artifact_round_trips(self, tmp_path, model):
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LearnedModel.load(path)
        assert loaded.to_json() == model.to_json()
        row = {name: 0.5 for name in FEATURE_NAMES}
        assert loaded.predict(row) == model.predict(row)

    def test_predictions_cover_every_dimension(self, model, features_doc):
        pred = model.predict(features_doc["programs"][0]["features"])
        assert set(pred) == set(PATTERN_DIMENSIONS)
        assert all(isinstance(v, bool) for v in pred.values())

    def test_digest_is_content_addressed(self, model):
        doc = json.loads(model.to_json())
        assert model_digest(doc) == doc["model_digest"]
        doc["seed"] += 1
        with pytest.raises(ValueError, match="digest"):
            validate_model_record(doc)

    def test_validate_rejects_alien_feature_names(self, model):
        doc = json.loads(model.to_json())
        doc["feature_names"] = list(doc["feature_names"][:-1]) + ["bogus"]
        doc["model_digest"] = model_digest(doc)
        with pytest.raises(ValueError, match="feature"):
            validate_model_record(doc)

    def test_predict_refuses_wrong_features_version(self, model):
        doc = json.loads(model.to_json())
        doc["features_version"] = FEATURES_VERSION + 1
        stale = LearnedModel(doc)
        with pytest.raises(ValueError, match="version"):
            stale.predict({name: 0.0 for name in FEATURE_NAMES})

    def test_unknown_kind_rejected(self, features_doc):
        model = train_model(
            features_doc["programs"], seed=0, trained_on={"corpus": "test"}
        )
        doc = json.loads(model.to_json())
        doc["model"] = "tree"
        doc["model_digest"] = model_digest(doc)
        with pytest.raises(ValueError, match="kind"):
            validate_model_record(doc)


class TestEvaluate:
    @pytest.fixture(scope="class")
    def doc(self, suite):
        return evaluate_corpus(suite, seed=7)

    def test_document_shape(self, suite, doc):
        assert doc["record"] == "learn_eval"
        assert doc["corpus_digest"] == suite.corpus_digest
        assert doc["holdout"] == DEFAULT_HOLDOUT
        split = doc["split"]
        assert split["train"] + split["held_out"] == len(suite.entries)
        assert len(split["held_out_names"]) == split["held_out"]
        for side in ("learned", "rules"):
            assert set(doc[side]) == set(PATTERN_DIMENSIONS)

    def test_both_systems_scored_on_the_same_held_out_set(self, doc):
        held = doc["split"]["held_out"]
        for dim in PATTERN_DIMENSIONS:
            for side in ("learned", "rules"):
                cell = doc[side][dim]
                assert cell["tp"] + cell["fp"] + cell["fn"] + cell["tn"] == held

    def test_eval_is_byte_deterministic(self, suite, doc):
        again = evaluate_corpus(suite, seed=7)
        assert canonical_json(again) == canonical_json(doc)

    def test_train_on_corpus_matches_the_eval_models_digest(self, suite, doc):
        model = train_on_corpus(suite, seed=7, holdout=DEFAULT_HOLDOUT)
        assert model.model_digest == doc["model_digest"]

    def test_renderers(self, doc):
        table = comparison_table(doc)
        assert "lrn_f1" in table and "rule_f1" in table
        lines = comparison_csv(doc).splitlines()
        assert lines[0].startswith("pattern,learned_precision")
        assert len(lines) == 1 + len(PATTERN_DIMENSIONS)

    def test_single_program_corpus_rejected(self, tmp_path):
        out = tmp_path / "tiny"
        generate_corpus(1, 0, out)
        with pytest.raises(ValueError, match="empty side|>= 2"):
            evaluate_corpus(load_corpus(out))


class TestCli:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "corpus"
        generate_corpus(12, 2, out, adversarial=True)
        return out

    def test_features_csv_round_trip(self, corpus_dir, capsys):
        assert cli_main(["learn", "features", str(corpus_dir),
                         "--no-cache", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0].split(",")[2:] == list(FEATURE_NAMES)

    def test_features_no_cache_writes_no_profiles(self, corpus_dir, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "default"))
        assert cli_main(["learn", "features", str(corpus_dir),
                         "--no-cache", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["programs"]) == 12
        assert not (tmp_path / "default").exists()

    def test_train_writes_a_loadable_artifact(self, corpus_dir, tmp_path,
                                              capsys):
        out = tmp_path / "model.json"
        assert cli_main(["learn", "train", str(corpus_dir), "--no-cache",
                         "--out", str(out)]) == 0
        assert "digest" in capsys.readouterr().out
        model = LearnedModel.load(out)
        assert model.kind == "logistic"
        validate_model_record(model.doc)

    def test_eval_emits_json_document(self, corpus_dir, capsys):
        assert cli_main(["learn", "eval", str(corpus_dir), "--no-cache",
                         "--json", "--compact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["record"] == "learn_eval"
        assert set(doc["learned"]) == set(PATTERN_DIMENSIONS)

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        assert cli_main(["learn", "eval", str(tmp_path / "nope")]) == 2
        assert "cannot load" in capsys.readouterr().err
