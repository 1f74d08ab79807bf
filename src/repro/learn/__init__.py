"""Learned detection baseline (ROADMAP item 5).

A stdlib-only subsystem that treats the rule-based pipeline's own
evidence — profiled dependences, trip counts, PET shape, hotspot shares,
CU graphs — as a feature vector, trains lightweight per-pattern
classifiers on the generated corpus of :mod:`repro.corpus`, and scores
them against the rule-based detectors on a held-out split through the
same scoring machinery (``repro learn features|train|eval``).

* :mod:`repro.learn.features` — deterministic, versioned feature vectors
* :mod:`repro.learn.model` — logistic regression with a content-addressed
  JSON artifact
* :mod:`repro.learn.eval` — the train/held-out split and the
  learned-vs-rules comparison document
"""

from repro.learn.features import (
    FEATURE_NAMES,
    FEATURES_VERSION,
    corpus_features,
    extract_features,
    features_for_entry,
)
from repro.learn.model import (
    LEARN_MODEL_RECORD,
    LearnedModel,
    model_digest,
    train_model,
    validate_model_record,
)
from repro.learn.eval import (
    DEFAULT_HOLDOUT,
    LEARN_EVAL_RECORD,
    comparison_csv,
    comparison_table,
    evaluate_corpus,
    features_csv,
    features_table,
    holdout_split,
    train_on_corpus,
)

__all__ = [
    "FEATURE_NAMES",
    "FEATURES_VERSION",
    "corpus_features",
    "extract_features",
    "features_for_entry",
    "LEARN_MODEL_RECORD",
    "LearnedModel",
    "model_digest",
    "train_model",
    "validate_model_record",
    "DEFAULT_HOLDOUT",
    "LEARN_EVAL_RECORD",
    "comparison_csv",
    "comparison_table",
    "evaluate_corpus",
    "features_csv",
    "features_table",
    "holdout_split",
    "train_on_corpus",
]
