"""Stdlib-only learned detector: logistic regression.

The model is trained per pattern dimension (six independent binary
classifiers over the one shared feature vector of
:mod:`repro.learn.features`) and serializes to a content-addressed JSON
artifact following the repository's envelope convention
(``schema_version`` + a ``"record"`` discriminator), so artifacts
round-trip and can be diffed/compared by digest.  The artifact names its
model (``"model": "logistic"``); a document naming any other is refused.

**Determinism.**  Training must be byte-identical for a fixed
``(corpus, seed)``:

* full-batch gradient descent from a zero initialization — no RNG
  anywhere, a fixed iteration count, and examples folded in corpus order;
* floats are serialized by ``repr`` via ``json`` — equal computations
  give equal bytes.

The ``seed`` recorded in the artifact names the train/test *split* (see
:mod:`repro.learn.eval`), which is the only seeded choice in the system.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Sequence

from repro.corpus.templates import PATTERN_DIMENSIONS
from repro.learn.features import FEATURE_NAMES, FEATURES_VERSION
from repro.patterns.schema import SCHEMA_VERSION
from repro.profiling.serialize import canonical_json

LEARN_MODEL_RECORD = "learn_model"

# Fixed training hyper-parameters — part of the model definition, not knobs,
# so two trainings of the same data cannot diverge.
_LOGISTIC_ITERATIONS = 400
_LOGISTIC_RATE = 0.5
_LOGISTIC_L2 = 1e-3


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


# ---------------------------------------------------------------------------
# logistic regression (one weight vector per pattern dimension)
# ---------------------------------------------------------------------------


def _standardize(matrix: Sequence[Sequence[float]]) -> tuple[list[float], list[float]]:
    """Per-feature mean and scale over the training matrix.

    Scale is the population standard deviation, floored at 1 so constant
    features pass through unchanged instead of dividing by zero.
    """
    n = len(matrix)
    k = len(FEATURE_NAMES)
    means = [0.0] * k
    for row in matrix:
        for j in range(k):
            means[j] += row[j]
    means = [m / n for m in means]
    scales = [0.0] * k
    for row in matrix:
        for j in range(k):
            d = row[j] - means[j]
            scales[j] += d * d
    scales = [max(math.sqrt(s / n), 1e-9) for s in scales]
    return means, scales


def _train_logistic_one(
    matrix: list[list[float]], labels: list[int]
) -> tuple[list[float], float]:
    """Full-batch gradient descent for one binary dimension.

    *matrix* is already standardized.  Returns ``(weights, bias)``.
    """
    n = len(matrix)
    k = len(FEATURE_NAMES)
    w = [0.0] * k
    b = 0.0
    for _ in range(_LOGISTIC_ITERATIONS):
        grad_w = [0.0] * k
        grad_b = 0.0
        for row, y in zip(matrix, labels):
            z = b
            for j in range(k):
                z += w[j] * row[j]
            err = _sigmoid(z) - y
            for j in range(k):
                grad_w[j] += err * row[j]
            grad_b += err
        for j in range(k):
            w[j] -= _LOGISTIC_RATE * (grad_w[j] / n + _LOGISTIC_L2 * w[j])
        b -= _LOGISTIC_RATE * grad_b / n
    return w, b


# ---------------------------------------------------------------------------
# the model object + artifact round-trip
# ---------------------------------------------------------------------------


class LearnedModel:
    """Six per-dimension binary classifiers over the shared feature vector."""

    def __init__(self, doc: dict[str, Any]) -> None:
        self.doc = doc

    # -- queries -----------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.doc["model"]

    @property
    def model_digest(self) -> str:
        return self.doc["model_digest"]

    def predict(self, features: dict[str, float]) -> dict[str, bool]:
        """Pattern-presence verdicts for one program's feature dict."""
        if self.doc["features_version"] != FEATURES_VERSION:
            raise ValueError(
                "model was trained on features version "
                f"{self.doc['features_version']}, extractor is {FEATURES_VERSION}"
            )
        row = [float(features[name]) for name in FEATURE_NAMES]
        means = self.doc["standardize"]["means"]
        scales = self.doc["standardize"]["scales"]
        std = [(v - m) / s for v, m, s in zip(row, means, scales)]
        out: dict[str, bool] = {}
        for dim in PATTERN_DIMENSIONS:
            params = self.doc["dimensions"][dim]
            z = params["bias"]
            for w, v in zip(params["weights"], std):
                z += w * v
            out[dim] = z >= 0.0
        return out

    # -- persistence -------------------------------------------------------

    def to_json(self, pretty: bool = True) -> str:
        if pretty:
            return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"
        return canonical_json(self.doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LearnedModel":
        return cls(validate_model_record(
            json.loads(Path(path).read_text(encoding="utf-8"))
        ))


def model_digest(doc: dict[str, Any]) -> str:
    """Content address of a model: SHA-256 over the canonical JSON of the
    document with the digest field itself removed."""
    body = {k: v for k, v in doc.items() if k != "model_digest"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def validate_model_record(doc: dict[str, Any]) -> dict[str, Any]:
    """Check *doc* is a model artifact of this schema version; return it."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {doc.get('schema_version')!r}"
        )
    if doc.get("record") != LEARN_MODEL_RECORD:
        raise ValueError("document is not a learned-model record")
    if doc.get("model") != "logistic":
        raise ValueError(f"unknown model kind {doc.get('model')!r}")
    if doc.get("feature_names") != list(FEATURE_NAMES):
        raise ValueError("model feature names do not match this build")
    dims = doc.get("dimensions")
    if not isinstance(dims, dict) or set(dims) != set(PATTERN_DIMENSIONS):
        raise ValueError("model must cover every pattern dimension")
    if doc.get("model_digest") != model_digest(doc):
        raise ValueError("model digest does not match its contents")
    return doc


def train_model(
    dataset: list[dict[str, Any]],
    seed: int = 0,
    trained_on: dict[str, Any] | None = None,
) -> LearnedModel:
    """Train the logistic model over *dataset* rows.

    Each row carries ``name``, ``features`` (the full named vector), and
    ``truth`` (the six-dimension label dict).  Rows are consumed in the
    given order; pass them in corpus generation order for reproducible
    artifacts.  *trained_on* is free-form provenance recorded verbatim
    (corpus name/digest, split parameters).
    """
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    matrix = [
        [float(row["features"][name]) for name in FEATURE_NAMES]
        for row in dataset
    ]
    labels_by_dim = {
        dim: [1 if row["truth"][dim] else 0 for row in dataset]
        for dim in PATTERN_DIMENSIONS
    }
    dimensions: dict[str, Any] = {}
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "record": LEARN_MODEL_RECORD,
        "model": "logistic",
        "features_version": FEATURES_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "seed": seed,
        "examples": len(dataset),
        "trained_on": dict(trained_on or {}),
        "dimensions": dimensions,
    }
    means, scales = _standardize(matrix)
    std = [
        [(v - m) / s for v, m, s in zip(row, means, scales)]
        for row in matrix
    ]
    doc["standardize"] = {"means": means, "scales": scales}
    for dim in PATTERN_DIMENSIONS:
        weights, bias = _train_logistic_one(std, labels_by_dim[dim])
        dimensions[dim] = {"weights": weights, "bias": bias}
    doc["model_digest"] = model_digest(doc)
    return LearnedModel(doc)
