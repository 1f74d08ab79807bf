"""Learned-vs-rule-based evaluation over a corpus split
(``repro learn eval``).

The showdown the ROADMAP asks for: train the lightweight classifiers of
:mod:`repro.learn.model` on one part of a generated corpus, then report
per-pattern precision/recall/F1 on the *held-out* part side-by-side with
the rule-based detector registry — both scored through the exact same
:func:`repro.corpus.score.score_corpus` machinery, so the comparison
cannot drift from what ``repro corpus score`` would say.

The train/held-out split is content-addressed rather than shuffled:
programs are ordered by ``sha256(f"{seed}:{name}")`` and the prefix is
held out.  The same ``(corpus, seed, holdout)`` triple therefore names
the same split on every machine, which is what makes training (and this
whole document) byte-deterministic.
"""

from __future__ import annotations

import hashlib
import io
from typing import Any

from repro.corpus.score import score_corpus, score_entries
from repro.corpus.suite import CorpusSuite
from repro.corpus.templates import PATTERN_DIMENSIONS
from repro.learn.features import FEATURES_VERSION, corpus_features
from repro.learn.model import LearnedModel, train_model
from repro.patterns.schema import SCHEMA_VERSION

LEARN_EVAL_RECORD = "learn_eval"

#: Fraction of the corpus held out for evaluation by default.
DEFAULT_HOLDOUT = 0.3


def holdout_split(
    names: list[str], seed: int, holdout: float = DEFAULT_HOLDOUT
) -> tuple[list[str], list[str]]:
    """Deterministic ``(train, held_out)`` name split.

    Names are ranked by the hex digest of ``f"{seed}:{name}"`` and the
    first ``round(holdout * n)`` are held out (at least 1, at most n-1
    when both sides can be non-empty).  Both returned lists preserve the
    *input* order, so datasets built from them stay in corpus order.
    """
    if not 0.0 <= holdout < 1.0:
        raise ValueError(f"holdout must be in [0, 1), got {holdout!r}")
    n = len(names)
    k = round(n * holdout)
    if holdout > 0.0 and n > 1:
        k = min(max(k, 1), n - 1)
    ranked = sorted(
        names,
        key=lambda name: hashlib.sha256(
            f"{seed}:{name}".encode("utf-8")
        ).hexdigest(),
    )
    held = set(ranked[:k])
    return [n_ for n_ in names if n_ not in held], [n_ for n_ in names if n_ in held]


def evaluate_corpus(
    suite: CorpusSuite,
    seed: int = 7,
    holdout: float = DEFAULT_HOLDOUT,
    cache=None,
    parallel: bool = False,
) -> dict[str, Any]:
    """Train on the corpus' train split and score both systems on the rest.

    Returns the versioned evaluation document: the split, the trained
    model's digest, and per-dimension confusion metrics for the learned
    model and the rule-based detectors over the same held-out programs.
    """
    features_doc = corpus_features(suite, cache=cache, parallel=parallel)
    rows = {row["name"]: row for row in features_doc["programs"]}
    train_names, held_names = holdout_split(
        [e.name for e in suite.entries], seed=seed, holdout=holdout
    )
    if not train_names or not held_names:
        raise ValueError(
            f"split left an empty side (train={len(train_names)}, "
            f"held_out={len(held_names)}); need a corpus of >= 2 programs"
        )
    model = train_model(
        [rows[name] for name in train_names],
        seed=seed,
        trained_on={
            "corpus": suite.name,
            "corpus_digest": suite.corpus_digest,
            "train_programs": len(train_names),
            "holdout": holdout,
        },
    )
    learned_predictions = {
        name: model.predict(rows[name]["features"]) for name in held_names
    }
    learned_score = score_corpus(suite, learned_predictions)
    held_set = set(held_names)
    rules_score = score_entries(
        suite,
        entries=[e for e in suite.entries if e.name in held_set],
        cache=cache,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "record": LEARN_EVAL_RECORD,
        "corpus": suite.name,
        "corpus_digest": suite.corpus_digest,
        "model": model.kind,
        "model_digest": model.model_digest,
        "features_version": FEATURES_VERSION,
        "seed": seed,
        "holdout": holdout,
        "split": {
            "train": len(train_names),
            "held_out": len(held_names),
            "held_out_names": held_names,
        },
        "learned": learned_score["detectors"],
        "rules": rules_score["detectors"],
        "learned_mismatches": learned_score["mismatches"],
        "rules_mismatches": rules_score["mismatches"],
    }


def train_on_corpus(
    suite: CorpusSuite,
    seed: int = 7,
    holdout: float = 0.0,
    cache=None,
    parallel: bool = False,
) -> LearnedModel:
    """Train a model artifact on the corpus (``repro learn train``).

    With ``holdout == 0`` the whole corpus is the training set; otherwise
    the evaluation split's train side is used, so a model trained here and
    the model inside :func:`evaluate_corpus` are byte-identical for the
    same parameters.
    """
    features_doc = corpus_features(suite, cache=cache, parallel=parallel)
    rows = {row["name"]: row for row in features_doc["programs"]}
    names = [e.name for e in suite.entries]
    if holdout > 0.0:
        names, _ = holdout_split(names, seed=seed, holdout=holdout)
    return train_model(
        [rows[name] for name in names],
        seed=seed,
        trained_on={
            "corpus": suite.name,
            "corpus_digest": suite.corpus_digest,
            "train_programs": len(names),
            "holdout": holdout,
        },
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_METRICS = ("precision", "recall", "f1")


def comparison_table(doc: dict[str, Any]) -> str:
    """The learned-vs-rules text table (undefined metrics render as ``-``)."""
    from repro.reporting.tables import format_table

    rows = []
    for dim in PATTERN_DIMENSIONS:
        learned = doc["learned"][dim]
        rules = doc["rules"][dim]
        rows.append(
            [dim]
            + [learned[m] for m in _METRICS]
            + [rules[m] for m in _METRICS]
        )
    title = (
        f"Learned ({doc['model']}) vs rule-based detectors: {doc['corpus']} "
        f"(held-out {doc['split']['held_out']}/"
        f"{doc['split']['train'] + doc['split']['held_out']} programs, "
        f"seed {doc['seed']})"
    )
    return format_table(
        [
            "pattern",
            "lrn_precision", "lrn_recall", "lrn_f1",
            "rule_precision", "rule_recall", "rule_f1",
        ],
        rows,
        title=title,
    )


def comparison_csv(doc: dict[str, Any]) -> str:
    """CSV form of the comparison (undefined metrics as empty cells)."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["pattern"]
        + [f"learned_{m}" for m in _METRICS]
        + [f"rules_{m}" for m in _METRICS]
    )
    for dim in PATTERN_DIMENSIONS:
        learned = doc["learned"][dim]
        rules = doc["rules"][dim]
        writer.writerow(
            [dim]
            + ["" if learned[m] is None else learned[m] for m in _METRICS]
            + ["" if rules[m] is None else rules[m] for m in _METRICS]
        )
    return buf.getvalue()


def features_csv(features_doc: dict[str, Any]) -> str:
    """CSV of a ``learn features`` document: one row per program."""
    import csv

    names = features_doc["feature_names"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "template"] + list(names))
    for row in features_doc["programs"]:
        writer.writerow(
            [row["name"], row["template"]]
            + [row["features"][n] for n in names]
        )
    return buf.getvalue()


def features_table(features_doc: dict[str, Any]) -> str:
    """Compact text summary of a features document (full vectors are for
    ``--json``/``--csv``; the table shows the most diagnostic columns)."""
    from repro.reporting.tables import format_table

    columns = (
        "loop_clean_frac",
        "loop_scalar_accum_frac",
        "loop_escaping_accum_frac",
        "pair_links_per_loop",
        "cu_sources_max",
        "hot_loop_share_max",
    )
    rows = [
        [row["name"], row["template"]]
        + [row["features"][c] for c in columns]
        for row in features_doc["programs"]
    ]
    title = (
        f"Features v{features_doc['features_version']}: "
        f"{features_doc['corpus']} ({len(features_doc['programs'])} programs, "
        f"{len(features_doc['feature_names'])} features)"
    )
    return format_table(["name", "template", *columns], rows, title=title)
