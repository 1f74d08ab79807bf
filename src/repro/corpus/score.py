"""Score detector output against corpus ground truth
(``repro corpus score``).

Scoring is *program-level presence*: for each pattern dimension, did the
detector pipeline find at least one instance in the program?  That matches
the granularity of the ground-truth labels (a template constructs a
pattern, it does not pin region ids, which transforms legitimately shift).

The prediction predicates deliberately reuse the exact gates the rest of
the system quotes — ``clean_pipelines()`` and ``best_task_parallelism()``
rather than the raw candidate lists — so a corpus score measures what a
user of the tool would actually be told.
"""

from __future__ import annotations

import io
from typing import Any, Iterable

from repro.corpus.suite import CorpusEntry, CorpusSuite
from repro.corpus.templates import PATTERN_DIMENSIONS
from repro.patterns.framework import AnalysisResult
from repro.patterns.schema import SCHEMA_VERSION

CORPUS_SCORE_RECORD = "corpus_score"


def predicted_patterns(result: AnalysisResult) -> dict[str, bool]:
    """Program-level pattern presence as the detector pipeline reports it."""
    return {
        "doall": any(lc.is_doall for lc in result.loop_classes.values()),
        "reduction": any(bool(c) for c in result.reductions.values()),
        "pipeline": bool(result.clean_pipelines()),
        "task": result.best_task_parallelism() is not None,
        "geometric": bool(result.geometric),
        "wavefront": bool(result.wavefronts),
    }


def analyze_entry(entry: CorpusEntry, cache=None) -> AnalysisResult:
    """Run the full detector pipeline over one corpus program."""
    from repro.lang.parser import parse_program
    from repro.lang.validate import validate_program
    from repro.patterns.engine import analyze
    from repro.service.jobs import build_call_args

    program = parse_program(entry.source)
    validate_program(program)
    args = build_call_args(entry.arg_specs, seed=0)
    return analyze(program, entry.entry, [args], cache=cache)


def score_corpus(
    suite: CorpusSuite,
    predictions: dict[str, dict[str, bool]],
) -> dict[str, Any]:
    """Join *predictions* (program name -> presence dict) against truth.

    Returns the versioned score document: per-detector confusion counts
    with precision/recall/F1/accuracy, plus every individual mismatch
    (program, dimension, truth, predicted) for debugging.
    """
    per: dict[str, dict[str, int]] = {
        dim: {"tp": 0, "fp": 0, "fn": 0, "tn": 0} for dim in PATTERN_DIMENSIONS
    }
    mismatches: list[dict[str, Any]] = []
    scored = 0
    for entry in suite.entries:
        pred = predictions.get(entry.name)
        if pred is None:
            continue
        scored += 1
        for dim in PATTERN_DIMENSIONS:
            truth = bool(entry.truth[dim])
            guess = bool(pred.get(dim, False))
            cell = per[dim]
            if truth and guess:
                cell["tp"] += 1
            elif truth and not guess:
                cell["fn"] += 1
            elif guess:
                cell["fp"] += 1
            else:
                cell["tn"] += 1
            if truth != guess:
                mismatches.append(
                    {
                        "program": entry.name,
                        "template": entry.template,
                        "dimension": dim,
                        "truth": truth,
                        "predicted": guess,
                    }
                )
    detectors: dict[str, dict[str, Any]] = {}
    for dim, cell in per.items():
        tp, fp, fn, tn = cell["tp"], cell["fp"], cell["fn"], cell["tn"]
        total = tp + fp + fn + tn
        # Undefined metrics are reported as null, not defaulted: an
        # all-negative corpus has no positive predictions or truths, and
        # pretending precision is 1.0 there would let a detector that never
        # fires look perfect.  ``format_table`` renders None as ``-`` and
        # the csv writer as an empty cell.
        detectors[dim] = {
            **cell,
            "precision": tp / (tp + fp) if tp + fp else None,
            "recall": tp / (tp + fn) if tp + fn else None,
            "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None,
            "accuracy": (tp + tn) / total if total else None,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "record": CORPUS_SCORE_RECORD,
        "corpus": suite.name,
        "corpus_digest": suite.corpus_digest,
        "programs": scored,
        "detectors": detectors,
        "mismatches": mismatches,
    }


def score_table(score: dict[str, Any]) -> str:
    """Render the score document as the text confusion table."""
    from repro.reporting.tables import format_table

    rows = []
    for dim in PATTERN_DIMENSIONS:
        d = score["detectors"][dim]
        rows.append(
            [
                dim,
                d["tp"], d["fp"], d["fn"], d["tn"],
                d["precision"], d["recall"], d["f1"], d["accuracy"],
            ]
        )
    title = (
        f"Corpus score: {score['corpus']} "
        f"({score['programs']} programs)"
    )
    text = format_table(
        ["detector", "tp", "fp", "fn", "tn", "precision", "recall", "f1", "accuracy"],
        rows,
        title=title,
    )
    if score["mismatches"]:
        lines = [text, "", "Mismatches:"]
        for m in score["mismatches"]:
            lines.append(
                f"  {m['program']} [{m['template']}] {m['dimension']}: "
                f"truth={m['truth']} predicted={m['predicted']}"
            )
        return "\n".join(lines)
    return text


def score_csv(score: dict[str, Any]) -> str:
    """Render the per-detector table as CSV text."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["detector", "tp", "fp", "fn", "tn", "precision", "recall", "f1", "accuracy"]
    )
    for dim in PATTERN_DIMENSIONS:
        d = score["detectors"][dim]
        writer.writerow(
            [dim, d["tp"], d["fp"], d["fn"], d["tn"],
             d["precision"], d["recall"], d["f1"], d["accuracy"]]
        )
    return buf.getvalue()


def score_entries(
    suite: CorpusSuite,
    entries: Iterable[CorpusEntry] | None = None,
    cache=None,
) -> dict[str, Any]:
    """Analyze (or re-use *cache*) every corpus entry and score the suite."""
    predictions: dict[str, dict[str, bool]] = {}
    for entry in entries if entries is not None else suite.entries:
        result = analyze_entry(entry, cache=cache)
        predictions[entry.name] = predicted_patterns(result)
    return score_corpus(suite, predictions)
