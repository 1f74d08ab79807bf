"""CI smoke for the learned detection baseline.

Three facts, end to end, on a fixed-seed adversarial corpus::

    PYTHONPATH=src python benchmarks/learn_smoke.py

* **byte determinism** — training the same ``(model, seed, corpus)``
  twice produces byte-identical JSON artifacts;
* **held-out quality gate** — the logistic model must reach F1 ≥ 0.8 on
  the ``doall`` and ``reduction`` dimensions of the held-out split (the
  acceptance bar for the learned-baseline work);
* **comparison render** — the learned-vs-rules table and CSV must render
  with a row per pattern dimension; the table is the committed
  ``benchmarks/output/learned_compare.txt`` artefact.

Exit 0 on success.  Not collected by pytest (no ``test_`` prefix); the
in-process equivalents live in ``tests/test_learn.py`` and
``tests/test_determinism_regression.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

COUNT = 60
SEED = 7
EVAL_SEED = 7
HOLDOUT = 0.3
GATED_DIMENSIONS = ("doall", "reduction")
MIN_F1 = 0.8


def check(ok: bool, what: str) -> None:
    status = "ok" if ok else "FAIL"
    print(f"[learn-smoke] {status}: {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    from repro.corpus import generate_corpus, load_corpus
    from repro.corpus.templates import PATTERN_DIMENSIONS
    from repro.learn import (
        comparison_csv,
        comparison_table,
        evaluate_corpus,
        train_on_corpus,
    )
    from repro.profiling.cache import ProfileCache

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        manifest = generate_corpus(COUNT, SEED, work / "corpus",
                                   adversarial=True)
        suite = load_corpus(work / "corpus")
        cache = ProfileCache(work / "cache")

        # 1. training is a pure function of (corpus, seed) — run to run
        first = train_on_corpus(suite, seed=EVAL_SEED, holdout=HOLDOUT,
                                cache=cache).to_json()
        again = train_on_corpus(suite, seed=EVAL_SEED, holdout=HOLDOUT,
                                cache=cache).to_json()
        check(first == again,
              f"logistic training on {manifest['name']} is byte-deterministic "
              "run to run")

        # 2. held-out F1 gate, scored through the corpus machinery
        doc = evaluate_corpus(suite, seed=EVAL_SEED, holdout=HOLDOUT,
                              cache=cache)
        for dim in GATED_DIMENSIONS:
            f1 = doc["learned"][dim]["f1"]
            check(f1 is not None and f1 >= MIN_F1,
                  f"held-out learned {dim} F1 "
                  f"{'undefined' if f1 is None else f'{f1:.3f}'} >= {MIN_F1} "
                  f"({doc['split']['held_out']} held-out programs)")

        # 3. the learned-vs-rules comparison renders a row per dimension
        table = comparison_table(doc)
        csv_text = comparison_csv(doc)
        for dim in PATTERN_DIMENSIONS:
            check(dim in table and any(line.startswith(dim)
                                       for line in csv_text.splitlines()),
                  f"comparison table and CSV carry a {dim} row")
        for m in doc["learned_mismatches"]:
            print(f"[learn-smoke] note: learned mismatch "
                  f"{m['program']}/{m['dimension']}")
    print("[learn-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
