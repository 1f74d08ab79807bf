#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

Each side is a directory of run records, the ``run-<workload>-s<seed>-t<trace>.json``
files ``run.py`` writes to ``benchmarks/perf/output/``.  Runs pair up by
workload and seed, so both sides of a pair saw the same inputs; measure at
least ten pairs per workload, alternating which side runs first::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Every end-to-end metric of every workload gets one verdict:

``improved``
    the change wins at least 9 of 10 pairs (ties count for neither) and
    the medians differ by more than the parent's interquartile range;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unchanged``
    neither of the above;
``unresolved``
    the run-to-run spread of either side exceeds the bound, unless every
    change run beats every parent run, or there are fewer than ten pairs.

Ratios (``success_ratio``, ``verdict_accuracy``) are printed with their
bases and also judged pair by pair: both runs of a pair saw the same
inputs, so a pair whose change has the lower ratio makes the metric
``worse`` whatever the bound.  Exact per-layer counters from traced runs
are compared the same way, as counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Sequence

from benchenv import ROOT
from perfstats import iqr_share, median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
COUNT_UNITS = ("count", "B")


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """One metric's verdict from paired runs (``parent[i]`` pairs ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, mc = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (mc - mp) > q3 - q1:
        return "improved"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max(iqr_share(parent), iqr_share(change))
    if n < MIN_PAIRS or (spread > bound and not every_run_better):
        return "unresolved"
    worse_by = -sign * (mc - mp) / abs(mp) if mp else 0.0
    return "worse" if worse_by > bound else "unchanged"


def exact_verdict(parent: Sequence[float], change: Sequence[float], better: str) -> str:
    """Values that should repeat exactly, pair by pair: any pair that got
    worse makes the metric worse."""
    sign = 1 if better == "higher" else -1
    moves = [sign * (c - p) for p, c in zip(parent, change)]
    if any(m < 0 for m in moves):
        return "worse"
    if moves and sum(1 for m in moves if m > 0) >= WIN_SHARE * len(moves):
        return "improved"
    return "unchanged"


def load_runs(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> run record."""
    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("run-*.json")):
        doc = json.loads(path.read_text())
        runs[(doc["workload"], int(doc["trace"]))][int(doc["seed"])] = doc
    return runs


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> tuple[str, bool]:
    """The comparison report, and whether any metric got worse."""
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    lines: list[str] = []
    any_worse = False
    for (workload, trace) in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[(workload, trace)]) & set(change_runs[(workload, trace)]))
        pairs = [(parent_runs[(workload, trace)][s], change_runs[(workload, trace)][s])
                 for s in seeds]
        metrics = spec["end_to_end"] if trace == 0 else [
            m for m in spec["per_layer"] if m["unit"] in COUNT_UNITS
        ]
        kind = "end-to-end" if trace == 0 else "exact counters"
        lines.append(f"{workload}  {kind}  ({len(pairs)} pairs, seeds {seeds})")
        for m in metrics:
            name = m["name"]
            if not all(name in d["result"]["metrics"] for pair in pairs for d in pair):
                continue
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            if trace == 1:
                result = exact_verdict(pv, cv, m["better"])
                detail = f"{median(pv):.0f} -> {median(cv):.0f} {m['unit']}"
            else:
                detail = f"{summary(pv)} -> {summary(cv)} {m['unit']}"
                result = verdict(pv, cv, m["better"], m["bound"])
                bases = [(p.get("bases", {}).get(name), c.get("bases", {}).get(name))
                         for p, c in pairs]
                if all(pb is not None and cb is not None for pb, cb in bases):
                    # same seed, same inputs: a ratio that moves at all moved
                    # because outcomes changed, so it is judged pair by pair
                    exact = exact_verdict(pv, cv, m["better"])
                    if exact != "unchanged":
                        result = exact
                    detail += "  bases " + " ".join(
                        f"{round(p['result']['metrics'][name]['value'] * pb)}/{pb}"
                        f"->{round(c['result']['metrics'][name]['value'] * cb)}/{cb}"
                        for (p, c), (pb, cb) in zip(pairs, bases)
                    )
            any_worse |= result == "worse"
            lines.append(f"  {name:34s} {result:10s} {detail}")
    if not lines:
        lines.append("no workload has runs on both sides")
    return "\n".join(lines), any_worse


def summary(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's run records")
    parser.add_argument("change", type=Path, help="directory of the change's run records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, any_worse = compare(args.parent, args.change, spec)
    print(report)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
