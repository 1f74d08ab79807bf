#!/usr/bin/env python3
"""Summarize a set of untraced runs into ``baseline.json``.

For each workload and end-to-end metric it records the median and the
quartiles over the runs, one run per seed, with the machine they ran on::

    python3 benchmarks/perf/baseline.py RUNS_DIR

``RUNS_DIR`` holds ``run-<workload>-s<seed>-t0.json`` records as ``run.py``
writes them to ``benchmarks/perf/output/``.  Every run must have passed its
correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from benchenv import HERE, ROOT
from compare import load_runs
from perfstats import iqr_share, quartiles


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model or platform.processor(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def summarize(runs_dir: Path, spec: dict) -> dict:
    workloads = {}
    for (workload, trace), by_seed in sorted(load_runs(runs_dir).items()):
        if trace:
            continue
        docs = [by_seed[seed] for seed in sorted(by_seed)]
        bad = [d["seed"] for d in docs if not d["result"]["correct"] or d["result"]["failed"]]
        if bad:
            raise SystemExit(f"{workload}: runs with seeds {bad} failed their checks")
        metrics = {}
        for m in spec["end_to_end"]:
            values = [d["result"]["metrics"][m["name"]]["value"] for d in docs]
            q1, q2, q3 = quartiles(values)
            metrics[m["name"]] = {"median": q2, "q1": q1, "q3": q3,
                                  "iqr_share": iqr_share(values), "unit": m["unit"]}
        workloads[workload] = {"seeds": sorted(by_seed), "seconds": docs[0]["seconds"],
                               "metrics": metrics}
    return {"machine": machine(), "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path, help="directory of untraced run records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = summarize(args.runs, spec)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
