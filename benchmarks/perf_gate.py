"""Perf gate: a benchmark run's throughput against the committed baseline.

For each workload named on the command line, reads the record that an
untraced seed-1 run of the repo benchmark left behind
(``benchmarks/perf/output/run-<workload>-s1-t0.json``) and fails unless
that run matched every reference output, failed no operation, and its
``throughput_per_s`` is at least the ``benchmarks/perf/baseline.json``
median less ``BENCHMARK.json``'s bound for that metric.  Throughput is
scaled to the benchmark's reference speed, so a baseline taken on one host
is a floor on another::

    python3 benchmarks/perf/run.py --workload registry_cold --seconds 1
    python3 benchmarks/perf_gate.py registry_cold

Exit 0 when every named workload passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERF = ROOT / "benchmarks" / "perf"
METRIC = "throughput_per_s"


def main(workloads: list[str]) -> int:
    if not workloads:
        print(f"usage: {sys.argv[0]} WORKLOAD...", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    baseline = json.loads((PERF / "baseline.json").read_text())["workloads"]
    failed = 0
    for workload in workloads:
        record = PERF / "output" / f"run-{workload}-s1-t0.json"
        result = json.loads(record.read_text())["result"]
        value = result["metrics"][METRIC]["value"]
        base = baseline[workload]["metrics"][METRIC]["median"]
        floor = base * (1.0 - bound)
        ok = result["correct"] and result["failed"] == 0 and value >= floor
        print(f"{'ok' if ok else 'FAIL'} {workload}: {METRIC} {value:.2f}/s, "
              f"floor {floor:.2f}/s (baseline {base:.2f}/s less {bound:.0%}); "
              f"correct {result['correct']}, failed {result['failed']}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
