#!/usr/bin/env python3
"""The repository benchmark: four workloads, seven end-to-end metrics and an
outside-in layer trace.

Run one workload (each run is a fresh Python process)::

    python3 benchmarks/perf/run.py --workload registry_cold --seed 1 --seconds 10
    python3 benchmarks/perf/run.py --workload registry_cold --trace 1

or every workload in turn by leaving out ``--workload``.  The report prints
every metric by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The exit code is 0 only when every output matched its reference and no
operation failed; without ``src/repro`` in the checkout the run exits 2
before printing any result.  See ``README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from benchenv import (
    DEFAULT_SEED,
    HERE,
    OUTPUT,
    ROOT,
    MissingSources,
    require_sources,
    use_checkout_sources,
)
from perfstats import TAIL, median, percentile, tail_percentile
from speed import SpeedIndex, cpus, pin

WORKLOADS = ("registry_cold", "registry_warm", "corpus_small", "service_mixed")

#: Set-up runs per measurement: this process plus fresh probe processes.
#: Set-up is repeated whole, so each repeat costs run time.
SETUP_REPEATS = 2

#: Speed-kernel samples on each side of a set-up.
SETUP_KERNEL_SAMPLES = 10

EXPECTED = HERE / "expected.json"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="pass order, corpus draw, arrival schedule and job mix")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    return args


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def make_workload(args: argparse.Namespace, daemon_cpu: int):
    use_checkout_sources()
    if args.workload == "service_mixed":
        from service_load import ServiceMixed

        return ServiceMixed(args.seed, args.seconds, daemon_cpu)
    from workloads import IN_PROCESS

    expected = json.loads(EXPECTED.read_text())
    return IN_PROCESS[args.workload](args.seed, expected)


def setup_probe(args: argparse.Namespace) -> float:
    """One set-up in a fresh process: imports, inputs, caches, daemon."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def measure_in_process(wl, seconds: float, traced: bool) -> dict:
    from workloads import timed_passes

    if not traced:
        passes = timed_passes(wl.plain_pass, seconds, min_passes=1,
                              min_samples=wl.min_samples())
        wl.final_checks()
        return {"passes": passes}

    import ladder
    from spans import Recorder, unattributed
    from workloads import Pass

    rec = Recorder()
    rounds: list[dict[str, Pass]] = []

    def one_round(index: int) -> Pass:
        rounds.append(wl.traced_round(rec, index))
        return Pass(seconds=sum(p.seconds for p in rounds[-1].values()))

    timed_passes(one_round, seconds, min_passes=wl.traced_rounds)
    wl.final_checks()
    wl.count_pass()

    def gap_pct(name: str, base: str) -> float:
        """Median over the rounds of the extra time of *name* over *base*."""
        return median([(r[name].seconds - r[base].seconds) / r[base].seconds * 100.0
                       for r in rounds])

    traced = [r["traced"] for r in rounds]
    per_pass = [{name: ms * p.factor for name, ms in ladder.layer_ms(p.spans).items()}
                for p in traced]
    layers = {name: median([row[name] for row in per_pass]) for name in per_pass[0]}
    layers["trace.unattributed_ms"] = unattributed(
        median([r["untraced"].seconds * r["untraced"].factor for r in rounds]) * 1e3,
        {row: layers[row] for row in ladder.ROW_SPANS},
    )
    layers["trace.overhead_pct"] = gap_pct("traced", "untraced")
    if wl.pairs_obs:
        layers["obs.overhead_pct"] = gap_pct("untraced", "obs_off")
    layers.update(wl.counters)
    return {
        "passes": [p for r in rounds for p in r.values()],
        "layers": layers,
        "calls": ladder.layer_calls(traced[0].spans),
        "spans": rec.spans,
    }


def end_to_end(wl, setups: list[float], throughput: float, latencies: list[float],
               attempted: int, failed: int, with_children: bool,
               notes: dict[str, str]) -> tuple[dict, dict]:
    """The seven end-to-end values, their report notes and their bases."""
    checks = wl.checks
    values = {
        "setup_s": median(setups),
        "throughput_per_s": throughput,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, TAIL) * 1e3,
        "peak_rss_mb": peak_rss_mb(with_children),
        "success_ratio": (attempted - failed) / attempted,
        "verdict_accuracy": checks.correct / checks.checked if checks.checked else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at reference speed {fmt_list(setups)}",
        "latency_p90_ms": f"n={len(latencies)}; highest percentile with >=10 beyond: "
                          f"p{tail_percentile(len(latencies))}",
        "success_ratio": f"{attempted - failed}/{attempted} {wl.unit}",
        "verdict_accuracy": f"{checks.correct}/{checks.checked} checks",
        **notes,
    }
    bases = {"success_ratio": attempted, "verdict_accuracy": checks.checked}
    return values, {"attempted": attempted, "failed": failed, "notes": notes, "bases": bases}


def in_process_result(wl, measured: dict, setups: list[float]) -> tuple[dict, dict]:
    passes = measured["passes"]
    per_pass = len(wl.items())
    pass_s = median([p.seconds * p.factor for p in passes])
    latencies = [x for p in passes for x in p.scaled_latencies()]
    notes = {
        "throughput_per_s": f"{per_pass} {wl.unit} / median pass {pass_s:.4f} s "
                            f"over {len(passes)} passes (raw "
                            f"{median([p.seconds for p in passes]):.4f} s, speed "
                            f"factors {fmt_list([p.factor for p in passes])})",
        "latency_p50_ms": f"n={len(latencies)} per-call samples",
    }
    return end_to_end(
        wl, setups, per_pass / pass_s, latencies,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        with_children=False, notes=notes,
    )


def service_result(wl, out: dict, setups: list[float]) -> tuple[dict, dict]:
    notes = {
        "throughput_per_s": f"closed drain of {out['drain_jobs']} jobs in "
                            f"{out['drain_seconds']:.4f} s at reference speed "
                            f"(median batch factor {out['drain_factor']:.4f})",
        "latency_p50_ms": f"n={len(out['latencies'])} open-loop jobs, from due time "
                          f"(median job factor {out['latency_factor']:.4f}, "
                          f"{out['kernel_samples']} kernel samples)",
        "peak_rss_mb": "benchmark process + daemon",
        "verdict_accuracy": f"{wl.checks.correct}/{wl.checks.checked} sampled jobs "
                            "byte-identical to an in-process analysis",
    }
    values, info = end_to_end(
        wl, setups, out["drain_jobs"] / out["drain_seconds"], out["latencies"],
        attempted=out["attempted"], failed=out["failed"], with_children=True, notes=notes,
    )
    info["bases"].update(out["bases"])
    return values, info


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def fmt_list(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def print_metrics(title: str, specs: list[dict], values: dict, notes: dict) -> dict:
    print(title)
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        note = notes.get(name, "" if name in values else "not exercised by this workload")
        print(f"  {name:38s} {value:14.6f} {unit:6s} {note}")
    return metrics


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_one(args: argparse.Namespace) -> int:
    require_sources()
    setups = [] if args.setup_probe else [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    # The in-process workloads run on the first CPU; the service's load
    # generator takes the last, leaving the first to the daemon.
    first, last = cpus()[0], cpus()[-1]
    pin(last if args.workload == "service_mixed" else first)
    # Set-up cannot be interleaved with kernel samples, so the speed
    # index brackets it: samples just before and just after.
    speed = SpeedIndex()
    speed.sample_n(SETUP_KERNEL_SAMPLES)
    t0 = time.perf_counter()
    wl = make_workload(args, daemon_cpu=first)
    try:
        wl.setup()
        raw = time.perf_counter() - t0
        speed.sample_n(SETUP_KERNEL_SAMPLES)
        setups.append(raw * speed.factor())
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[-1], "raw_s": raw}))
            return 0
        wl.warmup()
        traced = bool(args.trace)
        if args.workload == "service_mixed":
            out = wl.run(traced)
            values, info = service_result(wl, out, setups)
            layers = out["layers"]
            spans, calls = out.get("spans", []), {}
        else:
            measured = measure_in_process(wl, args.seconds, traced)
            values, info = in_process_result(wl, measured, setups)
            layers = measured.get("layers", {})
            spans, calls = measured.get("spans", []), measured.get("calls", {})
    finally:
        wl.teardown()

    spec = benchmark_spec()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    if traced:
        notes = {name: f"calls {n}" for name, n in calls.items()}
        notes.update({k: f"base {v}" for k, v in info["bases"].items() if k in layers})
        metrics = print_metrics("per-layer metrics", spec["per_layer"], layers, notes)
        write_json(OUTPUT / f"trace-{args.workload}-{args.seed}.json", spans)
    else:
        metrics = print_metrics("end-to-end metrics", spec["end_to_end"], values, info["notes"])
    mismatches = wl.checks.mismatches
    for line in mismatches + wl.failures:
        print(f"  MISMATCH {line}" if line in mismatches else f"  FAILED {line}")
    correct = not mismatches
    result = {
        "correct": correct,
        "attempted": int(info["attempted"]),
        "failed": int(info["failed"]),
        "metrics": metrics,
    }
    write_json(OUTPUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "bases": info["bases"], "result": result,
    })
    print(json.dumps(result, sort_keys=True))
    return 0 if correct and result["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for name, metric in doc["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    except MissingSources as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
