"""The ``service_mixed`` workload: an open-loop Poisson stream against a
``repro serve`` daemon, then a closed drain.

The daemon runs in its own process (thread backend, two workers, unbounded
history so every record can be read back).  One single-threaded generator
submits jobs on a Poisson schedule at :data:`RATE` jobs/s for the run's
seconds; a job's latency runs from the moment it was *due*, so a
stalled generator or a slow daemon shows as latency of the jobs behind it.
Three quarters of the jobs are fresh corpus programs with fresh inputs,
which miss the profile cache and store into it; the rest repeat a recent
job, which reads the cache or coalesces onto the job still in flight.
Records are fetched only after the schedule ends, so polling adds no load
while latency is measured.  A drain of :data:`DRAIN` fresh jobs, submitted
in batches of :data:`DRAIN_BATCH`, gives the throughput.
"""

from __future__ import annotations

import random
import selectors
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any

from benchenv import ROOT, scratch_dir, subprocess_env
from perfstats import median, percentile
from spans import Recorder
from speed import SpeedIndex, pin
from workloads import Checks

RATE = 20.0
FRESH_SHARE = 0.75
#: a repeat picks one of this many most recently scheduled jobs
RECENT = 8
DRAIN = 400
WARMUP = 4
SAMPLE_SHARE = 0.05
WORKERS = 2
#: The drain goes in batches to an idle daemon, with speed-kernel samples
#: on the daemon's CPU on both sides of each batch.
DRAIN_BATCH = 50
BATCH_SAMPLES = 5
#: During the open loop the generator times the kernel on the daemon's CPU
#: only in gaps where the daemon is idle: at least QUIET_S after the last
#: send (past the p90 latency) and at least ROOM_S before the next one is
#: due.  Each job is scaled by the samples within WINDOW_S of its due
#: time, or by the NEAREST samples when fewer fall inside.
QUIET_S = 0.05
ROOM_S = 0.025
WINDOW_S = 1.0
NEAREST = 3
#: How strongly the daemon's speed follows the kernel's (see ``SpeedIndex``).
#: Fitted over 16 runs on a 2-CPU virtual machine whose kernel speed swung
#: between 0.5 and 1.0: with full scaling (1.0) the drain read up to 30%
#: faster on a slow host than on a quiet one, and the spreads over ten runs
#: were widest; 0.7 gave the narrowest.
SENSITIVITY = 0.7


def schedule(seed: int, seconds: float) -> list[dict[str, Any]]:
    """The open-loop arrival schedule: due offsets and program indices.

    Fresh jobs take the next unused program index; a repeat reuses the
    program (and so the exact inputs) of a recently scheduled job.  The
    seed draws the job mix; the arrival times are one fixed Poisson draw.
    With seeded arrival times the p90 latency varied by 30% between seeds
    on a 2-CPU host: it measured how many arrivals of a draw happened to
    collide, not the daemon.
    """
    arrivals = random.Random("service_mixed:arrivals")
    mix = random.Random(f"service_mixed:{seed}")
    jobs: list[dict[str, Any]] = []
    t = 0.0
    fresh = 0
    while True:
        t += arrivals.expovariate(RATE)
        if t >= seconds:
            return jobs
        if jobs and mix.random() >= FRESH_SHARE:
            program = mix.choice(jobs[-RECENT:])["program"]
            jobs.append({"due": t, "program": program, "repeat": True})
        else:
            jobs.append({"due": t, "program": fresh, "repeat": False})
            fresh += 1


class Daemon:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, workdir, cpu: int) -> None:
        self.workdir = workdir
        self.stderr = open(workdir / "daemon.stderr", "wb")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", str(WORKERS), "--history", "100000",
            "--backend", "thread", "--cache-dir", str(workdir / "cache"),
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=subprocess_env(),
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            preexec_fn=lambda: pin(cpu),
        )
        self.url = self._read_url(timeout=60.0)

    def _read_url(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("daemon printed no address")
        line = self.proc.stdout.readline()
        for word in line.split():
            if word.startswith("http://"):
                return word
        raise RuntimeError(f"daemon did not start: {line!r}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()


class ServiceMixed:
    name = "service_mixed"
    unit = "jobs"

    def __init__(self, seed: int, seconds: float, daemon_cpu: int) -> None:
        self.seed = seed
        self.seconds = seconds
        #: the daemon's CPU; the generator runs on another one when there is one
        self.daemon_cpu = daemon_cpu
        self.checks = Checks()
        self.failures: list[str] = []
        self.daemon: Daemon | None = None
        self.workdir = None

    # -- setup -------------------------------------------------------------
    def setup(self) -> None:
        from repro.corpus import generate_programs
        from repro.service.client import ServiceClient

        self.sched = schedule(self.seed, self.seconds)
        self.n_open = sum(1 for job in self.sched if not job["repeat"])
        self.pool = generate_programs(self.n_open + DRAIN + WARMUP, self.seed, adversarial=True)
        self.workdir = scratch_dir("service-")
        self.daemon = Daemon(self.workdir, self.daemon_cpu)
        self.client = ServiceClient(self.daemon.url, timeout=60.0, client_id="perf-bench")
        self.client.wait_healthy(timeout=30.0)

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def body(self, program: int) -> dict[str, Any]:
        tp = self.pool[program]
        return {
            "kind": "source",
            "source": tp.source,
            "entry": tp.entry,
            "args": [list(a) for a in tp.arg_specs],
            # a fresh seed per program gives fresh inputs, so fresh jobs
            # never share a cache key
            "seed": program,
        }

    def wait_idle(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            states = self.client.stats()["jobs"]["states"]
            if states["queued"] == 0 and states["running"] == 0:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"daemon still busy after {timeout:g}s: {states}")
            time.sleep(0.05)

    def warmup(self) -> None:
        first = self.n_open + DRAIN
        self.client.submit_many([self.body(first + i) for i in range(WARMUP)])
        self.wait_idle()

    # -- measurement -------------------------------------------------------
    def open_loop(self, speed: SpeedIndex) -> list[dict[str, Any]]:
        """Send the schedule; returns one entry per accepted submission."""
        from repro.service.client import ServiceError

        sent: list[dict[str, Any]] = []
        speed.sample_n(NEAREST)
        due = last_send = time.time() + 0.1
        previous = 0.0
        for job in self.sched:
            # The schedule is in seconds at reference speed: each gap is
            # stretched by the host's current speed, so the daemon carries
            # the same load relative to its speed on a slow host.  At a fixed
            # wall-clock rate, runs on a host at 0.4 of reference speed had
            # twice the p90 of runs at 0.5, from queueing alone.
            due += (job["due"] - previous) / speed.recent_factor(NEAREST)
            previous = job["due"]
            quiet = last_send + QUIET_S
            if due - quiet > ROOM_S:
                time.sleep(max(0.0, quiet - time.time()))
                speed.sample()
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            body = self.body(job["program"])
            send = last_send = time.time()
            try:
                record = self.client.submit_source(
                    body["source"], body["entry"], body["args"], seed=body["seed"]
                )
            except (ServiceError, OSError) as exc:
                self.failures.append(f"submit: {exc}"[:300])
                continue
            sent.append({"id": record["id"], "due": due, "send": send,
                         "ack": time.time(), "program": job["program"]})
        self.wait_idle()
        # with the daemon idle: a schedule without a single quiet gap still
        # leaves samples to scale by
        speed.sample_n(NEAREST)
        return sent

    def drain(self) -> list[tuple[float, float, list[tuple[dict, int]]]]:
        """Submit the drain jobs in batches, each to an idle daemon with
        speed-kernel samples on the daemon's CPU on both sides; per batch,
        returns its submit time, its speed factor and its
        ``(record, program)`` pairs."""
        first = self.n_open
        batches = []
        for lo in range(first, first + DRAIN, DRAIN_BATCH):
            programs = range(lo, min(lo + DRAIN_BATCH, first + DRAIN))
            speed = SpeedIndex(cpu=self.daemon_cpu, sensitivity=SENSITIVITY)
            speed.sample_n(BATCH_SAMPLES)
            start = time.time()
            records = self.client.submit_many([self.body(p) for p in programs])
            self.wait_idle()
            speed.sample_n(BATCH_SAMPLES)
            batches.append((start, speed.factor(), list(zip(records, programs))))
        return batches

    def run(self, traced: bool) -> dict[str, Any]:
        cache_before = self.client.stats()["cache"]
        speed = SpeedIndex(cpu=self.daemon_cpu, sensitivity=SENSITIVITY)
        sent = self.open_loop(speed)
        cache_after = self.client.stats()["cache"]
        batches = self.drain()
        drained = [pair for _, _, pairs in batches for pair in pairs]

        records = {r["id"]: r for r in self.client.jobs()}
        bodies = {s["id"]: s["program"] for s in sent}
        bodies.update({r["id"]: p for r, p in drained})

        failed = len(self.sched) - len(sent) + DRAIN - len(drained)
        latency, late, submit, queue, run, overhead, factors = [], [], [], [], [], [], []
        coalesced = 0
        for s in sent:
            rec = records[s["id"]]
            if rec["state"] != "done":
                failed += 1
                continue
            f = speed.factor_near(s["due"], WINDOW_S, NEAREST)
            factors.append(f)
            latency.append((rec["finished_at"] - s["due"]) * f)
            late.append((s["send"] - s["due"]) * f)
            submit.append((s["ack"] - s["send"]) * f)
            if rec["coalesced_with"] is not None:
                coalesced += 1
                continue
            q = (rec["started_at"] - rec["submitted_at"]) * f
            r = (rec["finished_at"] - rec["started_at"]) * f
            queue.append(q)
            run.append(r)
            overhead.append(latency[-1] - q - r)
        drain_seconds = 0.0
        for start, f, pairs in batches:
            recs = [records[rec["id"]] for rec, _ in pairs]
            failed += sum(1 for r in recs if r["state"] != "done")
            drain_seconds += (max(r["finished_at"] or start for r in recs) - start) * f

        out: dict[str, Any] = {
            "attempted": len(self.sched) + DRAIN,
            "failed": failed,
            "latencies": latency,
            "drain_seconds": drain_seconds,
            "drain_jobs": len(drained),
            "drain_factor": median([f for _, f, _ in batches]),
            "latency_factor": median(factors) if factors else 1.0,
            "kernel_samples": len(speed.samples),
        }
        self.checks_sample(records, bodies)

        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        finished = [records[s["id"]]["finished_at"] for s in sent
                    if records[s["id"]]["finished_at"] is not None]
        last_due = sent[-1]["due"] if sent else 0.0
        out["layers"] = {
            "service.submit_ms": median(submit) * 1e3 if submit else 0.0,
            "service.queue_wait_ms": median(queue) * 1e3 if queue else 0.0,
            "service.run_ms": median(run) * 1e3 if run else 0.0,
            "service.overhead_ms": median(overhead) * 1e3 if overhead else 0.0,
            "service.backlog_s": (max(finished) - last_due) * out["latency_factor"]
            if finished else 0.0,
            "service.gen_late_p90_ms": percentile(late, 90) * 1e3 if late else 0.0,
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.coalesced": coalesced,
            "profiling.cache.hits": hits,
            "profiling.cache.misses": misses,
            "profiling.cache.stores": cache_after["stores"] - cache_before["stores"],
        }
        out["bases"] = {"service.cache_hit_ratio": hits + misses}
        if queue:
            out["layers"]["trace.unattributed_ms"] = (
                median(latency) - median(queue) - median(run) - median(overhead)
            ) * 1e3
        if traced:
            out["layers"].update({name: ms * out["latency_factor"] for name, ms
                                  in self.product_layers(records).items()})
            out["spans"] = self.job_spans(sent, records)
        return out

    def checks_sample(self, records: dict[int, dict], bodies: dict[int, int]) -> None:
        """Re-analyze a seeded sample of finished jobs in this process; the
        stripped result documents must be byte-identical."""
        from repro.lang.parser import parse_program
        from repro.lang.validate import validate_program
        from repro.patterns.engine import analyze_profile
        from repro.patterns.schema import analysis_to_dict, strip_trace_timings
        from repro.profiling.hotspots import DEFAULT_THRESHOLD
        from repro.profiling.runner import profile_runs
        from repro.profiling.serialize import canonical_json
        from repro.service.jobs import build_call_args

        done = sorted(i for i in bodies if records[i]["state"] == "done")
        if not done:
            self.checks.expect(False, "no finished job to sample")
            return
        rng = random.Random(f"service_mixed-sample:{self.seed}")
        picked = rng.sample(done, max(1, round(SAMPLE_SHARE * len(done))))
        for job_id in sorted(picked):
            body = self.body(bodies[job_id])
            served = self.client.job(job_id)["result"]
            program = parse_program(body["source"])
            validate_program(program)
            profile = profile_runs(
                program, body["entry"], [build_call_args(body["args"], body["seed"])]
            )
            local = analysis_to_dict(
                analyze_profile(program, profile, hotspot_threshold=DEFAULT_THRESHOLD)
            )
            self.checks.expect(
                canonical_json(strip_trace_timings(local))
                == canonical_json(strip_trace_timings(served)),
                f"job {job_id}: served document differs from the in-process analysis",
            )

    def product_layers(self, records: dict[int, dict]) -> dict[str, float]:
        """Per-job means of the daemon's own spans (cache, detection), read
        from the result documents of the jobs that ran."""
        from ladder import DETECTORS

        totals: defaultdict[str, float] = defaultdict(float)
        leaders = [i for i, r in records.items()
                   if r["state"] == "done" and r["coalesced_with"] is None]
        for job_id in leaders:
            result = self.client.job(job_id)["result"] or {}
            for sp in (result.get("trace") or {}).get("spans", []):
                totals[sp["name"]] += sp["duration_s"]
        n = max(1, len(leaders))
        detectors = {f"patterns.detector.{name}_ms": totals[f"detector:{name}"] / n * 1e3
                     for name in DETECTORS}
        return {
            "profiling.cache_read_ms": totals["cache.read"] / n * 1e3,
            "profiling.cache_store_ms": totals["cache.store"] / n * 1e3,
            # self time, as in-process: detection outside the detectors
            "patterns.detect_ms": totals["detect"] / n * 1e3 - sum(detectors.values()),
            **detectors,
        }

    def job_spans(self, sent: list[dict], records: dict[int, dict]) -> list[dict]:
        """Each open-loop job as a span tree on the recorder's time base."""
        rec = Recorder()
        offset = time.perf_counter() - time.time()
        for s in sent:
            r = records[s["id"]]
            if r["finished_at"] is None:
                continue
            job = rec.add("service.job", s["due"] + offset, r["finished_at"] + offset,
                          job=s["id"], coalesced_with=r["coalesced_with"])
            rec.add("service.submit", s["send"] + offset, s["ack"] + offset, job["id"])
            if r["coalesced_with"] is None:
                rec.add("service.queue_wait", r["submitted_at"] + offset,
                        r["started_at"] + offset, job["id"])
                rec.add("service.run", r["started_at"] + offset,
                        r["finished_at"] + offset, job["id"])
        return rec.spans
