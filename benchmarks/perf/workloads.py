"""The in-process workloads: ``registry_cold``, ``registry_warm`` and
``corpus_small``.

Each workload is set up once, warmed up with one untimed operation, then
measured in whole passes.  A pass analyzes every program once, in an order
drawn from the seed.  Passes continue until the phase's time budget would
be exceeded, but never stop before ``min_passes`` passes and enough
per-call samples for a p90 with ten samples beyond it.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import ladder
from benchenv import scratch_dir
from perfstats import TAIL, median, min_samples_for
from spans import Recorder
from speed import SpeedIndex


@dataclass
class Pass:
    """One timed pass over the workload's programs."""

    #: raw wall time of the timed operations, speed-kernel samples excluded
    seconds: float
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: the spans a traced pass recorded
    spans: list[dict] = field(default_factory=list)
    #: speed-kernel samples taken before each latency's operation started
    marks: list[int] = field(default_factory=list)
    #: scales each latency to reference speed (see ``speed.py``)
    factors: list[float] = field(default_factory=list)
    #: scales the pass's total time: the time-weighted mean of ``factors``
    factor: float = 1.0

    def scale(self, speed: SpeedIndex) -> None:
        self.factors = speed.local_factors(self.marks)
        raw = sum(self.latencies)
        self.factor = (sum(x * f for x, f in zip(self.latencies, self.factors)) / raw
                       if raw else speed.factor())

    def scaled_latencies(self) -> list[float]:
        return [x * f for x, f in zip(self.latencies, self.factors)]


@dataclass
class Checks:
    """Correctness checks; any mismatch makes the run fail."""

    checked: int = 0
    correct: int = 0
    mismatches: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if ok:
            self.correct += 1
        elif len(self.mismatches) < 20:
            self.mismatches.append(what)


def timed_passes(run_pass: Callable[[int], Pass], seconds: float, min_passes: int,
                 min_samples: int = 0) -> list[Pass]:
    """Run passes while the next one is predicted to fit in *seconds*."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        if len(passes) < min_passes:
            continue
        if sum(len(p.latencies) for p in passes) < min_samples:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + median([p.seconds for p in passes]) > seconds:
            return passes


class InProcessWorkload:
    """Shared pass machinery; subclasses define the per-program operation."""

    name = ""
    #: what one operation analyzes, for the report
    unit = "programs"
    #: A traced run makes at least this many rounds of paired untraced and
    #: traced analyses.
    traced_rounds = 2
    #: whether a traced round also pairs each analysis with one that has
    #: ``repro.obs`` metrics off, for ``obs.overhead_pct``
    pairs_obs = False

    def __init__(self, seed: int, expected: dict[str, Any]) -> None:
        self.seed = seed
        self.expected = expected
        self.order_rng = random.Random(f"{self.name}:{seed}")
        self.checks = Checks()
        self.counters: Counter = Counter()
        self.failures: list[str] = []

    # -- subclass hooks ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def items(self) -> list:
        raise NotImplementedError

    def run_item(self, item) -> Any:
        raise NotImplementedError

    def probe_item(self, rec: Recorder, item) -> None:
        """The engine probes of one program (see ``ladder.probe_engine``);
        workloads that run no engine have none."""

    def trace_item(self, rec: Recorder, registry, item) -> Any:
        raise NotImplementedError

    def count_item(self, item) -> Counter:
        """Exact work counters of one program, from an untimed analysis."""
        raise NotImplementedError

    def check_pass(self, outcomes: list) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks made once, after every pass."""

    def teardown(self) -> None:
        pass

    # -- passes ----------------------------------------------------------
    def warmup(self) -> None:
        self.run_item(self.items()[0])

    def _pass(self, op: Callable[[Any], Any]) -> tuple[Pass, list]:
        items = self.items()
        self.order_rng.shuffle(items)
        # Every timed pass starts from a collected heap, so garbage left by
        # whatever ran before is not paid for inside the pass.
        gc.collect()
        result = Pass(seconds=0.0)
        outcomes = []
        speed = SpeedIndex()
        t_pass = time.perf_counter()
        for item in items:
            speed.maybe_sample()
            self._timed(result, op, item, outcomes, len(speed.samples))
        result.seconds = time.perf_counter() - t_pass - speed.spent
        result.scale(speed)
        return result, outcomes

    def _timed(self, result: Pass, op: Callable[[Any], Any], item, outcomes: list,
               mark: int) -> None:
        """One timed analysis into *result* and *outcomes*; *mark* counts
        the speed-kernel samples taken so far."""
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = op(item)
        except Exception as exc:  # a failed analysis is a measured outcome
            result.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{item!r}: {type(exc).__name__}: {exc}"[:300])
            return
        result.latencies.append(time.perf_counter() - t0)
        result.marks.append(mark)
        outcomes.append((item, outcome))

    def plain_pass(self, index: int) -> Pass:
        result, outcomes = self._pass(self.run_item)
        self.check_pass(outcomes)
        return result

    def run_item_obs_off(self, item) -> Any:
        from repro.obs.metrics import set_enabled

        previous = set_enabled(False)
        try:
            return self.run_item(item)
        finally:
            set_enabled(previous)

    def traced_round(self, rec: Recorder, index: int) -> dict[str, Pass]:
        """A probe phase, then one pass that runs every program several
        times in a row: untraced, traced and, where :attr:`pairs_obs` is
        set, untraced with ``repro.obs`` metrics off.  Which goes first
        rotates from program to program.

        The variants share their moment and their speed factor, so the gaps
        between them are the cost of tracing (plus the work no layer row
        times) and of the metrics, not a drift of the host.  Returns one
        pass per variant, keyed ``untraced``, ``traced``, ``obs_off``;
        their seconds sum the programs' times.
        """
        registry = ladder.timed_registry(rec)
        ops = {"untraced": self.run_item,
               "traced": lambda item: self.trace_item(rec, registry, item)}
        if self.pairs_obs:
            ops["obs_off"] = self.run_item_obs_off
        passes = {name: Pass(seconds=0.0) for name in ops}
        order = list(ops)
        outcomes = []
        speed = SpeedIndex()
        first = len(rec.spans)
        with rec.span("pass", index=index):
            for item in self.items():
                self.probe_item(rec, item)
            items = self.items()
            self.order_rng.shuffle(items)
            gc.collect()
            for k, item in enumerate(items):
                speed.maybe_sample()
                for name in order[k % len(order):] + order[:k % len(order)]:
                    self._timed(passes[name], ops[name], item, outcomes, len(speed.samples))
        for result in passes.values():
            result.seconds = sum(result.latencies)
            result.scale(speed)
        passes["traced"].spans = rec.spans[first:]
        self.check_pass(outcomes)
        return passes

    def count_pass(self) -> None:
        for item in self.items():
            self.counters.update(self.count_item(item))

    def min_samples(self) -> int:
        return min_samples_for(TAIL)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class RegistryWorkload(InProcessWorkload):
    """The 17 Table III programs through ``runtime.parallel.analyze_one``."""

    cold: bool
    # A pass is dominated by a few heavy programs whose paired timings
    # still differ by tens of percent, so the unattributed row needs more
    # rounds to settle here than over the corpus's 2000 programs.
    traced_rounds = 5

    def setup(self) -> None:
        from repro.bench_programs.registry import all_benchmarks, get_benchmark
        from repro.runtime.parallel import analyze_one

        self._analyze_one = analyze_one
        self._get_benchmark = get_benchmark
        self.names = [spec.name for spec in all_benchmarks()]
        self.cache_dir = None
        if not self.cold:
            from repro.profiling.cache import ProfileCache, cached_profile_runs

            self.cache_dir = scratch_dir("warm-cache-")
            cache = ProfileCache(root=self.cache_dir)
            for name in self.names:
                spec, program = self._program(name)
                cached_profile_runs(program, spec.entry, spec.arg_sets(), cache=cache)

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def items(self) -> list:
        return list(self.names)

    def warmup(self) -> None:
        # The cold warm-up analyzes the cheapest program once: enough to
        # load every lazily imported module without spending a full pass.
        if self.cold:
            self.run_item("gesummv" if "gesummv" in self.names else self.names[0])
        else:
            for name in self.names:
                self.run_item(name)

    def run_item(self, name: str):
        cache_dir = None if self.cache_dir is None else str(self.cache_dir)
        outcome = self._analyze_one(name, cache_dir=cache_dir)
        return outcome.label, outcome.profile_digest

    def _program(self, name: str):
        from repro.lang.parser import parse_program
        from repro.lang.validate import validate_program

        spec = self._get_benchmark(name)
        program = parse_program(spec.source)
        validate_program(program)
        return spec, program

    def probe_item(self, rec: Recorder, name: str) -> None:
        if self.cold:
            spec, program = self._program(name)
            ladder.probe_engine(rec, program, spec.entry, spec.arg_sets())

    def trace_item(self, rec: Recorder, registry, name: str):
        from repro.patterns.engine import summarize_patterns
        from repro.profiling.cache import ProfileCache

        spec = self._get_benchmark(name)
        with rec.span("program", name=name):
            program = ladder.parse(rec, spec.source)
            arg_sets = spec.arg_sets()
            if self.cold:
                profile = ladder.profile(rec, program, spec.entry, arg_sets)
            else:
                cache = ProfileCache(root=self.cache_dir)
                profile = ladder.profile_cached(rec, cache, program.source, spec.entry, arg_sets)
            result = ladder.detect(rec, registry, program, profile,
                                   spec.hotspot_threshold, spec.min_pairs)
            ladder.simulate(rec, result)
            digest = ladder.digest(rec, profile)
            label = summarize_patterns(result)
        return label, digest

    def count_item(self, name: str) -> Counter:
        from repro.patterns.engine import analyze_profile
        from repro.profiling.cache import ProfileCache, cached_profile_runs
        from repro.profiling.runner import profile_runs

        spec, program = self._program(name)
        arg_sets = spec.arg_sets()
        counts: Counter = Counter()
        if self.cold:
            counts.update(ladder.count_events(program, spec.entry, arg_sets))
            profile = profile_runs(program, spec.entry, arg_sets)
        else:
            cache = ProfileCache(root=self.cache_dir)
            profile, _ = cached_profile_runs(program, spec.entry, arg_sets, cache=cache)
            stats = cache.stats.as_dict()
            counts.update({f"profiling.cache.{k}": stats[k] for k in ("hits", "misses", "stores")})
        result = analyze_profile(program, profile, spec.hotspot_threshold, spec.min_pairs)
        counts.update(ladder.profile_counts(profile))
        counts.update(ladder.evidence_counts(result))
        return counts

    def check_pass(self, outcomes: list) -> None:
        ref = self.expected["registry"]
        for name, (label, digest) in outcomes:
            want = ref.get(name)
            if want is None:
                self.checks.expect(False, f"{name}: no reference in expected.json")
                continue
            self.checks.expect(label == want["label"],
                               f"{name}: label {label!r} != {want['label']!r}")
            self.checks.expect(digest == want["profile_digest"],
                               f"{name}: profile digest {digest[:12]} != "
                               f"{want['profile_digest'][:12]}")


class RegistryCold(RegistryWorkload):
    name = "registry_cold"
    cold = True


class RegistryWarm(RegistryWorkload):
    name = "registry_warm"
    cold = False
    pairs_obs = True


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


#: Programs drawn per corpus run, and every how many programs one is
#: re-analyzed under the tree-walking reference engine.
CORPUS_COUNT = 2000
TREE_SAMPLE_EVERY = 50


class CorpusSmall(InProcessWorkload):
    """Seeded adversarial corpus programs, analyzed cold in memory."""

    name = "corpus_small"

    def setup(self) -> None:
        from repro.corpus import generate_programs, predicted_patterns
        from repro.lang.parser import parse_program
        from repro.lang.validate import validate_program
        from repro.patterns.engine import analyze
        from repro.service.jobs import build_call_args

        self._parse = parse_program
        self._validate = validate_program
        self._analyze = analyze
        self._predicted = predicted_patterns
        self._call_args = build_call_args
        self.programs = generate_programs(CORPUS_COUNT, self.seed, adversarial=True)
        self.verdicts: dict[int, dict[str, bool]] | None = None

    def items(self) -> list:
        return list(range(len(self.programs)))

    def run_item(self, index: int):
        tp, program, arg_sets = self._program(index)
        return self._predicted(self._analyze(program, tp.entry, arg_sets))

    def _program(self, index: int):
        tp = self.programs[index]
        program = self._parse(tp.source)
        self._validate(program)
        return tp, program, [self._call_args(tp.arg_specs, seed=0)]

    def probe_item(self, rec: Recorder, index: int) -> None:
        tp, program, arg_sets = self._program(index)
        ladder.probe_engine(rec, program, tp.entry, arg_sets)

    def trace_item(self, rec: Recorder, registry, index: int):
        from repro.profiling.hotspots import DEFAULT_THRESHOLD

        tp = self.programs[index]
        with rec.span("program", index=index):
            program = ladder.parse(rec, tp.source)
            args = self._call_args(tp.arg_specs, seed=0)
            profile = ladder.profile(rec, program, tp.entry, [args])
            result = ladder.detect(rec, registry, program, profile, DEFAULT_THRESHOLD, 3)
            return self._predicted(result)

    def count_item(self, index: int) -> Counter:
        from repro.patterns.engine import analyze_profile
        from repro.profiling.runner import profile_runs

        tp, program, arg_sets = self._program(index)
        profile = profile_runs(program, tp.entry, arg_sets)
        counts = ladder.count_events(program, tp.entry, arg_sets)
        counts.update(ladder.profile_counts(profile))
        counts.update(ladder.evidence_counts(analyze_profile(program, profile)))
        return counts

    def check_pass(self, outcomes: list) -> None:
        if self.verdicts is None:
            self.verdicts = {}
        for index, verdict in outcomes:
            if (self.verdicts.setdefault(index, verdict) != verdict
                    and len(self.checks.mismatches) < 20):
                self.checks.mismatches.append(f"program {index}: verdicts differ between analyses")

    def accuracy(self) -> dict[str, dict[str, int]]:
        """Per dimension: verdicts agreeing with the ground truth."""
        from repro.corpus.templates import PATTERN_DIMENSIONS

        table = {dim: {"correct": 0, "checked": 0} for dim in PATTERN_DIMENSIONS}
        for index, verdict in (self.verdicts or {}).items():
            truth = self.programs[index].truth
            for dim in PATTERN_DIMENSIONS:
                table[dim]["checked"] += 1
                table[dim]["correct"] += bool(verdict[dim]) == bool(truth[dim])
        return table

    def final_checks(self) -> None:
        """Ground-truth agreement is the accuracy; the tree engine and the
        committed reference are the correctness checks."""
        from repro.patterns.engine import analyze_profile
        from repro.profiling.runner import profile_runs
        from repro.profiling.serialize import profile_digest

        table = self.accuracy()
        self.checks.checked += sum(row["checked"] for row in table.values())
        self.checks.correct += sum(row["correct"] for row in table.values())

        ref = self.expected["corpus"]
        if self.seed == ref["seed"] and len(self.programs) == ref["count"]:
            if table != ref["dimensions"]:
                self.checks.mismatches.append(
                    f"corpus accuracy {table} != expected.json {ref['dimensions']}"
                )
        for index in range(0, len(self.programs), TREE_SAMPLE_EVERY):
            tp, program, arg_sets = self._program(index)
            per_engine = {}
            for engine in ("compiled", "tree"):
                profile = profile_runs(program, tp.entry, arg_sets, engine=engine)
                verdict = self._predicted(analyze_profile(program, profile))
                per_engine[engine] = (profile_digest(profile), verdict)
            if per_engine["compiled"] != per_engine["tree"]:
                self.checks.mismatches.append(f"program {index}: compiled != tree engine")
            if self.verdicts is not None and self.verdicts.get(index) != per_engine["tree"][1]:
                self.checks.mismatches.append(f"program {index}: timed verdict != tree engine")


IN_PROCESS = {cls.name: cls for cls in (RegistryCold, RegistryWarm, CorpusSmall)}
