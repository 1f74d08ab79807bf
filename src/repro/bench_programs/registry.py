"""Benchmark registry: name -> program, inputs, and the paper's numbers."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.lang.ast_nodes import Program
from repro.lang.analysis import source_loc
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.patterns.engine import analyze
from repro.patterns.framework import AnalysisResult


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table III."""

    loc: int
    hotspot_pct: float
    speedup: float
    threads: int
    pattern: str


@dataclass
class BenchmarkSpec:
    """One benchmark program with inputs and expected detection outcome."""

    name: str
    suite: str
    source: str
    entry: str
    make_arg_sets: Callable[[], list[list]]
    paper: PaperRow
    #: the label our engine is expected to produce (usually == paper.pattern;
    #: deviations are documented in EXPERIMENTS.md)
    expected_label: str = ""
    hotspot_threshold: float = 0.10
    min_pairs: int = 3
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.expected_label:
            self.expected_label = self.paper.pattern

    @functools.cached_property
    def program(self) -> Program:
        program = parse_program(self.source)
        validate_program(program)
        return program

    @property
    def loc(self) -> int:
        return source_loc(self.source)

    def arg_sets(self) -> list[list]:
        return self.make_arg_sets()


_REGISTRY: dict[str, BenchmarkSpec] = {}


def register(spec: BenchmarkSpec) -> BenchmarkSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def _load_all() -> None:
    # Import for side effects: each suite module registers its benchmarks.
    from repro.bench_programs import bots, parsec, polybench, starbench  # noqa: F401

    # Generated corpora advertised via REPRO_CORPUS_PATH register here too,
    # so sweep pool workers and service process backends — which resolve
    # names in their own process after the fork — see the same registry
    # view as the parent that registered the corpus.
    from repro.corpus.suite import autoload_registered

    autoload_registered()


def get_benchmark(name: str) -> BenchmarkSpec:
    _load_all()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def all_benchmarks() -> list[BenchmarkSpec]:
    _load_all()
    return list(_REGISTRY.values())


@functools.lru_cache(maxsize=None)
def analyze_benchmark(name: str, engine: str = "compiled") -> AnalysisResult:
    """Analyze a registered benchmark (cached across the test session).

    *engine* picks the execution engine for the instrumented runs; results
    are identical across engines, but each ``(name, engine)`` pair caches
    separately so differential tests exercise real runs on both.
    """
    spec = get_benchmark(name)
    return analyze(
        spec.program,
        spec.entry,
        spec.arg_sets(),
        hotspot_threshold=spec.hotspot_threshold,
        min_pairs=spec.min_pairs,
        engine=engine,
    )
