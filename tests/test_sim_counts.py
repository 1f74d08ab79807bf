"""How often one warm registry pass re-derives the planner's inputs.

A warm pass is Table III's per-program work once the profile cache holds
every profile: ``bench_outcome`` for each of the 17 registry programs.  The
simulation layer reads each analysis once per pattern plan, not once per
thread count, and each plan reads the regions its rung of the ladder found
instead of re-running the rung's gate, so the detection gates
(``clean_pipelines``, ``best_task_parallelism``), the precedence ladder
(``primary_pattern``), the profile readers (``pipeline_co_invocations``,
``loop_invocation_costs``) and Algorithm 3 (``detect_reductions``) run a
fixed number of times per pass.  Ranking the 17 analyses walks every rung
once per program.  The counts are exact: a change that moves one on
purpose updates this pin.
"""

import sys
from contextlib import contextmanager

from repro.bench_programs.registry import all_benchmarks, analyze_benchmark
from repro.patterns import engine
from repro.patterns.framework import AnalysisResult
from repro.patterns.ranking import rank_patterns
from repro.patterns.reduction import detect_reductions
from repro.profiling.cache import ProfileCache, profile_cache_key
from repro.runtime.parallel import bench_outcome
from repro.sim import planner

_COUNTED = {
    "clean_pipelines": AnalysisResult.clean_pipelines,
    "best_task_parallelism": AnalysisResult.best_task_parallelism,
    "primary_pattern": engine.primary_pattern,
    "pipeline_co_invocations": planner.pipeline_co_invocations,
    "loop_invocation_costs": planner.loop_invocation_costs,
    "detect_reductions": detect_reductions,
}

# The ladder walks once per program: it runs the pipeline gate for the 14
# programs without a fusion and the task gate for the 11 without a clean
# pipeline either.  The plans read their rung's regions, so no plan runs a
# gate, and every plan reads each loop's costs once.  Algorithm 3 runs only
# inside loop classification, once per loop that is not do-all.
PINNED = {
    "clean_pipelines": 14,
    "best_task_parallelism": 11,
    "primary_pattern": 17,
    "pipeline_co_invocations": 3,
    "loop_invocation_costs": 17,
    "detect_reductions": 37,
}

# Ranking walks every rung once per program: each gate runs once per
# analysis, and primary_pattern not at all.
PINNED_RANKING = {
    "clean_pipelines": 17,
    "best_task_parallelism": 17,
    "primary_pattern": 0,
    "pipeline_co_invocations": 6,
    "loop_invocation_costs": 39,
    "detect_reductions": 0,
}


@contextmanager
def counting():
    """Count the calls of each ``_COUNTED`` function inside the block."""
    names = {fn.__code__: name for name, fn in _COUNTED.items()}
    counts = dict.fromkeys(_COUNTED, 0)

    # Counted by code object, so every import binding of a function counts.
    def count(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def test_warm_registry_pass_counts(tmp_path):
    cache = ProfileCache(root=tmp_path)
    specs = all_benchmarks()
    for spec in specs:
        key = profile_cache_key(spec.source, spec.entry, spec.arg_sets())
        cache.store(key, analyze_benchmark(spec.name).profile)

    with counting() as counts:
        outcomes = [bench_outcome({"name": spec.name}, cache) for spec in specs]

    assert cache.stats.hits == len(specs) and cache.stats.misses == 0
    assert [o.label for o in outcomes] == [spec.expected_label for spec in specs]
    assert counts == PINNED, counts


def test_registry_ranking_counts():
    results = [analyze_benchmark(spec.name) for spec in all_benchmarks()]
    with counting() as counts:
        for result in results:
            rank_patterns(result)
    assert counts == PINNED_RANKING, counts
