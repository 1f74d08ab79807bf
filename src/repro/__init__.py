"""repro — reproduction of *Automatic Parallel Pattern Detection in the
Algorithm Structure Design Space* (IPPS 2016).

The library detects four parallel patterns (multi-loop pipeline, task
parallelism, geometric decomposition, reduction) plus loop fusion in
sequential MiniC programs, classifies code blocks by the patterns' support
structures, and simulates the parallel schedules the patterns imply.

Quick start::

    import numpy as np
    from repro import analyze_source, analysis_report

    src = '''
    float total(float A[], int n) {
        float sum = 0.0;
        for (int i = 0; i < n; i++) {
            sum += A[i];
        }
        return sum;
    }
    '''
    result = analyze_source(src, entry="total", arg_sets=[[np.ones(100), 100]])
    print(analysis_report(result))

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

# Single source of truth for the distribution version: packaging metadata
# (pyproject's dynamic version), the CLI's --version flag, and the service's
# GET /v1/version endpoint all read this constant.  Defined before the
# submodule imports below so they may `from repro import __version__`.
__version__ = "1.4.0"

from repro.api import analyze_source, compile_source
from repro.patterns.engine import analyze, summarize_patterns
from repro.patterns.framework import AnalysisResult
from repro.lang.parser import parse_program
from repro.profiling.runner import profile_run, profile_runs
from repro.reporting.report import analysis_report
from repro.runtime.interpreter import run_program

__all__ = [
    "analyze_source",
    "analysis_report",
    "compile_source",
    "AnalysisResult",
    "analyze",
    "summarize_patterns",
    "parse_program",
    "profile_run",
    "profile_runs",
    "run_program",
    "__version__",
]
