"""High-level one-call API.

>>> from repro import analyze_source, analysis_report
>>> result = analyze_source(source, entry="kernel", arg_sets=[[data, 64]])
>>> print(analysis_report(result))
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.patterns.engine import analyze
from repro.patterns.framework import AnalysisResult
from repro.profiling.hotspots import DEFAULT_THRESHOLD


def compile_source(source: str) -> Program:
    """Parse and validate MiniC *source*."""
    program = parse_program(source)
    validate_program(program)
    return program


def analyze_source(
    source: str,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    hotspot_threshold: float = DEFAULT_THRESHOLD,
    min_pairs: int = 3,
    max_cost: int = 500_000_000,
) -> AnalysisResult:
    """Compile, profile (with every argument set), and detect patterns."""
    from repro.obs.tracing import ensure_tracer

    with ensure_tracer() as tracer:
        with tracer.span("parse"):
            program = compile_source(source)
        return analyze(
            program,
            entry,
            arg_sets,
            hotspot_threshold=hotspot_threshold,
            min_pairs=min_pairs,
            max_cost=max_cost,
        )


__all__ = ["compile_source", "analyze_source"]
