"""Instrumented execution substrate for MiniC programs.

This package plays the role of the paper's LLVM instrumentation pass plus the
machine the profiled application ran on: a tree-walking interpreter that
executes MiniC and reports every memory access, control-region entry/exit,
loop iteration, and an LLVM-IR-like instruction cost to an attached
:class:`~repro.runtime.events.Sink`.
"""

from repro.runtime.interpreter import Interpreter, RunResult, run_program
from repro.runtime.events import Sink
from repro.runtime.values import ArrayValue
from repro.runtime.replay import (
    ReplayError,
    results_equal,
    run_with_loop_order,
    validate_doall,
)

__all__ = [
    "Interpreter",
    "RunResult",
    "run_program",
    "Sink",
    "ArrayValue",
    "ReplayError",
    "results_equal",
    "run_with_loop_order",
    "validate_doall",
]
