"""Convenience entry points: run a program under the profiler.

``profile_run`` executes one entry call and returns ``(Profile, RunResult)``;
``profile_runs`` executes several argument sets (the paper's "multiple
representative inputs") and merges the profiles.  Every profile records
its call tree; a profile without one comes only from a
``Profiler(max_calltree_nodes=0)`` or a decoded dump that lacks it.

Both accept an ``engine`` selector: ``"compiled"`` (default) lowers each
function once into nested Python closures via
:mod:`repro.runtime.compile` and runs those; ``"tree"`` walks the AST with
:class:`~repro.runtime.interpreter.Interpreter`.  The two engines emit the
same event stream, so every profile field — and therefore the canonical
profile digest — is identical between them; the tree walker is kept as the
executable reference semantics that the tests and the benchmark's
reference checks select, and the compiled engine is the path everything
else runs.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lang.ast_nodes import Program
from repro.profiling.model import Profile
from repro.profiling.profiler import Profiler
from repro.runtime.compile import CompiledEngine
from repro.runtime.interpreter import Interpreter, RunResult

ENGINES = ("compiled", "tree")


def _make_engine(program: Program, sink, max_cost: int, engine: str):
    if engine == "compiled":
        return CompiledEngine(program, sink=sink, max_cost=max_cost)
    if engine == "tree":
        return Interpreter(program, sink=sink, max_cost=max_cost)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def profile_run(
    program: Program,
    entry: str,
    args: Sequence[Any] = (),
    max_cost: int = 500_000_000,
    engine: str = "compiled",
) -> tuple[Profile, RunResult]:
    """Execute ``entry(*args)`` under instrumentation; return the profile."""
    profiler = Profiler()
    eng = _make_engine(program, profiler, max_cost, engine)
    result = eng.run(entry, args)
    return profiler.profile, result


def profile_runs(
    program: Program,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    max_cost: int = 500_000_000,
    engine: str = "compiled",
) -> Profile:
    """Profile several runs with different inputs and merge the profiles."""
    if not arg_sets:
        raise ValueError("need at least one argument set")
    merged: Profile | None = None
    for args in arg_sets:
        profile, _ = profile_run(program, entry, args, max_cost=max_cost, engine=engine)
        merged = profile if merged is None else merged.merge(profile)
    assert merged is not None
    return merged
