"""Statement reordering for task-commutation validation.

If two CUs can really run as parallel tasks, executing them in either
order must produce the same result.  :func:`swap_cu_statements` builds the
swapped program; :func:`validate_concurrent_tasks` runs it against the
serial original for every pair of detected concurrent tasks — the
task-parallelism analogue of the do-all replay validator.
"""

from __future__ import annotations

import copy
from typing import Any, Sequence

from repro.errors import ReproError
from repro.lang.ast_nodes import Program, Stmt
from repro.lang.parser import parse_program
from repro.lang.printer import format_program
from repro.lang.validate import validate_program
from repro.patterns.result import TaskParallelism
from repro.runtime.interpreter import Interpreter
from repro.runtime.replay import results_equal


class ReorderError(ReproError):
    """The requested CUs cannot be swapped textually."""


def _top_level_spans(
    body: list[Stmt], stmt_ids_a: set[int], stmt_ids_b: set[int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Contiguous index ranges [start, end) of each CU's top-level stmts."""

    def span(ids: set[int]) -> tuple[int, int]:
        indices = [i for i, stmt in enumerate(body) if stmt.stmt_id in ids]
        if not indices:
            raise ReorderError("CU has no top-level statements in this body")
        lo, hi = min(indices), max(indices) + 1
        if hi - lo != len(indices):
            raise ReorderError("CU statements are not contiguous")
        return lo, hi

    span_a = span(stmt_ids_a)
    span_b = span(stmt_ids_b)
    if not (span_a[1] <= span_b[0] or span_b[1] <= span_a[0]):
        raise ReorderError("CU statement ranges overlap")
    return span_a, span_b


def swap_cu_statements(
    program: Program, task: TaskParallelism, cu_a: int, cu_b: int
) -> Program:
    """A new program with the top-level statements of two CUs swapped."""
    cus = {cu.cu_id: cu for cu in task.cus}
    if cu_a not in cus or cu_b not in cus:
        raise ReorderError(f"unknown CU ids {cu_a}/{cu_b}")
    region = program.regions.get(task.region)
    if region is None or region.node is None:
        raise ReorderError("region not found")

    work = copy.deepcopy(program)
    work_region = work.regions[task.region]
    body = work_region.node.body

    ids_a = {stmt.stmt_id for stmt in cus[cu_a].stmts}
    ids_b = {stmt.stmt_id for stmt in cus[cu_b].stmts}
    (a_lo, a_hi), (b_lo, b_hi) = _top_level_spans(body, ids_a, ids_b)
    if a_lo > b_lo:
        (a_lo, a_hi), (b_lo, b_hi) = (b_lo, b_hi), (a_lo, a_hi)

    reordered = (
        body[:a_lo]
        + body[b_lo:b_hi]
        + body[a_hi:b_lo]
        + body[a_lo:a_hi]
        + body[b_hi:]
    )
    work_region.node.body[:] = reordered

    source = format_program(work)
    out = parse_program(source)
    try:
        validate_program(out)
    except ReproError as exc:
        # e.g. a CU moved above declarations its expressions read: the swap
        # is textually impossible, which is different from non-commuting
        raise ReorderError(f"swapped program is not well-formed: {exc}") from exc
    return out


def validate_concurrent_tasks(
    program: Program,
    entry: str,
    args: Sequence[Any],
    task: TaskParallelism,
    max_pairs: int = 6,
    atol: float = 1e-9,
) -> tuple[int, int]:
    """Swap every pair of concurrent tasks and compare against serial.

    Returns ``(pairs checked, pairs failed)``.  Pairs whose statements
    cannot be swapped textually (non-contiguous or nested CUs) are skipped.
    """
    serial = Interpreter(program).run(entry, args)
    tasks = task.concurrent_tasks
    checked = failed = 0
    for i in range(len(tasks)):
        for j in range(i + 1, len(tasks)):
            if checked >= max_pairs:
                return checked, failed
            try:
                swapped = swap_cu_statements(program, task, tasks[i], tasks[j])
            except ReorderError:
                continue
            result = Interpreter(swapped).run(entry, args)
            checked += 1
            if not results_equal(serial, result, atol=atol):
                failed += 1
    return checked, failed
