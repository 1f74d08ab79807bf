"""Sink protocol: how the execution engines report dynamic events.

The engines push events; sinks pull no state.  A sink receives:

* ``set_site_table(table)`` — once, before any event, the program's static
  :class:`~repro.runtime.sites.SiteTable`;
* ``consume_batch(events)`` — the events, in execution order, as chunks of
  compact tagged tuples;
* ``finish()`` — once, when the run completes.

``Sink`` provides no-op defaults, so a sink overrides only what it needs.

Batched dispatch
----------------
Delivering one Python method call per event would be the profiling
pipeline's throughput ceiling, so the engines append tagged tuples to a
preallocated buffer and flush it in chunks; a hot sink (the profiler)
processes each chunk in one loop with its state hoisted into locals.  Event
ordering within and across batches is exactly the execution order.

Memory-access events do not carry ``(var, line, element)`` strings and flags:
each carries only its compact site id, which indexes the site table (see
``repro.runtime.sites``).

Batch event layouts (first element is the tag)::

    (EV_READ, addr, sid)
    (EV_WRITE, addr, sid)
    (EV_STMT, line)
    (EV_COST, line, amount)
    (EV_ENTER_FUNC, region_id, activation_id, call_line)
    (EV_EXIT_FUNC, region_id, activation_id)
    (EV_ENTER_LOOP, region_id, activation_id, line)
    (EV_EXIT_LOOP, region_id, activation_id, trip_count)
    (EV_ITER, region_id, index)

``EV_STMT`` marks a statement starting at the current region level;
``EV_COST`` carries the IR-instruction cost accrued at *line* since the
last flush (flushed per statement and around region transitions);
``EV_ITER``'s *index* is the 0-based iteration about to execute.
"""

from __future__ import annotations

from typing import Sequence

# Event tags, ordered roughly by frequency on real workloads.
EV_READ = 0
EV_WRITE = 1
EV_COST = 2
EV_STMT = 3
EV_ITER = 4
EV_ENTER_FUNC = 5
EV_EXIT_FUNC = 6
EV_ENTER_LOOP = 7
EV_EXIT_LOOP = 8


class Sink:
    """Base sink: every handler is a no-op."""

    __slots__ = ()

    def set_site_table(self, table) -> None:
        """Announce the program's static access-site table."""

    def consume_batch(self, events: Sequence[tuple]) -> None:
        """Deliver a chunk of tagged event tuples in order."""

    def finish(self) -> None:
        """Called once when the run completes."""
