"""Observability: metrics registry, span tracing, structured logging.

The missing leg of the production story after perf (PR 1), fault
tolerance (PR 3), and serving (PR 4): *seeing* where time goes.  Three
stdlib-only pieces, documented in ``docs/observability.md``:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms) rendered in the Prometheus
  text format at the daemon's ``/v1/metrics`` and via ``repro metrics``.
* :mod:`repro.obs.tracing` — hierarchical :class:`Span` trees
  (parse / profile / cache read / detector stages / job queue-wait / job
  run) collected by a thread-installed :class:`Tracer` and exported as the
  optional ``trace.spans`` block of the analysis document.
* :mod:`repro.obs.logs` — :class:`JsonLogger`, one JSON object per line
  with a per-job ``correlation_id`` bound once and carried through every
  layer's records.

Instrumentation must be cheap enough to leave on (the way DiscoPoP treats
its profiler's overhead as a first-class result): ``set_enabled(False)``
turns every instrument into a no-op, and the repo benchmark prices the
difference as ``obs.overhead_pct`` in a traced ``registry_warm`` run,
budgeted at 5 % of a warm registry analysis.
"""

from repro.obs.logs import JsonLogger, new_correlation_id
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    set_enabled,
    set_registry,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    activate,
    current_tracer,
    ensure_tracer,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "ensure_tracer",
    "get_registry",
    "metrics_enabled",
    "new_correlation_id",
    "set_enabled",
    "set_registry",
    "span",
]
