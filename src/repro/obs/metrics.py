"""Process-wide metrics registry: counters, gauges, histograms.

DiscoPoP treats its own profiling cost as a first-class result (PAPER.md
§V); this module gives the reproduction the same discipline for its
*service* instrumentation.  A :class:`MetricsRegistry` owns named
instruments — monotonic :class:`Counter`\\ s, point-in-time
:class:`Gauge`\\ s, and fixed-bucket :class:`Histogram`\\ s — and renders
them in the Prometheus text exposition format, which the analysis daemon
serves at ``/v1/metrics`` and the CLI fetches with ``repro metrics``.

Design constraints, in order:

* **stdlib only** — no ``prometheus_client``; the exposition format is
  simple enough to emit directly.
* **Thread-safe** — every update happens under the owning registry's lock
  (request handler threads, executor workers, and scrapes all share one
  registry).  :meth:`CacheStats.bump <repro.profiling.cache.CacheStats>`
  rides on the same convention.
* **Zero-alloc on the hot path** — ``inc``/``observe`` mutate
  pre-allocated ints and lists; bucket search is a branch ladder over a
  fixed bounds tuple.  No dicts or strings are built per update.
* **Globally disableable** — :func:`set_enabled` turns every instrument
  into a no-op so the repo benchmark can price the instrumentation
  itself (``obs.overhead_pct`` in a traced ``registry_warm`` run).

Instruments are get-or-create by name: asking the registry twice for the
same name returns the same object, and asking with a conflicting kind or
label set raises.  Labelled families hand out per-label-set children via
``.labels(...)``; callers on hot paths should hold onto the child.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Sequence

#: Latency buckets (seconds) shared by every duration histogram: spans
#: interpreter-bound analyses (seconds) down to warm cache reads (sub-ms).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Process-wide instrumentation switch (see :func:`set_enabled`).
_enabled = True


def set_enabled(flag: bool) -> bool:
    """Turn all instrument updates on/off process-wide; returns the
    previous setting.  Disabling is how the repo benchmark measures the
    cost of the instrumentation itself; rendered values simply stop moving."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def metrics_enabled() -> bool:
    return _enabled


def _fmt_value(value: float) -> str:
    """Prometheus sample value: ints stay ints, floats use repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_suffix(labels: Sequence[tuple[str, Any]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing sample (``*_total`` by convention)."""

    kind = "counter"
    __slots__ = ("_labels", "_lock", "_value")

    def __init__(self, lock: threading.RLock, labels: tuple = ()) -> None:
        self._lock = lock
        self._labels = labels
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def samples(self, name: str) -> Iterable[str]:
        yield f"{name}{_label_suffix(self._labels)} {_fmt_value(self.value)}"


class Gauge:
    """Point-in-time sample; settable or backed by a callback.

    ``set_function`` binds a zero-argument callable evaluated at render
    time — the idiom for values another object already tracks (worker
    pool occupancy, queue depth) where sampling on a timer would go stale.
    """

    kind = "gauge"
    __slots__ = ("_fn", "_labels", "_lock", "_value")

    def __init__(self, lock: threading.RLock, labels: tuple = ()) -> None:
        self._lock = lock
        self._labels = labels
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._fn = None
            self._value = value

    def inc(self, amount: float = 1) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        # called outside the lock: the callback may take other locks
        try:
            return fn()
        except Exception:
            return float("nan")

    def samples(self, name: str) -> Iterable[str]:
        yield f"{name}{_label_suffix(self._labels)} {_fmt_value(self.value)}"


class Histogram:
    """Fixed-bucket distribution (cumulative buckets + sum + count).

    Bucket bounds are frozen at creation, so ``observe`` is a bisect over
    a tuple plus three in-place updates — nothing is allocated.
    """

    kind = "histogram"
    __slots__ = ("_counts", "_labels", "_lock", "_sum", "bounds")

    def __init__(
        self,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: tuple = (),
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = lock
        self._labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for bound, n in zip(self.bounds + (float("inf"),), counts):
            running += n
            out.append((bound, running))
        return out

    def samples(self, name: str) -> Iterable[str]:
        for bound, running in self.bucket_counts():
            labels = self._labels + (("le", _fmt_bound(bound)),)
            yield f"{name}_bucket{_label_suffix(labels)} {running}"
        suffix = _label_suffix(self._labels)
        yield f"{name}_sum{suffix} {_fmt_value(self.sum)}"
        yield f"{name}_count{suffix} {self.count}"


class LabelledFamily:
    """A named metric with per-label-set children (``.labels(stage=...)``)."""

    def __init__(
        self,
        kind: str,
        labelnames: tuple[str, ...],
        factory: Callable[[tuple], Any],
        lock: threading.RLock,
    ) -> None:
        self.kind = kind
        self.labelnames = labelnames
        self._factory = factory
        self._lock = lock
        self._children: dict[tuple, Any] = {}

    def labels(self, **labelvalues: Any):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"expected labels {list(self.labelnames)}, got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory(tuple(zip(self.labelnames, key)))
                self._children[key] = child
        return child

    def children(self) -> list[Any]:
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]

    def samples(self, name: str) -> Iterable[str]:
        for child in self.children():
            yield from child.samples(name)


class MetricsRegistry:
    """Named instruments + Prometheus text rendering, under one lock.

    Get-or-create semantics make the registry safe to consult from
    anywhere: ``get_registry().counter("x_total").inc()`` is idempotent
    set-up plus an update, so instrumented modules need no wiring beyond
    the metric name.
    """

    def __init__(self) -> None:
        # RLock: a gauge callback evaluated during render() may itself
        # consult the registry.
        self._lock = threading.RLock()
        self._metrics: dict[str, Any] = {}
        self._help: dict[str, str] = {}

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        factory: Callable[[tuple], Any],
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                existing_labels = (
                    existing.labelnames
                    if isinstance(existing, LabelledFamily)
                    else ()
                )
                if existing.kind != kind or existing_labels != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {list(existing_labels)}"
                    )
                return existing
            if labelnames:
                metric = LabelledFamily(kind, labelnames, factory, self._lock)
            else:
                metric = factory(())
            self._metrics[name] = metric
            if help:
                self._help[name] = help
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter | LabelledFamily:
        return self._get_or_create(
            name, "counter", help, labelnames, lambda labels: Counter(self._lock, labels)
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge | LabelledFamily:
        return self._get_or_create(
            name, "gauge", help, labelnames, lambda labels: Gauge(self._lock, labels)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram | LabelledFamily:
        return self._get_or_create(
            name,
            "histogram",
            help,
            labelnames,
            lambda labels: Histogram(self._lock, buckets, labels),
        )

    def get(self, name: str):
        """The registered instrument/family, or None."""
        with self._lock:
            return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        lines: list[str] = []
        for name in self.names():
            metric = self.get(name)
            if metric is None:  # unregistered between names() and get()
                continue
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples(name))
        return "\n".join(lines) + "\n"


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module reports into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
