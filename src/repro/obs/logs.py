"""Structured JSON logging with per-job correlation ids.

One :class:`JsonLogger` writes one JSON object per line — ``ts``,
``level``, ``event``, any bound context, and the call's fields — to a
file path or stream.  :meth:`JsonLogger.bind` returns a child logger with
extra context baked in, which is how a job's ``correlation_id`` follows
the submission from :class:`~repro.service.client.ServiceClient` through
the :class:`~repro.service.jobs.JobStore`, the executor worker, and
:func:`~repro.runtime.parallel.run_one` without any signature carrying it
explicitly: each layer binds once and logs normally.

A logger given neither a path nor a stream is a **null sink** (drops
everything at the cost of one attribute check), so the daemon's job store
logs every transition unconditionally and pays nothing unless
``repro serve --log-jobs`` names a file.  Writes are best-effort like the
job store's old JSONL transition log: an unwritable path bumps
:attr:`JsonLogger.errors` and the program keeps running.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, TextIO


def new_correlation_id() -> str:
    """A fresh id tying one submission's records together across layers."""
    return uuid.uuid4().hex


class _Sink:
    """Shared destination (path or stream) behind one lock + error count."""

    def __init__(self, path: str | None = None, stream: TextIO | None = None) -> None:
        self.path = path
        self.stream = stream
        self.lock = threading.Lock()
        self.errors = 0

    @property
    def active(self) -> bool:
        return self.path is not None or self.stream is not None

    def write_line(self, line: str) -> None:
        try:
            with self.lock:
                if self.stream is not None:
                    self.stream.write(line + "\n")
                elif self.path is not None:
                    with open(self.path, "a") as fh:
                        fh.write(line + "\n")
        except (OSError, ValueError):  # ValueError: stream already closed
            self.errors += 1


class JsonLogger:
    """Line-per-record JSON logger with bindable context."""

    def __init__(
        self,
        path: str | None = None,
        stream: TextIO | None = None,
        context: dict[str, Any] | None = None,
        _sink: _Sink | None = None,
    ) -> None:
        self._sink = _sink if _sink is not None else _Sink(path=path, stream=stream)
        self._context = dict(context or {})

    @property
    def errors(self) -> int:
        """Failed writes (unwritable path, closed stream) — best-effort."""
        return self._sink.errors

    @property
    def active(self) -> bool:
        """Whether records go anywhere at all."""
        return self._sink.active

    @property
    def context(self) -> dict[str, Any]:
        return dict(self._context)

    def bind(self, **context: Any) -> "JsonLogger":
        """A child logger sharing this sink, with *context* merged in."""
        merged = dict(self._context)
        merged.update(context)
        return JsonLogger(context=merged, _sink=self._sink)

    def log(self, event: str, level: str = "info", **fields: Any) -> None:
        """Emit one record; a silent no-op on the null sink."""
        if not self._sink.active:
            return
        record: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
        }
        record.update(self._context)
        record.update(fields)
        self._sink.write_line(json.dumps(record, sort_keys=True, default=str))

    def info(self, event: str, **fields: Any) -> None:
        self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(event, level="error", **fields)
