"""Durable sqlite persistence behind the service job store.

The :class:`JobStore <repro.service.jobs.JobStore>` keeps its hot state in
memory (dict + deques under one condition variable); this module is the
write-through layer that makes that state survive a daemon restart.  Every
lifecycle transition upserts the job's full row — payload, timestamps,
result/error documents, coalescing links — into one sqlite database opened
in WAL mode, and a restarting store replays the table:

* terminal jobs come back whole (their result documents are served warm,
  no re-execution), bounded by the store's ``max_history``;
* ``queued``/``running`` jobs — work the dead daemon accepted but never
  finished — are reset to ``queued`` and re-enter the run queue, so a
  crash never silently drops an accepted submission (at-least-once
  execution semantics);
* the id counter resumes past the largest persisted id, keeping job ids
  monotonic across restarts.

Documents are stored as deterministic JSON text (sorted keys), so a result
written before a restart re-serializes byte-identically after it.

Like the JSONL transition log (which remains the human-greppable audit
trail), persistence is **best-effort**: a failed write bumps
:attr:`SqliteJobLog.errors` and the in-memory store keeps serving.

:func:`open_db`, :func:`dump` and :func:`load` are the sqlite plumbing
both durable stores share (this job log and
:class:`repro.campaign.store.CampaignStore`): one WAL-mode connection per
store, shared by its threads under the store's own lock (so it is opened
with ``check_same_thread=False`` and never used concurrently), and
documents kept as deterministic JSON text.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               INTEGER PRIMARY KEY,
    kind             TEXT NOT NULL,
    state            TEXT NOT NULL,
    payload          TEXT NOT NULL,
    submitted_at     REAL,
    started_at       REAL,
    finished_at      REAL,
    result           TEXT,
    error            TEXT,
    info             TEXT,
    correlation_id   TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    digest           TEXT NOT NULL DEFAULT '',
    coalesced_with   INTEGER,
    backend          TEXT NOT NULL DEFAULT 'thread'
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state);
CREATE INDEX IF NOT EXISTS jobs_digest ON jobs(digest);
"""


def open_db(path: str, schema: str) -> sqlite3.Connection:
    """A WAL-mode connection to the sqlite file *path*, *schema* applied."""
    conn = sqlite3.connect(path, check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.executescript(schema)
    conn.commit()
    return conn


def dump(doc: Any) -> str | None:
    """Deterministic JSON text for a document column (None stays NULL)."""
    if doc is None:
        return None
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)


def load(text: str | None) -> Any:
    """The document :func:`dump` wrote (NULL reads back as None)."""
    return None if text is None else json.loads(text)


class SqliteJobLog:
    """One WAL-mode sqlite file holding every job the store has seen."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.errors = 0
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = open_db(self.path, _SCHEMA)

    @property
    def closed(self) -> bool:
        return self._conn is None

    def upsert(self, job) -> None:
        """Write *job*'s current row (insert or replace), best-effort."""
        row = (
            job.id,
            job.kind,
            job.state,
            dump(job.payload),
            job.submitted_at,
            job.started_at,
            job.finished_at,
            dump(job.result),
            dump(job.error),
            dump(job.info),
            job.correlation_id,
            int(job.cancel_requested),
            job.digest,
            job.coalesced_with,
            job.backend,
        )
        with self._lock:
            if self._conn is None:
                self.errors += 1
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO jobs VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    row,
                )
                self._conn.commit()
            except (sqlite3.Error, ValueError, TypeError):
                self.errors += 1

    def delete(self, job_id: int) -> None:
        """Drop one job's row (history eviction), best-effort."""
        with self._lock:
            if self._conn is None:
                self.errors += 1
                return
            try:
                self._conn.execute("DELETE FROM jobs WHERE id = ?", (job_id,))
                self._conn.commit()
            except sqlite3.Error:
                self.errors += 1

    def load_rows(self) -> list[dict[str, Any]]:
        """Every persisted job as a plain dict, in id order.

        Raises on a corrupt/unreadable database — restore-time trouble
        should be loud, unlike steady-state writes.
        """
        with self._lock:
            if self._conn is None:
                raise RuntimeError("sqlite job log is closed")
            cursor = self._conn.execute(
                "SELECT id, kind, state, payload, submitted_at, started_at, "
                "finished_at, result, error, info, correlation_id, "
                "cancel_requested, digest, coalesced_with, backend "
                "FROM jobs ORDER BY id"
            )
            rows = cursor.fetchall()
        out = []
        for r in rows:
            out.append(
                {
                    "id": r[0],
                    "kind": r[1],
                    "state": r[2],
                    "payload": load(r[3]) or {},
                    "submitted_at": r[4],
                    "started_at": r[5],
                    "finished_at": r[6],
                    "result": load(r[7]),
                    "error": load(r[8]),
                    "info": load(r[9]) or {},
                    "correlation_id": r[10] or "",
                    "cancel_requested": bool(r[11]),
                    "digest": r[12] or "",
                    "coalesced_with": r[13],
                    "backend": r[14] or "thread",
                }
            )
        return out

    def close(self) -> None:
        """Release the connection; later writes count as errors."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.commit()
                    self._conn.close()
                except sqlite3.Error:
                    self.errors += 1
                self._conn = None
