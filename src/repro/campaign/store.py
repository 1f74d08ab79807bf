"""The campaign results store: WAL sqlite, content-addressed results.

Two tables, mirroring the service's durability layer
(:mod:`repro.service.store`) but organized for analytics instead of job
lifecycle:

``results(digest → doc)``
    The content-addressed layer.  One row per *distinct piece of work* —
    the digest is :func:`repro.service.jobs.job_digest` over the cell's
    bench payload, so a result document is stored once no matter how many
    campaigns contain the cell, and a rerun finds it **without touching
    the service at all** (the digest-keyed warm path the acceptance
    criteria measure).

``cells(campaign, cell_id → coordinates, digest, state)``
    The campaign layer.  One row per planned cell per campaign: its axis
    coordinates, its digest (the join key into ``results``), its state
    (``pending``/``done``/``failed``) and, for failures, the structured
    error document.  ``campaign run`` writes every planned cell up front
    as ``pending``, so an interrupted campaign knows exactly what remains
    (``campaign status`` after a daemon kill reads this table).

Documents are deterministic JSON text (sorted keys, canonical
separators): what was stored is re-emitted byte-identically across
restarts, which is what lets ``campaign query --table3`` reproduce
Table III exactly.

The sqlite plumbing (WAL connection, document encoding) is the service
log's (:func:`repro.service.store.open_db`).  Unlike that log, writes are
**not** best-effort: a campaign store that cannot record results is
useless, so errors propagate.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any

from repro.service.store import dump, load, open_db

_ENV_VAR = "REPRO_CAMPAIGN_DB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    digest      TEXT PRIMARY KEY,
    doc         TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    campaign    TEXT NOT NULL,
    cell_id     TEXT NOT NULL,
    program     TEXT NOT NULL,
    machine     TEXT NOT NULL,
    scale       REAL NOT NULL,
    threshold   REAL,
    digest      TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    error       TEXT,
    ord         INTEGER NOT NULL DEFAULT 0,
    updated_at  REAL NOT NULL,
    PRIMARY KEY (campaign, cell_id)
);
CREATE INDEX IF NOT EXISTS cells_digest ON cells(digest);
CREATE INDEX IF NOT EXISTS cells_state ON cells(campaign, state);
"""


def default_campaign_db() -> Path:
    """``$REPRO_CAMPAIGN_DB``, else a sibling of the profile cache."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaigns.sqlite"


class CampaignStore:
    """One WAL-mode sqlite file holding campaigns and their results."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_campaign_db()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = open_db(str(self.path), _SCHEMA)

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.commit()
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- results: the content-addressed layer -----------------------------

    def get_result(self, digest: str) -> Any | None:
        """The stored result document for *digest*, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc FROM results WHERE digest = ?", (digest,)
            ).fetchone()
        return load(row[0]) if row else None

    def put_result(self, digest: str, doc: Any) -> None:
        """Store *doc* under *digest* (idempotent — content-addressed)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO results VALUES (?, ?, ?)",
                (digest, dump(doc), time.time()),
            )
            self._conn.commit()

    def result_count(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    # -- cells: the campaign layer ----------------------------------------

    def plan_cells(self, campaign: str, cells: list) -> int:
        """Record every planned cell as ``pending`` (idempotent resume).

        Cells the campaign already holds keep their state — a rerun of
        ``campaign run`` only adds coordinates it has not seen.  Returns
        the number of newly planned cells.
        """
        from repro.campaign.grid import cell_digest

        now = time.time()
        added = 0
        with self._lock:
            for index, cell in enumerate(cells):
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO cells "
                    "(campaign, cell_id, program, machine, scale, threshold, "
                    " digest, state, error, ord, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, 'pending', NULL, ?, ?)",
                    (
                        campaign,
                        cell.cell_id,
                        cell.program,
                        cell.machine,
                        cell.scale,
                        cell.threshold,
                        cell_digest(cell),
                        index,
                        now,
                    ),
                )
                added += cursor.rowcount
            self._conn.commit()
        return added

    def mark_cell(
        self,
        campaign: str,
        cell_id: str,
        state: str,
        error: Any | None = None,
    ) -> None:
        """Transition one planned cell (``done``/``failed``/``pending``)."""
        with self._lock:
            self._conn.execute(
                "UPDATE cells SET state = ?, error = ?, updated_at = ? "
                "WHERE campaign = ? AND cell_id = ?",
                (state, dump(error), time.time(), campaign, cell_id),
            )
            self._conn.commit()

    def cells(self, campaign: str, state: str | None = None) -> list[dict[str, Any]]:
        """Planned cells of *campaign* in plan order, as plain dicts."""
        sql = (
            "SELECT campaign, cell_id, program, machine, scale, threshold, "
            "digest, state, error, ord FROM cells WHERE campaign = ?"
        )
        params: list[Any] = [campaign]
        if state is not None:
            sql += " AND state = ?"
            params.append(state)
        sql += " ORDER BY ord, cell_id"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [
            {
                "campaign": r[0],
                "cell_id": r[1],
                "program": r[2],
                "machine": r[3],
                "scale": r[4],
                "threshold": r[5],
                "digest": r[6],
                "state": r[7],
                "error": load(r[8]),
                "ord": r[9],
            }
            for r in rows
        ]

    def status(self, campaign: str) -> dict[str, Any]:
        """Per-state cell counts for one campaign."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM cells WHERE campaign = ? "
                "GROUP BY state",
                (campaign,),
            ).fetchall()
        states = {state: 0 for state in ("pending", "done", "failed")}
        states.update(dict(rows))
        return {
            "campaign": campaign,
            "cells": sum(states.values()),
            "states": states,
            "complete": states["pending"] == 0 and sum(states.values()) > 0,
        }

    def campaigns(self) -> list[dict[str, Any]]:
        """Every campaign in the store with its cell counts, sorted by name."""
        with self._lock:
            names = [
                r[0]
                for r in self._conn.execute(
                    "SELECT DISTINCT campaign FROM cells ORDER BY campaign"
                )
            ]
        return [self.status(name) for name in names]
