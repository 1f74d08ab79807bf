"""Campaign execution: fan cells through the warm analysis service.

:func:`run_campaign` is deliberately thin — the heavy machinery already
exists.  Submission goes through :class:`~repro.service.client.ServiceClient`
(so 429 + ``Retry-After`` handling, coalescing, and per-client accounting
all apply); execution runs wherever the daemon's backend puts it; results
land in the :class:`~repro.campaign.store.CampaignStore` keyed by the
service's own content digest.

The run is **idempotent at two levels**:

* *campaign resume* — cells already ``done`` in this campaign are skipped
  outright (the kill-the-daemon-and-rerun path);
* *digest reuse* — a cell whose digest already has a stored result (from
  any campaign) is recorded done **without submitting anything**; a rerun
  of an identical campaign therefore performs zero service calls and zero
  profile runs, which is what the acceptance criteria assert.

Every decision is counted through :mod:`repro.obs`
(``repro_campaign_cells_total{outcome=...}``) and the whole run plus each
executed cell opens a span, so campaign overhead shows up in the same
trace/metrics plumbing the rest of the pipeline uses.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.campaign.grid import CampaignCell, cell_digest, cell_payload
from repro.campaign.store import CampaignStore
from repro.obs.metrics import get_registry
from repro.obs.tracing import span

def _cells_counter():
    return get_registry().counter(
        "repro_campaign_cells_total",
        "Campaign cells by disposition",
        labelnames=("outcome",),
    )


def run_campaign(
    store: CampaignStore,
    client: Any,
    name: str,
    cells: Sequence[CampaignCell],
    timeout: float = 300.0,
    poll: float = 0.02,
) -> dict[str, Any]:
    """Execute *cells* under campaign *name*; returns the run summary.

    *client* is a :class:`~repro.service.client.ServiceClient`: the grid
    goes out through its ``submit_many`` and each result comes back
    through its ``wait``.  Failed cells record a structured error and do
    not stop the campaign (the registry sweep's keep-going posture).

    Execution is pipelined: every cell that needs the service is
    submitted up front (the daemon's workers start immediately and
    identical in-flight cells coalesce), then results are collected and
    recorded in plan order — the campaign's wall clock tracks the
    daemon's actual work, not ``cells × poll`` latency.

    The summary's ``submitted`` count is the number of cells that reached
    the service — an identical rerun reports ``submitted == 0``.
    """
    counter = _cells_counter()
    summary = {
        "campaign": name,
        "cells": len(cells),
        "submitted": 0,
        "reused_store": 0,
        "reused_resume": 0,
        "failed": 0,
    }
    store.plan_cells(name, list(cells))
    state_by_id = {c["cell_id"]: c["state"] for c in store.cells(name)}
    with span("campaign.run", campaign=name, cells=len(cells)):
        to_submit: list[tuple[CampaignCell, str]] = []
        for cell in cells:
            if state_by_id.get(cell.cell_id) == "done":
                counter.labels(outcome="reused_resume").inc()
                summary["reused_resume"] += 1
                continue
            digest = cell_digest(cell)
            if store.get_result(digest) is not None:
                # content-addressed warm path: some campaign already did
                # this exact work — no service round-trip at all
                store.mark_cell(name, cell.cell_id, "done")
                counter.labels(outcome="reused_store").inc()
                summary["reused_store"] += 1
                continue
            to_submit.append((cell, digest))
        in_flight: list[tuple[CampaignCell, str, int]] = []
        if to_submit:
            # One POST for the whole grid: the server validates every cell
            # before admitting any, and the client absorbs queue-full by
            # resubmitting only the unaccepted tail.
            with span("campaign.submit", cells=len(to_submit)):
                jobs = client.submit_many(
                    [{"kind": "bench", **cell_payload(cell)} for cell, _ in to_submit]
                )
            in_flight = [
                (cell, digest, job["id"])
                for (cell, digest), job in zip(to_submit, jobs)
            ]
        for cell, digest, job_id in in_flight:
            with span("campaign.collect", cell=cell.cell_id):
                record = client.wait(job_id, timeout=timeout, poll=poll)
            if record["state"] == "done":
                store.put_result(digest, record["result"])
                store.mark_cell(name, cell.cell_id, "done")
                counter.labels(outcome="submitted").inc()
                summary["submitted"] += 1
            else:
                store.mark_cell(
                    name,
                    cell.cell_id,
                    "failed",
                    error=record.get("error") or {"state": record["state"]},
                )
                counter.labels(outcome="failed").inc()
                summary["failed"] += 1
    return summary
