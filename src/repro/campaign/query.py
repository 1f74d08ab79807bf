"""Query and aggregation over the campaign results store.

Everything here is a pure function of :class:`CampaignStore` contents —
deterministic output for deterministic input, which is why CSV exports
and the ``--table3`` path are byte-stable across daemon restarts.

The layers:

* :func:`query_records` — filter cells (by campaign / program / machine /
  scale / threshold / state), join each to its stored result document,
  and wrap the pair in the versioned campaign-record envelope
  (:func:`repro.patterns.schema.campaign_record`);
* :func:`group_records` — group-by over axis keys with cell counts and
  geometric-mean speedups (the paper reports speedups; geomean is the
  only defensible cross-program average of ratios);
* :func:`baseline_deltas` — per-cell regression deltas of one campaign
  against a named baseline campaign (matched on ``cell_id``);
* :func:`records_to_csv` / :func:`groups_to_csv` / :func:`records_table` /
  :func:`groups_table` / :func:`deltas_table` — CSV and text rendering;
* :func:`table3_docs` — the closure proof: the stored default-grid
  documents in registry order, byte-identical to ``repro table3 --json``.
"""

from __future__ import annotations

import io
import math
from typing import Any, Sequence

from repro.campaign.store import CampaignStore
from repro.patterns.schema import campaign_record

#: axis keys group-by accepts (``label`` is read from the result document)
GROUP_KEYS = ("campaign", "program", "machine", "scale", "threshold", "label")


def query_records(
    store: CampaignStore,
    campaign: str | None = None,
    program: str | None = None,
    machine: str | None = None,
    scale: float | None = None,
    threshold: float | None = None,
    state: str | None = None,
) -> list[dict[str, Any]]:
    """Filtered campaign-cell records with their result documents joined.

    ``campaign=None`` spans every campaign in the store (sorted by name;
    cells in plan order within each).  Each record is the versioned
    ``campaign_cell`` envelope; ``result`` holds the stored outcome
    document (None for pending/failed cells) and ``error`` the structured
    failure record.
    """
    names = (
        [campaign]
        if campaign is not None
        else [c["campaign"] for c in store.campaigns()]
    )
    records = []
    for name in names:
        for cell in store.cells(name, state=state):
            if program is not None and cell["program"] != program:
                continue
            if machine is not None and cell["machine"] != machine:
                continue
            if scale is not None and cell["scale"] != scale:
                continue
            if threshold is not None and cell["threshold"] != threshold:
                continue
            cell.pop("ord", None)
            cell["result"] = (
                store.get_result(cell["digest"]) if cell["state"] == "done" else None
            )
            records.append(campaign_record(cell))
    return records


def _speedup(record: dict[str, Any]) -> float | None:
    result = record.get("result")
    if isinstance(result, dict):
        value = result.get("best_speedup")
        if isinstance(value, (int, float)) and value > 0:
            return float(value)
    return None


def geomean(values: Sequence[float]) -> float | None:
    """Geometric mean of positive *values* (None when empty)."""
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def group_records(
    records: Sequence[dict[str, Any]], keys: Sequence[str]
) -> list[dict[str, Any]]:
    """Group-by over *keys* with counts and geomean speedups.

    Keys come from :data:`GROUP_KEYS`; ``label`` groups by the detected
    pattern in each cell's result document.  Groups are emitted in sorted
    key order.  ``geomean_speedup`` is None for groups with no successful
    cells.
    """
    bad = sorted(set(keys) - set(GROUP_KEYS))
    if bad:
        raise ValueError(f"unknown group keys {bad!r}; expected {GROUP_KEYS}")

    def key_value(record: dict[str, Any], key: str) -> Any:
        if key == "label":
            result = record.get("result")
            return result.get("label") if isinstance(result, dict) else None
        return record.get(key)

    groups: dict[tuple, dict[str, Any]] = {}
    for record in records:
        group_key = tuple(key_value(record, k) for k in keys)
        group = groups.setdefault(
            group_key,
            {**dict(zip(keys, group_key)), "cells": 0, "done": 0, "_speedups": []},
        )
        group["cells"] += 1
        if record.get("state") == "done":
            group["done"] += 1
        speedup = _speedup(record)
        if speedup is not None:
            group["_speedups"].append(speedup)
    out = []
    for group_key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        group = groups[group_key]
        speedups = group.pop("_speedups")
        group["geomean_speedup"] = geomean(speedups)
        group["max_speedup"] = max(speedups) if speedups else None
        out.append(group)
    return out


def baseline_deltas(
    store: CampaignStore, campaign: str, baseline: str
) -> list[dict[str, Any]]:
    """Per-cell speedup deltas of *campaign* against *baseline*.

    Cells are matched on ``cell_id``; each row carries both speedups, the
    absolute delta, and the ratio (``None`` when either side is missing —
    a failed or still-pending cell).  Rows follow *campaign*'s plan order,
    so regression reports are stable run to run.
    """
    base = {
        r["cell_id"]: _speedup(r) for r in query_records(store, campaign=baseline)
    }
    rows = []
    for record in query_records(store, campaign=campaign):
        ours = _speedup(record)
        theirs = base.get(record["cell_id"])
        rows.append(
            {
                "cell_id": record["cell_id"],
                "program": record["program"],
                "speedup": ours,
                "baseline_speedup": theirs,
                "delta": (
                    ours - theirs if ours is not None and theirs is not None else None
                ),
                "ratio": (
                    ours / theirs
                    if ours is not None and theirs is not None and theirs > 0
                    else None
                ),
            }
        )
    return rows


# -- rendering -----------------------------------------------------------

_CSV_FIELDS = (
    "campaign", "cell_id", "program", "machine", "scale", "threshold",
    "state", "label", "best_speedup", "best_threads", "digest",
)


def _to_csv(fields: Sequence[str], rows: Sequence[dict[str, Any]]) -> str:
    """CSV text: a header row, then *fields* of each row (None prints empty)."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if row.get(f) is None else row.get(f) for f in fields])
    return buffer.getvalue()


def records_to_csv(records: Sequence[dict[str, Any]]) -> str:
    """Flat CSV of cell records (one row per cell, stable column set)."""
    rows = []
    for record in records:
        result = record.get("result") or {}
        rows.append({
            **record,
            "label": result.get("label"),
            "best_speedup": result.get("best_speedup"),
            "best_threads": result.get("best_threads"),
        })
    return _to_csv(_CSV_FIELDS, rows)


def groups_to_csv(groups: Sequence[dict[str, Any]], keys: Sequence[str]) -> str:
    """CSV of :func:`group_records` output: the group keys, then the tallies."""
    return _to_csv(
        list(keys) + ["cells", "done", "geomean_speedup", "max_speedup"], groups
    )


def records_table(records: Sequence[dict[str, Any]], title: str = "Campaign cells") -> str:
    """Human-readable cell listing via the shared table renderer."""
    from repro.reporting.tables import format_table

    rows = []
    for record in records:
        result = record.get("result") or {}
        rows.append(
            [
                record["campaign"],
                record["program"],
                record["machine"],
                record["scale"],
                "spec" if record["threshold"] is None else record["threshold"],
                record["state"],
                result.get("label"),
                result.get("best_speedup"),
            ]
        )
    return format_table(
        ["Campaign", "Program", "Machine", "Scale", "Thresh", "State",
         "Detected Pattern", "Speedup"],
        rows,
        title=title,
    )


def groups_table(groups: Sequence[dict[str, Any]], keys: Sequence[str]) -> str:
    from repro.reporting.tables import format_table

    rows = [
        [group.get(k) for k in keys]
        + [group["cells"], group["done"], group["geomean_speedup"], group["max_speedup"]]
        for group in groups
    ]
    return format_table(
        [k.capitalize() for k in keys] + ["Cells", "Done", "Geomean", "Max"],
        rows,
        title=f"Campaign aggregation by {', '.join(keys)}",
    )


def deltas_table(rows: Sequence[dict[str, Any]], campaign: str, baseline: str) -> str:
    from repro.reporting.tables import format_table

    table_rows = [
        [r["program"], r["cell_id"], r["baseline_speedup"], r["speedup"],
         r["delta"], r["ratio"]]
        for r in rows
    ]
    return format_table(
        ["Program", "Cell", "Baseline", "Speedup", "Delta", "Ratio"],
        table_rows,
        title=f"{campaign} vs baseline {baseline}",
    )


# -- Table III regeneration ----------------------------------------------

def table3_docs(store: CampaignStore, campaign: str) -> list[dict[str, Any]]:
    """The stored default-grid documents in benchmark-registry order.

    For every registry program, emit the stored result document of the
    campaign's ``default``-machine, scale-1, spec-threshold cell — the
    exact bytes the service produced, which are the exact bytes
    ``repro table3 --json`` emits (``BenchmarkOutcome.to_dict()`` carries
    no wall-clock state).  Failed cells contribute their structured
    failure record, mirroring the live sweep's keep-going output.

    Raises :class:`ValueError` if the campaign is missing a program's
    default cell or it is still pending — an incomplete campaign cannot
    claim to reproduce the table.
    """
    from repro.bench_programs.registry import all_benchmarks
    from repro.campaign.grid import CampaignCell

    by_id = {c["cell_id"]: c for c in store.cells(campaign)}
    docs = []
    for spec in all_benchmarks():
        cell = by_id.get(CampaignCell(program=spec.name).cell_id)
        if cell is None or cell["state"] == "pending":
            missing = "missing" if cell is None else "pending"
            raise ValueError(
                f"campaign {campaign!r} has no completed default cell for "
                f"{spec.name!r} ({missing}); run `repro campaign run` to completion"
            )
        if cell["state"] == "failed":
            docs.append(cell["error"])
            continue
        doc = store.get_result(cell["digest"])
        if doc is None:
            raise ValueError(
                f"campaign {campaign!r}: result document for {spec.name!r} "
                f"(digest {cell['digest'][:12]}...) is missing from the store"
            )
        docs.append(doc)
    return docs
