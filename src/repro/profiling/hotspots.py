"""Hotspot identification over the PET.

The paper identifies "loops and functions with a high percentage of
instruction counts" as hotspots and runs pattern detection on them.  We rank
PET nodes by inclusive-cost share of the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast_nodes import Program
from repro.profiling.model import PETNode, Profile

#: Default inclusive-cost share for a region to count as a hotspot.
DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class Hotspot:
    """A hotspot region with its share of the run's instructions."""

    region: int
    kind: str
    name: str
    line: int
    inclusive_cost: int
    share: float
    pet_node_id: int


def hotspot_regions(
    profile: Profile,
    program: Program | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Hotspot]:
    """All PET regions whose inclusive cost is at least *threshold* of total.

    Results are sorted by descending share; a region appearing several times
    in the PET (same loop under different parents) is reported once with the
    summed cost.  When *program* is given, region names come from its static
    region table.
    """
    if profile.pet is None or profile.total_cost <= 0:
        return []
    totals: dict[int, int] = {}
    meta: dict[int, PETNode] = {}
    for node in profile.pet.walk():
        # A recursive function's merged node appears once per PET position.
        totals[node.region] = totals.get(node.region, 0) + node.inclusive_cost
        meta.setdefault(node.region, node)
    out: list[Hotspot] = []
    for region, cost in totals.items():
        share = cost / profile.total_cost
        if share < threshold:
            continue
        node = meta[region]
        name = node.name
        if program is not None and region in program.regions:
            name = program.regions[region].name
        out.append(
            Hotspot(
                region=region,
                kind=node.kind,
                name=name,
                line=node.line,
                inclusive_cost=cost,
                share=share,
                pet_node_id=node.node_id,
            )
        )
    out.sort(key=lambda h: (-h.share, h.line))
    return out
