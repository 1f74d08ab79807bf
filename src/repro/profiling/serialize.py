"""Profile serialization.

DiscoPoP's instrumented runs dump their output to files consumed by later
analysis phases; this module provides the same workflow: a
:class:`Profile` round-trips through a JSON-compatible dict, so profiling
(expensive) can be decoupled from detection (cheap) and profiles can be
archived next to the inputs that produced them.

Serialization is **deterministic**: every collection keyed by unordered or
insertion-ordered structures (dependence edges, per-loop access tables,
site costs, trip counts) is emitted in sorted order and dict keys are
sorted, so two profiles with equal contents produce byte-identical dumps
regardless of the event order or process that built them.  That property is
what lets the parallel orchestrator (``repro.runtime.parallel``) and the
benchmark's reference outputs compare profiles by digest.

Two encoders write that format.  :func:`profile_to_dict` builds the
JSON-compatible dict that analysis documents embed; ``canonical_json`` of
it is the format's definition.  :func:`canonical_profile_json`, behind
:func:`profile_digest` and :func:`save_profile`, writes the same bytes
directly: the call tree node by node from one preorder walk, and every
other section straight from the profile's own tuples, so it builds no
per-node dicts and copies no pair lists.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, IO

from repro.profiling.model import CallNode, DepKey, PETNode, Profile, _dep_sort_key

_FORMAT_VERSION = 1


def profile_to_dict(profile: Profile) -> dict[str, Any]:
    """Convert *profile* to a JSON-compatible dict (deterministic order)."""
    return {
        "version": _FORMAT_VERSION,
        "total_cost": profile.total_cost,
        "runs": profile.runs,
        "unique_array_addresses": profile.unique_array_addresses,
        "array_accesses": profile.array_accesses,
        "deps": [
            [list(key), profile.deps[key]]
            for key in sorted(profile.deps, key=_dep_sort_key)
        ],
        "loop_var_writes": [
            [loop, var, sorted(profile.loop_var_writes[(loop, var)])]
            for loop, var in sorted(profile.loop_var_writes)
        ],
        "loop_var_reads": [
            [loop, var, sorted(profile.loop_var_reads[(loop, var)])]
            for loop, var in sorted(profile.loop_var_reads)
        ],
        "read_first": sorted(list(t) for t in profile.read_first),
        "loop_accessed": sorted(list(t) for t in profile.loop_accessed),
        # Pair lists keep their (deterministic) discovery order — the fit in
        # the multi-loop pipeline detector consumes them as a multiset, but
        # re-sorting would hide ordering bugs in the profiler itself.
        "pairs": [
            [list(key), [list(p) for p in profile.pairs[key]]]
            for key in sorted(profile.pairs)
        ],
        "line_costs": sorted(profile.line_costs.items()),
        "site_costs": [
            [list(k), profile.site_costs[k]] for k in sorted(profile.site_costs)
        ],
        "loop_trips": [
            [loop, list(profile.loop_trips[loop])] for loop in sorted(profile.loop_trips)
        ],
        "pet": _pet_to_dict(profile.pet),
        "calltree": _calltree_to_dict(profile.calltree),
    }


def profile_from_dict(data: dict[str, Any]) -> Profile:
    """Rebuild a :class:`Profile` from :func:`profile_to_dict` output."""
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version {version!r}")
    profile = Profile(
        total_cost=data["total_cost"],
        runs=data["runs"],
        unique_array_addresses=data.get("unique_array_addresses", 0),
        array_accesses=data.get("array_accesses", 0),
    )
    for key, count in data["deps"]:
        kind, var, region, carrier, src_line, dst_line, src_site, dst_site = key
        profile.deps[
            DepKey(kind, var, region, carrier, src_line, dst_line, src_site, dst_site)
        ] = count
    for loop, var, lines in data["loop_var_writes"]:
        profile.loop_var_writes[(loop, var)] = set(lines)
    for loop, var, lines in data["loop_var_reads"]:
        profile.loop_var_reads[(loop, var)] = set(lines)
    profile.read_first = {(loop, var) for loop, var in data["read_first"]}
    profile.loop_accessed = {(loop, var) for loop, var in data["loop_accessed"]}
    for key, pairs in data["pairs"]:
        profile.pairs[tuple(key)] = [tuple(p) for p in pairs]
    profile.line_costs = {line: cost for line, cost in data["line_costs"]}
    profile.site_costs = {tuple(k): v for k, v in data["site_costs"]}
    profile.loop_trips = {loop: tuple(v) for loop, v in data["loop_trips"]}
    profile.pet = _pet_from_dict(data["pet"])
    if profile.pet is not None:
        profile.pet.compute_inclusive()
    profile.calltree = _calltree_from_dict(data["calltree"])
    return profile


def save_profile(profile: Profile, fh: IO[str]) -> None:
    """Write *profile* as JSON to an open text file (byte-deterministic)."""
    fh.write(canonical_profile_json(profile))


def load_profile(fh: IO[str]) -> Profile:
    """Read a profile written by :func:`save_profile`."""
    return profile_from_dict(json.load(fh))


def canonical_json(data: Any) -> str:
    """Canonical JSON text for a JSON-compatible value: sorted keys, fixed
    compact separators.  Shared by the profile serializer and the analysis
    schema (``repro.patterns.schema``) so every digest in the system hashes
    the same byte convention."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canonical_profile_json(profile: Profile) -> str:
    """The canonical (byte-deterministic) JSON text for *profile*.

    Byte-identical to ``canonical_json(profile_to_dict(profile))``, which
    ``tests/test_profile_writer.py`` holds it to, but written directly.
    """
    return profile_json(profile, _calltree_json(profile.calltree))


def profile_json(profile: Profile, calltree: str) -> str:
    """The format-1 text of *profile* with *calltree*, a JSON text, as its
    ``calltree`` value.

    Every other section is laid out as :func:`profile_to_dict` lays it
    out.  The JSON encoder writes tuples as arrays, so the profile's keys
    and pairs go in as they are.
    """
    # Sorting a dict's items compares only its keys, which are distinct.
    rest = {
        "deps": [
            [key, profile.deps[key]] for key in sorted(profile.deps, key=_dep_sort_key)
        ],
        "line_costs": sorted(profile.line_costs.items()),
        "loop_accessed": sorted(profile.loop_accessed),
        "loop_trips": sorted(profile.loop_trips.items()),
        "loop_var_reads": [
            [loop, var, sorted(lines)]
            for (loop, var), lines in sorted(profile.loop_var_reads.items())
        ],
        "loop_var_writes": [
            [loop, var, sorted(lines)]
            for (loop, var), lines in sorted(profile.loop_var_writes.items())
        ],
        "pairs": sorted(profile.pairs.items()),
        "pet": _pet_to_dict(profile.pet),
        "read_first": sorted(profile.read_first),
        "runs": profile.runs,
        "site_costs": sorted(profile.site_costs.items()),
        "total_cost": profile.total_cost,
        "unique_array_addresses": profile.unique_array_addresses,
        "version": _FORMAT_VERSION,
    }
    # Sorted keys: "array_accesses" < "calltree" < every key of *rest*.
    return (
        f'{{"array_accesses":{canonical_json(profile.array_accesses)},'
        f'"calltree":{calltree},{canonical_json(rest)[1:]}'
    )


def profile_digest(profile: Profile) -> str:
    """SHA-256 hex digest of the canonical JSON — a content address."""
    return hashlib.sha256(canonical_profile_json(profile).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# trees (flattened to index-linked node lists)
# ---------------------------------------------------------------------------


def _pet_to_dict(root: PETNode | None) -> dict | None:
    if root is None:
        return None
    nodes: list[dict] = []
    index: dict[int, int] = {}
    for node in root.walk():
        if node.node_id in index:
            continue  # recursion-merged nodes appear once
        index[node.node_id] = len(nodes)
        nodes.append(
            {
                "region": node.region,
                "kind": node.kind,
                "name": node.name,
                "line": node.line,
                "exclusive_cost": node.exclusive_cost,
                "invocations": node.invocations,
                "total_trips": node.total_trips,
                "recursive": node.recursive,
                "children": [],
            }
        )
    for node in root.walk():
        me = index[node.node_id]
        kids = [index[c.node_id] for c in node.children]
        if not nodes[me]["children"]:
            nodes[me]["children"] = kids
    return {"nodes": nodes, "root": index[root.node_id]}


def _pet_from_dict(data: dict | None) -> PETNode | None:
    if data is None:
        return None
    nodes = [
        PETNode(
            node_id=i,
            region=d["region"],
            kind=d["kind"],
            name=d["name"],
            line=d["line"],
            exclusive_cost=d["exclusive_cost"],
            invocations=d["invocations"],
            total_trips=d["total_trips"],
            recursive=d["recursive"],
        )
        for i, d in enumerate(data["nodes"])
    ]
    for i, d in enumerate(data["nodes"]):
        for child in d["children"]:
            nodes[i].children.append(nodes[child])
            nodes[child].parent = nodes[i]
    return nodes[data["root"]]


def _calltree_to_dict(root: CallNode | None) -> dict | None:
    if root is None:
        return None
    nodes: list[dict] = []
    order: list[CallNode] = list(root.walk())
    index = {id(node): i for i, node in enumerate(order)}
    for node in order:
        nodes.append(
            {
                "act_id": node.act_id,
                "region": node.region,
                "kind": node.kind,
                "site_line": node.site_line,
                "inclusive_cost": node.inclusive_cost,
                "exclusive_cost": node.exclusive_cost,
                "per_iter_cost": list(node.per_iter_cost),
                "children": [index[id(c)] for c in node.children],
            }
        )
    return {"nodes": nodes, "root": 0}


def _calltree_json(root: CallNode | None) -> str:
    """:func:`_calltree_to_dict`'s value as canonical JSON text, written
    node by node in preorder with each node's keys in sorted order."""
    if root is None:
        return "null"
    order = list(root.walk())
    index = {id(node): i for i, node in enumerate(order)}
    kinds: dict[str, str] = {}
    nodes = []
    for node in order:
        kind = kinds.get(node.kind)
        if kind is None:
            kind = kinds[node.kind] = canonical_json(node.kind)
        children = ",".join([str(index[id(c)]) for c in node.children]) if node.children else ""
        per_iter = ",".join(map(str, node.per_iter_cost))
        nodes.append(
            f'{{"act_id":{node.act_id},"children":[{children}],'
            f'"exclusive_cost":{node.exclusive_cost},"inclusive_cost":{node.inclusive_cost},'
            f'"kind":{kind},"per_iter_cost":[{per_iter}],'
            f'"region":{node.region},"site_line":{node.site_line}}}'
        )
    return '{"nodes":[' + ",".join(nodes) + '],"root":0}'


def _calltree_from_dict(data: dict | None) -> CallNode | None:
    if data is None:
        return None
    nodes = [
        CallNode(
            act_id=d["act_id"],
            region=d["region"],
            kind=d["kind"],
            site_line=d["site_line"],
            inclusive_cost=d["inclusive_cost"],
            exclusive_cost=d["exclusive_cost"],
            per_iter_cost=list(d["per_iter_cost"]),
        )
        for d in data["nodes"]
    ]
    for i, d in enumerate(data["nodes"]):
        for child in d["children"]:
            nodes[i].children.append(nodes[child])
            nodes[child].parent = nodes[i]
    return nodes[data["root"]]
