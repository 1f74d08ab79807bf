"""Plain recursive call-tree reads: the oracle for the indexed, iterative ones.

These are the straightforward definitions the library's call-tree reads
must agree with exactly: a recursive preorder walk, full-tree filters for a
region's activations, a recursive nesting-depth walk, and the recursive
span of a recursive hotspot that takes one critical path per activation
(no shape memo, no shared topological order).  They recurse as deep as the
call tree, so callers raise the recursion limit for deep trees.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.graphs.algorithms import condensation, topological_sort


def walk(node):
    """Preorder: *node*, then each child's subtree in order."""
    yield node
    for child in node.children:
        yield from walk(child)


def activations(profile, region):
    if profile.calltree is None:
        return []
    return [n for n in walk(profile.calltree) if n.region == region]


def max_depth(profile, region):
    if profile.calltree is None:
        return 1
    best = [0]

    def visit(node, depth):
        here = depth + (1 if node.region == region else 0)
        best[0] = max(best[0], here)
        for child in node.children:
            visit(child, here)

    visit(profile.calltree, 0)
    return max(1, best[0])


def critical_path(graph, weight: Callable[[Hashable], float]):
    if len(graph) == 0:
        return 0.0, []
    try:
        order = topological_sort(graph)
        node_weight = weight
        succ = graph.successors
        members = {n: [n] for n in graph.nodes()}
    except ValueError:
        dag, comp_of = condensation(graph)
        groups: dict[int, list] = {}
        for node, cid in comp_of.items():
            groups.setdefault(cid, []).append(node)
        order = topological_sort(dag)
        node_weight = lambda cid: sum(weight(n) for n in groups[cid])  # noqa: E731
        succ = dag.successors
        members = {cid: groups[cid] for cid in groups}
    best: dict = {}
    back: dict = {}
    for node in order:
        if node not in best:
            best[node] = node_weight(node)
            back[node] = None
        for nxt in succ(node):
            cand = best[node] + node_weight(nxt)
            if cand > best.get(nxt, float("-inf")):
                best[nxt] = cand
                back[nxt] = node
    end = max(best, key=lambda n: best[n])
    path: list = []
    cursor = end
    while cursor is not None:
        path.extend(reversed(members[cursor]))
        cursor = back[cursor]
    path.reverse()
    return best[end], path


def _cost_shares(profile, cus):
    line_to_cu: dict[int, int] = {}
    for cu in cus:
        for line in cu.lines:
            line_to_cu.setdefault(line, cu.cu_id)
    agg_excl = {
        cu.cu_id: sum(profile.line_costs.get(line, 0) for line in cu.lines)
        for cu in cus
    }
    return line_to_cu, agg_excl, sum(agg_excl.values()) or 1


def recursive_span(profile, region, cus, graph):
    """(work, span) of the top activation of *region*, one critical path
    per activation."""
    roots = activations(profile, region)
    if not roots:
        return None
    root = roots[0]
    line_to_cu, agg_excl, total_excl = _cost_shares(profile, cus)
    span_cache: dict[int, float] = {}

    def span_of(act) -> float:
        if act.act_id in span_cache:
            return span_cache[act.act_id]
        if act.region != region:
            span_cache[act.act_id] = float(act.inclusive_cost)
            return float(act.inclusive_cost)
        child_span: dict[int, float] = {}
        for child in act.children:
            cu_id = line_to_cu.get(child.site_line)
            if cu_id is None:
                continue
            child_span[cu_id] = child_span.get(cu_id, 0.0) + span_of(child)

        def weight(cu_id: int) -> float:
            local = act.exclusive_cost * agg_excl.get(cu_id, 0) / total_excl
            return local + child_span.get(cu_id, 0.0)

        if len(graph) == 0:
            value = float(act.inclusive_cost)
        else:
            value, _ = critical_path(graph, weight)
            value = max(value, max((weight(c.cu_id) for c in cus), default=0.0))
        span_cache[act.act_id] = value
        return value

    return float(root.inclusive_cost), span_of(root)


def single_step(profile, region, cus, graph):
    """(total, critical path) of the top activation, recursion unexpanded."""
    roots = activations(profile, region)
    if not roots:
        return None
    root = roots[0]
    line_to_cu, agg_excl, total_excl = _cost_shares(profile, cus)
    child_cost: dict[int, float] = {}
    for child in root.children:
        cu_id = line_to_cu.get(child.site_line)
        if cu_id is None:
            continue
        child_cost[cu_id] = child_cost.get(cu_id, 0.0) + child.inclusive_cost

    def weight(cu_id: int) -> float:
        local = root.exclusive_cost * agg_excl.get(cu_id, 0) / total_excl
        return local + child_cost.get(cu_id, 0.0)

    total = root.inclusive_cost
    if len(graph) == 0:
        return int(total), int(total)
    cp, _ = critical_path(graph, weight)
    cp = max(cp, max((weight(c.cu_id) for c in cus), default=0.0))
    return int(total), int(round(cp))
