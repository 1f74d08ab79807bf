"""Graph algorithms used by the pattern detectors.

* ``has_path`` — the barrier-parallelism test of Section III-B ("we check
  for a directed path from one barrier to the other").
* ``critical_path`` — the weighted longest path used for the estimated
  speedup metric (Table V); ``path_order`` / ``longest_path`` split it into
  its weight-independent half and the weighted pass.
* ``strongly_connected_components`` / ``topological_sort`` — support for
  cycle handling when dynamic dependences induce back edges.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple

from repro.graphs.digraph import DiGraph


def reachable_from(graph: DiGraph, start: Hashable) -> set[Hashable]:
    """All nodes reachable from *start* (including *start*)."""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in graph.successors(node):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def has_path(graph: DiGraph, src: Hashable, dst: Hashable) -> bool:
    """True when a directed path ``src -> ... -> dst`` exists."""
    if src not in graph or dst not in graph:
        return False
    if src == dst:
        return True
    return dst in reachable_from(graph, src)


def topological_sort(graph: DiGraph) -> list[Hashable]:
    """Kahn's algorithm; raises ``ValueError`` on cycles."""
    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    ready = [node for node, deg in in_deg.items() if deg == 0]
    order: list[Hashable] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.successors(node):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    if len(order) != len(graph):
        raise ValueError("graph contains a cycle")
    return order


def strongly_connected_components(graph: DiGraph) -> list[set[Hashable]]:
    """Tarjan's SCC algorithm (iterative), components in reverse topo order."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    counter = [0]
    components: list[set[Hashable]] = []

    for root in graph.nodes():
        if root in index:
            continue
        work: list[tuple[Hashable, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            succs = graph.successors(node)
            advanced = False
            for i in range(child_i, len(succs)):
                succ = succs[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                comp: set[Hashable] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def condensation(graph: DiGraph) -> tuple[DiGraph, dict[Hashable, int]]:
    """Collapse SCCs into super-nodes; returns (DAG, node -> component id)."""
    comps = strongly_connected_components(graph)
    comp_of: dict[Hashable, int] = {}
    for cid, comp in enumerate(comps):
        for node in comp:
            comp_of[node] = cid
    dag = DiGraph()
    for cid in range(len(comps)):
        dag.add_node(cid)
    for src, dst, _ in graph.edges():
        a, b = comp_of[src], comp_of[dst]
        if a != b:
            dag.add_edge(a, b)
    return dag, comp_of


class PathOrder(NamedTuple):
    """The weight-independent half of :func:`critical_path`.

    ``order`` lists the nodes topologically.  When the graph has cycles
    (possible when dynamic dependences flow both ways between two CUs), each
    strongly connected component is one super-node of ``order`` and
    ``members`` maps it to the graph nodes it stands for; ``members`` is
    ``None`` for an acyclic graph.  ``successors`` holds each super-node's
    out-edges.  Computed once, it serves any number of weightings.
    """

    order: list[Hashable]
    successors: dict[Hashable, list[Hashable]]
    members: dict[Hashable, list[Hashable]] | None


def path_order(graph: DiGraph) -> PathOrder:
    """Topological order of *graph*, with its cycles condensed."""
    try:
        order = topological_sort(graph)
        dag, members = graph, None
    except ValueError:
        dag, comp_of = condensation(graph)
        members = {}
        for node, cid in comp_of.items():
            members.setdefault(cid, []).append(node)
        order = topological_sort(dag)
    return PathOrder(order, {n: dag.successors(n) for n in order}, members)


def longest_path(
    order: PathOrder, weight: Callable[[Hashable], float]
) -> tuple[float, list[Hashable]]:
    """Heaviest node-weighted path through *order*'s DAG.

    Returns ``(total weight, path)``; a condensed cycle weighs the sum of
    its members (they must execute sequentially anyway) and contributes all
    of them to the path.
    """
    members = order.members
    if members is None:
        node_weight = {n: weight(n) for n in order.order}
    else:
        node_weight = {c: sum(weight(n) for n in members[c]) for c in order.order}
    if not node_weight:
        return 0.0, []
    best: dict[Hashable, float] = {}
    back: dict[Hashable, Hashable | None] = {}
    for node in order.order:
        if node not in best:
            best[node] = node_weight[node]
            back[node] = None
        for nxt in order.successors[node]:
            cand = best[node] + node_weight[nxt]
            if cand > best.get(nxt, float("-inf")):
                best[nxt] = cand
                back[nxt] = node
    end = max(best, key=lambda n: best[n])
    path: list[Hashable] = []
    cursor: Hashable | None = end
    while cursor is not None:
        path.extend([cursor] if members is None else reversed(members[cursor]))
        cursor = back[cursor]
    path.reverse()
    return best[end], path


def critical_path(
    graph: DiGraph, weight: Callable[[Hashable], float]
) -> tuple[float, list[Hashable]]:
    """Heaviest node-weighted path through *graph*: ``(total weight, path)``.

    :func:`path_order` then :func:`longest_path`; callers that weigh one
    graph many ways compute the order once.
    """
    return longest_path(path_order(graph), weight)


def longest_path_length(graph: DiGraph) -> int:
    """Length (in nodes) of the longest path, unit weights."""
    total, path = critical_path(graph, lambda _n: 1.0)
    return len(path)
