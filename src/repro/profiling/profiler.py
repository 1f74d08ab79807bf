"""The streaming profiler sink.

One pass over the interpreter's event stream produces everything the pattern
detectors need.  The design mirrors DiscoPoP's split into a dependence
profiler and a region/PET profiler (Section II), but runs both in a single
shadow-memory sweep:

* **Context tracking** — a stack of activations (function calls and loop
  entries), each with its static region id, current iteration number, and
  the source line of the statement currently executing at that level (its
  *site*).  Sites are what summarize nested work to call sites when
  dependences are lifted to a region's CU graph.
* **Shadow memory** — last writer and last reader per address.  Each access
  is compared against the shadow entry to emit RAW/WAR/WAW dependences,
  attributed to the deepest common activation and classified as carried or
  independent there.
* **Privatization** — per loop iteration, the first access to each address
  is tracked; a ``(loop, var)`` that is ever read before written in an
  iteration is marked ``read_first`` (not privatizable).
* **Multi-loop pairs** — a RAW dependence whose endpoints sit in *different
  sibling loops* contributes an ``(i_x, i_y)`` iteration pair: the last
  write iteration of loop *x* and the first read iteration of loop *y* for
  that address (Section III-A's post-analysis, done online).
* **PET** — activations are folded into a Program Execution Tree: loop
  iterations merge, recursive calls merge into their ancestor node.
* **Call tree** — the full dynamic activation tree with inclusive costs and
  per-iteration loop costs, used for work/span speedup estimation and the
  pipeline schedule simulator.

Fast path
---------
The engines deliver events in chunks through :meth:`Profiler.consume_batch`
(see ``repro.runtime.events``), which handles every event tag inline in one
loop with all per-event state hoisted into locals.  Access events carry
``(tag, addr, sid)`` where ``sid`` indexes the program's static
:class:`~repro.runtime.sites.SiteTable`.

Derivation memos
----------------
Deriving a dependence from a shadow entry means scanning two context stacks
for their divergence point, classifying the carrier, and building an
aggregation key — per access.  But inside a loop the stream is massively
repetitive: consecutive accesses at one site hit shadow entries written by
the *same* site under the *same* pair of activation stacks.  Every exact
derivation therefore leaves a **derivation memo**, keyed by the dependence
kind and the (current sid, shadow sid) pair: the divergence level, the site
lines expected there, the pre-built aggregation keys for the carried and
independent variants, the running counts, and the multi-loop pair recipe.
RAW, WAR and WAW share one memo-hit path and one derivation function.  While
a memo matches, recording a dependence is a carried/independent check and a
counter bump; anything else — a different writer site, a rebuilt context, a
changed site line at the divergence level — takes the exact derivation,
which revalidates or replaces the memo.  Memo counts are folded into the
aggregated dependence table when a memo is replaced and at :meth:`finish`,
so the result is **exactly** the per-access table, event for event
(``tests/test_profiler_reference.py`` checks it against a plain per-access
fold); only the work is collapsed.  Memos come in two families:

* **Same-stack memos** cover dependences whose endpoints share the whole
  activation stack (the shadow entry's activation-id snapshot *is* the
  current one) — the dominant case: in-loop affine accesses and
  recursion-local cells.  Divergence is at the innermost level, no pair can
  arise, and the memo references no snapshot, so it stays valid across the
  activation churn of recursive programs.
* **Cross-stack memos** hold the two snapshots they were derived under,
  compared by object identity: snapshots are immutable and rebuilt on
  region transitions, and the memo holds strong references so an id can
  never be recycled.

First-touch bookkeeping gets the same treatment: once a ``(loop, var)`` is
marked ``read_first`` at every live loop level, further marks are no-ops,
and for alias-free programs (see ``repro.runtime.sites``) the per-iteration
first-touch walk for that variable can be skipped wholesale.  Write sites
of variables the program never reads skip it too — their walk exists only
to suppress read marks that can never come.
"""

from __future__ import annotations

from typing import Sequence

from repro.profiling.model import RAW, WAR, WAW, CallNode, DepKey, PETNode, Profile
from repro.runtime.events import (
    EV_COST,
    EV_ENTER_FUNC,
    EV_ENTER_LOOP,
    EV_EXIT_FUNC,
    EV_EXIT_LOOP,
    EV_ITER,
    EV_READ,
    EV_STMT,
    EV_WRITE,
    Sink,
)
from repro.runtime.sites import SiteTable

_NO_ITER = -1

# Memo dicts are keyed by ``sid * _KEYM + psid`` — one int, hashed by value —
# so a site whose addresses alternate between two writer sites (a set/reset
# pair in a backtracking loop, say) keeps one live memo per writer instead
# of thrashing a single per-sid slot.  Site ids are dense small ints, so the
# packing never collides in practice.
_KEYM = 1 << 20

# A derivation memo is a plain list (the fastest mutable record in CPython);
# the hot loop indexes it with literals:
#   0  aggregation key, independent variant
#   1  aggregation key, carried variant (None unless the level is a loop)
#   2  accesses counted as independent
#   3  accesses counted as carried
#   4  expected source site line at the level
#   5  expected sink site line at the level
#   6  source activation-id snapshot (None in same-stack memos)
#   7  sink activation-id snapshot (None in same-stack memos)
#   8  the level: the deepest common activation's index, -1 (innermost)
#      in same-stack memos
#   9  multi-loop pair recipe (w_static, d, r_act, pair_key) or None


def _flush(deps: dict, memo: list) -> None:
    """Fold a memo's accumulated counts into the dependence table."""
    if memo[2]:
        deps[memo[0]] = deps.get(memo[0], 0) + memo[2]
    if memo[3]:
        deps[memo[1]] = deps.get(memo[1], 0) + memo[3]


class Profiler(Sink):
    """Sink that builds a :class:`Profile` from one interpreted run."""

    def __init__(self, max_calltree_nodes: int = 500_000) -> None:
        self.profile = Profile()
        # context stacks (parallel lists)
        self._ids: list[int] = []
        self._statics: list[int] = []
        self._kinds: list[str] = []
        self._iters: list[int] = []
        self._sites: list[int] = []
        self._act_info: dict[int, tuple[int, str]] = {}
        # privatization: per-level set of addresses touched this iteration
        self._seen: list[set[int] | None] = []
        # shadow memory: addr -> ((ids, iters, sites), sid)
        self._last_write: dict[int, tuple] = {}
        self._last_read: dict[int, tuple] = {}
        # pair first-read bookkeeping: (reader_act, writer_loop, addr)
        self._pair_seen: set[tuple[int, int, int]] = set()
        # aggregated dependences under compact (kind, psid, sid, region,
        # carrier, src_site, dst_site) keys; materialized into DepKey
        # records once at finish()
        self._deps_raw: dict[tuple, int] = {}
        # derivation memos: cross-stack RAW/WAW/WAR, then same-stack
        # RAW/WAW/WAR (finish() flushes them in this order)
        self._memos: tuple[dict[int, list], ...] = ({}, {}, {}, {}, {}, {})
        # PET
        self._pet_counter = 0
        self._pet_stack: list[PETNode] = []
        # cost accounting
        self._act_costs: list[int] = []
        # call tree (``max_calltree_nodes=0`` records none)
        self._max_ct = max_calltree_nodes
        self._ct_nodes = 0
        self._ct_stack: list[CallNode | None] = []
        self._iter_marks: list[int] = []
        # loop trip accumulation: static loop -> [invocations, total, max]
        self._trips: dict[int, list[int]] = {}
        # working-set tracking (array traffic only — scalars stay in cache)
        self._array_addrs: set[int] = set()
        # cached immutable snapshots of the context stacks (hot path:
        # rebuilding them per mutation beats tuple() per memory event);
        # _ctx bundles them so shadow entries share one triple per state
        self._ids_t: tuple[int, ...] = ()
        self._iters_t: tuple[int, ...] = ()
        self._sites_t: tuple[int, ...] = ()
        self._ctx: tuple = ((), (), ())
        # indices of the loop levels within the stacks (skips function
        # levels in the per-event first-touch sweep)
        self._loop_idx: list[int] = []
        # per-sid first-touch verdicts for the current loop stack: True =
        # walk normally, False = walk provably a no-op.  A sid missing from
        # the dict doubles as "first touch under this loop stack": the miss
        # path updates the loop access tables before deciding, so one
        # lookup serves both jobs.  Cleared on loop entry/exit.
        self._ft_walk: dict[int, bool] = {}
        # an empty table until an engine announces the program's own
        self.set_site_table(SiteTable())

    def set_site_table(self, table: SiteTable) -> None:
        self._s_lines = table.lines
        self._s_vars = table.vars
        self._s_elems = table.elements
        self._af = table.alias_free
        self._vars_with_reads = {
            var for var, write in zip(table.vars, table.writes) if not write
        }

    # ------------------------------------------------------------------
    # region transitions
    # ------------------------------------------------------------------

    def _enter(self, region: int, act: int, kind: str, line: int) -> None:
        parent_site = self._sites[-1] if self._sites else line
        self._ids.append(act)
        self._statics.append(region)
        self._kinds.append(kind)
        self._iters.append(_NO_ITER)
        self._sites.append(line)
        self._act_info[act] = (region, kind)
        self._seen.append(set() if kind == "loop" else None)
        if kind == "loop":
            self._loop_idx.append(len(self._kinds) - 1)
            self._ft_walk.clear()
        self._ids_t = tuple(self._ids)
        self._iters_t = tuple(self._iters)
        self._sites_t = tuple(self._sites)
        self._ctx = (self._ids_t, self._iters_t, self._sites_t)
        self._act_costs.append(0)
        self._iter_marks.append(0)
        self._enter_pet(region, kind, line)
        # call tree
        node: CallNode | None = None
        if self._ct_nodes < self._max_ct:
            node = CallNode(
                act_id=act,
                region=region,
                kind=kind,
                site_line=parent_site,
                parent=self._ct_stack[-1] if self._ct_stack else None,
            )
            self._ct_nodes += 1
            if node.parent is not None:
                node.parent.children.append(node)
            elif self.profile.calltree is None:
                self.profile.calltree = node
        self._ct_stack.append(node)

    def _enter_pet(self, region: int, kind: str, line: int) -> None:
        name = f"{kind}@{line}"
        if kind == "function":
            # recursion merging: reuse an ancestor node for the same region
            for node in reversed(self._pet_stack):
                if node.region == region and node.kind == "function":
                    node.recursive = True
                    node.invocations += 1
                    self._pet_stack.append(node)
                    return
        parent = self._pet_stack[-1] if self._pet_stack else None
        node = parent.child_for(region) if parent is not None else None
        if node is None or node.kind != kind:
            node = PETNode(
                node_id=self._pet_counter,
                region=region,
                kind=kind,
                name=name,
                line=line,
                parent=parent,
            )
            self._pet_counter += 1
            if parent is not None:
                parent.children.append(node)
            elif self.profile.pet is None:
                self.profile.pet = node
        node.invocations += 1
        self._pet_stack.append(node)

    def _exit(self, trip_count: int | None = None) -> None:
        inclusive = self._act_costs.pop()
        static = self._statics.pop()
        self._ids.pop()
        kind = self._kinds.pop()
        self._iters.pop()
        self._sites.pop()
        self._seen.pop()
        if kind == "loop":
            self._loop_idx.pop()
            self._ft_walk.clear()
        self._ids_t = tuple(self._ids)
        self._iters_t = tuple(self._iters)
        self._sites_t = tuple(self._sites)
        self._ctx = (self._ids_t, self._iters_t, self._sites_t)
        self._iter_marks.pop()
        pet_node = self._pet_stack.pop()
        ct_node = self._ct_stack.pop()
        if ct_node is not None:
            ct_node.inclusive_cost = inclusive
            if kind == "loop" and ct_node.per_iter_cost:
                # fold the final condition-test sliver into the last iteration
                residue = inclusive - sum(ct_node.per_iter_cost)
                if residue > 0:
                    ct_node.per_iter_cost[-1] += residue
        if kind == "loop" and trip_count is not None:
            pet_node.total_trips += trip_count
            acc = self._trips.setdefault(static, [0, 0, 0])
            acc[0] += 1
            acc[1] += trip_count
            acc[2] = max(acc[2], trip_count)
        if self._act_costs:
            self._act_costs[-1] += inclusive
            key = (self._statics[-1], self._sites[-1])
            self.profile.site_costs[key] = self.profile.site_costs.get(key, 0) + inclusive

    # ------------------------------------------------------------------
    # the event fold
    # ------------------------------------------------------------------

    def consume_batch(self, events: Sequence[tuple]) -> None:
        """Fold a chunk of engine events into the profile, in order.

        Every dependence — RAW, WAR or WAW, same-stack or cross-stack —
        goes through one memo-hit path and, on a miss, one exact
        derivation (see "Derivation memos" in the module docstring).
        """
        profile = self.profile
        last_write = self._last_write
        last_read = self._last_read
        pair_seen = self._pair_seen
        pairs = profile.pairs
        loop_accessed = profile.loop_accessed
        loop_var_reads = profile.loop_var_reads
        loop_var_writes = profile.loop_var_writes
        read_first = profile.read_first
        ft_walk = self._ft_walk
        af = self._af
        vars_with_reads = self._vars_with_reads
        line_costs = profile.line_costs
        site_costs = profile.site_costs
        array_addrs = self._array_addrs
        statics = self._statics
        seen = self._seen
        loop_idx = self._loop_idx
        iters = self._iters
        sites = self._sites
        act_costs = self._act_costs
        pet_stack = self._pet_stack
        ct_stack = self._ct_stack
        iter_marks = self._iter_marks
        s_lines = self._s_lines
        s_vars = self._s_vars
        s_elems = self._s_elems
        deps = self._deps_raw
        act_info = self._act_info
        x_raw, x_waw, x_war, s_raw, s_waw, s_war = self._memos
        # the dependence checks an access makes, in order: (shadow map,
        # kind, same-stack memos, cross-stack memos)
        read_checks = ((last_write, RAW, s_raw, x_raw),)
        write_checks = ((last_write, WAW, s_waw, x_waw), (last_read, WAR, s_war, x_war))
        ids_t = self._ids_t
        # ids_t when a shadow entry made under it shares the whole stack
        # (the empty stack shares nothing)
        same_ids = ids_t or None
        iters_t = self._iters_t
        sites_t = self._sites_t
        ctx = self._ctx
        # per-activation state that only changes on region transitions,
        # plus plain-integer accumulators written back once per batch
        cur_static = statics[-1] if statics else -1
        pet_top = pet_stack[-1] if pet_stack else None
        ct_top = ct_stack[-1] if ct_stack else None
        total_cost = profile.total_cost
        arr_n = profile.array_accesses
        keym = _KEYM

        def derive(
            kind: str, p_ctx: tuple, psid: int, sid: int, same: dict, cross: dict, key: int
        ) -> list | None:
            # Exact derivation for one access, counted into the memo it
            # revalidates or installs; returns that memo, or None when the
            # two stacks share no activation (no dependence).  A closure, so
            # the recursion-heavy programs that miss often pay no attribute
            # traffic for it.
            p_ids = p_ctx[0]
            pair = None
            if p_ids is same_ids:
                memos = same
                m = -1
                p_snap = c_snap = None
            else:
                memos = cross
                limit = min(len(p_ids), len(ids_t))
                d = 0
                while d < limit and p_ids[d] == ids_t[d]:
                    d += 1
                if d == 0:
                    return None
                m = d - 1
                p_snap = p_ids
                c_snap = ids_t
                if kind == RAW and d < len(p_ids) and d < len(ids_t):
                    w_static, w_kind = act_info[p_ids[d]]
                    r_static, r_kind = act_info[ids_t[d]]
                    if w_kind == "loop" and r_kind == "loop" and w_static != r_static:
                        pair = (w_static, d, ids_t[d], (w_static, r_static))
            region, region_kind = act_info[p_ids[m]]
            is_loop = region_kind == "loop"
            psm = p_ctx[2][m]
            csm = sites_t[m]
            # function levels never iterate (their iteration stays -1), so
            # only a loop level can carry
            pim = p_ctx[1][m]
            cim = iters_t[m]
            carried = pim != cim and pim != -1 and cim != -1
            old = memos.get(key)
            if (
                old is not None
                and old[4] == psm
                and old[5] == csm
                and old[0][3] == region
            ):
                # Same derived dependence — only the stack snapshots aged
                # (an inner loop re-entered, a call returned and repeated,
                # or the recursion depth shifted: the divergence level is
                # not part of the aggregation key).  Refresh the snapshots,
                # level and pair recipe; keep the keys and counts.
                memo = old
                memo[6] = p_snap
                memo[7] = c_snap
                memo[8] = m
                memo[9] = pair
            else:
                if old is not None:
                    _flush(deps, old)
                memo = [
                    (kind, psid, sid, region, None, psm, csm),
                    (kind, psid, sid, region, region, psm, csm) if is_loop else None,
                    0, 0, psm, csm, p_snap, c_snap, m, pair,
                ]
                memos[key] = memo
            if carried:
                memo[3] += 1
            else:
                memo[2] += 1
            return memo

        for ev in events:
            tag = ev[0]
            if tag <= EV_WRITE:  # EV_READ or EV_WRITE
                addr = ev[1]
                sid = ev[2]
                is_read = tag == EV_READ
                if s_elems[sid]:
                    array_addrs.add(addr)
                    arr_n += 1
                for shadow, kind, same, cross in read_checks if is_read else write_checks:
                    prev = shadow.get(addr)
                    if prev is None:
                        continue
                    p_ctx, psid = prev
                    p_ids = p_ctx[0]
                    key = sid * keym + psid
                    if p_ids is same_ids:
                        memo = same.get(key)
                    else:
                        memo = cross.get(key)
                        if memo is not None and (memo[6] is not p_ids or memo[7] is not ids_t):
                            memo = None
                    if memo is not None:
                        m = memo[8]
                        if p_ctx[2][m] != memo[4] or sites_t[m] != memo[5]:
                            memo = None
                    if memo is None:
                        memo = derive(kind, p_ctx, psid, sid, same, cross, key)
                        if memo is None:
                            continue  # the stacks share no activation
                    else:
                        pim = p_ctx[1][m]
                        cim = iters_t[m]
                        if pim != cim and pim != -1 and cim != -1:
                            memo[3] += 1
                        else:
                            memo[2] += 1
                    if memo[9] is not None:
                        # a RAW between sibling loops: the first read of each
                        # address per reader activation yields an (i_x, i_y)
                        w_static, d, r_act, pair_key = memo[9]
                        ix = p_ctx[1][d]
                        iy = iters_t[d]
                        if ix != -1 and iy != -1:
                            skey = (r_act, w_static, addr)
                            if skey not in pair_seen:
                                pair_seen.add(skey)
                                lst = pairs.get(pair_key)
                                if lst is None:
                                    pairs[pair_key] = [(ix, iy)]
                                else:
                                    lst.append((ix, iy))
                if is_read:
                    last_read[addr] = (ctx, sid)
                else:
                    last_write[addr] = (ctx, sid)
                walk = ft_walk.get(sid)
                if walk is None:
                    # first touch of this sid under the current loop stack:
                    # update the loop access tables, then decide the walk
                    var = s_vars[sid]
                    line = s_lines[sid]
                    table = loop_var_reads if is_read else loop_var_writes
                    for i in loop_idx:
                        k = (statics[i], var)
                        loop_accessed.add(k)
                        lines = table.get(k)
                        if lines is None:
                            table[k] = {line}
                        else:
                            lines.add(line)
                    walk = True
                    if af:
                        # skip once every live loop level has marked the
                        # variable read-first; always skip writes of a
                        # variable the program never reads (their walk only
                        # suppresses read marks that can never come)
                        walk = False
                        if is_read or var in vars_with_reads:
                            for i in loop_idx:
                                if (statics[i], var) not in read_first:
                                    walk = True
                                    break
                    ft_walk[sid] = walk
                if walk:
                    var = s_vars[sid]
                    for i in reversed(loop_idx):
                        level_seen = seen[i]
                        if addr in level_seen:
                            break
                        level_seen.add(addr)
                        if is_read:
                            read_first.add((statics[i], var))
            elif tag == EV_COST:
                line = ev[1]
                amount = ev[2]
                total_cost += amount
                count = line_costs.get(line)
                line_costs[line] = amount if count is None else count + amount
                if act_costs:
                    act_costs[-1] += amount
                    pet_top.exclusive_cost += amount
                    if ct_top is not None:
                        ct_top.exclusive_cost += amount
                    k = (cur_static, line)
                    count = site_costs.get(k)
                    site_costs[k] = amount if count is None else count + amount
            elif tag == EV_STMT:
                line = ev[1]
                if sites and sites[-1] != line:
                    sites[-1] = line
                    sites_t = sites_t[:-1] + (line,)
                    ctx = (ids_t, iters_t, sites_t)
            elif tag == EV_ITER:
                index = ev[2]
                iters[-1] = index
                iters_t = iters_t[:-1] + (index,)
                ctx = (ids_t, iters_t, sites_t)
                seen[-1] = set()
                if ct_top is not None and index > 0:
                    acc = act_costs[-1]
                    ct_top.per_iter_cost.append(acc - iter_marks[-1])
                    iter_marks[-1] = acc
            else:
                if tag == EV_ENTER_FUNC:
                    self._enter(ev[1], ev[2], "function", ev[3])
                elif tag == EV_EXIT_FUNC:
                    self._exit()
                elif tag == EV_ENTER_LOOP:
                    self._enter(ev[1], ev[2], "loop", ev[3])
                elif tag == EV_EXIT_LOOP:
                    self._exit(ev[3])
                else:  # pragma: no cover - exhaustiveness guard
                    raise ValueError(f"unknown event tag {tag!r}")
                # region transitions rebuild the context snapshots from the
                # stacks, and the per-activation hoists
                ids_t = self._ids_t
                same_ids = ids_t or None
                iters_t = self._iters_t
                sites_t = self._sites_t
                ctx = self._ctx
                cur_static = statics[-1] if statics else -1
                pet_top = pet_stack[-1] if pet_stack else None
                ct_top = ct_stack[-1] if ct_stack else None
        self._iters_t = iters_t
        self._sites_t = sites_t
        self._ctx = ctx
        profile.total_cost = total_cost
        profile.array_accesses = arr_n

    def finish(self) -> None:
        profile = self.profile
        for memos in self._memos:
            for memo in memos.values():
                _flush(self._deps_raw, memo)
            memos.clear()
        if self._deps_raw:
            deps = profile.deps
            s_lines = self._s_lines
            s_vars = self._s_vars
            for key, count in self._deps_raw.items():
                kind, psid, sid, region, carrier, psm, csm = key
                dep = DepKey(
                    kind, s_vars[psid], region, carrier,
                    s_lines[psid], s_lines[sid], psm, csm,
                )
                deps[dep] = deps.get(dep, 0) + count
            self._deps_raw = {}
        # Sorted by region id so live profiles iterate identically to
        # cache-round-tripped ones (the serializer emits sorted order, and
        # detector insertion order rides on this dict's iteration order).
        profile.loop_trips = {k: tuple(self._trips[k]) for k in sorted(self._trips)}
        profile.unique_array_addresses = len(self._array_addrs)
        if profile.pet is not None:
            profile.pet.compute_inclusive()
