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
* **Shadow memory** — one record per address: the context and site of its
  last write and of its last read.  Each access is compared against the
  record to emit RAW/WAR/WAW dependences, attributed to the deepest common
  activation and classified as carried or independent there.
* **Privatization** — a ``(loop, var)`` that is ever read before written in
  an iteration is marked ``read_first`` (not privatizable).  The shadow
  record answers it: a read is its iteration's first touch at a loop level
  unless the address's last write or last read happened in that level's
  current iteration.
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

The context stack lives in one immutable snapshot, four tuples (activation
ids, iterations, site lines, static regions), which shadow records share
rather than copy.  An iteration or statement event rebuilds the snapshot; a
region entry extends it and saves the parent's, and the exit restores that
saved snapshot, so an access recorded before an inner loop still holds the
very snapshot that is current after it.  A shadow record is a four-slot
list ``[write ctx, write sid, read ctx, read sid]`` updated in place: one
dict lookup per access and no tuple per access.

Derivation memos
----------------
Deriving a dependence from a shadow record means scanning two context
stacks for their divergence point, classifying the carrier, and building an
aggregation key — per access.  But inside a loop the stream is massively
repetitive: consecutive accesses at one site hit shadow records written by
the *same* site with the two stacks diverging at the *same* level.  Every
exact derivation therefore leaves a **derivation memo**, keyed by the
dependence kind and the (current sid, shadow sid) pair: the divergence
level, the static region and the site lines expected there, the pre-built
aggregation keys for the carried and independent variants, the running
counts, and the multi-loop pair recipe.  RAW, WAR and WAW share one
memo-hit path and one derivation function.  While a memo holds, recording a
dependence is a carried/independent check and a counter bump; otherwise the
exact derivation revalidates or replaces the memo.  Memo counts are folded
into the aggregated dependence table when a memo is replaced and at
:meth:`finish`, so the result is **exactly** the per-access table, event
for event (``tests/test_profiler_reference.py`` checks it against a plain
per-access fold); only the work is collapsed.  :attr:`Profiler.derivations`
counts the exact derivations.  Memos come in two families:

* **Same-stack memos** cover dependences whose endpoints share the whole
  activation stack (the record's snapshot *is* the current one) — the
  dominant case: in-loop affine accesses and recursion-local cells.
  Divergence is at the innermost level, no pair can arise, and the site
  lines there are all a memo checks.
* **Cross-stack memos** are checked by their level *m*, not by snapshot:
  a memo holds while both stacks are deeper than *m*, share the activation
  at *m* (activation ids are unique, so they share every level above it)
  and differ at *m + 1* or one ends there, the static region and both site
  lines at *m* are the memo's, and, for RAW, the static regions at *m + 1*
  are the ones its pair recipe was built from.  The pair's reader
  activation is read from the live stack at each hit.  So a memo outlives
  the activations it was derived under: the next inner loop, call or
  outer iteration keeps it.

First touch
-----------
The per-loop access tables (``loop_accessed``, ``loop_var_reads``,
``loop_var_writes``) depend only on the live loop regions and the site, so
they update once per site per tuple of live loop regions; that tuple keys
the first-touch cache, which survives loop exits and re-entries.  The same
entry lists, for a read site, the loop levels whose ``read_first`` mark
its variable still lacks; the privatization walk visits only those, and a
site whose variable is marked at every live level does no walk at all.  A
write does no privatization work: its record is what later reads check.
"""

from __future__ import annotations

from typing import Sequence

from repro.profiling.model import RAW, WAR, WAW, CallNode, DepKey, PETNode, Profile, sorted_deps
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
#   6  the level: the deepest common activation's index, -1 (innermost)
#      in same-stack memos
#   7  the static region at the level
#   8  multi-loop pair key (writer loop, reader loop) or None
#   9  in cross-stack RAW memos, the static regions one level deeper that
#      the recipe was built from (writer's, reader's; None where a stack
#      ends there); None otherwise


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
        # the context snapshot: (activation ids, iterations, site lines,
        # static regions), one tuple each, innermost level last; shadow
        # records share it, and _exit restores the parent's
        self._ctx: tuple = ((), (), (), ())
        # stack indices of the loop levels, innermost first
        self._loops: tuple[int, ...] = ()
        # the live loop regions, outermost first: the first-touch key
        self._loop_key: tuple[int, ...] = ()
        # per-sid first-touch state under the live loop regions: the loop
        # levels a read at the sid may still mark read-first, as (position
        # in _loops, read-first key) pairs, innermost first (empty for a
        # write).  A missing sid is a first touch.
        self._ft_todo: dict[int, tuple] = {}
        self._ft_cache: dict[tuple[int, ...], dict[int, tuple]] = {(): self._ft_todo}
        # the parents' (ctx, loops, loop_key, ft_todo), restored on exit
        self._saved: list[tuple] = []
        # static region -> "function" | "loop"
        self._region_kinds: dict[int, str] = {}
        # shadow memory: addr -> [write ctx, write sid, read ctx, read sid]
        # (None / -1 until the first such access), updated in place
        self._shadow: dict[int, list] = {}
        # pair first-read bookkeeping: (reader_act, writer_loop, addr)
        self._pair_seen: set[tuple[int, int, int]] = set()
        # aggregated dependences under compact (kind, psid, sid, region,
        # carrier, src_site, dst_site) keys; materialized into DepKey
        # records once at finish()
        self._deps_raw: dict[tuple, int] = {}
        # derivation memos: cross-stack RAW/WAW/WAR, then same-stack
        # RAW/WAW/WAR
        self._memos: tuple[dict[int, list], ...] = ({}, {}, {}, {}, {}, {})
        #: exact derivations made (memo misses); a fold that stops hitting
        #: its memos shows here before it shows in wall clock
        self.derivations = 0
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
        # an empty table until an engine announces the program's own
        self.set_site_table(SiteTable())

    def set_site_table(self, table: SiteTable) -> None:
        self._s_lines = table.lines
        self._s_vars = table.vars
        self._s_elems = table.elements

    # ------------------------------------------------------------------
    # region transitions
    # ------------------------------------------------------------------

    def _enter(self, region: int, act: int, kind: str, line: int) -> None:
        ctx = self._ctx
        ids, iters, sites, statics = ctx
        parent_site = sites[-1] if sites else line
        self._saved.append((ctx, self._loops, self._loop_key, self._ft_todo))
        self._ctx = (ids + (act,), iters + (_NO_ITER,), sites + (line,), statics + (region,))
        self._region_kinds[region] = kind
        if kind == "loop":
            self._loops = (len(ids),) + self._loops
            self._loop_key = key = self._loop_key + (region,)
            self._ft_todo = self._ft_cache.setdefault(key, {})
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
        static = self._ctx[3][-1]
        kind = self._region_kinds[static]
        self._ctx, self._loops, self._loop_key, self._ft_todo = self._saved.pop()
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
            _, _, sites, statics = self._ctx
            key = (statics[-1], sites[-1])
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
        shadow = self._shadow
        pair_seen = self._pair_seen
        pairs = profile.pairs
        loop_accessed = profile.loop_accessed
        loop_var_reads = profile.loop_var_reads
        loop_var_writes = profile.loop_var_writes
        read_first = profile.read_first
        line_costs = profile.line_costs
        site_costs = profile.site_costs
        act_costs = self._act_costs
        pet_stack = self._pet_stack
        ct_stack = self._ct_stack
        iter_marks = self._iter_marks
        region_kinds = self._region_kinds
        s_lines = self._s_lines
        s_vars = self._s_vars
        s_elems = self._s_elems
        deps = self._deps_raw
        x_raw, x_waw, x_war, s_raw, s_waw, s_war = self._memos
        # the dependence checks an access makes, in order: (index of the
        # shadow record's context, kind, same-stack memos, cross-stack
        # memos); a read checks the last write, a write the last write
        # and then the last read
        read_checks = ((0, RAW, s_raw, x_raw),)
        write_checks = ((0, WAW, s_waw, x_waw), (2, WAR, s_war, x_war))
        # per-activation state that only changes on region transitions,
        # plus plain-integer accumulators written back once per batch
        ctx = self._ctx
        ids_t, iters_t, sites_t, statics_t = ctx
        n_ids = len(ids_t)
        # ids_t when a shadow record made under it shares the whole stack
        # (the empty stack shares nothing)
        same_ids = ids_t or None
        loops = self._loops
        ft_todo = self._ft_todo
        cur_static = statics_t[-1] if statics_t else -1
        pet_top = pet_stack[-1] if pet_stack else None
        ct_top = ct_stack[-1] if ct_stack else None
        total_cost = profile.total_cost
        arr_n = profile.array_accesses
        arr_addrs = profile.unique_array_addresses
        derivations = self.derivations
        keym = _KEYM

        def derive(
            kind: str, p_ctx: tuple, psid: int, sid: int, same: dict, cross: dict, key: int
        ) -> list | None:
            # Exact derivation for one access, counted into the memo it
            # revalidates or installs; returns that memo, or None when the
            # two stacks share no activation (no dependence).  A closure, so
            # the recursion-heavy programs that miss often pay no attribute
            # traffic for it.
            nonlocal derivations
            derivations += 1
            p_ids = p_ctx[0]
            pair = statics = None
            if p_ids is same_ids:
                memos = same
                m = -1
            else:
                memos = cross
                n_p = len(p_ids)
                limit = min(n_p, n_ids)
                d = 0
                while d < limit and p_ids[d] == ids_t[d]:
                    d += 1
                if d == 0:
                    return None
                m = d - 1
                if kind == RAW:
                    w_static = p_ctx[3][d] if d < n_p else None
                    r_static = statics_t[d] if d < n_ids else None
                    statics = (w_static, r_static)
                    if w_static != r_static and (
                        region_kinds.get(w_static) == region_kinds.get(r_static) == "loop"
                    ):
                        pair = statics
            region = statics_t[m]
            psm = p_ctx[2][m]
            csm = sites_t[m]
            # function levels never iterate (their iteration stays -1), so
            # only a loop level can carry
            pim = p_ctx[1][m]
            cim = iters_t[m]
            carried = pim != cim and pim != -1 and cim != -1
            old = memos.get(key)
            if old is not None and old[4] == psm and old[5] == csm and old[7] == region:
                # Same derived dependence at another level or beside other
                # regions (recursion moved the level, or another loop
                # holds the pair): refresh the level and pair recipe, keep
                # the keys and counts.
                memo = old
                memo[6] = m
                memo[8] = pair
                memo[9] = statics
            else:
                if old is not None:
                    _flush(deps, old)
                memo = [
                    (kind, psid, sid, region, None, psm, csm),
                    (kind, psid, sid, region, region, psm, csm)
                    if region_kinds[region] == "loop"
                    else None,
                    0, 0, psm, csm, m, region, pair, statics,
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
                rec = shadow.get(addr)
                if s_elems[sid]:
                    arr_n += 1
                    if rec is None:
                        # element addresses never alias scalar cells, so
                        # an element site makes each one's record
                        arr_addrs += 1
                if rec is None:
                    w_ctx = r_ctx = None
                    shadow[addr] = [None, -1, ctx, sid] if is_read else [ctx, sid, None, -1]
                else:
                    for j, kind, same, cross in read_checks if is_read else write_checks:
                        p_ctx = rec[j]
                        if p_ctx is None:
                            continue
                        psid = rec[j + 1]
                        p_ids = p_ctx[0]
                        key = sid * keym + psid
                        if p_ids is same_ids:
                            m = -1
                            memo = same.get(key)
                            if memo is not None and (
                                p_ctx[2][-1] != memo[4] or sites_t[-1] != memo[5]
                            ):
                                memo = None
                        else:
                            memo = cross.get(key)
                            if memo is not None:
                                # the memo's level m must still be where the
                                # stacks diverge, under the same region, site
                                # lines and (RAW) pair statics
                                m = memo[6]
                                d = m + 1
                                n_p = len(p_ids)
                                if not (
                                    d <= n_p
                                    and d <= n_ids
                                    and p_ids[m] == ids_t[m]
                                    and (d == n_p or d == n_ids or p_ids[d] != ids_t[d])
                                    and statics_t[m] == memo[7]
                                    and p_ctx[2][m] == memo[4]
                                    and sites_t[m] == memo[5]
                                    and (
                                        memo[9] is None
                                        or memo[9] == (
                                            p_ctx[3][d] if d < n_p else None,
                                            statics_t[d] if d < n_ids else None,
                                        )
                                    )
                                ):
                                    memo = None
                        if memo is None:
                            memo = derive(kind, p_ctx, psid, sid, same, cross, key)
                            if memo is None:
                                continue  # the stacks share no activation
                            m = memo[6]
                        else:
                            pim = p_ctx[1][m]
                            cim = iters_t[m]
                            if pim != cim and pim != -1 and cim != -1:
                                memo[3] += 1
                            else:
                                memo[2] += 1
                        if memo[8] is not None:
                            # a RAW between sibling loops: the first read of each
                            # address per reader activation yields an (i_x, i_y)
                            pair_key = memo[8]
                            d = m + 1
                            ix = p_ctx[1][d]
                            iy = iters_t[d]
                            if ix != -1 and iy != -1:
                                skey = (ids_t[d], pair_key[0], addr)
                                if skey not in pair_seen:
                                    pair_seen.add(skey)
                                    lst = pairs.get(pair_key)
                                    if lst is None:
                                        pairs[pair_key] = [(ix, iy)]
                                    else:
                                        lst.append((ix, iy))
                    if is_read:
                        w_ctx = rec[0]
                        r_ctx = rec[2]
                        rec[2] = ctx
                        rec[3] = sid
                    else:
                        rec[0] = ctx
                        rec[1] = sid
                todo = ft_todo.get(sid)
                if todo is None:
                    # first touch of this sid under the live loop regions:
                    # update the loop access tables, then list the levels
                    # (position in loops, read-first key) a read may mark
                    var = s_vars[sid]
                    line = s_lines[sid]
                    table = loop_var_reads if is_read else loop_var_writes
                    todo = []
                    for p, i in enumerate(loops):
                        k = (statics_t[i], var)
                        loop_accessed.add(k)
                        table.setdefault(k, set()).add(line)
                        if is_read and k not in read_first:
                            todo.append((p, k))
                    ft_todo[sid] = todo = tuple(todo)
                if todo:
                    # Mark the variable read-first at each unmarked loop
                    # level, innermost out, until a level whose current
                    # (activation, iteration) the address's last write or
                    # last read shares: that access was this iteration's
                    # first touch.  Activation ids are unique, so sharing a
                    # level shares every enclosing one, and the marked
                    # levels in between need no check.
                    n = 0
                    for p, k in todo:
                        i = loops[p]
                        act = ids_t[i]
                        it = iters_t[i]
                        if w_ctx is not None:
                            w_ids = w_ctx[0]
                            if i < len(w_ids) and w_ids[i] == act and w_ctx[1][i] == it:
                                break
                        if r_ctx is not None:
                            r_ids = r_ctx[0]
                            if i < len(r_ids) and r_ids[i] == act and r_ctx[1][i] == it:
                                break
                        read_first.add(k)
                        n += 1
                    if n:
                        ft_todo[sid] = todo[n:]
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
                if sites_t and sites_t[-1] != line:
                    sites_t = sites_t[:-1] + (line,)
                    ctx = (ids_t, iters_t, sites_t, statics_t)
            elif tag == EV_ITER:
                index = ev[2]
                iters_t = iters_t[:-1] + (index,)
                ctx = (ids_t, iters_t, sites_t, statics_t)
                if ct_top is not None and index > 0:
                    acc = act_costs[-1]
                    ct_top.per_iter_cost.append(acc - iter_marks[-1])
                    iter_marks[-1] = acc
            else:
                # the transitions read the current snapshot from self
                self._ctx = ctx
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
                ctx = self._ctx
                ids_t, iters_t, sites_t, statics_t = ctx
                n_ids = len(ids_t)
                same_ids = ids_t or None
                loops = self._loops
                ft_todo = self._ft_todo
                cur_static = statics_t[-1] if statics_t else -1
                pet_top = pet_stack[-1] if pet_stack else None
                ct_top = ct_stack[-1] if ct_stack else None
        self._ctx = ctx
        self.derivations = derivations
        profile.total_cost = total_cost
        profile.array_accesses = arr_n
        profile.unique_array_addresses = arr_addrs

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
            profile.deps = sorted_deps(deps)
        # Sorted like the serializer's output, so live profiles iterate
        # identically to cache-round-tripped ones (detector insertion order
        # rides on these dicts' iteration order).
        profile.loop_trips = {k: tuple(self._trips[k]) for k in sorted(self._trips)}
        if profile.pet is not None:
            profile.pet.compute_inclusive()
