"""A plain per-access dependence fold: the oracle for the profiler's memos.

:class:`ReferenceFold` consumes the same event batches as
:class:`~repro.profiling.profiler.Profiler` but derives every dependence
from scratch: it rebuilds the context-stack snapshots on every access, scans
the two stacks for their divergence point, and walks every loop level's
first-touch set.  It has no derivation memos and no first-touch skipping,
so equality with the profiler's tables checks that those shortcuts change
only the work, never the result.  It folds only what the memos, the
first-touch skips and the shadow records touch: dependences, multi-loop
pairs, the per-loop access tables, and the array-element access count and
distinct element addresses.
"""

from __future__ import annotations

from repro.profiling.model import RAW, WAR, WAW, DepKey
from repro.runtime.events import (
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


class ReferenceFold(Sink):
    def __init__(self) -> None:
        self.ids: list[int] = []
        self.statics: list[int] = []
        self.iters: list[int] = []
        self.sites: list[int] = []
        self.seen: list[set[int] | None] = []  # None at function levels
        self.act_info: dict[int, tuple[int, str]] = {}
        self.last_write: dict[int, tuple] = {}
        self.last_read: dict[int, tuple] = {}
        self.pair_seen: set[tuple[int, int, int]] = set()
        self.deps: dict[DepKey, int] = {}
        self.pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.read_first: set[tuple[int, str]] = set()
        self.loop_accessed: set[tuple[int, str]] = set()
        self.loop_var_reads: dict[tuple[int, str], set[int]] = {}
        self.loop_var_writes: dict[tuple[int, str], set[int]] = {}
        self.array_accesses = 0
        self.array_addrs: set[int] = set()

    def set_site_table(self, table) -> None:
        self.table = table

    def mismatches(self, profile) -> list[str]:
        """The fields in which *profile* differs from this fold, in a fixed
        order; pair lists must also agree in order, and their keys in
        insertion order."""
        fields = {
            "deps": (profile.deps, self.deps),
            "pairs": (list(profile.pairs.items()), list(self.pairs.items())),
            "read_first": (profile.read_first, self.read_first),
            "loop_accessed": (profile.loop_accessed, self.loop_accessed),
            "loop_var_reads": (profile.loop_var_reads, self.loop_var_reads),
            "loop_var_writes": (profile.loop_var_writes, self.loop_var_writes),
            "array_accesses": (profile.array_accesses, self.array_accesses),
            "unique_array_addresses": (profile.unique_array_addresses, len(self.array_addrs)),
        }
        return [name for name, (observed, expected) in fields.items() if observed != expected]

    def consume_batch(self, events) -> None:
        for ev in events:
            tag = ev[0]
            if tag in (EV_ENTER_FUNC, EV_ENTER_LOOP):
                kind = "function" if tag == EV_ENTER_FUNC else "loop"
                self.act_info[ev[2]] = (ev[1], kind)
                self.ids.append(ev[2])
                self.statics.append(ev[1])
                self.iters.append(-1)
                self.sites.append(ev[3])
                self.seen.append(set() if kind == "loop" else None)
            elif tag in (EV_EXIT_FUNC, EV_EXIT_LOOP):
                for stack in (self.ids, self.statics, self.iters, self.sites, self.seen):
                    stack.pop()
            elif tag == EV_ITER:
                self.iters[-1] = ev[2]
                self.seen[-1] = set()
            elif tag == EV_STMT and self.sites:
                self.sites[-1] = ev[1]
            elif tag in (EV_READ, EV_WRITE):
                self._access(ev[1], ev[2], tag == EV_READ)

    def _access(self, addr: int, sid: int, is_read: bool) -> None:
        if self.table.elements[sid]:
            self.array_accesses += 1
            self.array_addrs.add(addr)
        here = (tuple(self.ids), tuple(self.iters), tuple(self.sites))
        if is_read:
            self._dep(RAW, self.last_write.get(addr), here, sid, addr)
            self.last_read[addr] = (here, sid)
        else:
            self._dep(WAW, self.last_write.get(addr), here, sid, addr)
            self._dep(WAR, self.last_read.get(addr), here, sid, addr)
            self.last_write[addr] = (here, sid)
        var = self.table.vars[sid]
        lines = self.loop_var_reads if is_read else self.loop_var_writes
        loops = [i for i, seen in enumerate(self.seen) if seen is not None]
        for i in loops:
            self.loop_accessed.add((self.statics[i], var))
            lines.setdefault((self.statics[i], var), set()).add(self.table.lines[sid])
        for i in reversed(loops):
            if addr in self.seen[i]:
                break
            self.seen[i].add(addr)
            if is_read:
                self.read_first.add((self.statics[i], var))

    def _dep(self, kind: str, prev, here: tuple, sid: int, addr: int) -> None:
        if prev is None:
            return
        (p_ids, p_iters, p_sites), psid = prev
        ids, iters, sites = here
        d = 0
        while d < min(len(p_ids), len(ids)) and p_ids[d] == ids[d]:
            d += 1
        if d == 0:
            return  # no common activation, no dependence
        m = d - 1
        region, region_kind = self.act_info[ids[m]]
        carried = (
            region_kind == "loop"
            and p_iters[m] != iters[m]
            and p_iters[m] != -1
            and iters[m] != -1
        )
        lines = self.table.lines
        key = DepKey(
            kind, self.table.vars[psid], region, region if carried else None,
            lines[psid], lines[sid], p_sites[m], sites[m],
        )
        self.deps[key] = self.deps.get(key, 0) + 1
        if kind != RAW or d == len(p_ids) or d == len(ids):
            return
        w_static, w_kind = self.act_info[p_ids[d]]
        r_static, r_kind = self.act_info[ids[d]]
        if w_kind == r_kind == "loop" and w_static != r_static:
            ix, iy = p_iters[d], iters[d]
            if ix != -1 and iy != -1 and (ids[d], w_static, addr) not in self.pair_seen:
                self.pair_seen.add((ids[d], w_static, addr))
                self.pairs.setdefault((w_static, r_static), []).append((ix, iy))
