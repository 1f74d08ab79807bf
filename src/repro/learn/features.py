"""Deterministic feature extraction for the learned detection baseline.

One program yields one fixed-order feature vector (:data:`FEATURE_NAMES`)
computed from the same profile evidence the rule-based detectors consume:
dependence densities per carrier depth, loop trip statistics, PET shape,
hotspot fractions, and CU-graph degree statistics.  The per-dimension
classifiers in :mod:`repro.learn.model` all share this one vector.

Two properties are load-bearing and test-enforced:

**Byte determinism.**  The same program and profile produce the same
vector on every run and under both profiling engines (profiles are
byte-identical across engines already).  Nothing here consults wall
clocks, hash randomization, or container iteration order that names could
perturb: every float fold runs over a sequence sorted by static region id.

**Metamorphic invariance.**  The corpus transforms
(:mod:`repro.corpus.transforms`) must not move the vector at all:

* *rename* is alpha-conversion — no feature mentions an identifier, and
  aggregations never order by name;
* *dead-statement insertion* adds write-only locals whose cost, carried
  WAW dependences, and standalone CUs would all leak into naive features.
  Extraction therefore works on the **live** view: a variable read
  nowhere in the program is dead, its dependences and loop accesses are
  dropped, the cost charged to its statements' lines is subtracted from
  every enclosing region before shares are taken, and its write-only CUs
  are excluded from graph statistics.  Line numbers (which insertion
  shifts) never appear in a feature; region ids (which it cannot shift —
  only functions and loops open regions) may.

``FEATURES_VERSION`` stamps every emitted vector; bump it whenever
:data:`FEATURE_NAMES` or any feature's definition changes, so a stored
model artifact can refuse vectors it was not trained on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.lang.analysis import (
    array_names,
    enclosing_loops,
    loop_induction_vars,
    non_escaping_names,
    stmt_reads,
)
from repro.lang.ast_nodes import (
    Assign,
    Call,
    For,
    If,
    Program,
    Stmt,
    VarDecl,
    VarLV,
    While,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.profiling.hotspots import DEFAULT_THRESHOLD
from repro.profiling.model import RAW, WAR, WAW, Profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.suite import CorpusEntry

#: Version of the feature definitions below.  Part of every feature
#: document and every model artifact; a mismatch is a hard error.
FEATURES_VERSION = 1

#: Fixed feature order — the contract between extraction and the model
#: artifacts.  Appending is a version bump; reordering is forbidden.
FEATURE_NAMES = (
    # static shape
    "shape_functions",
    "shape_loops",
    "shape_max_loop_depth",
    "shape_loops_with_calls_frac",
    "shape_calls_per_function",
    # PET shape
    "pet_nodes",
    "pet_depth",
    "pet_recursive",
    "pet_loop_node_frac",
    # loop trip statistics
    "trip_mean_avg",
    "trip_max",
    "trip_invocations_mean",
    # live dependence densities
    "dep_carried_raw_per_trip",
    "dep_carried_war_per_trip",
    "dep_carried_waw_per_trip",
    "dep_independent_raw_per_trip",
    "dep_carried_depth1_frac",
    "dep_carried_deep_frac",
    "dep_private_waw_frac",
    # per-loop structure (live view)
    "loop_clean_frac",
    "loop_carried_raw_frac",
    "loop_scalar_accum_frac",
    "loop_escaping_accum_frac",
    "loop_array_recurrence_frac",
    # cross-loop iteration pairs
    "pair_links_per_loop",
    "pair_points_mean",
    "pair_affine_max_r2",
    "pair_backward_frac",
    "pair_negative_skew_frac",
    # hotspot fractions (live cost shares)
    "hot_region_frac",
    "hot_loop_share_max",
    "hot_loop_frac",
    # CU-graph degree statistics (live, data-only)
    "cu_count_mean",
    "cu_edge_density_mean",
    "cu_sources_max",
    "cu_out_degree_max",
    # memory behaviour
    "mem_streaming_fraction",
    "mem_array_access_frac",
)


# ---------------------------------------------------------------------------
# liveness view
# ---------------------------------------------------------------------------


def _read_names(program: Program) -> set[str]:
    """Every variable name read anywhere in *program* (arrays by base name).

    A name absent from this set is *dead*: writes to it can never be
    observed, which is exactly the property the dead-statement transform
    relies on.  Compound assignments read their own target; call arguments
    count as reads of every name they mention.
    """
    reads: set[str] = set()
    for func in program.functions:
        for stmt in walk_stmts(func.body):
            reads |= stmt_reads(stmt, recursive=False)
    return reads


def _dead_lines(program: Program, read_names: set[str]) -> set[int]:
    """Source lines of statements whose only effect is a dead write.

    A statement is dead when it declares or plainly assigns a variable
    never read anywhere, and its right-hand side performs no call (a call
    could have effects regardless of the discarded result).
    """
    dead: set[int] = set()
    for func in program.functions:
        for stmt in walk_stmts(func.body):
            target: str | None = None
            if isinstance(stmt, VarDecl) and not stmt.dims:
                target = stmt.name
            elif isinstance(stmt, Assign) and isinstance(stmt.target, VarLV):
                target = stmt.target.name
            if target is None or target in read_names:
                continue
            has_call = any(
                isinstance(node, Call)
                for expr in stmt_exprs(stmt)
                for node in walk_exprs(expr)
            )
            if not has_call:
                dead.add(stmt.line)
    return dead


def _dead_cost_per_region(
    program: Program, profile: Profile, dead_lines: set[int]
) -> tuple[int, dict[int, int]]:
    """Instruction cost charged at dead lines, total and per enclosing region.

    The profiler charges a statement's instructions to its line and folds
    them into the inclusive cost of every enclosing region, so subtracting
    the line cost once per enclosing region recovers the exact cost the
    untransformed program would have reported.  "Enclosing" is dynamic: a
    dead statement in a callee is also inside every region that encloses
    *all* of the callee's call sites (computed as an intersection over the
    static call graph; recursion degrades conservatively to no outer
    attribution).
    """
    if not dead_lines:
        return 0, {}
    line_costs = profile.line_costs
    total = sum(line_costs.get(line, 0) for line in dead_lines)
    per_region: dict[int, int] = {}
    direct_total: dict[str, int] = {}
    user_funcs = {fn.name for fn in program.functions}
    #: callee name -> list of (caller name, region stack at the call site)
    call_sites: dict[str, list[tuple[str, tuple[int, ...]]]] = {}

    def walk(func_name: str, body: list[Stmt], stack: list[int]) -> None:
        for stmt in body:
            if stmt.line in dead_lines:
                cost = line_costs.get(stmt.line, 0)
                if cost:
                    direct_total[func_name] = (
                        direct_total.get(func_name, 0) + cost
                    )
                    for region in stack:
                        per_region[region] = per_region.get(region, 0) + cost
            for expr in stmt_exprs(stmt):
                for node in walk_exprs(expr):
                    if isinstance(node, Call) and node.name in user_funcs:
                        call_sites.setdefault(node.name, []).append(
                            (func_name, tuple(stack))
                        )
            if isinstance(stmt, (For, While)):
                stack.append(stmt.region_id)
                walk(func_name, stmt.body, stack)
                stack.pop()
            elif isinstance(stmt, If):
                walk(func_name, stmt.then_body, stack)
                walk(func_name, stmt.else_body, stack)

    for func in program.functions:
        walk(func.name, func.body, [func.region_id])

    # Regions guaranteed to contain every activation of a function: the
    # intersection over its call sites of (site stack + the caller's own
    # containing regions).
    containing: dict[str, set[int]] = {}
    visiting: set[str] = set()

    def containing_regions(name: str) -> set[int]:
        if name in containing:
            return containing[name]
        if name in visiting:  # recursion: no sound outer attribution
            return set()
        visiting.add(name)
        sites = call_sites.get(name)
        if not sites:
            result: set[int] = set()
        else:
            result = None  # type: ignore[assignment]
            for caller, stack in sites:
                regions = set(stack) | containing_regions(caller)
                result = regions if result is None else result & regions
            result = result or set()
        visiting.discard(name)
        containing[name] = result
        return result

    for name, cost in direct_total.items():
        for region in containing_regions(name):
            per_region[region] = per_region.get(region, 0) + cost
    return total, per_region


# ---------------------------------------------------------------------------
# small deterministic folds
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fit_r2_b(pairs: list[tuple[int, int]]) -> tuple[float, float]:
    """(r², intercept) of the least-squares line over integer pairs.

    Pure integer accumulation until the final divisions, folded over the
    sorted pair list — deterministic regardless of profiling order.
    """
    pts = sorted(pairs)
    n = len(pts)
    if n < 2:
        return 0.0, float(pts[0][1]) if pts else 0.0
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    syy = sum(p[1] * p[1] for p in pts)
    den = n * sxx - sx * sx
    if den == 0:
        return 0.0, sy / n
    a = (n * sxy - sx * sy) / den
    b = (sy - a * sx) / n
    ss_tot = syy - sy * sy / n
    if ss_tot <= 0.0:
        return 1.0, b
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in pts)
    return max(0.0, 1.0 - ss_res / ss_tot), b


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extract_features(program: Program, profile: Profile) -> dict[str, float]:
    """The feature vector of one profiled program, as an ordered dict.

    Keys are exactly :data:`FEATURE_NAMES` in order; every value is a
    finite float.
    """
    read_names = _read_names(program)
    dead_lines = _dead_lines(program, read_names)
    dead_total, dead_by_region = _dead_cost_per_region(
        program, profile, dead_lines
    )
    live_total = max(profile.total_cost - dead_total, 0)

    def live_region_cost(region: int) -> int:
        return profile.region_cost(region) - dead_by_region.get(region, 0)

    f: dict[str, float] = {}

    # -- static shape ------------------------------------------------------
    n_functions = len(program.functions)
    loop_regions = sorted(
        r.region_id for r in program.regions.values() if r.kind == "loop"
    )
    n_loops = len(loop_regions)
    user_funcs = {fn.name for fn in program.functions}
    calls_total = 0
    loops_with_calls = 0
    max_depth = 0
    for loop in loop_regions:
        max_depth = max(max_depth, 1 + len(enclosing_loops(program, loop)))
        node = program.regions[loop].node
        body = node.body if node is not None else []
        has_call = False
        for stmt in walk_stmts(body):
            for expr in stmt_exprs(stmt):
                for sub in walk_exprs(expr):
                    if isinstance(sub, Call) and sub.name in user_funcs:
                        has_call = True
        if has_call:
            loops_with_calls += 1
    for func in program.functions:
        for stmt in walk_stmts(func.body):
            for expr in stmt_exprs(stmt):
                for sub in walk_exprs(expr):
                    if isinstance(sub, Call) and sub.name in user_funcs:
                        calls_total += 1
    f["shape_functions"] = float(n_functions)
    f["shape_loops"] = float(n_loops)
    f["shape_max_loop_depth"] = float(max_depth)
    f["shape_loops_with_calls_frac"] = _ratio(loops_with_calls, n_loops)
    f["shape_calls_per_function"] = _ratio(calls_total, n_functions)

    # -- PET shape ---------------------------------------------------------
    pet_nodes = 0
    pet_depth = 0
    pet_recursive = 0.0
    pet_loop_nodes = 0
    if profile.pet is not None:
        pet_depth = profile.pet.max_depth()
        for node in profile.pet.walk():
            pet_nodes += 1
            if node.kind == "loop":
                pet_loop_nodes += 1
            if node.recursive:
                pet_recursive = 1.0
    f["pet_nodes"] = float(pet_nodes)
    f["pet_depth"] = float(pet_depth)
    f["pet_recursive"] = pet_recursive
    f["pet_loop_node_frac"] = _ratio(pet_loop_nodes, pet_nodes)

    # -- loop trips --------------------------------------------------------
    executed_loops = sorted(profile.loop_trips)
    trips_total = 0
    avg_sum = 0.0
    max_trip = 0
    inv_total = 0
    for loop in executed_loops:
        inv, total, peak = profile.loop_trips[loop]
        trips_total += total
        inv_total += inv
        max_trip = max(max_trip, peak)
        avg_sum += _ratio(total, inv)
    n_exec = len(executed_loops)
    f["trip_mean_avg"] = _ratio(avg_sum, n_exec)
    f["trip_max"] = float(max_trip)
    f["trip_invocations_mean"] = _ratio(inv_total, n_exec)

    # -- live dependence densities ----------------------------------------
    induction_by_loop = {
        loop: loop_induction_vars(program, loop) for loop in executed_loops
    }
    carried_counts = {RAW: 0, WAR: 0, WAW: 0}
    independent_raw = 0
    depth1 = 0
    deep = 0
    private_waw = 0
    nonprivate_waw = 0
    carried_raw_loops: set[int] = set()
    scalar_accum_loops: set[int] = set()
    escaping_accum_loops: set[int] = set()
    array_recurrence_loops: set[int] = set()
    arrays = array_names(program)

    # Privatizable per classify_loop: written-before-read, non-escaping.
    privatizable_by_loop: dict[int, set[str]] = {}
    for loop in executed_loops:
        local = non_escaping_names(program, loop)
        privatizable_by_loop[loop] = {
            var
            for (lp, var) in profile.loop_accessed
            if lp == loop
            and var in read_names
            and (lp, var) not in profile.read_first
            and var in local
        }

    # Same-iteration read lines per (loop, var) for the escaping-accumulator
    # signal: a scalar consumed at a line other than its accumulating write
    # is a prefix sum, not a reduction.
    independent_read_lines: dict[tuple[int, str], set[int]] = {}
    for dep in profile.live_deps(read_names):
        if dep.carrier is None:
            if dep.kind == RAW:
                if dep.region in induction_by_loop:
                    independent_read_lines.setdefault(
                        (dep.region, dep.var), set()
                    ).add(dep.dst_line)
                independent_raw += 1
            continue
        loop = dep.carrier
        induction = induction_by_loop.get(loop, set())
        if dep.var in induction:
            continue
        carried_counts[dep.kind] = carried_counts.get(dep.kind, 0) + 1
        if not enclosing_loops(program, loop):
            depth1 += 1
        else:
            deep += 1
        if dep.kind == WAW or dep.kind == WAR:
            if dep.var in privatizable_by_loop.get(loop, set()):
                private_waw += 1
            else:
                nonprivate_waw += 1
        if dep.kind == RAW:
            carried_raw_loops.add(loop)
            if dep.var in arrays:
                array_recurrence_loops.add(loop)
    # Scalar accumulators: carried RAW + carried WAW on the same scalar.
    raw_vars: dict[int, set[str]] = {}
    waw_vars: dict[int, set[str]] = {}
    raw_write_lines: dict[tuple[int, str], set[int]] = {}
    for dep in profile.live_deps(read_names):
        if dep.carrier is None:
            continue
        if dep.var in induction_by_loop.get(dep.carrier, set()):
            continue
        if dep.var in arrays:
            continue
        if dep.kind == RAW:
            raw_vars.setdefault(dep.carrier, set()).add(dep.var)
            raw_write_lines.setdefault((dep.carrier, dep.var), set()).add(
                dep.src_line
            )
        elif dep.kind == WAW:
            waw_vars.setdefault(dep.carrier, set()).add(dep.var)
    for loop in executed_loops:
        accums = raw_vars.get(loop, set()) & waw_vars.get(loop, set())
        if not accums:
            continue
        scalar_accum_loops.add(loop)
        for var in accums:
            write_lines = raw_write_lines.get((loop, var), set())
            reads_elsewhere = independent_read_lines.get((loop, var), set())
            if reads_elsewhere - write_lines:
                escaping_accum_loops.add(loop)
                break

    trips_norm = max(trips_total, 1)
    carried_total = sum(carried_counts.values())
    f["dep_carried_raw_per_trip"] = carried_counts[RAW] / trips_norm
    f["dep_carried_war_per_trip"] = carried_counts[WAR] / trips_norm
    f["dep_carried_waw_per_trip"] = carried_counts[WAW] / trips_norm
    f["dep_independent_raw_per_trip"] = independent_raw / trips_norm
    f["dep_carried_depth1_frac"] = _ratio(depth1, carried_total)
    f["dep_carried_deep_frac"] = _ratio(deep, carried_total)
    f["dep_private_waw_frac"] = _ratio(private_waw, private_waw + nonprivate_waw)

    clean_loops = 0
    for loop in executed_loops:
        induction = induction_by_loop[loop]
        has_carried = any(
            dep.carrier == loop
            and dep.var not in induction
            and not (
                dep.kind in (WAR, WAW)
                and dep.var in privatizable_by_loop.get(loop, set())
            )
            for dep in profile.live_deps(read_names)
        )
        if not has_carried:
            clean_loops += 1
    f["loop_clean_frac"] = _ratio(clean_loops, n_exec)
    f["loop_carried_raw_frac"] = _ratio(len(carried_raw_loops), n_exec)
    f["loop_scalar_accum_frac"] = _ratio(len(scalar_accum_loops), n_exec)
    f["loop_escaping_accum_frac"] = _ratio(len(escaping_accum_loops), n_exec)
    f["loop_array_recurrence_frac"] = _ratio(
        len(array_recurrence_loops), n_exec
    )

    # -- cross-loop iteration pairs ---------------------------------------
    pair_keys = sorted(profile.pairs)
    n_links = len(pair_keys)
    points_total = 0
    best_r2 = 0.0
    backward = 0
    negative_skew = 0
    for key in pair_keys:
        loop_x, loop_y = key
        pairs = profile.pairs[key]
        points_total += len(pairs)
        reg_x = program.regions.get(loop_x)
        reg_y = program.regions.get(loop_y)
        if reg_x is not None and reg_y is not None and reg_x.line > reg_y.line:
            backward += 1
        if len(pairs) >= 2:
            r2, intercept = _fit_r2_b(pairs)
            best_r2 = max(best_r2, r2)
            if intercept < 0.0:
                negative_skew += 1
    f["pair_links_per_loop"] = _ratio(n_links, n_exec)
    f["pair_points_mean"] = _ratio(points_total, n_links)
    f["pair_affine_max_r2"] = best_r2
    f["pair_backward_frac"] = _ratio(backward, n_links)
    f["pair_negative_skew_frac"] = _ratio(negative_skew, n_links)

    # -- hotspot fractions over live cost ---------------------------------
    pet_regions = sorted(
        {node.region for node in profile.pet.walk()}
    ) if profile.pet is not None else []
    hot = 0
    hot_loops = 0
    best_loop_share = 0.0
    for region in pet_regions:
        share = _ratio(live_region_cost(region), live_total)
        kind = (
            program.regions[region].kind
            if region in program.regions
            else "function"
        )
        if kind == "loop":
            best_loop_share = max(best_loop_share, share)
        if share >= DEFAULT_THRESHOLD:
            hot += 1
            if kind == "loop":
                hot_loops += 1
    f["hot_region_frac"] = _ratio(hot, len(pet_regions))
    f["hot_loop_share_max"] = best_loop_share
    f["hot_loop_frac"] = _ratio(hot_loops, hot)

    # -- CU-graph degree statistics (live, data-only) ---------------------
    from repro.cu.detect import detect_cus
    from repro.cu.graph import build_cu_graph

    cu_counts: list[int] = []
    densities: list[float] = []
    sources_max = 0
    out_degree_max = 0
    function_regions = sorted(
        r.region_id for r in program.regions.values() if r.kind == "function"
    )
    for region in function_regions:
        if profile.region_cost(region) <= 0:
            continue
        cus = detect_cus(program, region)
        live_cus = [
            cu
            for cu in cus
            if cu.reads
            or cu.callees
            or cu.early_exit
            or cu.kind != "plain"
            or any(w in read_names for w in cu.writes)
        ]
        if not live_cus:
            continue
        graph = build_cu_graph(cus, profile, region, include_control=False)
        live_ids = {cu.cu_id for cu in live_cus}
        n = len(live_ids)
        edges = sum(
            1 for src, dst, _ in graph.edges() if src in live_ids and dst in live_ids
        )
        cu_counts.append(n)
        densities.append(_ratio(edges, n * (n - 1)) if n > 1 else 0.0)
        sources = sum(
            1
            for cu_id in sorted(live_ids)
            if not any(p in live_ids for p in graph.predecessors(cu_id))
        )
        sources_max = max(sources_max, sources)
        for cu_id in sorted(live_ids):
            deg = sum(1 for s in graph.successors(cu_id) if s in live_ids)
            out_degree_max = max(out_degree_max, deg)
    f["cu_count_mean"] = _ratio(sum(cu_counts), len(cu_counts))
    f["cu_edge_density_mean"] = _ratio(sum(densities), len(densities))
    f["cu_sources_max"] = float(sources_max)
    f["cu_out_degree_max"] = float(out_degree_max)

    # -- memory behaviour --------------------------------------------------
    f["mem_streaming_fraction"] = _ratio(
        profile.unique_array_addresses, live_total
    )
    f["mem_array_access_frac"] = _ratio(profile.array_accesses, live_total)

    out = {name: float(f[name]) for name in FEATURE_NAMES}
    for name, value in out.items():
        if not math.isfinite(value):  # pragma: no cover - defensive
            raise ValueError(f"non-finite feature {name!r}: {value!r}")
    return out


# ---------------------------------------------------------------------------
# corpus-entry convenience (shared by eval, CLI, and the smoke gate)
# ---------------------------------------------------------------------------


def features_for_entry(entry: "CorpusEntry", cache=None) -> dict[str, float]:
    """Profile one corpus entry and extract its feature vector."""
    from repro.lang.parser import parse_program
    from repro.lang.validate import validate_program
    from repro.profiling.cache import cached_profile_runs
    from repro.service.jobs import build_call_args

    program = parse_program(entry.source)
    validate_program(program)
    args = build_call_args(entry.arg_specs, seed=0)
    profile, _ = cached_profile_runs(program, entry.entry, [args], cache=cache)
    return extract_features(program, profile)


def _features_worker(payload: tuple[Any, str | None]) -> tuple[str, dict[str, float]]:
    """Process-pool worker: (entry, cache_dir) -> (name, features)."""
    entry, cache_dir = payload
    cache = None
    if cache_dir:
        from repro.profiling.cache import ProfileCache

        cache = ProfileCache(cache_dir)
    return entry.name, features_for_entry(entry, cache=cache)


def corpus_features(suite, cache=None, parallel: bool = False) -> dict[str, Any]:
    """Feature vectors for every entry of a corpus, as a versioned document.

    With *parallel*, extraction fans out over a process pool; results are
    joined by program name back into generation order, so the document is
    byte-identical to a serial run (the determinism regression asserts
    this).  When the pool cannot start its workers or a worker dies, the
    entries it did not finish are extracted serially; an extraction's own
    error propagates, as in a serial run.
    """
    rows: dict[str, dict[str, float]] = {}
    if parallel and len(suite.entries) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        cache_dir = getattr(cache, "root", None)
        payloads = [
            (entry, str(cache_dir) if cache_dir else None) for entry in suite.entries
        ]
        with ProcessPoolExecutor() as pool:
            try:
                finished = pool.map(_features_worker, payloads)  # starts the workers
            except OSError:
                finished = iter(())
            try:
                for name, features in finished:
                    rows[name] = features
            except BrokenProcessPool:  # a worker died: the rest run below
                pass
    for entry in suite.entries:
        if entry.name not in rows:
            rows[entry.name] = features_for_entry(entry, cache=cache)
    from repro.patterns.schema import SCHEMA_VERSION

    return {
        "schema_version": SCHEMA_VERSION,
        "record": "learn_features",
        "features_version": FEATURES_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "corpus": suite.name,
        "corpus_digest": suite.corpus_digest,
        "programs": [
            {
                "name": entry.name,
                "template": entry.template,
                "truth": {k: bool(v) for k, v in entry.truth.items()},
                "features": rows[entry.name],
            }
            for entry in suite.entries
        ],
    }
