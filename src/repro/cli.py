"""Command-line interface: ``repro-patterns`` (also ``python -m repro``).

The paper's two-phase pipeline, for one program or the whole registry::

    repro-patterns analyze FILE --entry NAME [inputs]         # profile + detect
    repro-patterns profile FILE --entry NAME [inputs] -o OUT  # phase 1: profile file
    repro-patterns detect FILE --profile OUT                  # phase 2 (or cached inputs)
    repro-patterns bench NAME                # one registered benchmark, simulated
    repro-patterns bench --smoke             # perf/cache sanity check
    repro-patterns list                      # registered benchmarks
    repro-patterns table3                    # regenerate the Table III summary
    repro-patterns experiments [-o FILE]     # the full markdown experiment report

Inputs are ``--scalar 5``, ``--zeros A:40,40`` and ``--rand B:40,40`` (with
``--seed``), declared positionally in the order the entry function expects
them: the options are consumed left to right.

The service commands talk to the long-lived analysis daemon
(see ``docs/service.md``)::

    repro-patterns serve [--port 8765] [--workers N]   # run the daemon
    repro-patterns submit FILE --entry NAME [inputs]   # queue an analysis
    repro-patterns submit --bench NAME [--wait]        # queue a benchmark
    repro-patterns jobs [--state done]                 # list jobs
    repro-patterns result ID [--wait] [--json]         # fetch one result
    repro-patterns metrics                             # Prometheus exposition

The campaign commands drive the experiment harness (``repro.campaign``,
see ``docs/campaigns.md``)::

    repro-patterns campaign run --name NAME [axes]     # execute a grid
    repro-patterns campaign status [--name NAME]       # cell-state counts
    repro-patterns campaign query [filters] [--csv]    # stored results
    repro-patterns campaign query --name NAME --table3 # regenerate Table III

The corpus and learn commands generate and score labeled program corpora
(``repro.corpus``, see ``docs/corpus.md``) and judge a learned baseline
against the rule-based detectors (``repro.learn``, see ``docs/learned.md``)::

    repro-patterns corpus generate --count N --seed S --out DIR
    repro-patterns corpus score DIR [--json|--csv]
    repro-patterns learn features DIR [--json|--csv]
    repro-patterns learn train DIR [--out FILE]
    repro-patterns learn eval DIR [--json|--csv]

``campaign run --corpus DIR`` and ``serve --corpus DIR`` register a
generated corpus as sweepable benchmarks for the run.

Output: ``--json`` emits the command's versioned document (for analyses,
the schema of ``repro.patterns.schema``) — pretty-printed by default, one
canonical line with ``--compact``.  Commands with ``--csv`` print CSV
instead of the text table; ``--json`` wins when both are given.

Failures: a command that cannot run prints ``<command>: <reason>`` on
stderr and exits 2 for a bad invocation (unreadable FILE or corpus, a
missing flag) or 1 for a failed run.  ``bench`` and ``table3`` tolerate
per-program failures: ``--timeout`` and ``--retries`` bound each analysis
attempt, and ``table3`` renders a failed program as a row of ``-`` cells
plus a failure footer (``--json`` emits the structured failure record
instead).  ``--keep-going`` (the default) exits 0 with partial results;
``--fail-fast`` stops at the first exhausted failure and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import analyze_source
from repro.reporting.report import analysis_report


class CommandError(Exception):
    """Abort a command: :func:`main` prints ``<command>: <message>`` on
    stderr and exits with *code* (2: bad invocation, 1: failed run)."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


# -- output ----------------------------------------------------------------

def _print_doc(args: argparse.Namespace, doc) -> None:
    """Print *doc* as JSON: one canonical line with --compact, else pretty."""
    if args.compact:
        from repro.profiling.serialize import canonical_json

        print(canonical_json(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _emit(args: argparse.Namespace, doc, text, csv=None) -> None:
    """Print *doc* per the output flags: --json first, then --csv, else the
    text table.  *text* and *csv* render the document."""
    if args.json:
        _print_doc(args, doc)
    elif csv is not None and args.csv:
        print(csv(doc), end="")
    else:
        print(text(doc))


def _print_analysis(args: argparse.Namespace, result) -> None:
    """One analysis result: the schema document (--json) or the text report."""
    if args.json:
        from repro.patterns.schema import analysis_to_dict

        _print_doc(args, analysis_to_dict(result))
    else:
        print(analysis_report(result, include_source=not args.no_source,
                              include_trace=not args.no_trace))


def _table3_text(docs: list, title: str) -> str:
    """Table III from outcome documents; a failed program is a row of dashes."""
    from repro.reporting.tables import format_table

    headers = ["Application", "Suite", "LOC", "Hotspot %", "Speedup", "Threads",
               "Detected Pattern"]
    rows = [
        [doc.get("name")] + [None] * 6
        if doc.get("failed")
        else [doc["name"], doc["suite"], doc["loc"], 100 * doc["primary_share"],
              doc["best_speedup"], doc["best_threads"], doc["label"]]
        for doc in docs
    ]
    return format_table(headers, rows, title=title)


# -- inputs ----------------------------------------------------------------

class _OrderedArg(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "ordered_args", None)
        if items is None:
            items = []
            namespace.ordered_args = items
        items.append((self.dest, values))


def _read_source(args: argparse.Namespace) -> str:
    """The MiniC source FILE; an unreadable one fails the command."""
    try:
        with open(args.file) as fh:
            return fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {args.file!r}: {exc.strerror or exc}") from None


def _arg_specs(args: argparse.Namespace) -> list[tuple[str, str]]:
    """The ordered --scalar/--zeros/--rand options as a portable spec."""
    return list(getattr(args, "ordered_args", []) or [])


def _collect_args(args: argparse.Namespace) -> list:
    from repro.service.jobs import build_call_args

    return build_call_args(_arg_specs(args), args.seed)


def _make_cache(args: argparse.Namespace):
    """The profile cache --cache-dir/--no-cache select (None: no cache)."""
    from repro.profiling.cache import ProfileCache

    if args.no_cache:
        return None
    return ProfileCache(root=args.cache_dir) if args.cache_dir else ProfileCache()


def _load_corpus(directory: str, register: bool = False):
    """The corpus at *directory*; with *register* its programs also become
    registry benchmarks.  An unreadable corpus fails the command."""
    from repro.corpus import load_corpus, register_corpus

    try:
        return (register_corpus if register else load_corpus)(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise CommandError(f"cannot load corpus {directory!r}: {exc}") from None


# -- the pipeline ------------------------------------------------------------

def _cmd_analyze(args: argparse.Namespace) -> int:
    result = analyze_source(
        _read_source(args),
        entry=args.entry,
        arg_sets=[_collect_args(args)],
        hotspot_threshold=args.threshold,
    )
    _print_analysis(args, result)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Phase 1 of the DiscoPoP workflow: instrumented run -> profile file."""
    from repro.api import compile_source
    from repro.profiling import save_profile
    from repro.profiling.cache import cached_profile_runs

    program = compile_source(_read_source(args))
    profile, hit = cached_profile_runs(
        program, args.entry, [_collect_args(args)], cache=_make_cache(args)
    )
    with open(args.output, "w") as fh:
        save_profile(profile, fh)
    print(
        f"profile written to {args.output} "
        f"({'cache hit' if hit else 'instrumented run'}): "
        f"{profile.total_cost} instructions, "
        f"{len(profile.deps)} dependence records"
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    """Phase 2: run the pattern detectors over a saved or cached profile.

    With ``--profile`` the given dump is used as-is.  Without it, the
    content-addressed cache supplies the profile for (source, inputs,
    config); only on a cache miss (or with ``--no-cache``) is the program
    re-interpreted.
    """
    from repro.api import compile_source
    from repro.patterns.engine import analyze_profile
    from repro.profiling import load_profile
    from repro.profiling.cache import cached_profile_runs

    program = compile_source(_read_source(args))
    if args.profile:
        with open(args.profile) as fh:
            profile = load_profile(fh)
    else:
        if args.entry is None:
            raise CommandError(
                "--entry (plus any --scalar/--zeros/--rand inputs) is "
                "required when no --profile file is given"
            )
        profile, hit = cached_profile_runs(
            program, args.entry, [_collect_args(args)], cache=_make_cache(args)
        )
        # Keep stdout pure JSON in --json mode; the provenance note is advisory.
        print(
            f"profile source: {'cache hit' if hit else 'instrumented run'}",
            file=sys.stderr if args.json else sys.stdout,
        )
    result = analyze_profile(program, profile, hotspot_threshold=args.threshold)
    _print_analysis(args, result)
    return 0


_SMOKE_SOURCE = """\
void kernel(float A[][], float x[], float y[], int n) {
    for (int i = 0; i < n; i++) {
        y[i] = 0.0;
        for (int j = 0; j < n; j++) {
            y[i] = y[i] + A[i][j] * x[j];
        }
    }
}
"""


def _cmd_bench_smoke(args: argparse.Namespace) -> int:
    """Perf smoke check: one small program, uncached then cached.

    Exercises the full fast path (compile -> batched profile -> detect)
    and the content-addressed cache, asserting a store on the cold run and
    a hit (with zero re-execution) on the warm run.
    """
    import contextlib
    import tempfile
    import time

    import numpy as np

    from repro.api import compile_source
    from repro.patterns.engine import analyze_profile
    from repro.profiling import profile_digest
    from repro.profiling.cache import ProfileCache, cached_profile_runs

    program = compile_source(_SMOKE_SOURCE)
    rng = np.random.default_rng(0)
    arg_sets = [[rng.random((24, 24)), rng.random(24), rng.random(24), 24]]
    # A given --cache-dir keeps its entries; the default one is removed.
    with (contextlib.nullcontext(args.cache_dir) if args.cache_dir
          else tempfile.TemporaryDirectory(prefix="repro-bench-smoke-")) as cache_dir:
        cache = ProfileCache(root=cache_dir)

        t0 = time.perf_counter()
        cold_profile, cold_hit = cached_profile_runs(
            program, "kernel", arg_sets, cache=cache
        )
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_profile, warm_hit = cached_profile_runs(
            program, "kernel", arg_sets, cache=cache
        )
        warm_s = time.perf_counter() - t0

    failures = []
    if cold_hit:
        failures.append("cold run unexpectedly hit the cache")
    if cache.stats.stores != 1:
        failures.append(f"expected 1 cache store, saw {cache.stats.stores}")
    if not warm_hit or cache.stats.hits != 1:
        failures.append("warm run did not hit the cache")
    if profile_digest(cold_profile) != profile_digest(warm_profile):
        failures.append("cached profile digest differs from the computed one")
    result = analyze_profile(program, warm_profile)
    if not result.hotspots:
        failures.append("detection over the cached profile found no hotspots")

    print(f"bench --smoke: cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms")
    print(f"cache: {cache.stats.stores} store(s), {cache.stats.hits} hit(s) at {cache_dir}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: cache exercised; cached and computed profiles identical")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """One registered benchmark, under the sweep's fault policy."""
    from repro.bench_programs import analyze_benchmark, get_benchmark
    from repro.runtime.parallel import FailedOutcome, run_one
    from repro.sim import plan_and_simulate

    if args.smoke:
        return _cmd_bench_smoke(args)
    if args.name is None:
        raise CommandError("a benchmark name is required (or use --smoke)")
    got = run_one(
        lambda: (get_benchmark(args.name), analyze_benchmark(args.name)),
        name=args.name, timeout=args.timeout, retries=args.retries,
    )
    if isinstance(got, FailedOutcome):
        if args.json:
            _print_doc(args, got.to_dict())
        else:
            print(
                f"bench: analysis of {got.name!r} FAILED after "
                f"{got.attempts} attempt(s): {got.error_type}: {got.message}",
                file=sys.stderr,
            )
            print(f"bench:   at {got.traceback_summary}", file=sys.stderr)
        return 1
    spec, result = got
    outcome = plan_and_simulate(result)
    if args.json:
        from repro.patterns.schema import analysis_to_dict

        doc = analysis_to_dict(result)
        # Extension block: loaders ignore unknown top-level keys, so the
        # document stays a valid analysis schema instance.
        doc["simulation"] = {
            "best_speedup": outcome.best_speedup,
            "best_threads": outcome.best_threads,
            "paper_speedup": spec.paper.speedup,
            "paper_threads": spec.paper.threads,
        }
        _print_doc(args, doc)
        return 0
    print(analysis_report(result, include_source=not args.no_source))
    print(
        f"Simulated best speedup: {outcome.best_speedup:.2f}x at "
        f"{outcome.best_threads} threads "
        f"(paper: {spec.paper.speedup}x at {spec.paper.threads})"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.bench_programs import all_benchmarks

    specs = all_benchmarks()
    # Machine-readable catalog: the names are what the service's
    # submit-by-name endpoint and `repro submit --bench` accept.
    docs = [
        {
            "name": spec.name,
            "suite": spec.suite,
            "entry": spec.entry,
            "loc": spec.loc,
            "paper_pattern": spec.paper.pattern,
            "expected_label": spec.expected_label,
        }
        for spec in specs
    ]
    _emit(args, docs, lambda _: "\n".join(
        f"{spec.name:16s} {spec.suite:10s} {spec.paper.pattern}" for spec in specs
    ))
    return 0


def _failure_footer(failures, total: int) -> str:
    """Human footer naming every failed program and its deciding error."""
    lines = [f"{len(failures)} of {total} program(s) failed:"]
    for f in failures:
        lines.append(
            f"  {f.name}: {f.error_type}: {f.message} "
            f"(attempts={f.attempts})"
        )
        lines.append(f"    at {f.traceback_summary}")
    return "\n".join(lines)


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.runtime.parallel import analyze_registry

    outcomes = analyze_registry(
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        parallel=args.parallel,
        timeout=args.timeout,
        retries=args.retries,
        fail_fast=not args.keep_going,
    )
    failures = [o for o in outcomes if not o.ok]
    footer = "\n" + _failure_footer(failures, len(outcomes)) if failures else ""
    _emit(args, [o.to_dict() for o in outcomes],
          lambda docs: _table3_text(docs, "Table III (reproduced)") + footer)
    # --keep-going (default) reports partial results and exits 0; --fail-fast
    # stops at the first exhausted failure and makes the run exit non-zero.
    return 1 if failures and not args.keep_going else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.reporting.experiments import generate_experiment_report

    report = generate_experiment_report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


# -- service commands ----------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon until SIGINT or SIGTERM; either one shuts it
    down cleanly (in-flight jobs finish, pool workers exit)."""
    import os
    import signal

    from repro.service.server import AnalysisService

    corpus_note = ""
    for directory in args.corpus or ():
        suite = _load_corpus(directory, register=True)
        corpus_note += f", corpus {suite.name} ({len(suite.entries)} programs)"
    service = AnalysisService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_history=args.history,
        jsonl_path=args.log_jobs,
        timeout=args.timeout,
        retries=args.retries,
        backend=args.backend,
        db_path=args.db,
        max_queue=args.max_queue,
    )
    recovered = service.store.recovered
    print(
        f"repro service listening on {service.url} "
        f"({service.executor.workers} {args.backend} workers, "
        f"cache at {service.executor.cache.root}"
        + (f", recovered {recovered} interrupted job(s)" if recovered else "")
        + corpus_note
        + ")",
        flush=True,
    )
    daemon_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != daemon_pid:
            # A pool worker forked after this handler was installed: die
            # the way SIGTERM's default action would have killed it.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


def _job_summary_line(record: dict) -> str:
    error = record.get("error") or {}
    suffix = f"  {error.get('error_type')}: {error.get('message')}" if error else ""
    return (
        f"job {record['id']:>4}  {record['kind']:6s} {record['state']:9s}"
        f"{suffix}"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.bench:
            record = client.submit_benchmark(args.bench)
        elif args.sweep:
            record = client.submit_sweep()
        elif args.file:
            if not args.entry:
                raise CommandError("--entry is required with a source file")
            record = client.submit_source(
                _read_source(args),
                entry=args.entry,
                args=_arg_specs(args),
                seed=args.seed,
                threshold=args.threshold,
            )
        else:
            raise CommandError("give a source FILE, --bench NAME, or --sweep")
        if args.wait:
            record = client.wait(record["id"], timeout=args.wait_timeout)
    except ServiceError as exc:
        raise CommandError(str(exc), 1) from None
    except OSError as exc:
        raise CommandError(f"cannot reach {client.url}: {exc}", 1) from None
    _emit(args, record, _job_summary_line)
    return 1 if record["state"] == "failed" else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        records = client.jobs(state=args.state, kind=args.kind, limit=args.limit)
    except (ServiceError, OSError) as exc:
        raise CommandError(str(exc), 1) from None
    _emit(args, records,
          lambda docs: "\n".join(map(_job_summary_line, docs)) or "no jobs")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        text = client.metrics()
    except (ServiceError, OSError) as exc:
        raise CommandError(str(exc), 1) from None
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _result_text(record: dict) -> str:
    """Human-readable rendering of a terminal job record."""
    lines = [_job_summary_line(record)]
    error = record.get("error")
    result = record.get("result")
    if error:
        lines.append(
            f"  after {error.get('attempts')} attempt(s) at "
            f"{error.get('traceback_summary')}"
        )
    elif record["kind"] == "source" and result:
        from repro.patterns.schema import analysis_from_dict

        lines.append(analysis_report(analysis_from_dict(result), include_source=False))
    elif record["kind"] == "bench" and result:
        lines.append(
            f"  {result['name']}: {result['label']} "
            f"({result['best_speedup']:.2f}x at {result['best_threads']} threads)"
        )
    elif record["kind"] == "sweep" and result:
        failed = record.get("info", {}).get("failed", 0)
        lines.append(f"  {len(result)} program(s), {failed} failed")
    return "\n".join(lines)


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.wait:
            record = client.wait(args.id, timeout=args.wait_timeout)
        else:
            record = client.job(args.id)
    except TimeoutError as exc:
        raise CommandError(str(exc), 2) from None
    except (ServiceError, OSError) as exc:
        raise CommandError(str(exc), 1) from None
    _emit(args, record, _result_text)
    if record["state"] == "done":
        return 0
    return 1 if record["state"] in ("failed", "cancelled") else 2


# -- corpus and learn commands -------------------------------------------

def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import generate_corpus

    if args.count < 1:
        raise CommandError("--count must be >= 1")
    manifest = generate_corpus(
        args.count, args.seed, args.out, name=args.name,
        adversarial=args.adversarial,
    )
    _emit(args, manifest, lambda doc: (
        f"corpus {doc['name']!r}: {doc['count']} program(s) "
        f"written to {args.out} (digest {doc['corpus_digest'][:12]})"
    ))
    return 0


def _cmd_corpus_score(args: argparse.Namespace) -> int:
    from repro.corpus import score_csv, score_entries, score_table

    score = score_entries(_load_corpus(args.dir), cache=_make_cache(args))
    _emit(args, score, score_table, csv=score_csv)
    return 1 if score["mismatches"] else 0


def _cmd_learn_features(args: argparse.Namespace) -> int:
    from repro.learn import corpus_features, features_csv, features_table

    doc = corpus_features(
        _load_corpus(args.dir), cache=_make_cache(args), parallel=args.parallel
    )
    _emit(args, doc, features_table, csv=features_csv)
    return 0


def _cmd_learn_train(args: argparse.Namespace) -> int:
    from repro.learn import train_on_corpus

    suite = _load_corpus(args.dir)
    try:
        model = train_on_corpus(
            suite, seed=args.seed, holdout=args.holdout,
            cache=_make_cache(args), parallel=args.parallel,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if args.out:
        model.save(args.out)
    _emit(args, model.doc, lambda doc: (
        f"trained {model.kind} on {suite.name!r} "
        f"({doc['examples']} program(s), seed {args.seed}); "
        f"digest {model.model_digest[:12]}"
        + (f" -> {args.out}" if args.out else "")
    ))
    return 0


def _cmd_learn_eval(args: argparse.Namespace) -> int:
    from repro.learn import comparison_csv, comparison_table, evaluate_corpus

    suite = _load_corpus(args.dir)
    try:
        doc = evaluate_corpus(
            suite, seed=args.seed, holdout=args.holdout,
            cache=_make_cache(args), parallel=args.parallel,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    _emit(args, doc, comparison_table, csv=comparison_csv)
    return 0


# -- campaign commands ---------------------------------------------------

def _campaign_cells(args: argparse.Namespace):
    """Expand the run's axis flags into the cell grid."""
    from repro.campaign.grid import default_grid

    thresholds = tuple(
        None if t in ("spec", "none") else float(t) for t in args.thresholds
    )
    return default_grid(
        programs=args.programs or None,
        machines=tuple(args.machines),
        scales=tuple(args.scales),
        thresholds=thresholds,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, run_campaign
    from repro.service.client import ServiceClient, ServiceError

    if args.corpus:
        # A corpus directory is a grid-axis source: its programs become
        # registry benchmarks (exported via REPRO_CORPUS_PATH so the
        # daemon's worker processes resolve them too), and when no
        # --programs subset is named the grid is the corpus itself rather
        # than the whole registry.
        suite = _load_corpus(args.corpus, register=True)
        if not args.programs:
            args.programs = suite.names()
    try:
        cells = _campaign_cells(args)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    store = CampaignStore(args.db)
    service = None
    try:
        if args.url:
            client = ServiceClient(args.url)
        else:
            # no daemon named: boot an embedded one for the run's duration
            from repro.service.server import AnalysisService

            service = AnalysisService(
                port=0, workers=args.workers, cache_dir=args.cache_dir
            )
            service.start_background()
            client = ServiceClient(service.url)
        try:
            client.wait_healthy(timeout=30.0)
        except (ServiceError, OSError) as exc:
            raise CommandError(f"cannot reach {client.url}: {exc}", 1) from None
        summary = run_campaign(
            store, client, args.name, cells, timeout=args.timeout
        )
    finally:
        store.close()
        if service is not None:
            service.shutdown()
    _emit(args, summary, lambda doc: (
        f"campaign {args.name!r}: {doc['cells']} cell(s) — "
        f"{doc['submitted']} submitted, "
        f"{doc['reused_store']} from store, "
        f"{doc['reused_resume']} already done, "
        f"{doc['failed']} failed"
    ))
    return 1 if summary["failed"] else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore

    store = CampaignStore(args.db)
    try:
        docs = [store.status(args.name)] if args.name else store.campaigns()
    finally:
        store.close()
    if args.json:
        _print_doc(args, docs[0] if args.name else docs)
        return 0
    # an unknown name reads back as a campaign with no cells
    docs = [status for status in docs if status["cells"]]
    if not docs:
        print(f"campaign {args.name!r} not found" if args.name
              else "no campaigns recorded")
        return 1 if args.name else 0
    for status in docs:
        states = status["states"]
        print(
            f"{status['campaign']}: {status['cells']} cell(s) — "
            f"{states['done']} done, {states['failed']} failed, "
            f"{states['pending']} pending"
            + ("  [complete]" if status["complete"] else "")
        )
    return 0


def _cmd_campaign_query(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, query

    store = CampaignStore(args.db)
    try:
        for flag in ("table3", "baseline"):
            if getattr(args, flag) and not args.name:
                raise CommandError(f"--{flag} requires --name")
        if args.table3:
            try:
                docs = query.table3_docs(store, args.name)
            except ValueError as exc:
                raise CommandError(str(exc), 1) from None
            _emit(args, docs,
                  lambda d: _table3_text(d, "Table III (from stored campaign)"))
            return 0
        if args.baseline:
            rows = query.baseline_deltas(store, args.name, args.baseline)
            _emit(args, rows,
                  lambda d: query.deltas_table(d, args.name, args.baseline))
            return 0
        records = query.query_records(
            store,
            campaign=args.name,
            program=args.program,
            machine=args.machine,
            scale=args.scale,
            threshold=args.threshold,
        )
        if not args.group_by:
            _emit(args, records, query.records_table, csv=query.records_to_csv)
            return 0
        try:
            groups = query.group_records(records, args.group_by)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        _emit(args, groups,
              lambda d: query.groups_table(d, args.group_by),
              csv=lambda d: query.groups_to_csv(d, args.group_by))
        return 0
    finally:
        store.close()


# -- the parser ------------------------------------------------------------
#
# A flag group is declared once and shared only by the commands where it
# means the same thing.  ``--cache-dir`` means three things, so the
# commands whose meaning differs from _add_cache_flags declare their own:
# unset is "no cache" for ``table3``, "a fresh temp dir" for
# ``bench --smoke``, and the daemon's default for ``serve``/``campaign run``.

def _add_inputs(p: argparse.ArgumentParser) -> None:
    """The entry function's arguments, consumed left to right."""
    for flag in ("--scalar", "--zeros", "--rand"):
        p.add_argument(flag, action=_OrderedArg)
    p.add_argument("--seed", type=int, default=0)


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None,
                   help="profile cache directory (default: "
                        "$REPRO_PROFILE_CACHE or ~/.cache/repro/profiles)")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-run the instrumented engine")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-source", action="store_true")
    p.add_argument("--no-trace", action="store_true",
                   help="omit the detection trace from the text report")


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=None,
                   help="per-attempt analysis timeout in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="re-run a failing analysis up to N extra times "
                        "(exponential backoff)")


def _add_wait_flags(p: argparse.ArgumentParser, help: str) -> None:
    p.add_argument("--wait", action="store_true", help=help)
    p.add_argument("--wait-timeout", type=float, default=300.0)


def _add_json_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the versioned analysis schema as JSON")
    p.add_argument("--compact", action="store_true",
                   help="with --json: one canonical line instead of "
                        "pretty-printed output")


def _add_service_url(p: argparse.ArgumentParser) -> None:
    from repro.service.client import default_service_url

    p.add_argument("--url", default=default_service_url(),
                   help="daemon address (default: $REPRO_SERVICE_URL "
                        "or http://127.0.0.1:8765)")


def _add_campaign_db(p: argparse.ArgumentParser) -> None:
    """The campaign results database, then the JSON output flags."""
    from repro.campaign.store import default_campaign_db

    p.add_argument("--db", default=str(default_campaign_db()), metavar="PATH",
                   help="campaign results database (default: $REPRO_CAMPAIGN_DB "
                        "or ~/.cache/repro/campaigns.sqlite)")
    _add_json_flags(p)


def _add_corpus_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("dir", metavar="DIR", help="corpus directory")
    _add_cache_flags(p)


def _add_learn_common(p: argparse.ArgumentParser) -> None:
    _add_corpus_dir(p)
    p.add_argument("--parallel", action="store_true",
                   help="extract features with a process pool "
                        "(output is byte-identical to serial)")
    _add_json_flags(p)


def _add_learn_model_flags(p: argparse.ArgumentParser, default_holdout: float) -> None:
    p.add_argument("--seed", type=int, default=7,
                   help="split/training seed (default: 7)")
    p.add_argument("--holdout", type=float, default=default_holdout,
                   help="fraction of the corpus held out of "
                        f"training (default: {default_holdout})")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.campaign.grid import MACHINE_MODELS

    parser = argparse.ArgumentParser(prog="repro-patterns")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, func, help: str) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command(sub, "analyze", _cmd_analyze, "analyze a MiniC source file")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    _add_inputs(p)
    p.add_argument("--threshold", type=float, default=0.10)
    _add_report_flags(p)
    _add_json_flags(p)

    p = command(sub, "profile", _cmd_profile,
                "phase 1: instrumented run, write a profile file")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    p.add_argument("--output", "-o", required=True)
    _add_inputs(p)
    _add_cache_flags(p)

    p = command(sub, "detect", _cmd_detect,
                "phase 2: run pattern detection over a saved or cached profile")
    p.add_argument("file")
    p.add_argument("--profile", default=None,
                   help="profile dump from `profile -o`; omit to use "
                        "the content-addressed cache")
    p.add_argument("--entry", default=None,
                   help="entry function (cached mode, no --profile)")
    _add_inputs(p)
    _add_cache_flags(p)
    p.add_argument("--threshold", type=float, default=0.10)
    _add_report_flags(p)
    _add_json_flags(p)

    p = command(sub, "bench", _cmd_bench, "analyze a registered benchmark")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--smoke", action="store_true",
                   help="fast perf smoke check: one small program through "
                        "the uncached and cached paths")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory for --smoke (default: a temp dir it removes)")
    p.add_argument("--no-source", action="store_true")
    _add_fault_flags(p)
    _add_json_flags(p)

    p = command(sub, "list", _cmd_list, "list registered benchmarks")
    _add_json_flags(p)

    p = command(sub, "serve", _cmd_serve,
                "run the long-lived analysis daemon (HTTP job queue)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent analysis workers")
    p.add_argument("--cache-dir", default=None,
                   help="shared profile cache directory (default: "
                        "$REPRO_PROFILE_CACHE or ~/.cache/repro/profiles)")
    p.add_argument("--history", type=int, default=256,
                   help="finished jobs retained in memory")
    p.add_argument("--log-jobs", default=None, metavar="PATH",
                   help="append every job transition to this JSONL file")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-program timeout for sweep jobs")
    p.add_argument("--retries", type=int, default=0,
                   help="default retry budget for submitted jobs")
    p.add_argument("--backend", choices=["thread", "process"], default="thread",
                   help="execution backend: 'thread' runs jobs in the "
                        "claiming worker thread (GIL-bound, no per-job "
                        "timeouts), 'process' fans them over a process "
                        "pool (parallel, real SIGALRM timeouts)")
    p.add_argument("--db", default=None, metavar="PATH",
                   help="sqlite path for durable jobs: queued work is "
                        "re-enqueued and finished results served warm "
                        "across daemon restarts")
    p.add_argument("--max-queue", type=int, default=None,
                   help="admission-control bound on queued jobs; a full "
                        "queue answers 429 with a Retry-After hint")
    p.add_argument("--corpus", action="append", default=None, metavar="DIR",
                   help="register a generated corpus directory as "
                        "benchmarks before serving (repeatable); its "
                        "programs become valid bench/sweep job names")

    p = command(sub, "submit", _cmd_submit,
                "submit a job to a running analysis daemon")
    p.add_argument("file", nargs="?", default=None,
                   help="MiniC source file to analyze")
    p.add_argument("--entry", default=None)
    _add_inputs(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--bench", default=None, metavar="NAME",
                   help="submit a registered benchmark instead of a file")
    p.add_argument("--sweep", action="store_true",
                   help="submit a full registry sweep")
    _add_wait_flags(p, "block until the job finishes")
    _add_service_url(p)
    _add_json_flags(p)

    p = command(sub, "jobs", _cmd_jobs, "list jobs on a running daemon")
    p.add_argument("--state", default=None,
                   choices=["queued", "running", "done", "failed", "cancelled"])
    p.add_argument("--kind", default=None, choices=["source", "bench", "sweep"])
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="truncate the newest-first listing to N jobs "
                        "(0 means none)")
    _add_service_url(p)
    _add_json_flags(p)

    p = command(sub, "metrics", _cmd_metrics,
                "print a running daemon's /v1/metrics (Prometheus text format)")
    _add_service_url(p)

    p = command(sub, "result", _cmd_result,
                "fetch one job's status and result from the daemon")
    p.add_argument("id", type=int)
    _add_wait_flags(p, "block until the job reaches a terminal state")
    _add_service_url(p)
    _add_json_flags(p)

    p = command(sub, "table3", _cmd_table3, "regenerate the Table III summary")
    p.add_argument("--parallel", action=argparse.BooleanOptionalAction, default=True,
                   help="fan per-benchmark analyses over worker processes")
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker process count (default: cpu count)")
    p.add_argument("--cache-dir", default=None,
                   help="shared profile cache directory for the workers")
    _add_fault_flags(p)
    p.add_argument("--keep-going", dest="keep_going", action="store_true",
                   default=True,
                   help="report partial results and exit 0 when some "
                        "programs fail (default)")
    p.add_argument("--fail-fast", dest="keep_going", action="store_false",
                   help="stop the sweep at the first exhausted failure "
                        "and exit non-zero")
    _add_json_flags(p)

    p = command(sub, "experiments", _cmd_experiments,
                "regenerate the full markdown experiment report")
    p.add_argument("--output", "-o", default=None)

    camp = sub.add_parser(
        "campaign", help="run and query experiment campaigns (docs/campaigns.md)"
    ).add_subparsers(dest="campaign_command", required=True)

    p = command(camp, "run", _cmd_campaign_run,
                "execute a (program x machine x scale x threshold) grid")
    p.add_argument("--name", required=True, help="campaign name "
                   "(rerunning a name resumes its pending cells)")
    p.add_argument("--programs", nargs="*", default=None, metavar="NAME",
                   help="benchmark subset (default: the whole registry, "
                        "or the corpus when --corpus is given)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="register a generated corpus directory and grid "
                        "over its programs (restrict further with "
                        "--programs)")
    p.add_argument("--machines", nargs="*", default=["default"],
                   choices=sorted(MACHINE_MODELS),
                   help="named machine models to sweep")
    p.add_argument("--scales", nargs="*", type=float, default=[1.0],
                   metavar="S", help="input-scale factors to sweep")
    p.add_argument("--thresholds", nargs="*", default=["spec"], metavar="T",
                   help="hotspot thresholds to sweep ('spec' = each "
                        "benchmark's own default)")
    p.add_argument("--url", default=None,
                   help="daemon address (default: boot an embedded "
                        "daemon for this run)")
    p.add_argument("--workers", type=int, default=2,
                   help="embedded daemon worker count (ignored with --url)")
    p.add_argument("--cache-dir", default=None,
                   help="embedded daemon profile cache (ignored with --url)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-cell completion timeout in seconds")
    _add_campaign_db(p)

    p = command(camp, "status", _cmd_campaign_status,
                "cell-state counts for one or all campaigns")
    p.add_argument("--name", default=None)
    _add_campaign_db(p)

    p = command(camp, "query", _cmd_campaign_query,
                "filter, aggregate, and export stored campaign results")
    p.add_argument("--name", default=None, help="restrict to one campaign")
    p.add_argument("--program", default=None)
    p.add_argument("--machine", default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--group-by", nargs="*", default=None, metavar="KEY",
                   help="aggregate with geomean speedups by axis keys "
                        "(campaign/program/machine/scale/threshold/label)")
    p.add_argument("--baseline", default=None, metavar="CAMPAIGN",
                   help="per-cell regression deltas of --name vs this "
                        "baseline campaign")
    p.add_argument("--csv", action="store_true",
                   help="emit CSV instead of a text table")
    p.add_argument("--table3", action="store_true",
                   help="emit the campaign's default-grid cells as "
                        "Table III (byte-identical to `table3 --json`)")
    _add_campaign_db(p)

    corpus = sub.add_parser(
        "corpus", help="generate and score labeled program corpora (docs/corpus.md)"
    ).add_subparsers(dest="corpus_command", required=True)

    p = command(corpus, "generate", _cmd_corpus_generate,
                "write a deterministic labeled corpus directory")
    p.add_argument("--count", type=int, required=True, metavar="N",
                   help="number of programs to generate")
    p.add_argument("--seed", type=int, default=0,
                   help="generation seed; (count, seed) fully determines "
                        "every byte of the corpus")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="corpus directory (created if needed)")
    p.add_argument("--name", default=None,
                   help="corpus name (default: corpus-s<seed>-n<count>)")
    p.add_argument("--adversarial", action="store_true",
                   help="include the near-miss adversarial templates in "
                        "the round-robin rotation (default name gains "
                        "an adv- prefix)")
    _add_json_flags(p)

    p = command(corpus, "score", _cmd_corpus_score,
                "run the detectors over a corpus and score them "
                "against its ground-truth labels")
    _add_corpus_dir(p)
    p.add_argument("--csv", action="store_true",
                   help="emit the per-detector table as CSV")
    _add_json_flags(p)

    learn = sub.add_parser(
        "learn", help="learned detection baseline: extract features, train "
                      "classifiers, and judge them against the rule-based "
                      "detectors (docs/learned.md)"
    ).add_subparsers(dest="learn_command", required=True)

    p = command(learn, "features", _cmd_learn_features,
                "extract the versioned feature vector for every corpus program")
    _add_learn_common(p)
    p.add_argument("--csv", action="store_true",
                   help="emit one row per program with all features")

    p = command(learn, "train", _cmd_learn_train,
                "train a model artifact on a corpus (byte-deterministic "
                "for fixed seed and corpus)")
    _add_learn_common(p)
    _add_learn_model_flags(p, default_holdout=0.0)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON model artifact here")

    p = command(learn, "eval", _cmd_learn_eval,
                "train on the corpus' train split and report per-pattern "
                "precision/recall/F1 for the learned model and the "
                "rule-based detectors on the same held-out programs")
    _add_learn_common(p)
    _add_learn_model_flags(p, default_holdout=0.3)
    p.add_argument("--csv", action="store_true",
                   help="emit the comparison table as CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        group = getattr(args, f"{args.command}_command", None)
        print(f"{args.command} {group}: {exc}" if group else f"{args.command}: {exc}",
              file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
