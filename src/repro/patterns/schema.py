"""Versioned JSON schema for analysis results, evidence, and traces.

An :class:`~repro.patterns.framework.AnalysisResult` round-trips through a
JSON-compatible dict carrying a ``schema_version``, so detection output can
be archived, diffed, and consumed by downstream tools (the CLI's ``--json``
mode, the reporting layer, and the parallel orchestrator's outcome records)
without re-running anything.

One codec writes every result type: :func:`dataclass_to_dict` encodes a
dataclass from its fields and their annotations, and
:func:`dataclass_from_dict` reverses it.  The default coding writes enums
by value, sets as sorted lists, tuples as lists, dicts as ``[key, value]``
pairs in insertion order, and nested dataclasses recursively.  The
``_RULES`` table lists the fields coded otherwise, and ``_TYPE_CODERS`` the
types with coders of their own (the graph, the program, the profile).

Serialization is **deterministic**, like
:func:`repro.profiling.serialize.canonical_profile_json`: list orders are
either the result's own deterministic orders or explicitly sorted, dict
keys are sorted at dump time, and equal results produce byte-identical
text.

The program is stored as its MiniC source and re-parsed on load; region and
statement ids are assigned deterministically by the parser, so every id in
the document remains valid.  CU statement lists are stored as ``stmt_id``
references resolved against the re-parsed program.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Callable

from repro.graphs.digraph import DiGraph
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.patterns.framework import AnalysisResult
from repro.patterns.result import MultiLoopPipeline
from repro.profiling.model import Profile
from repro.profiling.serialize import profile_from_dict, profile_to_dict

#: Version of the analysis document layout.  Bump on any change to the
#: structure below; ``analysis_from_dict`` refuses other versions.
#:
#: The same version stamps the per-benchmark outcome records of
#: :mod:`repro.runtime.parallel` — including the ``"failed": true``
#: failure records a fault-tolerant sweep emits for crashed or timed-out
#: programs.  Failure records are an *extension* document kind (an extra
#: marker key, no change to the analysis layout), so they ride on the
#: existing version; loaders dispatch via
#: :func:`repro.runtime.parallel.outcome_from_dict`.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# the exceptions to the default coding
# ---------------------------------------------------------------------------

#: A dict written in key order rather than insertion order.
KEY_ORDER = "key order"
#: A tolerated extension (no version bump): written only when non-empty,
#: and read as the field's default when absent, so documents that predate
#: the key and documents with nothing to say in it are byte-identical.
OMIT_EMPTY = "omit empty"
#: Read as the field's default when absent (a key later versions added).
OPTIONAL = "optional"


def _graph_to_dict(graph: DiGraph) -> dict[str, Any]:
    return {
        "nodes": list(graph.nodes()),
        "edges": [
            [src, dst, {"kind": data.get("kind"), "vars": sorted(data.get("vars", ()))}]
            for src, dst, data in graph.edges()
        ],
    }


def _graph_from_dict(d: dict[str, Any]) -> DiGraph:
    graph = DiGraph()
    for node in d["nodes"]:
        graph.add_node(node)
    for src, dst, data in d["edges"]:
        graph.add_edge(src, dst, kind=data["kind"], vars=set(data["vars"]))
    return graph


def _program_to_dict(program: Program) -> dict[str, Any]:
    if not program.source:
        raise ValueError(
            "analysis schema requires a source-bearing Program "
            "(programs built without source text cannot be re-parsed on load)"
        )
    return {"source": program.source}


def _program_from_dict(d: dict[str, Any]) -> Program:
    return parse_program(d["source"])


# A field that refers into the rest of the document has a writer and a
# reader.  Both see the *scope*: the fields of the outermost object, as the
# instance's attributes when encoding and as the fields decoded so far when
# decoding, so a reference may point at any field declared before the one
# that holds it (the program precedes the tasks, the pipelines the fusions).


def _write_stmt_ids(doc: dict[str, Any], stmts: list, scope: dict[str, Any]) -> None:
    doc["stmt_ids"] = [s.stmt_id for s in stmts]


def _read_stmt_ids(data: dict[str, Any], scope: dict[str, Any]) -> list:
    stmts = scope["program"].stmts
    for sid in data["stmt_ids"]:
        if sid not in stmts:
            raise ValueError(
                f"CU {data['cu_id']} names statement id {sid}, "
                "which the document's program does not have"
            )
    return [stmts[sid] for sid in data["stmt_ids"]]


def _write_pipeline_ref(
    doc: dict[str, Any], pipeline: MultiLoopPipeline, scope: dict[str, Any]
) -> None:
    index = next((i for i, p in enumerate(scope["pipelines"]) if p is pipeline), None)
    doc["pipeline_index"] = index
    if index is None:  # detached candidate: inline the pipeline record
        doc["pipeline"] = _coder(MultiLoopPipeline)[0](pipeline, scope)


def _read_pipeline_ref(data: dict[str, Any], scope: dict[str, Any]) -> MultiLoopPipeline:
    index = data.get("pipeline_index")
    if index is None:
        return _coder(MultiLoopPipeline)[1](data["pipeline"], scope)
    pipelines = scope["pipelines"]
    loops = (data["loop_x"], data["loop_y"])
    if type(index) is not int or index not in range(len(pipelines)):
        raise ValueError(
            f"fusion {loops} names pipeline index {index!r}, "
            f"which is not an index into the document's {len(pipelines)} pipelines"
        )
    pipeline = pipelines[index]
    if (pipeline.loop_x, pipeline.loop_y) != loops:
        raise ValueError(
            f"fusion {loops} names pipeline index {index}, "
            f"which is the pipeline of loops {(pipeline.loop_x, pipeline.loop_y)}"
        )
    return pipeline


#: Fields coded otherwise than by their annotation, as ``Class.field``.
#: Classes are named, not imported, so that the outcome records of
#: :mod:`repro.runtime.parallel` use the codec without this module
#: importing their process pool.
_RULES: dict[str, str | tuple[Callable, Callable]] = {
    "TaskParallelism.marks": KEY_ORDER,
    "TaskParallelism.barrier_inputs": KEY_ORDER,
    "TaskParallelism.weights": KEY_ORDER,
    "StageTrace.counters": KEY_ORDER,
    "Span.attrs": KEY_ORDER,
    "AnalysisTrace.spans": OMIT_EMPTY,
    "AnalysisResult.wavefronts": OMIT_EMPTY,
    "BenchmarkOutcome.evidence_accepted": OPTIONAL,
    "BenchmarkOutcome.evidence_rejected": OPTIONAL,
    "CU.stmts": (_write_stmt_ids, _read_stmt_ids),
    "FusionCandidate.pipeline": (_write_pipeline_ref, _read_pipeline_ref),
}

#: Types with coders of their own, as (to_dict, from_dict).
_TYPE_CODERS: dict[type, tuple[Callable, Callable]] = {
    DiGraph: (_graph_to_dict, _graph_from_dict),
    Program: (_program_to_dict, _program_from_dict),
    Profile: (profile_to_dict, profile_from_dict),
}


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


def dataclass_to_dict(obj: Any) -> dict[str, Any]:
    """Encode dataclass instance *obj* as a JSON-compatible dict."""
    return _coder(type(obj))[0](obj, None)


def dataclass_from_dict(cls: type, data: dict[str, Any]) -> Any:
    """Rebuild a *cls* instance from :func:`dataclass_to_dict` output.

    Every field's key is required except those the rules make optional;
    unknown keys are ignored, so producers may attach extension blocks.
    """
    return _coder(cls)[1](data, None)


@functools.cache
def _coder(hint: Any, key_order: bool = False) -> tuple[Callable | None, Callable | None]:
    """``(encode, decode)`` for values annotated *hint*.

    Each takes the value and the scope.  ``(None, None)`` means the value
    is its own JSON (numbers, strings, booleans, ``None``, ``Any``).
    """
    if hint in _TYPE_CODERS:
        to_dict, from_dict = _TYPE_CODERS[hint]
        return (lambda v, s: to_dict(v)), (lambda d, s: from_dict(d))
    if dataclasses.is_dataclass(hint):
        return _object_coder(hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (lambda v, s: v.value), (lambda d, s: hint(d))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _coder(inner)
        if enc is None:
            return None, None
        return (
            lambda v, s: None if v is None else enc(v, s),
            lambda d, s: None if d is None else dec(d, s),
        )
    if origin in (list, set, tuple):
        enc, dec = _coder(args[0])  # tuple elements are alike or all plain
        if enc is None:
            seq = sorted if origin is set else list
            return (lambda v, s: seq(v)), (lambda d, s: origin(d))
        if origin is set:
            return (
                lambda v, s: sorted([enc(x, s) for x in v]),
                lambda d, s: {dec(x, s) for x in d},
            )
        return (
            lambda v, s: [enc(x, s) for x in v],
            lambda d, s: origin([dec(x, s) for x in d]),
        )
    if origin is dict:  # keys are plain JSON values
        enc, dec = _coder(args[1])
        items = (lambda v: sorted(v.items())) if key_order else dict.items
        if enc is None:
            return (lambda v, s: [[k, x] for k, x in items(v)]), (lambda d, s: dict(d))
        return (
            lambda v, s: [[k, enc(x, s)] for k, x in items(v)],
            lambda d, s: {k: dec(x, s) for k, x in d},
        )
    return None, None


def _object_coder(cls: type) -> tuple[Callable, Callable]:
    """``(encode, decode)`` for dataclass *cls*, one field at a time.

    Fields named with a leading underscore are memos, not content, and are
    not written.  Encoding reads the fields from the instance's ``vars``.
    """
    hints = typing.get_type_hints(cls)
    plain: list[str] = []  # fields whose values are their own JSON
    writes, reads, refs = [], [], []
    for f in dataclasses.fields(cls):
        if f.name.startswith("_"):
            continue
        rule = _RULES.get(f"{cls.__name__}.{f.name}")
        if isinstance(rule, tuple):
            refs.append((f.name, *rule))
            continue
        enc, dec = _coder(hints[f.name], rule == KEY_ORDER)
        if enc is None and rule is None:
            plain.append(f.name)
        else:
            writes.append((f.name, enc, rule == OMIT_EMPTY))
            reads.append((f.name, dec, rule in (OMIT_EMPTY, OPTIONAL)))

    def encode(obj: Any, scope: dict[str, Any] | None) -> dict[str, Any]:
        fields = vars(obj)
        scope = fields if scope is None else scope
        doc = {name: fields[name] for name in plain}
        for name, enc, omit_empty in writes:
            value = fields[name]
            if value or not omit_empty:
                doc[name] = value if enc is None else enc(value, scope)
        for name, write, _ in refs:
            write(doc, fields[name], scope)
        return doc

    def decode(data: dict[str, Any], scope: dict[str, Any] | None) -> Any:
        kwargs = {name: data[name] for name in plain}
        scope = kwargs if scope is None else scope
        for name, dec, optional in reads:
            if name in data or not optional:  # else the field's default
                value = data[name]
                kwargs[name] = value if dec is None else dec(value, scope)
        for name, _, read in refs:
            kwargs[name] = read(data, scope)
        return cls(**kwargs)

    return encode, decode


# ---------------------------------------------------------------------------
# the analysis document
# ---------------------------------------------------------------------------


def analysis_to_dict(result: AnalysisResult) -> dict[str, Any]:
    """Convert *result* to the versioned JSON-compatible document."""
    return {"schema_version": SCHEMA_VERSION, **dataclass_to_dict(result)}


def analysis_from_dict(data: dict[str, Any]) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from :func:`analysis_to_dict`.

    Unknown top-level keys are ignored, so producers may attach extension
    sections (the CLI's ``bench --json`` adds a ``simulation`` block).
    """
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported analysis schema version {version!r}")
    return dataclass_from_dict(AnalysisResult, data)


# ---------------------------------------------------------------------------
# service job-record envelope
# ---------------------------------------------------------------------------

#: Lifecycle states of an analysis-service job (see :mod:`repro.service`).
#: Terminal states are ``done``, ``failed``, and ``cancelled``; a failed
#: job's ``error`` field is the :class:`~repro.runtime.parallel.FailedOutcome`
#: record with its ``"failed": true`` marker.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def job_record(job: dict[str, Any]) -> dict[str, Any]:
    """Stamp a service job dict as a versioned job-record envelope.

    Job records are a third document kind riding on the analysis schema
    version (like the sweep outcome records): the envelope adds
    ``schema_version`` and a ``"record": "job"`` discriminator, leaving the
    job payload untouched.  A job's ``result`` field holds an ordinary
    analysis or outcome document, so consumers dispatch with the machinery
    they already have.

    Since the execution-core refactor the envelope also carries three
    provenance fields (tolerated extensions under schema version 1 — old
    consumers that ignore unknown keys keep working):

    ``digest``
        The submission's content address (``repro.service.jobs.job_digest``)
        — equal digests mean executing either submission would produce the
        same result document.
    ``coalesced_with``
        The leader job's id when this submission attached to identical
        in-flight work instead of executing (``null`` for jobs that ran).
    ``backend``
        Which execution backend (``thread``/``process``) ran — or would
        run — the job.
    """
    doc = dict(job)
    doc["schema_version"] = SCHEMA_VERSION
    doc["record"] = "job"
    return doc


def validate_job_record(doc: dict[str, Any]) -> dict[str, Any]:
    """Check *doc* is a job record of this schema version; return it.

    Raises :class:`ValueError` on a version mismatch, a missing ``"job"``
    discriminator, or an unknown lifecycle state.
    """
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported job record schema version {version!r}")
    if doc.get("record") != "job":
        raise ValueError("document is not a job record")
    state = doc.get("state")
    if state not in JOB_STATES:
        raise ValueError(f"unknown job state {state!r}")
    coalesced_with = doc.get("coalesced_with")
    if coalesced_with is not None and not isinstance(coalesced_with, int):
        raise ValueError(
            f"'coalesced_with' must be a job id or null, got {coalesced_with!r}"
        )
    digest = doc.get("digest")
    if digest is not None and not isinstance(digest, str):
        raise ValueError(f"'digest' must be a hex string, got {digest!r}")
    return doc


#: Lifecycle states of a campaign cell (see :mod:`repro.campaign`).
#: ``done``/``failed`` are terminal; ``pending`` cells are planned work an
#: interrupted ``campaign run`` resumes.
CAMPAIGN_CELL_STATES = ("pending", "done", "failed")


def campaign_record(cell: dict[str, Any]) -> dict[str, Any]:
    """Stamp a campaign-cell dict as a versioned campaign-record envelope.

    Campaign records are a fourth document kind riding on the analysis
    schema version (a tolerated extension beside the job-record envelope):
    the envelope adds ``schema_version`` and a ``"record": "campaign_cell"``
    discriminator, leaving the cell's fields untouched.  A cell's
    ``result`` field holds an ordinary outcome document — the exact bytes
    ``BenchmarkOutcome.to_dict()`` produced when the cell ran — so
    consumers dispatch with the machinery they already have, and Table III
    regenerated from a stored campaign is byte-identical to a live sweep.

    Expected cell fields: ``campaign``, ``cell_id``, the axis coordinates
    (``program``, ``machine``, ``scale``, ``threshold``), the content
    ``digest`` of the cell's bench payload
    (:func:`repro.service.jobs.job_digest`), ``state``, and
    ``result``/``error``.
    """
    doc = dict(cell)
    doc["schema_version"] = SCHEMA_VERSION
    doc["record"] = "campaign_cell"
    return doc


def validate_campaign_record(doc: dict[str, Any]) -> dict[str, Any]:
    """Check *doc* is a campaign-cell record of this schema version.

    Raises :class:`ValueError` on a version mismatch, a missing
    ``"campaign_cell"`` discriminator, an unknown cell state, or missing
    coordinates.
    """
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported campaign record schema version {version!r}")
    if doc.get("record") != "campaign_cell":
        raise ValueError("document is not a campaign cell record")
    state = doc.get("state")
    if state not in CAMPAIGN_CELL_STATES:
        raise ValueError(f"unknown campaign cell state {state!r}")
    for field in ("campaign", "cell_id", "program", "machine"):
        if not isinstance(doc.get(field), str) or not doc.get(field):
            raise ValueError(f"campaign record missing {field!r}")
    digest = doc.get("digest")
    if not isinstance(digest, str) or not digest:
        raise ValueError(f"'digest' must be a non-empty hex string, got {digest!r}")
    return doc


def strip_trace_timings(doc: dict[str, Any]) -> dict[str, Any]:
    """Copy of an analysis document with trace wall-clock timings zeroed.

    Everything in the document is deterministic except the per-stage
    ``wall_time_s`` measurements and the optional ``trace.spans`` block —
    spans are wall-clock telemetry whose *structure* also varies with the
    execution path (a warm-cache run has a ``cache.read`` span where a cold
    run has the profiling work; a service run adds queue-wait).  Stripping
    zeroes the stage timings and drops the spans block entirely, so two
    runs of the same analysis agree byte-for-byte on the canonical JSON of
    their stripped forms — the identity the service's round-trip tests
    and the golden document digests need.
    """
    doc = dict(doc)
    trace = doc.get("trace")
    if trace is not None:
        trace = dict(trace)
        trace["stages"] = [dict(st, wall_time_s=0.0) for st in trace["stages"]]
        trace.pop("spans", None)
        doc["trace"] = trace
    return doc


