"""Corpus directories as sweepable workload suites.

:func:`register_corpus` turns every program of a generated corpus into an
ordinary :class:`~repro.bench_programs.registry.BenchmarkSpec`, so the
whole existing sweep surface works on corpora unchanged: ``analyze_registry``
fans them across processes, the service accepts ``bench``/``sweep`` jobs
naming them, and campaigns grid over them like any bench program.

**The environment bridge.**  Sweep workers resolve benchmark names *in
their own process* (``analyze_one`` and the service's process backend both
call ``get_benchmark(name)`` after the fork), so in-process registration
alone would leave child processes unable to find corpus programs.
Registration therefore also appends the corpus directory to the
``REPRO_CORPUS_PATH`` environment variable (``os.pathsep``-separated), and
the bench registry's ``_load_all`` hook calls :func:`autoload_registered`
— any process that inherits the environment rebuilds the same registry
view on first benchmark lookup.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.corpus.labels import (
    source_digest,
    validate_label_record,
    validate_manifest_record,
)

#: ``os.pathsep``-separated corpus directories that child processes (sweep
#: workers, service process backends) re-register on first registry load.
ENV_VAR = "REPRO_CORPUS_PATH"

#: directories already registered in this process (absolute paths)
_LOADED_DIRS: set[str] = set()


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus program: source plus its ground-truth label."""

    name: str
    template: str
    source: str
    entry: str
    arg_specs: tuple[tuple[str, str], ...]
    truth: dict[str, bool]
    transforms: tuple[str, ...]
    source_digest: str


@dataclass(frozen=True)
class CorpusSuite:
    """A loaded corpus: manifest plus entries in generation order."""

    name: str
    directory: str
    manifest: dict[str, Any]
    entries: tuple[CorpusEntry, ...]

    @property
    def corpus_digest(self) -> str:
        return self.manifest["corpus_digest"]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


def load_corpus(directory: str | Path) -> CorpusSuite:
    """Load and validate a corpus directory (manifest, labels, digests).

    Every label is checked against its source file's actual digest, so a
    corrupted or hand-edited corpus fails here rather than mis-scoring.
    """
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no corpus manifest at {manifest_path}")
    manifest = validate_manifest_record(
        json.loads(manifest_path.read_text(encoding="utf-8"))
    )
    entries: list[CorpusEntry] = []
    for item in manifest["programs"]:
        name = item["name"]
        source = (root / "programs" / f"{name}.c").read_text(encoding="utf-8")
        label = validate_label_record(
            json.loads((root / "labels" / f"{name}.json").read_text(encoding="utf-8"))
        )
        digest = source_digest(source)
        if digest != label["source_digest"] or digest != item["source_digest"]:
            raise ValueError(
                f"corpus program {name!r}: source digest mismatch "
                "(file was modified after generation)"
            )
        entries.append(
            CorpusEntry(
                name=name,
                template=label["template"],
                source=source,
                entry=label["entry"],
                arg_specs=tuple((kind, value) for kind, value in label["args"]),
                truth=dict(label["truth"]),
                transforms=tuple(label["transforms"]),
                source_digest=digest,
            )
        )
    return CorpusSuite(
        name=manifest["name"],
        directory=str(root),
        manifest=manifest,
        entries=tuple(entries),
    )


def _entry_spec(suite_name: str, entry: CorpusEntry):
    """Build the BenchmarkSpec for one corpus entry."""
    from repro.bench_programs.registry import BenchmarkSpec, PaperRow
    from repro.service.jobs import build_call_args

    present = [dim for dim, flag in entry.truth.items() if flag]
    return BenchmarkSpec(
        name=entry.name,
        suite=suite_name,
        source=entry.source,
        entry=entry.entry,
        make_arg_sets=lambda specs=entry.arg_specs: [build_call_args(specs, seed=0)],
        paper=PaperRow(
            loc=0,
            hotspot_pct=0.0,
            speedup=1.0,
            threads=1,
            pattern="+".join(present) or "none",
        ),
        notes=f"generated corpus program (template {entry.template})",
    )


def register_corpus(
    directory: str | Path, export_env: bool = True
) -> CorpusSuite:
    """Register every program of the corpus at *directory* as a benchmark.

    Idempotent: a directory already registered in this process is loaded
    but not re-registered, and a program name already present in the
    registry is skipped (corpus names are content-addressed, so a
    collision means the identical program).  With *export_env* the
    directory is appended to :data:`ENV_VAR` so later-spawned worker
    processes rebuild the same view.
    """
    from repro.bench_programs import registry

    root = str(Path(directory).resolve())
    suite = load_corpus(root)
    if root not in _LOADED_DIRS:
        _LOADED_DIRS.add(root)
        for entry in suite.entries:
            if entry.name in registry._REGISTRY:
                continue
            registry.register(_entry_spec(suite.name, entry))
    if export_env:
        paths = [p for p in os.environ.get(ENV_VAR, "").split(os.pathsep) if p]
        if root not in paths:
            paths.append(root)
            os.environ[ENV_VAR] = os.pathsep.join(paths)
    return suite


def unregister_corpus(directory: str | Path) -> None:
    """Remove a registered corpus from the registry and :data:`ENV_VAR`.

    The inverse of :func:`register_corpus`, used by tests and embedded
    services so corpus programs do not leak into later default sweeps
    (``analyze_registry()`` with no names, the default campaign grid).
    Unknown directories are a no-op.
    """
    from repro.bench_programs import registry

    root = str(Path(directory).resolve())
    try:
        suite = load_corpus(root)
    except (OSError, ValueError, json.JSONDecodeError):
        suite = None
    if suite is not None:
        for entry in suite.entries:
            registry._REGISTRY.pop(entry.name, None)
    _LOADED_DIRS.discard(root)
    paths = [
        p for p in os.environ.get(ENV_VAR, "").split(os.pathsep) if p and p != root
    ]
    if paths:
        os.environ[ENV_VAR] = os.pathsep.join(paths)
    else:
        os.environ.pop(ENV_VAR, None)


def autoload_registered() -> None:
    """Register every corpus directory named in :data:`ENV_VAR`.

    Called from the bench registry's ``_load_all`` hook, so any process
    that inherits the environment (sweep pool workers, service process
    backends, embedded campaign daemons) sees corpus programs without
    explicit setup.  Missing or invalid directories are skipped — a stale
    environment variable must not break unrelated benchmark lookups.
    """
    value = os.environ.get(ENV_VAR, "")
    for path in value.split(os.pathsep):
        if not path or path in _LOADED_DIRS:
            continue
        try:
            register_corpus(path, export_env=False)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            continue
