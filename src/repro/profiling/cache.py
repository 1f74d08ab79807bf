"""Content-addressed on-disk profile cache.

DiscoPoP decouples the expensive instrumented run from the cheap analysis
phases by dumping profiler output to files; this module adds the missing
piece for iterative use — **automatic invalidation**.  A cached profile is
stored under a key that is the SHA-256 of everything that determines its
contents:

* the program source text and the entry function name,
* every argument set, canonically encoded (numpy arrays contribute dtype,
  shape, and raw bytes; scalars their ``repr``),
* the profiler configuration (``max_cost``; every profile records its
  call tree), and
* the profile format and cache layout versions.

Change any input and the key changes, so stale entries are simply never
hit; matching source + inputs + config always replay the exact profile the
interpreter would produce (profiles are deterministic).  Entries live under
``<root>/<key[:2]>/<key>.json`` as layout-2 text, which this module owns
(:func:`encode_entry`, :func:`decode_entry`): format 1 of
:mod:`repro.profiling.serialize`, except that the call tree is stored as
parallel preorder columns, about a quarter of the bytes and no per-node
dicts to decode.  An entry is not the canonical dump, so
``profile_digest`` is still the SHA-256 of the format-1 text of the
*loaded* profile.

The root directory defaults to ``$REPRO_PROFILE_CACHE`` or
``~/.cache/repro/profiles``.  Writes are atomic (temp file + ``os.replace``)
so concurrent processes — e.g. the workers of
:mod:`repro.runtime.parallel` — can share one cache; a corrupted or
truncated entry is deleted and treated as a miss.

The cache is strictly best-effort: an entry that cannot be *read*
(permissions, I/O error) is a miss that bumps ``CacheStats.read_errors``,
and a failed *store* after a successful profiling run (read-only root,
full disk) bumps ``CacheStats.store_errors`` and still returns the
computed profile — cache trouble never forfeits completed work.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.lang.ast_nodes import Program
from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.profiling.model import CallNode, Profile
from repro.profiling.runner import profile_runs
from repro.profiling.serialize import (
    _FORMAT_VERSION,
    canonical_json,
    profile_from_dict,
    profile_json,
)

_CACHE_LAYOUT_VERSION = 2

_ENV_VAR = "REPRO_PROFILE_CACHE"


def default_cache_root() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "profiles"


def _encode_arg(arg: Any, h: "hashlib._Hash") -> None:
    """Feed one argument's canonical encoding into *h*.

    Arrays (numpy or nested lists) contribute dtype, shape, and raw bytes;
    scalars contribute their repr.  Distinct types never collide because
    each encoding starts with a distinct tag.
    """
    if isinstance(arg, np.ndarray):
        h.update(b"nd:")
        h.update(str(arg.dtype).encode())
        h.update(repr(arg.shape).encode())
        h.update(np.ascontiguousarray(arg).tobytes())
    elif isinstance(arg, (list, tuple)):
        arr = np.asarray(arg)
        if arr.dtype == object:  # ragged / mixed: fall back to repr
            h.update(b"py:")
            h.update(repr(arg).encode())
        else:
            _encode_arg(arr, h)
    elif isinstance(arg, (bool, int, float, str)):
        h.update(f"{type(arg).__name__}:{arg!r}".encode())
    else:
        h.update(b"py:")
        h.update(repr(arg).encode())


def profile_cache_key(
    source: str,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    max_cost: int = 500_000_000,
) -> str:
    """The content address for a profile of ``entry(*args)`` over *source*."""
    h = hashlib.sha256()
    h.update(f"repro-profile-cache:{_CACHE_LAYOUT_VERSION}:{_FORMAT_VERSION}\n".encode())
    h.update(source.encode("utf-8"))
    h.update(b"\x00entry:")
    h.update(entry.encode("utf-8"))
    # Every profile records its call tree; ``calltree=True`` stays in the
    # hashed text so existing entries and job digests keep their addresses.
    h.update(f"\x00config:calltree=True:max_cost={max_cost}".encode())
    for args in arg_sets:
        h.update(b"\x00argset\x00")
        for arg in args:
            h.update(b"\x00arg\x00")
            _encode_arg(arg, h)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# layout 2: format 1 with the call tree as parallel preorder columns
# ---------------------------------------------------------------------------

#: One value per call-tree node, in preorder.  ``kind`` indexes the
#: section's ``kinds`` list; ``children`` is the node's child count.
_COLUMNS = (
    "act_id", "region", "kind", "site_line",
    "inclusive_cost", "exclusive_cost", "per_iter_cost", "children",
)

#: What a corrupted entry raises while it is decoded.
_DECODE_ERRORS = (ValueError, LookupError, TypeError, RecursionError)


def encode_entry(profile: Profile) -> str:
    """The layout-2 text of *profile*."""
    root = profile.calltree
    if root is None:
        return profile_json(profile, "null")
    order = list(root.walk())
    kinds: dict[str, int] = {}
    columns = {
        "act_id": [node.act_id for node in order],
        "region": [node.region for node in order],
        "kind": [kinds.setdefault(node.kind, len(kinds)) for node in order],
        "site_line": [node.site_line for node in order],
        "inclusive_cost": [node.inclusive_cost for node in order],
        "exclusive_cost": [node.exclusive_cost for node in order],
        "per_iter_cost": [node.per_iter_cost for node in order],
        "children": [len(node.children) for node in order],
    }
    columns["kinds"] = list(kinds)
    return profile_json(profile, canonical_json(columns))


def decode_entry(data: bytes) -> Profile:
    """Rebuild the profile :func:`encode_entry` wrote.

    Anything else raises one of ``_DECODE_ERRORS``: bytes that are not
    UTF-8 JSON, a document that is not an object, a section format 1's
    decoder rejects, or call-tree columns that do not describe one tree.
    """
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"cache entry holds a JSON {type(doc).__name__}, not an object")
    profile = profile_from_dict({**doc, "calltree": None})
    if doc["calltree"] is not None:
        profile.calltree = _calltree_from_columns(doc["calltree"])
    return profile


def _calltree_from_columns(columns: dict[str, Any]) -> CallNode:
    """The call tree in one pass over the columns.

    In preorder, each node is the next child of the innermost node whose
    children are not all read yet.  Columns of unequal length, and child
    counts that start a second tree or leave a node short of children,
    raise ``ValueError``.
    """
    kinds = columns["kinds"]
    root = parent = None
    left = 0  # children of *parent* still to read
    enclosing: list[tuple[CallNode | None, int]] = []
    for act_id, region, kind, site_line, inclusive, exclusive, per_iter, count in zip(
        *(columns[name] for name in _COLUMNS), strict=True
    ):
        node = CallNode(
            act_id, region, kinds[kind], site_line, parent, [], inclusive, exclusive, per_iter
        )
        if parent is not None:
            parent.children.append(node)
            left -= 1
        elif root is None:
            root = node
        else:
            raise ValueError("call-tree columns hold more than one tree")
        if count:
            enclosing.append((parent, left))
            parent, left = node, count
        else:
            while not left and parent is not None:
                parent, left = enclosing.pop()
    if root is None or parent is not None:
        raise ValueError("call-tree child counts do not close into one tree")
    return root


#: CacheStats counter names, in reporting order.
_STAT_FIELDS = ("hits", "misses", "stores", "evictions", "read_errors", "store_errors")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0  # corrupted entries removed
    #: present-but-unreadable entries (permissions, I/O errors) — a broken
    #: cache, unlike the cold misses above; each also counts as a miss
    #: because the profile is recomputed.
    read_errors: int = 0
    #: failed persists after a successful profiling run (read-only root,
    #: full disk); the computed profile is still returned to the caller.
    store_errors: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, int]:
        # locks don't pickle; a CacheStats shipped across processes carries
        # only its counters and grows a fresh lock on arrival
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def __setstate__(self, state: dict[str, int]) -> None:
        for name in _STAT_FIELDS:
            setattr(self, name, state.get(name, 0))
        self._lock = threading.Lock()

    def bump(self, counter: str, delta: int = 1) -> None:
        """Atomically increment one counter and mirror it into the global
        metrics registry (``repro_profile_cache_<counter>_total``).

        The cache object is shared across the service's executor worker
        threads, so bare ``stats.hits += 1`` read-modify-writes can lose
        updates; every internal increment goes through here.
        """
        if counter not in _STAT_FIELDS:
            raise ValueError(f"unknown cache counter {counter!r}")
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)
        get_registry().counter(
            f"repro_profile_cache_{counter}_total",
            f"Profile cache {counter.replace('_', ' ')}",
        ).inc(delta)

    def as_dict(self) -> dict[str, int]:
        """Point-in-time snapshot of every counter.

        The analysis service's ``/v1/stats`` endpoint reports this for its
        shared cache; callers get plain ints, so the snapshot stays stable
        while the live counters keep moving.  Taken under the lock, so a
        snapshot never interleaves with a concurrent :meth:`bump`.
        """
        with self._lock:
            return {name: getattr(self, name) for name in _STAT_FIELDS}

    def merge(self, other: "CacheStats", mirror_metrics: bool = False) -> None:
        """Accumulate *other*'s counters (e.g. per-worker caches) into self.

        By default merged totals are bookkeeping only — an **in-process**
        worker's cache already mirrored its increments into the shared
        registry, so re-mirroring here would double-count the scrape.  Pass
        ``mirror_metrics=True`` when *other* crossed a process boundary
        (the service's process backend ships each worker's ``CacheStats``
        back with the result): the worker's own registry increments died
        with its process, so this merge is their only path into the
        daemon's ``repro_profile_cache_*_total`` counters.
        """
        snapshot = other.as_dict()
        with self._lock:
            for name, value in snapshot.items():
                setattr(self, name, getattr(self, name) + value)
        if mirror_metrics:
            for name, value in snapshot.items():
                if value:
                    get_registry().counter(
                        f"repro_profile_cache_{name}_total",
                        f"Profile cache {name.replace('_', ' ')}",
                    ).inc(value)


@dataclass
class ProfileCache:
    """Filesystem-backed content-addressed store of :class:`Profile` dumps."""

    root: Path = field(default_factory=default_cache_root)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Profile | None:
        """Return the cached profile for *key*, or None on miss.

        A file that fails to decode (truncated write, disk corruption, or an
        incompatible format version) is removed and reported as a miss.  An
        entry that exists but cannot be read (``PermissionError``, ``EIO``)
        is also a miss, but bumps ``read_errors`` so operators can tell a
        broken cache from a cold one.
        """
        path = self.path_for(key)
        t0 = time.perf_counter()
        with tracing.span("cache.read", key=key[:12]) as sp:
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self.stats.bump("misses")
                sp.set(outcome="miss")
                self._observe("read", t0)
                return None
            except OSError:
                self.stats.bump("read_errors")
                self.stats.bump("misses")
                sp.set(outcome="read_error")
                self._observe("read", t0)
                return None
            try:
                profile = decode_entry(data)
            except _DECODE_ERRORS:
                self.stats.bump("evictions")
                self.stats.bump("misses")
                try:
                    path.unlink()
                except OSError:
                    pass
                sp.set(outcome="evicted")
                self._observe("read", t0)
                return None
            self.stats.bump("hits")
            sp.set(outcome="hit")
            self._observe("read", t0)
            return profile

    def store(self, key: str, profile: Profile) -> Path:
        """Persist *profile* under *key* atomically; return its path."""
        path = self.path_for(key)
        t0 = time.perf_counter()
        with tracing.span("cache.store", key=key[:12]):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(encode_entry(profile))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stats.bump("stores")
            self._observe("store", t0)
            return path

    def _observe(self, op: str, t0: float) -> None:
        get_registry().histogram(
            f"repro_cache_{op}_seconds",
            f"Wall-clock seconds of one profile cache {op}",
        ).observe(time.perf_counter() - t0)


def cached_profile_runs(
    program: Program,
    entry: str,
    arg_sets: Sequence[Sequence[Any]],
    max_cost: int = 500_000_000,
    cache: ProfileCache | None = None,
    engine: str = "compiled",
) -> tuple[Profile, bool]:
    """Like :func:`repro.profiling.runner.profile_runs`, but cache-backed.

    Returns ``(profile, was_hit)``.  On a hit the interpreter never runs; on
    a miss the merged profile is computed and stored before returning.
    ``cache=None`` means no cache: the profile is always computed, nothing
    is read or written, and ``was_hit`` is False.

    *engine* selects the execution engine on a miss.  It is deliberately
    **not** part of the cache key: both engines produce byte-identical
    canonical profiles (enforced by the differential test suite), so an
    entry computed by either is valid for both and switching engines never
    cold-starts the cache.
    """
    if cache is not None:
        # Programs assembled via ProgramBuilder have no source text; their
        # AST repr is deterministic and serves as the content to hash.
        key = profile_cache_key(
            program.source or repr(program), entry, arg_sets, max_cost=max_cost
        )
        profile = cache.load(key)
        if profile is not None:
            return profile, True
    profile = profile_runs(program, entry, arg_sets, max_cost=max_cost, engine=engine)
    if cache is not None:
        # The profile is already computed; an unwritable cache (read-only
        # dir, full disk) must not forfeit it.  Future calls recompute.
        try:
            cache.store(key, profile)
        except OSError:
            cache.stats.bump("store_errors")
    return profile, False
