"""Dynamic profiling: the DiscoPoP-equivalent analyses.

One instrumented run (Section II of the paper) produces a
:class:`~repro.profiling.model.Profile` containing

* data dependences (RAW/WAR/WAW) between source lines, each attributed to the
  control region that owns it and classified as loop-carried or
  loop-independent,
* the Program Execution Tree (PET) with per-node instruction counts, trip
  counts, and recursion merging,
* per-loop variable access tables (write/read lines) used by the reduction
  detector (Algorithm 3),
* privatization facts (variables whose first access in every iteration is a
  write),
* iteration-number pairs ``(i_x, i_y)`` for dependent loop pairs — the input
  to the multi-loop pipeline regression (Section III-A), and
* the dynamic call/loop tree with inclusive costs, used for work/span
  estimates.

Profiles from runs with different inputs can be merged with
:meth:`Profile.merge`, mirroring the paper's mitigation for input
sensitivity.
"""

from repro.profiling.model import (
    CallNode,
    DepKey,
    PETNode,
    Profile,
    RAW,
    WAR,
    WAW,
)
from repro.profiling.profiler import Profiler
from repro.profiling.runner import profile_run, profile_runs
from repro.profiling.hotspots import hotspot_regions
from repro.profiling.cache import (
    ProfileCache,
    cached_profile_runs,
    profile_cache_key,
)
from repro.profiling.serialize import (
    canonical_profile_json,
    load_profile,
    profile_digest,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

__all__ = [
    "CallNode",
    "DepKey",
    "PETNode",
    "Profile",
    "ProfileCache",
    "Profiler",
    "RAW",
    "WAR",
    "WAW",
    "cached_profile_runs",
    "profile_cache_key",
    "profile_run",
    "profile_runs",
    "hotspot_regions",
    "canonical_profile_json",
    "load_profile",
    "profile_digest",
    "profile_from_dict",
    "profile_to_dict",
    "save_profile",
]
