"""Where the benchmark finds the code it measures, and where it writes.

The benchmark always measures the ``repro`` package under ``src/`` of the
checkout it sits in, never an installed copy: a run in a directory without
``src/repro`` must fail rather than silently measure something else.
Everything the benchmark writes (traces, run records, scratch caches and
the daemon's job store) lives under ``benchmarks/perf/output/``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUTPUT = HERE / "output"

#: Seed at which ``expected.json`` pins the corpus accuracy exactly.
DEFAULT_SEED = 1


class MissingSources(RuntimeError):
    """The checkout has no ``src/repro`` to measure."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSources(f"no repro package under {SRC}")


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and verify that
    ``repro`` really resolves there."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingSources(f"repro resolves to {repro.__file__}, not {SRC}")
    # Library defaults point at ~/.cache; keep every byte inside the checkout.
    os.environ["REPRO_PROFILE_CACHE"] = str(OUTPUT / "default-cache")


def subprocess_env() -> dict[str, str]:
    """Environment for child processes that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_PROFILE_CACHE"] = str(OUTPUT / "default-cache")
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under the output tree; the caller removes it."""
    OUTPUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUTPUT))
