"""Built-in functions callable from MiniC code.

Intrinsics model the C math library calls that appear in the paper's
benchmarks (``sqrt`` in correlation/kmeans, ``fabs`` in ludcmp, ...).  Each
intrinsic has a fixed cost in IR-instruction units, charged by the
interpreter on top of argument-evaluation cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class IntrinsicSpec:
    """A built-in function: fixed *arity* (``None`` = variadic) and *cost*."""

    name: str
    arity: int | None
    cost: int
    fn: Callable


INTRINSICS: dict[str, IntrinsicSpec] = {
    spec.name: spec
    for spec in (
        IntrinsicSpec("sqrt", 1, 8, math.sqrt),
        IntrinsicSpec("fabs", 1, 2, abs),
        IntrinsicSpec("abs", 1, 2, abs),
        IntrinsicSpec("exp", 1, 10, math.exp),
        IntrinsicSpec("log", 1, 10, math.log),
        IntrinsicSpec("sin", 1, 10, math.sin),
        IntrinsicSpec("cos", 1, 10, math.cos),
        IntrinsicSpec("floor", 1, 2, lambda x: float(math.floor(x))),
        IntrinsicSpec("ceil", 1, 2, lambda x: float(math.ceil(x))),
        IntrinsicSpec("pow", 2, 12, lambda x, y: float(x) ** float(y)),
        IntrinsicSpec("min", 2, 2, min),
        IntrinsicSpec("max", 2, 2, max),
        IntrinsicSpec("toint", 1, 1, lambda x: int(x)),
        IntrinsicSpec("tofloat", 1, 1, lambda x: float(x)),
    )
}
