"""Seeded MiniC shapes for the profiler fold's cross-stack memo and
first-touch rules.

The corpus templates rarely reach three rules of the fold
(``repro.profiling.profiler``): a cross-stack memo must not carry one loop's
region into another loop at the same level, nor into the same site lines at
another level, and a read that leaves an outer level unmarked must still
mark it in a later iteration.  Each shape varies one hand case of
``tests/test_profiler_reference.py``:

* ``sibling-loops`` — a leaf loop called from two loops at one depth, with
  every call on one source line (``test_two_loops_at_one_level_keep_their_regions``);
* ``two-levels`` — the same call line inside a loop and right after it
  (``test_same_site_lines_at_two_levels_keep_their_regions``);
* ``partial-write`` — a scalar written in only some iterations of an outer
  loop and read in an inner one (``test_a_level_left_unmarked_is_marked_later``).

The draw varies the trip counts, which outer iterations write, and how
many call sites share one line.  :func:`generate_shapes` is a pure
function of ``(count, seed)``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

SHAPES = ("sibling-loops", "two-levels", "partial-write")


class Shape(NamedTuple):
    shape: str
    source: str
    entry: str
    args: list


def _calls(call: str, k: int) -> str:
    return " ".join([call] * k)


def _leaf(rng: random.Random) -> str:
    body = rng.choice(
        ("A[i] = A[i] + 1;", "A[i] = A[i] + i;", "int t = A[i]; A[i] = t + 1;")
    )
    return f"void g(int A[], int n) {{ for (int i = 0; i < n; i++) {{ {body} }} }}"


def _sibling_loops(rng: random.Random, n: int) -> Shape:
    r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
    k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
    second = rng.choice(("A", "B"))  # k's loop may touch h's array too
    h_loop = f"for (int r = 0; r < {r1}; r++) {{ {_calls('g(A, n);', k1)} }}"
    k_loop = f"for (int s = 0; s < {r2}; s++) {{ {_calls('g(B, n);', k2)} }}"
    h = f"void h(int A[], int n) {{ {h_loop} }}"
    k = f"void k(int B[], int n) {{ {k_loop} }}"
    order = f"h(A, n); k({second}, n);" if rng.random() < 0.7 else f"k({second}, n); h(A, n);"
    source = (
        f"{_leaf(rng)}\n{h} {k}\n"
        f"void f(int A[], int B[], int n) {{ {order} }}\n"
    )
    args = [np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), n]
    return Shape("sibling-loops", source, "f", args)


def _two_levels(rng: random.Random, n: int) -> Shape:
    trips = rng.randint(1, 3)
    inside, after = rng.randint(1, 3), rng.randint(1, 2)
    before = _calls("g(A, n);", rng.randint(0, 1))
    body = (
        f"{before} for (int r = 0; r < {trips}; r++) {{ {_calls('g(A, n);', inside)} }} "
        f"{_calls('g(A, n);', after)}"
    )
    source = f"{_leaf(rng)}\nvoid f(int A[], int n) {{ {body.strip()} }}\n"
    return Shape("two-levels", source, "f", [np.zeros(n, dtype=np.int64), n])


def _partial_write(rng: random.Random, n: int) -> Shape:
    outer = rng.randint(2, 5)
    k = rng.randint(0, outer)
    cond = rng.choice(
        (f"i < {k}", f"i > {k}", f"i == {k}", f"i != {k}", f"i % 2 == {k % 2}")
    )
    inner = rng.randint(0, 3)
    read = rng.choice(("A[j] = A[j] + s;", "A[j] = s;", "int t = s; A[j] = A[j] + t;"))
    deeper = rng.random() < 0.3
    loop = f"for (int j = 0; j < {inner}; j++) {{ {read} }}"
    if deeper:
        loop = f"for (int q = 0; q < 2; q++) {{ {loop} }}"
    tail = rng.choice(("", " s = s + 1;", " A[0] = s;"))
    source = (
        "void f(int A[], int n) {\n"
        "  int s = 0;\n"
        f"  for (int i = 0; i < {outer}; i++) {{\n"
        f"    if ({cond}) {{ s = i; }}\n"
        f"    {loop}{tail}\n"
        "  }\n"
        "}\n"
    )
    return Shape("partial-write", source, "f", [np.zeros(max(n, 3), dtype=np.int64), n])


_MAKERS = {
    "sibling-loops": _sibling_loops,
    "two-levels": _two_levels,
    "partial-write": _partial_write,
}


def generate_shapes(count: int, seed: int) -> list[Shape]:
    """*count* shape programs drawn from *seed*, the shapes in rotation."""
    rng = random.Random(seed)
    return [
        _MAKERS[SHAPES[idx % len(SHAPES)]](rng, rng.randint(1, 5))
        for idx in range(count)
    ]
