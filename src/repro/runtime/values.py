"""Runtime value model: scalar cells and addressable arrays.

Every scalar variable binding owns a :class:`ScalarCell` with a unique
address; by-reference parameters share the caller's cell, so the dynamic
dependence profiler naturally sees aliasing through reference parameters —
this is what lets reduction detection work across function boundaries
(Listing 9, ``sum_module``).

Arrays occupy a contiguous address range ``[base, base + size)``; the element
``A[i][j]`` lives at ``base + i*ncols + j`` (row-major), matching how the
paper's profiler identifies memory locations by address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import InterpreterError


class AddressSpace:
    """Monotonic address allocator shared by one interpreter run."""

    def __init__(self) -> None:
        self._next = 0x1000

    def alloc(self, size: int) -> int:
        base = self._next
        self._next += size
        return base


@dataclass(slots=True)
class ScalarCell:
    """A scalar variable's storage: one address, one value."""

    addr: int
    value: int | float
    name: str


class ArrayValue:
    """A dense row-major array of ``int`` or ``float`` elements."""

    __slots__ = ("dtype", "shape", "data", "base", "name", "_strides")

    def __init__(
        self,
        dtype: str,
        shape: Sequence[int],
        space: AddressSpace,
        name: str = "",
        fill: int | float | None = None,
    ) -> None:
        if dtype not in ("int", "float"):
            raise InterpreterError(f"bad array dtype {dtype!r}")
        self.dtype = dtype
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise InterpreterError(f"non-positive array extent in {name!r}: {self.shape}")
        size = 1
        for s in self.shape:
            size *= s
        if fill is None:
            fill = 0 if dtype == "int" else 0.0
        self.data: list[int | float] = [fill] * size
        self.base = space.alloc(size)
        self.name = name
        strides = []
        acc = 1
        for s in reversed(self.shape):
            strides.append(acc)
            acc *= s
        self._strides = tuple(reversed(strides))

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def flat_index(self, indices: Sequence[int], line: int = 0) -> int:
        """Row-major flat offset of *indices*, bounds-checked."""
        if len(indices) != len(self.shape):
            raise InterpreterError(
                f"array {self.name!r} expects {len(self.shape)} indices, got {len(indices)}",
                line=line,
            )
        flat = 0
        for ix, extent, stride in zip(indices, self.shape, self._strides):
            ix = int(ix)
            if ix < 0 or ix >= extent:
                raise InterpreterError(
                    f"index {ix} out of bounds for extent {extent} of array {self.name!r}",
                    line=line,
                )
            flat += ix * stride
        return flat

    def get(self, flat: int) -> int | float:
        return self.data[flat]

    def set(self, flat: int, value: int | float) -> None:
        self.data[flat] = int(value) if self.dtype == "int" else float(value)

    # -- conversion helpers ------------------------------------------------

    @classmethod
    def from_numpy(
        cls, arr: np.ndarray, space: AddressSpace, name: str = ""
    ) -> "ArrayValue":
        dtype = "int" if np.issubdtype(arr.dtype, np.integer) else "float"
        out = cls(dtype, arr.shape, space, name=name)
        flat = arr.ravel(order="C")
        if dtype == "int":
            out.data = [int(v) for v in flat]
        else:
            out.data = [float(v) for v in flat]
        return out

    @classmethod
    def from_list(
        cls, values: Iterable, dtype: str, space: AddressSpace, name: str = ""
    ) -> "ArrayValue":
        arr = np.asarray(list(values), dtype=np.int64 if dtype == "int" else np.float64)
        return cls.from_numpy(arr, space, name=name)

    def to_numpy(self) -> np.ndarray:
        dtype = np.int64 if self.dtype == "int" else np.float64
        return np.asarray(self.data, dtype=dtype).reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue({self.name!r}, {self.dtype}, shape={self.shape}, base={self.base:#x})"
