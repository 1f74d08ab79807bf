"""Simulation outcome container."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimOutcome:
    """Result of simulating one parallel region at a fixed thread count."""

    threads: int
    serial_time: float
    parallel_time: float

    @property
    def speedup(self) -> float:
        if self.parallel_time <= 0:
            return 1.0
        return self.serial_time / self.parallel_time

    def __add__(self, other: "SimOutcome") -> "SimOutcome":
        if other == 0:  # pragma: no cover - sum() support
            return self
        if self.threads != other.threads:
            raise ValueError("cannot add outcomes at different thread counts")
        return SimOutcome(
            threads=self.threads,
            serial_time=self.serial_time + other.serial_time,
            parallel_time=self.parallel_time + other.parallel_time,
        )

    __radd__ = __add__
