"""Lightweight statistics accumulators.

The simulator accumulates per-cycle and per-event statistics over millions
of events; these classes keep that O(1) per event with no growing storage
(except the explicitly bounded histogram).
"""

from __future__ import annotations


class Counter:
    """Named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (must be >= 0)."""
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Bounded integer histogram with an overflow bucket.

    Used for occupancy distributions (e.g. SharedLSQ entries in use per
    cycle) where we need quantiles such as "entries needed 99% of the time".
    """

    __slots__ = ("buckets", "overflow", "max_value")

    def __init__(self, max_value: int):
        if max_value < 0:
            raise ValueError("max_value must be >= 0")
        self.max_value = max_value
        self.buckets = [0] * (max_value + 1)
        self.overflow = 0

    def add(self, value: int, weight: int = 1) -> None:
        """Record ``value`` with the given weight."""
        if value < 0:
            raise ValueError("histogram values must be >= 0")
        if value > self.max_value:
            self.overflow += weight
        else:
            self.buckets[value] += weight

    @property
    def count(self) -> int:
        """Total recorded weight."""
        return sum(self.buckets) + self.overflow

    @property
    def mean(self) -> float:
        """Mean of recorded values (overflow counted at ``max_value + 1``)."""
        n = self.count
        if n == 0:
            return 0.0
        s = sum(v * c for v, c in enumerate(self.buckets))
        s += (self.max_value + 1) * self.overflow
        return s / n

    def quantile(self, q: float) -> int:
        """Smallest value v such that P(X <= v) >= q.

        Returns ``max_value + 1`` when the quantile falls in the overflow
        bucket.  ``q`` must be in (0, 1].
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        n = self.count
        if n == 0:
            return 0
        need = q * n
        running = 0
        for v, c in enumerate(self.buckets):
            running += c
            if running >= need:
                return v
        return self.max_value + 1
