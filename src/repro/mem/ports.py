"""Per-cycle port arbitration for shared structures.

The L1 data cache has 4 read/write ports (Table 2); committing stores and
issuing loads compete for them every cycle.  ``PortPool`` hands out
grants until exhausted; the cycle loop releases every port by zeroing
``_used`` at the top of each simulated cycle.
"""

from __future__ import annotations


class PortPool:
    """Counts port grants within a cycle; denies when exhausted."""

    __slots__ = ("ports", "_used")

    def __init__(self, ports: int):
        if ports < 1:
            raise ValueError("need at least one port")
        self.ports = ports
        self._used = 0

    def try_acquire(self) -> bool:
        """Grab one port if available; returns success."""
        if self._used < self.ports:
            self._used += 1
            return True
        return False
