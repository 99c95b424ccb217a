"""Issue queue: holds dispatched instructions until their operands arrive.

Two instances exist (INT and FP, 128 entries each per Table 2).  Entries
whose dependences are satisfied sit in an age-ordered ready heap; issue
pops oldest-first subject to functional-unit availability.  Entries leave
the queue when issued.  The queue is slotted state: dispatch, wake-up and
issue in :mod:`repro.core.pipeline` read and write ``size`` and
``_ready`` directly.
"""

from __future__ import annotations

from repro.core.inflight import InFlight


class IssueQueue:
    """Bounded issue queue with an age-ordered ready heap."""

    __slots__ = ("capacity", "size", "_ready")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0  # waiting + ready, i.e. dispatched but not issued
        self._ready: list[tuple[int, InFlight]] = []  # heap of (seq, ins)

    def clear(self) -> None:
        """Squash all entries (pipeline flush)."""
        self.size = 0
        self._ready.clear()
