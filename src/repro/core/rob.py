"""Reorder buffer: bounded, age-ordered window of in-flight instructions.

The paper extends each ROB entry with a ``readyBit`` (memory
disambiguation) and a ``whereLSQ`` field (location of the instruction in
the LSQ).  In this model those live on :class:`~repro.core.inflight.
InFlight` (``disamb_resolved`` plays the readyBit role for stores and
``placement`` is whereLSQ); the ROB provides ordering, capacity and the
head used for in-order commit and deadlock detection.  It is also the
pipeline's only record of what is in flight: it holds consecutive seqs,
so the pipeline finds a producer by its position (DESIGN.md §3.2).
"""

from __future__ import annotations

from collections import deque

from repro.core.inflight import InFlight


class ReorderBuffer:
    """Bounded in-order window.

    Backed by a :class:`collections.deque` exposed as ``buf``: dispatch
    appends to it (after checking ``capacity``) and commit pops its head
    directly in :mod:`repro.core.pipeline`, so those stay C-speed.
    """

    __slots__ = ("buf", "capacity")

    def __init__(self, entries: int = 256):
        if entries < 1:
            raise ValueError(f"capacity must be >= 1, got {entries}")
        self.buf: deque[InFlight] = deque()
        self.capacity = entries

    def __len__(self) -> int:
        return len(self.buf)

    def head(self) -> InFlight | None:
        """Oldest in-flight instruction, or None when empty."""
        return self.buf[0] if self.buf else None

    def clear(self) -> None:
        """Squash the window (pipeline flush)."""
        self.buf.clear()
