"""Fixed-capacity FIFO for the SAMIE AddrBuffer.

The modelled AddrBuffer is bounded in hardware; this container makes the
bound explicit so insertion fails rather than silently growing, which
keeps the timing model honest.  The other bounded pipeline structures
(ROB, fetch queue) are plain deques whose capacity the cycle loop
checks itself.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class BoundedFIFO(Generic[T]):
    """A FIFO with a hard capacity and non-throwing ``try_push``.

    Models the SAMIE AddrBuffer: a cheap structure with no associative
    search, where insertion simply fails when the buffer is full.  Backed
    by a :class:`collections.deque` exposed as ``_buf``, which the SAMIE
    model polls and drains head-first every cycle.
    """

    __slots__ = ("_buf", "capacity")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buf: deque[T] = deque()
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._buf)

    def try_push(self, item: T) -> bool:
        """Append ``item`` if space is available; return success."""
        if len(self._buf) >= self.capacity:
            return False
        self._buf.append(item)
        return True

    def clear(self) -> None:
        """Drop all elements."""
        self._buf.clear()

    def __iter__(self) -> Iterator[T]:
        return iter(self._buf)
