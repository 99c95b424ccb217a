"""Composable memory-address stream patterns.

Each pattern produces an endless stream of (address, size) pairs; a
workload profile mixes several patterns with weights.  The patterns map
directly onto the behaviours that drive the paper's results:

* :class:`StridedStream` -- unit/short-stride array walk: many in-flight
  instructions share each 32-byte line (the observation SAMIE exploits).
* :class:`MultiArrayStencil` -- k arrays walked with the same index
  (``a[i]+b[i] -> c[i]``, the SPEC FP kernel shape).
* :class:`ColumnSweep` -- large power-of-two stride (FORTRAN column-major
  array traversal): every access touches a new line but only a few
  distinct DistribLSQ banks, creating the SharedLSQ pressure the paper
  sees for ammp/apsi/mgrid/facerec.
* :class:`PointerChase` -- dependent random walk over a large footprint:
  no line sharing, large TLB footprint (mcf).
* :class:`HotRandom` -- random accesses within a small hot region (heap
  tops, hash tables).
* :class:`StackPattern` -- push/pop traffic over a handful of lines.

All addresses are size-aligned (size is a power of two <= 8), so no access
ever crosses a 32-byte line boundary.

Every pattern has two equivalent forms.  :meth:`AddressPattern.next_access`
produces one access and draws from the rng itself; it is the per-access
reference.  :meth:`AddressPattern.next_accesses` produces the next ``n``
accesses at once from draws made by the caller: :meth:`draw_mask` says
which of them draw, :attr:`draw_bounds` gives each draw's range, and the
addresses are closed forms in the access index (strided, stencil, column)
or functions of the draws (pointer chase, hot random, stack).  The
columnar generator in :mod:`repro.workloads.base` uses the batch form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def _align(addr: int, size: int) -> int:
    return addr & ~(size - 1)


class AddressPattern(ABC):
    """An endless (address, size) stream."""

    #: ``[low, high)`` of the integer a drawing access takes from the rng
    #: (one ``rng.integers(low, high)`` call), or ``None`` if it never draws
    draw_bounds: tuple[int, int] | None = None

    @abstractmethod
    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        """Produce the next access of this stream."""

    def draw_mask(self, n: int) -> np.ndarray:
        """Which of the next ``n`` accesses take one draw from the rng."""
        return np.full(n, self.draw_bounds is not None)

    @abstractmethod
    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        """The next ``n`` accesses as ``(int64 addresses, size)``.

        ``draws`` holds the values the drawing accesses among them (see
        :meth:`draw_mask`) took from the rng, in order.  Advances the
        stream exactly as ``n`` :meth:`next_access` calls would.
        """


class StridedStream(AddressPattern):
    """Sequential walk: ``base, base+stride, ...`` wrapping at ``extent``."""

    def __init__(self, base: int, stride: int = 8, extent: int = 1 << 20, size: int = 8):
        if stride <= 0 or extent <= 0:
            raise ValueError("stride and extent must be positive")
        self.base = base
        self.stride = stride
        self.extent = extent
        self.size = size
        self._offset = 0

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.extent
        return _align(addr, self.size), self.size

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        step = self.stride % self.extent
        off = (self._offset + step * np.arange(n, dtype=np.int64)) % self.extent
        self._offset = (self._offset + step * n) % self.extent
        return _align(self.base + off, self.size), self.size


class MultiArrayStencil(AddressPattern):
    """k arrays walked in lockstep with one shared index."""

    def __init__(
        self,
        base: int,
        arrays: int = 3,
        array_bytes: int = 1 << 20,
        elem: int = 8,
        stride_elems: int = 1,
        stagger: int = 96,
    ):
        if arrays < 1:
            raise ValueError("need at least one array")
        self.base = base
        self.arrays = arrays
        self.array_bytes = array_bytes
        self.elem = elem
        self.stride = elem * stride_elems
        # real allocators do not place arrays at power-of-two spacings;
        # stagger keeps lock-step arrays out of a single LSQ bank
        self.stagger = stagger
        self._index = 0
        self._arr = 0

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        addr = self.base + self._arr * (self.array_bytes + self.stagger) + self._index
        self._arr += 1
        if self._arr == self.arrays:
            self._arr = 0
            self._index = (self._index + self.stride) % self.array_bytes
        return _align(addr, self.elem), self.elem

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        k = self._arr + np.arange(n + 1, dtype=np.int64)
        arr = k % self.arrays
        index = (self._index + k // self.arrays * self.stride) % self.array_bytes
        self._arr, self._index = int(arr[-1]), int(index[-1])
        addr = self.base + arr[:-1] * (self.array_bytes + self.stagger) + index[:-1]
        return _align(addr, self.elem), self.elem


class ColumnSweep(AddressPattern):
    """Column-major sweep of a 2-D array: stride = row_bytes.

    With ``row_bytes`` a multiple of (line_bytes x banks / spread) the
    stream concentrates on ``spread`` distinct DistribLSQ banks while
    touching a new cache line on every access -- the SharedLSQ stressor.
    """

    def __init__(
        self,
        base: int,
        row_bytes: int = 2048,
        rows: int = 256,
        cols: int = 64,
        elem: int = 8,
    ):
        self.base = base
        self.row_bytes = row_bytes
        self.rows = rows
        self.cols = cols
        self.elem = elem
        self._row = 0
        self._col = 0

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        addr = self.base + self._row * self.row_bytes + self._col * self.elem
        self._row += 1
        if self._row == self.rows:
            self._row = 0
            self._col = (self._col + 1) % self.cols
        return _align(addr, self.elem), self.elem

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        k = self._row + np.arange(n + 1, dtype=np.int64)
        row = k % self.rows
        col = (self._col + k // self.rows) % self.cols
        self._row, self._col = int(row[-1]), int(col[-1])
        addr = self.base + row[:-1] * self.row_bytes + col[:-1] * self.elem
        return _align(addr, self.elem), self.elem


class PointerChase(AddressPattern):
    """Random node-hopping over a large footprint.

    Each visited node is dereferenced ``fields`` times (next pointer, key,
    payload...), so nodes straddling one cache line still exhibit the
    modest line sharing real pointer codes (mcf) show, while the node
    *sequence* has no locality at all.
    """

    def __init__(
        self,
        base: int,
        footprint_bytes: int = 1 << 24,
        node_bytes: int = 32,
        fields: int = 3,
        size: int = 8,
    ):
        self.base = base
        self.bytes = footprint_bytes
        self.node_bytes = node_bytes
        self.fields = max(1, fields)
        self.size = size
        self.draw_bounds = (0, self.bytes // self.node_bytes)
        self._node = 0
        self._field = 0

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        if self._field == 0:
            self._node = int(rng.integers(0, self.bytes // self.node_bytes))
        off = (self._field * self.size) % self.node_bytes
        self._field = (self._field + 1) % self.fields
        addr = self.base + self._node * self.node_bytes + off
        return _align(addr, self.size), self.size

    def draw_mask(self, n: int) -> np.ndarray:
        return (self._field + np.arange(n)) % self.fields == 0

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        field = (self._field + np.arange(n, dtype=np.int64)) % self.fields
        # each access reads the latest drawn node, else the one in hand
        nodes = np.concatenate(([self._node], draws))[np.cumsum(field == 0)]
        if n:
            self._node = int(nodes[-1])
        self._field = (self._field + n) % self.fields
        addr = self.base + nodes * self.node_bytes + field * self.size % self.node_bytes
        return _align(addr, self.size), self.size


class HotRandom(AddressPattern):
    """Uniform random accesses within a small hot region."""

    def __init__(self, base: int, region_bytes: int = 4096, size: int = 4):
        self.base = base
        self.bytes = region_bytes
        self.size = size
        self.draw_bounds = (0, self.bytes // self.size)

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        off = int(rng.integers(0, self.bytes // self.size)) * self.size
        return _align(self.base + off, self.size), self.size

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        return _align(self.base + draws * self.size, self.size), self.size


class StackPattern(AddressPattern):
    """Push/pop-like traffic over a few lines near a stack top."""

    draw_bounds = (-2, 3)

    def __init__(self, base: int, depth_bytes: int = 256, size: int = 8):
        self.base = base
        self.depth = depth_bytes
        self.size = size
        self._sp = 0

    def next_access(self, rng: np.random.Generator) -> tuple[int, int]:
        step = int(rng.integers(-2, 3)) * self.size
        self._sp = min(max(self._sp + step, 0), self.depth - self.size)
        return _align(self.base + self._sp, self.size), self.size

    def next_accesses(self, n: int, draws: np.ndarray) -> tuple[np.ndarray, int]:
        sp, top, size = self._sp, self.depth - self.size, self.size
        sps = []
        for step in draws.tolist():  # the clamp makes each step depend on the last
            sp = min(max(sp + step * size, 0), top)
            sps.append(sp)
        self._sp = sp
        return _align(self.base + np.array(sps, dtype=np.int64), size), size
