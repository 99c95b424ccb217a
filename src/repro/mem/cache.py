"""Set-associative cache model with LRU replacement and presentBit support.

The cache is a *timing/placement* model: it tracks which line lives in
which (set, way) and produces hit/miss outcomes plus evictions.  Data
values are carried by the pipeline's value oracle, not by the cache.

The ``presentBit`` per line supports the SAMIE-LSQ extension (paper §3.4):
when an LSQ entry caches the physical location of a line, the line's
presentBit is set; the eviction callback lets the LSQ clear stale cached
locations when the line is replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.bitutils import ilog2, is_pow2


@dataclass
class CacheStats:
    """Aggregate cache event counts."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(slots=True, eq=False)
class AccessResult:
    """Outcome of one cache access.

    A hit returns the shared per-(set, way) instance built with its set
    (:meth:`Cache._build_set`); a miss builds a fresh one.  No code
    mutates a result, and none may.  Results compare (and hash) by
    identity, so a shared hit result can key a cache of outcomes built
    on it (:meth:`repro.mem.hierarchy.MemoryHierarchy.daccess`).
    """

    hit: bool
    set_index: int
    way: int
    #: line address evicted by this access (None if no eviction)
    evicted_line: int | None = None
    #: whether the evicted line was dirty (needs writeback)
    evicted_dirty: bool = False


class _Line:
    __slots__ = ("tag", "valid", "dirty", "present_bit", "lru", "hit")

    def __init__(self, hit: AccessResult):
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.present_bit = False
        self.lru = 0
        #: the shared outcome of a hit on this (set, way)
        self.hit = hit


class Cache:
    """Set-associative, write-back, write-allocate cache with true LRU.

    Addresses given to ``access``/``probe`` are *line addresses* (byte
    address >> line_shift); the caller owns the shift so that L1 (32 B
    lines) and L2 (64 B lines) can share one implementation.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        name: str = "cache",
        on_evict: Callable[[int, int], None] | None = None,
    ):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("size must be a multiple of assoc*line_bytes")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_shift = ilog2(line_bytes)
        self.num_sets = size_bytes // (assoc * line_bytes)
        if not is_pow2(self.num_sets):
            raise ValueError("number of sets must be a power of two")
        self.set_mask = self.num_sets - 1
        self.set_bits = ilog2(self.num_sets)
        #: per-set way lists, built on first touch (:meth:`_build_set`);
        #: an unbuilt set (None) reads as ``assoc`` invalid, never-used
        #: lines, so a short run pays only for the sets it reaches
        self._sets: list[list[_Line] | None] = [None] * self.num_sets
        self._clock = 0
        self.stats = CacheStats()
        #: callback(set_index, evicted_line_addr) fired on every replacement
        self.on_evict = on_evict

    def _build_set(self, set_idx: int) -> list[_Line]:
        """Build the (all invalid) way list of an untouched set, with
        each way's shared hit outcome."""
        s = self._sets[set_idx] = [
            _Line(AccessResult(True, set_idx, w)) for w in range(self.assoc)
        ]
        return s

    # -- address decomposition -------------------------------------------
    def set_of(self, line_addr: int) -> int:
        """Set index of a line address."""
        return line_addr & self.set_mask

    def tag_of(self, line_addr: int) -> int:
        """Tag of a line address."""
        return line_addr >> self.set_bits

    # -- lookup ------------------------------------------------------------
    def probe(self, line_addr: int) -> int | None:
        """Return the way holding ``line_addr`` (no state change), or None."""
        s = self._sets[line_addr & self.set_mask]
        if s is None:
            return None
        tag = line_addr >> self.set_bits
        for w, line in enumerate(s):
            if line.valid and line.tag == tag:
                return w
        return None

    def access(self, line_addr: int, write: bool = False) -> AccessResult:
        """Perform an access: update LRU, allocate on miss, return outcome."""
        self._clock += 1
        self.stats.accesses += 1
        set_idx = line_addr & self.set_mask
        s = self._sets[set_idx]
        if s is None:
            s = self._build_set(set_idx)
        tag = line_addr >> self.set_bits
        for line in s:
            if line.valid and line.tag == tag:
                self.stats.hits += 1
                line.lru = self._clock
                if write:
                    line.dirty = True
                return line.hit
        # miss: allocate into the LRU way
        self.stats.misses += 1
        victim_way = 0
        victim = s[0]
        for w, line in enumerate(s):
            if not line.valid:
                victim_way, victim = w, line
                break
            if line.lru < victim.lru:
                victim_way, victim = w, line
        evicted_line = None
        evicted_dirty = False
        if victim.valid:
            self.stats.evictions += 1
            evicted_line = (victim.tag << self.set_bits) | set_idx
            evicted_dirty = victim.dirty
            if evicted_dirty:
                self.stats.writebacks += 1
            if self.on_evict is not None:
                self.on_evict(set_idx, evicted_line)
        victim.tag = tag
        victim.valid = True
        victim.dirty = write
        victim.present_bit = False
        victim.lru = self._clock
        return AccessResult(False, set_idx, victim_way, evicted_line, evicted_dirty)

    def warm_access(self, line_addr: int, write: bool = False) -> bool:
        """Functional-warming access: placement/LRU/eviction side effects
        with **no statistics** -- sampling's skip gaps must not contaminate
        the measured hit/miss rates (they are separate traffic, accounted
        by the warm engine under ``extra["sampling"]["warm"]``).  The
        eviction callback still fires: presentBit invalidation is
        architectural state, not a statistic.  Returns the hit outcome.
        """
        self._clock += 1
        set_idx = line_addr & self.set_mask
        s = self._sets[set_idx]
        if s is None:
            s = self._build_set(set_idx)
        tag = line_addr >> self.set_bits
        for line in s:
            if line.valid and line.tag == tag:
                line.lru = self._clock
                if write:
                    line.dirty = True
                return True
        victim = s[0]
        for line in s:
            if not line.valid:
                victim = line
                break
            if line.lru < victim.lru:
                victim = line
        if victim.valid and self.on_evict is not None:
            self.on_evict(set_idx, (victim.tag << self.set_bits) | set_idx)
        victim.tag = tag
        victim.valid = True
        victim.dirty = write
        victim.present_bit = False
        victim.lru = self._clock
        return False

    def state_dump(self) -> dict:
        """Canonical snapshot of all placement state (tags, flags, LRU
        clocks) for the warm-engine equivalence tier: two caches behaved
        bit-identically iff their dumps are equal."""
        unbuilt = [(0, False, False, False, 0)] * self.assoc
        return {
            "clock": self._clock,
            "sets": [
                [(ln.tag, ln.valid, ln.dirty, ln.present_bit, ln.lru) for ln in s]
                if s is not None else list(unbuilt)
                for s in self._sets
            ],
        }

    # -- presentBit support (SAMIE extension) ------------------------------
    def set_present_bit(self, set_idx: int, way: int, value: bool = True) -> None:
        """Set/clear the presentBit of a resident line."""
        s = self._sets[set_idx]
        if s is None:
            s = self._build_set(set_idx)
        s[way].present_bit = value

    def present_bit(self, set_idx: int, way: int) -> bool:
        """Read the presentBit of a line."""
        s = self._sets[set_idx]
        return s is not None and s[way].present_bit

    def line_at(self, set_idx: int, way: int) -> int | None:
        """Line address resident at (set, way), or None if invalid."""
        s = self._sets[set_idx]
        if s is None or not s[way].valid:
            return None
        return (s[way].tag << self.set_bits) | set_idx

    def contents(self) -> set[int]:
        """All resident line addresses (testing aid)."""
        out: set[int] = set()
        for set_idx, s in enumerate(self._sets):
            for line in s or ():
                if line.valid:
                    out.add((line.tag << self.set_bits) | set_idx)
        return out

    def flush(self) -> None:
        """Invalidate every line (does not fire eviction callbacks)."""
        for s in self._sets:
            for line in s or ():
                line.valid = False
                line.dirty = False
                line.present_bit = False
