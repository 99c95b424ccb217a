"""Fully-associative TLB with true LRU replacement.

Table 2 of the paper: 128-entry fully-associative ITLB and DTLB, 1-cycle
access.  The translation itself is an identity mapping (virtual page ->
"physical" page) because only hit/miss timing and energy matter to the
experiments; the SAMIE extension caches the translation in the LSQ entry,
which here means caching the fact that no DTLB access is needed.
"""

from __future__ import annotations

from repro.common.bitutils import ilog2
from repro.common.stats import Counter


class TLB:
    """Fully-associative translation buffer keyed by virtual page number."""

    __slots__ = ("entries", "page_shift", "_map", "_clock", "hits", "misses", "miss_latency")

    def __init__(self, entries: int = 128, page_bytes: int = 4096, miss_latency: int = 30):
        self.entries = entries
        self.page_shift = ilog2(page_bytes)
        self._map: dict[int, int] = {}  # vpn -> last-use clock
        self._clock = 0
        self.hits = Counter("tlb_hits")
        self.misses = Counter("tlb_misses")
        self.miss_latency = miss_latency

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on hit, False on miss (fills)."""
        self._clock += 1
        page = addr >> self.page_shift
        if page in self._map:
            self._map[page] = self._clock
            self.hits.value += 1  # counters bumped in place (hot path)
            return True
        self.misses.value += 1
        if len(self._map) >= self.entries:
            victim = min(self._map, key=self._map.__getitem__)
            del self._map[victim]
        self._map[page] = self._clock
        return False

    def warm_access(self, addr: int) -> bool:
        """Functional-warming translation: identical replacement behaviour
        to :meth:`access` but with no hit/miss statistics (skip-gap
        traffic must not contaminate measured rates)."""
        self._clock += 1
        page = addr >> self.page_shift
        if page in self._map:
            self._map[page] = self._clock
            return True
        if len(self._map) >= self.entries:
            victim = min(self._map, key=self._map.__getitem__)
            del self._map[victim]
        self._map[page] = self._clock
        return False

    def state_dump(self) -> dict:
        """Canonical snapshot (vpn -> last-use clock) for the warm-engine
        equivalence tier."""
        return {"clock": self._clock, "map": dict(self._map)}

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return len(self._map)
