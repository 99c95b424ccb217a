"""Conventional fully-associative load/store queue (the paper's baseline).

A single age-ordered queue of up to ``capacity`` memory instructions
(128 in Table 2; ``capacity=None`` gives the unbounded ideal LSQ used as
the Figure 1 reference machine).  Entries are allocated in program order at
dispatch and released at commit.

Energy accounting follows Table 4 with the paper's fairness rule (§4.2):
when a load's address arrives it is compared only against *older stores
with known addresses*; a store's address only against *younger loads with
known addresses*.  Matching loads forward from the store and skip the data
cache.

Accounting convention for data movement (applied consistently to every
model): a store's datum is written once when it arrives and read once at
commit; a load's datum is written once when it returns (from cache or
forwarding), and a forward additionally reads the source store's datum.

Hot-path structure: the forwarding search used to scan the whole store
queue per pending load per cycle.  Address-ready stores are additionally
indexed by the aligned 8-byte words they cover (a store of at most 8
size-aligned bytes covers one word; the index still handles multi-word
spans), so the per-cycle search touches only same-word candidates.  The
age-ordered deques remain the ground truth for capacity and commit order;
sorted address-ready sequence lists give O(log n) fairness-rule
comparison counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque

from repro.core.inflight import InFlight
from repro.energy.tables import CONVENTIONAL_LSQ_ENERGY as E
from repro.energy.tables import entry_area_conventional
from repro.lsq.base import (
    CACHE_LOAD_ROUTES,
    CACHE_STORE_ROUTES,
    BaseLSQ,
    LoadRoute,
    RouteKind,
    StoreRoute,
)

#: aligned-word granularity of the forwarding index (8-byte rows, matching
#: the synthetic ISA's maximum access size)
_WORD_SHIFT = 3

#: power-gated entries kept active beyond those in use: the paper's "four
#: extra entries" (§4.2)
ACTIVE_EXTRA = 4


class ConventionalLSQ(BaseLSQ):
    """Fully-associative LSQ with store-to-load forwarding."""

    __slots__ = (
        "capacity", "_ents", "_stores", "_loads",
        "_store_words", "_ready_store_seqs", "_ready_load_seqs",
        "_entry_area", "_area_cache",
    )

    name = "conventional"

    def __init__(self, capacity: int | None = 128):
        super().__init__()
        self.capacity = capacity
        self._ents: deque[InFlight] = deque()
        self._stores: deque[InFlight] = deque()
        self._loads: deque[InFlight] = deque()
        #: aligned word -> address-ready stores covering it (insertion order)
        self._store_words: dict[int, list[InFlight]] = {}
        #: sorted seqs of address-ready stores / loads still in the queue
        self._ready_store_seqs: list[int] = []
        self._ready_load_seqs: list[int] = []
        self._entry_area = entry_area_conventional()
        # cached active-area breakdown (the pipeline samples every cycle;
        # occupancy changes only at dispatch/commit/flush)
        self._area_cache: dict[str, float] | None = None

    # -- lifecycle ---------------------------------------------------------
    def dispatch(self, ins: InFlight) -> bool:
        if self.capacity is not None and len(self._ents) >= self.capacity:
            return False
        self._ents.append(ins)
        (self._stores if ins.is_store else self._loads).append(ins)
        self.stats.dispatched += 1
        ins.placement = self  # dispatched == placed for this design
        self._area_cache = None
        return True

    def dispatch_would_block(self) -> bool:
        return self.capacity is not None and len(self._ents) >= self.capacity

    def _words_of(self, ins: InFlight) -> range:
        """Aligned words covered by a memory access (usually exactly one)."""
        return range(ins.byte0 >> _WORD_SHIFT, ((ins.byte1 - 1) >> _WORD_SHIFT) + 1)

    def _count_comparisons(self, ins: InFlight) -> int:
        """Fair comparison count (paper §4.2): older address-ready stores
        for a load, younger address-ready loads for a store.

        The sorted seq lists hold exactly the address-ready entries still
        queued, so a bisect reproduces the linear scans retained in
        :class:`repro.lsq.reference.ReferenceConventionalLSQ`.
        """
        if ins.is_load:
            return bisect_left(self._ready_store_seqs, ins.seq)
        ready_loads = self._ready_load_seqs
        return len(ready_loads) - bisect_right(ready_loads, ins.seq)

    def address_ready(self, ins: InFlight) -> None:
        # Address write into the CAM.
        self.energy.charge("lsq", E["addr_rw"])
        compared = self._count_comparisons(ins)
        if ins.is_load:
            insort(self._ready_load_seqs, ins.seq)
        else:
            insort(self._ready_store_seqs, ins.seq)
            for w in self._words_of(ins):
                self._store_words.setdefault(w, []).append(ins)
            ins.disamb_resolved = True
        self.energy.charge("lsq", E["addr_compare_base"] + E["addr_compare_per_addr"] * compared)
        self.stats.addr_comparisons += compared
        self.stats.placed += 1

    def store_data_arrived(self, ins: InFlight) -> None:
        """Charge the datum write when a store's value becomes available."""
        self.energy.charge("lsq", E["datum_rw"])

    # -- load scheduling -----------------------------------------------------
    def _forward_source(self, ins: InFlight) -> InFlight | None:
        """Youngest older overlapping address-ready store for ``ins``.

        Candidates come from the word index; max-age selection is
        order-independent, so the result matches the old program-order
        scan of the whole store queue.
        """
        seq = ins.seq
        b0 = ins.byte0
        b1 = ins.byte1
        best: InFlight | None = None
        best_seq = -1
        words = self._words_of(ins)
        for w in words:
            for st in self._store_words.get(w, ()):
                if best_seq < st.seq < seq and st.byte0 < b1 and b0 < st.byte1:
                    best = st
                    best_seq = st.seq
        return best

    def load_ready(self, ins: InFlight) -> bool:
        if not ins.addr_ready or ins.mem_started:
            return False
        src = self._forward_source(ins)
        if src is None:
            return True
        if src.contains(ins):
            return src.store_data_ready
        # Partial overlap: wait until the store commits and drains.
        return False

    def route_load(self, ins: InFlight) -> LoadRoute:
        src = self._forward_source(ins)
        if src is not None and src.contains(ins) and src.store_data_ready:
            # read the store's datum, write the load's result
            self.energy.charge("lsq", 2 * E["datum_rw"])
            self.stats.loads_forwarded += 1
            return LoadRoute(RouteKind.FORWARD, store=src)
        self.energy.charge("lsq", E["datum_rw"])  # load result write
        self.stats.loads_from_cache += 1
        self.stats.full_cache_accesses += 1
        return CACHE_LOAD_ROUTES[False][False]

    def route_store_commit(self, ins: InFlight) -> StoreRoute:
        self.energy.charge("lsq", E["datum_rw"])  # read datum for the write
        self.stats.full_cache_accesses += 1
        return CACHE_STORE_ROUTES[False][False]

    # -- release -------------------------------------------------------------
    def _drop_ready_seq(self, seqs: list[int], seq: int) -> None:
        i = bisect_left(seqs, seq)
        if i < len(seqs) and seqs[i] == seq:
            del seqs[i]

    def commit(self, ins: InFlight) -> None:
        if self._ents and self._ents[0] is ins:
            self._ents.popleft()
        else:  # pragma: no cover - commit is in order by construction
            self._ents.remove(ins)
        q = self._stores if ins.is_store else self._loads
        if q and q[0] is ins:
            q.popleft()
        else:  # pragma: no cover
            q.remove(ins)
        if ins.addr_ready:
            if ins.is_store:
                self._drop_ready_seq(self._ready_store_seqs, ins.seq)
                for w in self._words_of(ins):
                    peers = self._store_words[w]
                    peers.remove(ins)
                    if not peers:
                        del self._store_words[w]
            else:
                self._drop_ready_seq(self._ready_load_seqs, ins.seq)
        self._area_cache = None

    def flush(self) -> None:
        self._ents.clear()
        self._stores.clear()
        self._loads.clear()
        self._store_words.clear()
        self._ready_store_seqs.clear()
        self._ready_load_seqs.clear()
        self._area_cache = None

    # -- introspection ---------------------------------------------------------
    def head_blocked(self, ins: InFlight) -> bool:
        return False  # dispatched implies placed: no deadlock possible

    def active_area(self) -> float:
        active = len(self._ents) + ACTIVE_EXTRA
        if self.capacity is not None:
            active = min(active, self.capacity)
        return active * self._entry_area

    def area_breakdown(self) -> dict[str, float]:
        if self._area_cache is None:
            self._area_cache = {self.name: self.active_area()}
        return self._area_cache

    def occupancy(self) -> int:
        return len(self._ents)
