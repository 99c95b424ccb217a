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
from repro.energy.leakage import CONVENTIONAL_EXTRA_ENTRIES
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

#: Table 4 constants, charged by direct accumulator adds at the
#: per-access sites (they are non-negative, as ``EnergyAccount.charge``
#: requires); ``2 * datum_rw`` is the same float whether folded here or
#: per forward
_E_ADDR_RW = E["addr_rw"]
_E_CMP_BASE = E["addr_compare_base"]
_E_CMP_PER_ADDR = E["addr_compare_per_addr"]
_E_DATUM_RW = E["datum_rw"]
_E_FORWARD = 2 * E["datum_rw"]


class ConventionalLSQ(BaseLSQ):
    """Fully-associative LSQ with store-to-load forwarding."""

    __slots__ = (
        "capacity", "_ents", "_stores", "_loads",
        "_store_words", "_ready_store_seqs", "_ready_load_seqs",
        "_entry_area", "_powered_cap", "_powered_w",
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
        #: most entries that can be powered (capacity, or unbounded)
        self._powered_cap = capacity if capacity is not None else 1 << 62
        #: change-weighted sum of the powered-entry count
        #: (repro.energy.leakage); it changes only at dispatch, commit
        #: and flush
        self._powered_w = 0

    # -- lifecycle ---------------------------------------------------------
    def dispatch(self, ins: InFlight) -> bool:
        if self.capacity is not None and len(self._ents) >= self.capacity:
            return False
        self._ents.append(ins)
        if len(self._ents) + CONVENTIONAL_EXTRA_ENTRIES <= self._powered_cap:
            self._powered_w += self.now  # one more entry powered
        (self._stores if ins.is_store else self._loads).append(ins)
        self.stats.dispatched += 1
        ins.placement = self  # dispatched == placed for this design
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
        self._fwd_load = None
        pj = self.energy._pj
        # Address write into the CAM.
        pj["lsq"] += _E_ADDR_RW
        compared = self._count_comparisons(ins)
        if ins.is_load:
            insort(self._ready_load_seqs, ins.seq)
        else:
            insort(self._ready_store_seqs, ins.seq)
            w = ins.byte0 >> _WORD_SHIFT
            if w == (ins.byte1 - 1) >> _WORD_SHIFT:  # one word: no range
                peers = self._store_words.get(w)
                if peers is None:
                    self._store_words[w] = [ins]
                else:
                    peers.append(ins)
            else:
                for w in self._words_of(ins):
                    self._store_words.setdefault(w, []).append(ins)
            ins.disamb_resolved = True
        pj["lsq"] += _E_CMP_BASE + _E_CMP_PER_ADDR * compared
        stats = self.stats
        stats.addr_comparisons += compared
        stats.placed += 1

    def store_data_arrived(self, ins: InFlight) -> None:
        """Charge the datum write when a store's value becomes available."""
        self.energy._pj["lsq"] += _E_DATUM_RW

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
        w = b0 >> _WORD_SHIFT
        if w == (b1 - 1) >> _WORD_SHIFT:  # one word: no range
            cands = self._store_words.get(w)
            if cands is None:
                return None
        else:
            words = self._store_words
            cands = [st for w in self._words_of(ins) for st in words.get(w, ())]
        best: InFlight | None = None
        best_seq = -1
        for st in cands:
            if best_seq < st.seq < seq and st.byte0 < b1 and b0 < st.byte1:
                best = st
                best_seq = st.seq
        return best

    def load_ready(self, ins: InFlight) -> bool:
        if not ins.addr_ready or ins.mem_started:
            return False
        src = self._forward_source(ins)
        self._fwd_load = ins  # route_load reuses the search
        self._fwd_src = src
        if src is None:
            return True
        if src.contains(ins):
            return src.store_data_ready
        # Partial overlap: wait until the store commits and drains.
        return False

    def route_load(self, ins: InFlight) -> LoadRoute:
        src = self._fwd_src if self._fwd_load is ins else self._forward_source(ins)
        self._fwd_load = None
        if src is not None and src.contains(ins) and src.store_data_ready:
            # read the store's datum, write the load's result
            self.energy._pj["lsq"] += _E_FORWARD
            self.stats.loads_forwarded += 1
            return LoadRoute(RouteKind.FORWARD, store=src)
        self.energy._pj["lsq"] += _E_DATUM_RW  # load result write
        stats = self.stats
        stats.loads_from_cache += 1
        stats.full_cache_accesses += 1
        return CACHE_LOAD_ROUTES[False][False]

    def route_store_commit(self, ins: InFlight) -> StoreRoute:
        self.energy._pj["lsq"] += _E_DATUM_RW  # read datum for the write
        self.stats.full_cache_accesses += 1
        return CACHE_STORE_ROUTES[False][False]

    # -- release -------------------------------------------------------------
    def commit(self, ins: InFlight) -> None:
        self._fwd_load = None
        if self._ents and self._ents[0] is ins:
            self._ents.popleft()
        else:  # pragma: no cover - commit is in order by construction
            self._ents.remove(ins)
        if len(self._ents) + CONVENTIONAL_EXTRA_ENTRIES < self._powered_cap:
            self._powered_w -= self.now  # one entry fewer powered
        q = self._stores if ins.is_store else self._loads
        if q and q[0] is ins:
            q.popleft()
        else:  # pragma: no cover
            q.remove(ins)
        if ins.addr_ready:
            # leave the sorted address-ready seqs
            seqs = self._ready_store_seqs if ins.is_store else self._ready_load_seqs
            i = bisect_left(seqs, ins.seq)
            if i < len(seqs) and seqs[i] == ins.seq:
                del seqs[i]
            if ins.is_store:
                words = self._store_words
                for w in self._words_of(ins):
                    peers = words[w]
                    peers.remove(ins)
                    if not peers:
                        del words[w]

    def flush(self) -> None:
        self._fwd_load = None
        powered = self._powered()
        self._ents.clear()
        self._powered_w += (self._powered() - powered) * self.now
        self._stores.clear()
        self._loads.clear()
        self._store_words.clear()
        self._ready_store_seqs.clear()
        self._ready_load_seqs.clear()

    # -- introspection ---------------------------------------------------------
    def head_blocked(self, ins: InFlight) -> bool:
        return False  # dispatched implies placed: no deadlock possible

    def _powered(self) -> int:
        """Powered entries: those in use plus the extra ones, at most
        the capacity."""
        return min(len(self._ents) + CONVENTIONAL_EXTRA_ENTRIES, self._powered_cap)

    def active_area(self) -> float:
        return self._powered() * self._entry_area

    def area_reset(self, t0: int) -> None:
        super().area_reset(t0)
        self._powered_w = self._powered() * t0

    def area_integrals(self, t: int) -> dict[str, float]:
        if t == self._area_t0:
            return {}
        return {self.name: (self._powered() * t - self._powered_w) * self._entry_area}

    def occupancy(self) -> int:
        return len(self._ents)
