"""SAMIE-LSQ: set-associative multiple-instruction entry load/store queue.

Implements the paper's §3 design:

* **DistribLSQ** -- ``banks`` banks (direct-mapped on the cache-line
  address), each with ``entries_per_bank`` fully-associative entries; an
  entry holds one cache-line address plus up to ``slots_per_entry``
  memory instructions accessing that line.
* **SharedLSQ** -- ``shared_entries`` overflow entries with the same
  layout (``None`` = unbounded, used for the §3.5 sizing studies).
* **AddrBuffer** -- ``addr_buffer_slots`` FIFO for instructions that fit
  in neither; they cannot access the cache until placed and are retried in
  FIFO order each cycle with priority over newly computed addresses.

Plus the §3.4 extensions: each entry caches the physical (set, way) of its
line after the first access (presentBit; later accesses skip the tag check
and read a single way) and the DTLB translation (later accesses skip the
DTLB).  When an L1 line is evicted the presentBit of every *potentially
affected* entry is reset without any address comparison: all entries of
the DistribLSQ banks that can map to the evicted set and every SharedLSQ
entry (the paper's "very simple alternative").

Energy follows Table 5 exactly; see the module docstring of
``repro.lsq.base`` for the routing contract and
``repro.energy.leakage`` for the active-area policy and its
change-point integration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.queues import BoundedFIFO
from repro.common.stats import Histogram
from repro.core.inflight import InFlight
from repro.energy.leakage import ADDR_BUFFER_EXTRA_SLOTS
from repro.energy.tables import (
    ADDR_BUFFER_ENERGY as E_AB,
    BUS_ENERGY as E_BUS,
    DISTRIB_LSQ_ENERGY as E_D,
    SHARED_LSQ_ENERGY as E_S,
    entry_area_distrib,
    entry_area_shared,
    slot_area_addrbuffer,
    slot_area_distrib,
    slot_area_shared,
)
from repro.lsq.base import (
    CACHE_LOAD_ROUTES,
    CACHE_STORE_ROUTES,
    BaseLSQ,
    LoadRoute,
    RouteKind,
    StoreRoute,
)

#: the active-area counters, in the order of ``SamieLSQ._area_counts``
#: and ``SamieLSQ._area_w``: full banks, DistribLSQ entries and slot
#: terms, SharedLSQ entries and slot terms, the spare SharedLSQ entry,
#: powered AddrBuffer slots, and AddrBuffer busy (0 or 1)
_FULL, _D_ENT, _D_SLOT, _S_ENT, _S_SLOT, _SPARE, _AB_SLOT, _AB_BUSY = range(8)

#: SharedLSQ occupancies above this are counted in the overflow bucket
OCC_HIST_MAX = 512

#: Table 5 constants of a placement attempt, hoisted out of the tables
_E_SEND = E_BUS["send_address"]
_E_CMP_BASE_D = E_D["addr_compare_base"]
_E_CMP_PER_D = E_D["addr_compare_per_addr"]
_E_AGE_BASE_D = E_D["age_compare_base"]
_E_AGE_PER_D = E_D["age_compare_per_id"]
_E_CMP_BASE_S = E_S["addr_compare_base"]
_E_CMP_PER_S = E_S["addr_compare_per_addr"]
_E_AGE_BASE_S = E_S["age_compare_base"]
_E_AGE_PER_S = E_S["age_compare_per_id"]


@dataclass(frozen=True)
class SamieConfig:
    """SAMIE-LSQ geometry (defaults = paper Table 3)."""

    banks: int = 64
    entries_per_bank: int = 2
    slots_per_entry: int = 8
    shared_entries: int | None = 8
    addr_buffer_slots: int = 64
    line_shift: int = 5  # 32-byte cache lines
    #: L1D set count, needed for the presentBit bulk-reset mapping
    l1d_sets: int = 64


class SamieEntry:
    """One multi-instruction entry (DistribLSQ or SharedLSQ)."""

    __slots__ = ("line", "slots", "location", "tlb_cached", "shared")

    def __init__(self, line: int, shared: bool):
        self.line = line
        self.slots: list[InFlight] = []
        #: cached physical location (set, way) of the line; None = presentBit clear
        self.location: tuple[int, int] | None = None
        #: cached DTLB translation valid
        self.tlb_cached = False
        self.shared = shared


class SamieLSQ(BaseLSQ):
    """The paper's SAMIE-LSQ."""

    __slots__ = (
        "cfg", "_line_shift", "_nbanks",
        "_banks", "_shared", "_bank_lines", "_shared_lines",
        "_addr_buffer", "need_flush", "_retry_ok", "_agu_reserved",
        "_full_banks",
        "_distrib_entries", "_distrib_slot_terms", "_shared_slot_terms",
        "_first_slot_term",
        "_area_w", "_occ_hist", "_occ_since",
        "_area_entry_d", "_area_slot_d", "_area_entry_s", "_area_slot_s",
        "_area_slot_ab",
    )

    name = "samie"

    def __init__(self, cfg: SamieConfig | None = None):
        super().__init__()
        self.cfg = cfg or SamieConfig()
        # geometry read per access, latched out of the (dict-backed) cfg
        self._line_shift = self.cfg.line_shift
        self._nbanks = self.cfg.banks
        self._banks: list[list[SamieEntry]] = [[] for _ in range(self.cfg.banks)]
        self._shared: list[SamieEntry] = []
        # O(1) line -> entries indexes maintained alongside the lists
        # (placement and the per-cycle forwarding search used to scan the
        # bank linearly; the lists are kept for age-ordered iteration and
        # the energy model's per-entry charges).  A line can map to more
        # than one entry (a full entry forces a fresh allocation), so the
        # values are insertion-ordered entry lists.
        self._bank_lines: list[dict[int, list[SamieEntry]]] = [
            {} for _ in range(self.cfg.banks)
        ]
        self._shared_lines: dict[int, list[SamieEntry]] = {}
        # active-area bookkeeping: the count of completely full banks (the
        # rest power one spare entry each), the DistribLSQ entries in use
        # and, per structure, the powered slots of its entries: sum of
        # min(slots + 1, slots_per_entry), kept up to date by
        # _slot_joined/_slot_left
        self._full_banks = 0
        self._distrib_entries = 0
        self._distrib_slot_terms = 0
        self._shared_slot_terms = 0
        #: powered slots of a one-instruction entry
        self._first_slot_term = min(2, self.cfg.slots_per_entry)
        self._addr_buffer: BoundedFIFO[InFlight] = BoundedFIFO(self.cfg.addr_buffer_slots)
        #: set when an address can be placed nowhere (AddrBuffer overflow);
        #: the pipeline must flush.
        self.need_flush = False
        #: AddrBuffer retry gate: re-armed by capacity-freeing events
        self._retry_ok = True
        #: AddrBuffer slots reserved by in-flight address computations
        self._agu_reserved = 0
        #: change-weighted sums W of the area counters (see
        #: repro.energy.leakage), charged where each counter changes
        self._area_w = [0] * 8
        #: SharedLSQ occupancy, one sample per cycle: a run of cycles at
        #: one occupancy is closed where the occupancy changes
        self._occ_hist = Histogram(max_value=OCC_HIST_MAX)
        self._occ_since = 0
        self._area_entry_d = entry_area_distrib()
        self._area_slot_d = slot_area_distrib()
        self._area_entry_s = entry_area_shared()
        self._area_slot_s = slot_area_shared()
        self._area_slot_ab = slot_area_addrbuffer()

    # -- helpers -------------------------------------------------------------
    def line_of(self, ins: InFlight) -> int:
        """Cache-line address of a memory instruction."""
        return ins.addr >> self.cfg.line_shift

    def bank_of(self, ins: InFlight) -> int:
        """DistribLSQ bank index for a memory instruction."""
        return self.line_of(ins) % self.cfg.banks

    # -- placement -------------------------------------------------------------
    def _charge_placement_attempt(self, bank: list[SamieEntry]) -> None:
        """Energy of one placement attempt (paper §4.2, Table 5).

        The address travels the bus to its bank and is compared against
        every in-use entry of that bank and of the SharedLSQ, in parallel;
        the age identifier is compared against every in-use slot of the
        same entries to build the forwarding links.  Each component's
        charges are added in the same order as the original per-call
        accounting, to a local copy of its accumulator (the same float
        sums; the table values are non-negative constants).
        """
        pj = self.energy._pj
        shared = self._shared
        pj["bus"] += _E_SEND
        acc = pj["distrib"] + (_E_CMP_BASE_D + _E_CMP_PER_D * len(bank))
        for entry in bank:
            acc += _E_AGE_BASE_D + _E_AGE_PER_D * len(entry.slots)
        pj["distrib"] = acc
        acc = pj["shared"] + (_E_CMP_BASE_S + _E_CMP_PER_S * len(shared))
        for entry in shared:
            acc += _E_AGE_BASE_S + _E_AGE_PER_S * len(entry.slots)
        pj["shared"] = acc
        self.stats.addr_comparisons += len(bank) + len(shared)

    def _try_place(self, ins: InFlight, charge: bool = True) -> bool:
        """Attempt DistribLSQ/SharedLSQ placement; True on success.

        Table 5 constants are charged by direct accumulator adds (they
        are non-negative, as ``EnergyAccount.charge`` requires)."""
        line = ins.addr >> self._line_shift
        bank_idx = line % self._nbanks
        bank = self._banks[bank_idx]
        if charge:
            self._charge_placement_attempt(bank)
        cfg = self.cfg
        lines = self._bank_lines[bank_idx]
        # 1. join a DistribLSQ entry holding the same line (the index list
        #    preserves bank insertion order, so the first entry with a free
        #    slot is the same one the old linear bank scan found)
        target: SamieEntry | None = None
        for entry in lines.get(line, ()):
            if len(entry.slots) < cfg.slots_per_entry:
                target = entry
                break
        # 2. allocate a fresh DistribLSQ entry
        if target is None and len(bank) < cfg.entries_per_bank:
            target = SamieEntry(line, shared=False)
            bank.append(target)
            lines.setdefault(line, []).append(target)
            if len(bank) == cfg.entries_per_bank:
                self._bank_full(1)
            self.energy._pj["distrib"] += E_D["addr_rw"]
        # 3. join a SharedLSQ entry holding the same line
        if target is None:
            for entry in self._shared_lines.get(line, ()):
                if len(entry.slots) < cfg.slots_per_entry:
                    target = entry
                    break
        # 4. allocate a fresh SharedLSQ entry
        if target is None and (
            cfg.shared_entries is None or len(self._shared) < cfg.shared_entries
        ):
            target = SamieEntry(line, shared=True)
            self._shared.append(target)
            self._shared_resized(1)
            self._shared_lines.setdefault(line, []).append(target)
            self.energy._pj["shared"] += E_S["addr_rw"]
        if target is None:
            self.stats.placement_failures += 1
            return False
        target.slots.append(ins)
        self._slot_joined(target)
        ins.placement = target
        ins.in_addr_buffer = False
        pj = self.energy._pj
        if target.shared:
            cat, tab = "shared", E_S
        else:
            cat, tab = "distrib", E_D
        pj[cat] += tab["age_rw"]
        if ins.is_store:
            ins.disamb_resolved = True
            if ins.store_data_ready:
                pj[cat] += tab["datum_rw"]
        self.stats.placed += 1
        return True

    def _slot_joined(self, entry: SamieEntry) -> None:
        """Area terms after ``entry`` gained an instruction."""
        k = len(entry.slots)
        w = self._area_w
        now = self.now
        if k == 1:
            first = self._first_slot_term
            if entry.shared:
                self._shared_slot_terms += first
                w[_S_SLOT] += first * now
            else:
                self._distrib_entries += 1
                w[_D_ENT] += now
                self._distrib_slot_terms += first
                w[_D_SLOT] += first * now
        elif k < self.cfg.slots_per_entry:  # min(k + 1, S) grew by one
            if entry.shared:
                self._shared_slot_terms += 1
                w[_S_SLOT] += now
            else:
                self._distrib_slot_terms += 1
                w[_D_SLOT] += now

    def _slot_left(self, entry: SamieEntry) -> None:
        """Area terms before ``entry`` loses an instruction."""
        k = len(entry.slots)
        w = self._area_w
        now = self.now
        if k == 1:
            first = self._first_slot_term
            if entry.shared:
                self._shared_slot_terms -= first
                w[_S_SLOT] -= first * now
            else:
                self._distrib_entries -= 1
                w[_D_ENT] -= now
                self._distrib_slot_terms -= first
                w[_D_SLOT] -= first * now
        elif k < self.cfg.slots_per_entry:
            if entry.shared:
                self._shared_slot_terms -= 1
                w[_S_SLOT] -= now
            else:
                self._distrib_slot_terms -= 1
                w[_D_SLOT] -= now

    def _bank_full(self, delta: int) -> None:
        """A bank became full (``delta`` 1) or stopped being full (-1)."""
        self._full_banks += delta
        self._area_w[_FULL] += delta * self.now

    def _shared_resized(self, delta: int) -> None:
        """The SharedLSQ gained (``delta`` 1) or lost (-1) an entry: its
        entry and spare-entry counters change, and the occupancy run
        held so far closes."""
        now = self.now
        n = len(self._shared)
        old = n - delta
        w = self._area_w
        w[_S_ENT] += delta * now
        cap = self.cfg.shared_entries
        if cap is not None and (n < cap) != (old < cap):
            w[_SPARE] += (1 if n < cap else -1) * now
        self._occ_hist.add(old, now - self._occ_since)
        self._occ_since = now

    def _addr_buffer_resized(self, old: int) -> None:
        """The AddrBuffer went from ``old`` instructions to its current
        length: its powered slots and busy flag may change."""
        n = len(self._addr_buffer._buf)
        cap = self.cfg.addr_buffer_slots
        w = self._area_w
        now = self.now
        w[_AB_SLOT] += (
            min(n + ADDR_BUFFER_EXTRA_SLOTS, cap) - min(old + ADDR_BUFFER_EXTRA_SLOTS, cap)
        ) * now
        w[_AB_BUSY] += ((n > 0) - (old > 0)) * now

    # -- lifecycle ---------------------------------------------------------
    def dispatch(self, ins: InFlight) -> bool:
        self.stats.dispatched += 1
        return True  # capacity pressure appears at placement, not dispatch

    def reserve_address(self) -> bool:
        # §3.3: never execute an address computation that could find the
        # AddrBuffer full -- reserve a slot per in-flight AGU.
        if len(self._addr_buffer._buf) + self._agu_reserved >= self.cfg.addr_buffer_slots:
            return False
        self._agu_reserved += 1
        return True

    def address_ready(self, ins: InFlight) -> None:
        self._fwd_load = None
        if self._agu_reserved:
            self._agu_reserved -= 1
        if self._try_place(ins):
            return
        self.energy._pj["addrbuffer"] += E_AB["datum_rw"] + E_AB["age_rw"]
        if self._addr_buffer.try_push(ins):
            ins.in_addr_buffer = True
            self._addr_buffer_resized(len(self._addr_buffer._buf) - 1)
        else:
            # nowhere to go: the paper prevents this by sizing; if it
            # happens the pipeline must flush (§3.3)
            self.need_flush = True

    def begin_cycle(self, cycle: int) -> None:
        # FIFO drain: AddrBuffer instructions have priority over newly
        # computed addresses, and only the head may leave (simple FIFO).
        # Retries are gated on capacity-freeing events (commits/flushes):
        # LSQ slots only ever free at commit, so re-searching the banks
        # every cycle while the head is stuck would waste energy for
        # nothing -- the modelled hardware wakes the AddrBuffer on commit.
        if not self._retry_ok:
            return
        self._fwd_load = None
        buf = self._addr_buffer._buf  # deque: drained head-first
        old = len(buf)
        while buf:
            if not self._try_place(buf[0]):
                self._retry_ok = False
                break
            self.energy._pj["addrbuffer"] += E_AB["datum_rw"] + E_AB["age_rw"]
            buf.popleft()
        if len(buf) != old:
            self._addr_buffer_resized(old)

    def retry_queue(self):
        return self._addr_buffer._buf

    def quiescent(self) -> bool:
        # begin_cycle is a no-op while the AddrBuffer is empty or the
        # retry gate is down (it re-arms only at commit/flush); otherwise
        # the head-first drain charges energy per attempted cycle
        return not self._addr_buffer._buf or not self._retry_ok

    # -- load scheduling -----------------------------------------------------
    def _forward_source(self, ins: InFlight) -> InFlight | None:
        """Youngest older overlapping store to ``ins``'s line, via the
        line index (selection by max age is order-independent, so this
        matches the old linear ``youngest_older_overlapping`` scan)."""
        line = ins.addr >> self._line_shift
        entries = self._bank_lines[line % self._nbanks].get(line)
        shared = self._shared_lines.get(line)
        if shared is not None:
            entries = entries + shared if entries is not None else shared
        elif entries is None:
            return None
        seq = ins.seq
        b0 = ins.byte0
        b1 = ins.byte1
        best: InFlight | None = None
        best_seq = -1
        for entry in entries:
            for st in entry.slots:
                if (
                    best_seq < st.seq < seq
                    and st.is_store
                    and st.addr_ready
                    and st.byte0 < b1
                    and b0 < st.byte1
                ):
                    best = st
                    best_seq = st.seq
        return best

    def load_ready(self, ins: InFlight) -> bool:
        if ins.placement is None or ins.mem_started:
            return False
        src = self._forward_source(ins)
        self._fwd_load = ins  # route_load reuses the search
        self._fwd_src = src
        if src is None:
            return True
        if src.contains(ins):
            return src.store_data_ready
        return False  # partial overlap: wait for the store to commit

    def route_load(self, ins: InFlight) -> LoadRoute:
        entry: SamieEntry = ins.placement
        tab = E_S if entry.shared else E_D
        cat = "shared" if entry.shared else "distrib"
        pj = self.energy._pj
        src = self._fwd_src if self._fwd_load is ins else self._forward_source(ins)
        self._fwd_load = None
        if src is not None and src.contains(ins) and src.store_data_ready:
            pj[cat] += 2 * tab["datum_rw"]  # read store, write load
            self.stats.loads_forwarded += 1
            return LoadRoute(RouteKind.FORWARD, store=src)
        pj[cat] += tab["datum_rw"]  # load result write
        self.stats.loads_from_cache += 1
        return self._cache_route(entry, tab, cat)

    def _cache_route(self, entry: SamieEntry, tab: dict, cat: str) -> LoadRoute:
        way_known = entry.location is not None
        skip_tlb = entry.tlb_cached
        pj = self.energy._pj
        stats = self.stats
        if way_known:
            pj[cat] += tab["cache_line_id_rw"]  # read cached location
            stats.way_known_accesses += 1
        else:
            stats.full_cache_accesses += 1
        if skip_tlb:
            pj[cat] += tab["tlb_translation_rw"]  # read cached translation
            stats.tlb_skipped_accesses += 1
        return CACHE_LOAD_ROUTES[way_known][skip_tlb]

    def route_store_commit(self, ins: InFlight) -> StoreRoute:
        entry: SamieEntry = ins.placement
        tab = E_S if entry.shared else E_D
        cat = "shared" if entry.shared else "distrib"
        self.energy._pj[cat] += tab["datum_rw"]  # read datum for the write
        r = self._cache_route(entry, tab, cat)
        return CACHE_STORE_ROUTES[r.way_known][r.skip_tlb]

    def store_data_arrived(self, ins: InFlight) -> None:
        """Charge the datum write when a placed store's value arrives."""
        entry: SamieEntry | None = ins.placement
        if entry is not None:
            if entry.shared:
                self.energy._pj["shared"] += E_S["datum_rw"]
            else:
                self.energy._pj["distrib"] += E_D["datum_rw"]

    # -- SAMIE extensions ------------------------------------------------------
    def record_location(self, ins: InFlight, set_idx: int, way: int) -> None:
        entry: SamieEntry | None = ins.placement
        if entry is None:
            return
        tab = E_S if entry.shared else E_D
        cat = "shared" if entry.shared else "distrib"
        pj = self.energy._pj
        if entry.location != (set_idx, way):
            entry.location = (set_idx, way)
            pj[cat] += tab["cache_line_id_rw"]
        if not entry.tlb_cached:
            entry.tlb_cached = True
            pj[cat] += tab["tlb_translation_rw"]

    def on_l1_evict(self, set_idx: int, line_addr: int) -> None:
        # Reset without a line-address comparison (paper §3.4): every
        # entry of the DistribLSQ banks that can hold lines mapping to the
        # evicted set loses its presentBit.  With 64 banks and 64 L1 sets
        # bank b holds only set-b lines, so exactly one bank is affected.
        # SharedLSQ entries store the cached set index anyway; a narrow
        # index equality (not the avoided full-address CAM search) selects
        # the affected ones.
        banks, sets = self.cfg.banks, self.cfg.l1d_sets
        if banks >= sets:
            affected = range(set_idx % sets, banks, sets)
        else:
            affected = [set_idx % banks]
        for b in affected:
            for entry in self._banks[b]:
                entry.location = None
        for entry in self._shared:
            if entry.location is not None and entry.location[0] == set_idx:
                entry.location = None

    # -- release -------------------------------------------------------------
    def commit(self, ins: InFlight) -> None:
        self._fwd_load = None
        entry: SamieEntry | None = ins.placement
        if entry is None:  # pragma: no cover - commit requires placement
            raise RuntimeError("committing an unplaced memory instruction")
        self._slot_left(entry)
        entry.slots.remove(ins)
        if not entry.slots:
            if entry.shared:
                self._shared.remove(entry)
                self._shared_resized(-1)
                index = self._shared_lines
            else:
                bank_idx = entry.line % self.cfg.banks
                bank = self._banks[bank_idx]
                if len(bank) == self.cfg.entries_per_bank:
                    self._bank_full(-1)
                bank.remove(entry)
                index = self._bank_lines[bank_idx]
            peers = index[entry.line]
            peers.remove(entry)
            if not peers:
                del index[entry.line]
        self._retry_ok = True  # capacity freed: wake the AddrBuffer

    def flush(self) -> None:
        self._fwd_load = None
        before = self._area_counts()
        for bank in self._banks:
            bank.clear()
        for lines in self._bank_lines:
            lines.clear()
        self._full_banks = 0
        self._distrib_entries = 0
        self._distrib_slot_terms = 0
        self._shared_slot_terms = 0
        self._shared.clear()
        self._shared_lines.clear()
        self._addr_buffer.clear()
        self.need_flush = False
        self._retry_ok = True
        self._agu_reserved = 0
        now = self.now
        w = self._area_w
        for i, (x0, x1) in enumerate(zip(before, self._area_counts())):
            w[i] += (x1 - x0) * now
        self._occ_hist.add(before[_S_ENT], now - self._occ_since)
        self._occ_since = now

    # -- introspection ---------------------------------------------------------
    def head_blocked(self, ins: InFlight) -> bool:
        if ins.placement is not None or not ins.addr_ready:
            return False
        self._fwd_load = None
        # Priority attempt for the oldest in-flight instruction; if even
        # that fails, only a flush can restore forward progress (§3.3).
        was_buffered = ins.in_addr_buffer
        if self._try_place(ins):
            if was_buffered:
                self._remove_from_addr_buffer(ins)
            return False
        return True

    def _remove_from_addr_buffer(self, ins: InFlight) -> None:
        old = len(self._addr_buffer._buf)
        survivors = [i for i in self._addr_buffer if i is not ins]
        self._addr_buffer.clear()
        for i in survivors:
            self._addr_buffer.try_push(i)
        self._addr_buffer_resized(old)
        ins.in_addr_buffer = False

    def active_area(self) -> float:
        return sum(self.area_breakdown().values())

    def _area_counts(self) -> tuple[int, ...]:
        """The integer counters the active area is built from, in
        ``_area_w`` order (see the ``_FULL``.. ``_AB_BUSY`` indexes)."""
        cfg = self.cfg
        n_shared = len(self._shared)
        n_ab = len(self._addr_buffer._buf)
        return (
            self._full_banks, self._distrib_entries, self._distrib_slot_terms,
            n_shared, self._shared_slot_terms,
            int(cfg.shared_entries is None or n_shared < cfg.shared_entries),
            min(n_ab + ADDR_BUFFER_EXTRA_SLOTS, cfg.addr_buffer_slots),
            int(n_ab > 0),
        )

    def _areas(self, counts, banks: int) -> dict[str, float]:
        """Area per component from counter values, or from their
        integrals (then ``banks`` is the bank count times the cycles).
        One powered spare entry per non-full bank, the in-use entries,
        their powered slots (sum of min(slots + 1, slots_per_entry)),
        the spare SharedLSQ entry and the powered AddrBuffer slots.
        This regroups the float sum relative to a sequential walk of
        all banks (the oracle in repro.lsq.reference) -- exact, because
        the Table 5 areas are integral um^2 (guarded by
        tests/test_bit_identity.py), so every partial sum is an integer
        far below 2**53 and addition never rounds."""
        entry_d = self._area_entry_d
        slot_d = self._area_slot_d
        entry_s = self._area_entry_s
        slot_s = self._area_slot_s
        return {
            "distrib": (banks - counts[_FULL]) * (entry_d + slot_d)
            + counts[_D_ENT] * entry_d + counts[_D_SLOT] * slot_d,
            "shared": counts[_S_ENT] * entry_s + counts[_S_SLOT] * slot_s
            + counts[_SPARE] * (entry_s + slot_s),
            "addrbuffer": counts[_AB_SLOT] * self._area_slot_ab,
        }

    def area_breakdown(self) -> dict[str, float]:
        return self._areas(self._area_counts(), self.cfg.banks)

    def area_reset(self, t0: int) -> None:
        super().area_reset(t0)
        self._area_w = [x * t0 for x in self._area_counts()]
        self._occ_hist = Histogram(max_value=OCC_HIST_MAX)
        self._occ_since = t0

    def area_integrals(self, t: int) -> dict[str, float]:
        if t == self._area_t0:
            return {}
        integrals = [x * t - w for x, w in zip(self._area_counts(), self._area_w)]
        return self._areas(integrals, self.cfg.banks * (t - self._area_t0))

    def shared_occupancy(self, t: int) -> Histogram:
        """SharedLSQ entries in use, one sample per cycle of
        ``[t0, t)`` (the open run is closed at ``t``)."""
        self._occ_hist.add(len(self._shared), t - self._occ_since)
        self._occ_since = t
        return self._occ_hist

    def addr_buffer_busy(self, t: int) -> int:
        """Cycles of ``[t0, t)`` that ended with the AddrBuffer busy."""
        return (len(self._addr_buffer._buf) > 0) * t - self._area_w[_AB_BUSY]

    def occupancy(self) -> int:
        n = len(self._addr_buffer)
        for bank in self._banks:
            n += sum(len(e.slots) for e in bank)
        n += sum(len(e.slots) for e in self._shared)
        return n

    # telemetry helpers -----------------------------------------------------
    def shared_in_use(self) -> int:
        """SharedLSQ entries currently allocated."""
        return len(self._shared)

    def distrib_entries_in_use(self) -> int:
        """DistribLSQ entries currently allocated."""
        return self._distrib_entries

    def addr_buffer_len(self) -> int:
        """Instructions currently parked in the AddrBuffer."""
        return len(self._addr_buffer._buf)
