"""ARB: Franklin & Sohi's Address Resolution Buffer (Figure 1 comparator).

The ARB distributes disambiguation across ``banks`` banks selected by the
accessed address.  Each bank tracks up to ``addresses_per_bank`` distinct
word addresses; each address row has (conceptually) one slot per possible
in-flight memory instruction, so joining an existing row never fails.  At
most ``max_inflight`` memory instructions may be in flight in total
(the paper's P), enforced at dispatch.

An instruction whose bank already tracks ``addresses_per_bank`` other
addresses waits (oldest first) until a row frees at commit.  If the ROB
head itself cannot be placed the pipeline flushes, mirroring the SAMIE
deadlock-avoidance mechanism, so that Figure 1's IPC cliff for highly
banked configurations emerges from the same machinery.

Word granularity is 8 bytes: the synthetic ISA guarantees size-aligned
accesses of at most 8 bytes, so every byte overlap falls within one word.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.core.inflight import InFlight
from repro.lsq.base import (
    CACHE_LOAD_ROUTES,
    CACHE_STORE_ROUTES,
    BaseLSQ,
    LoadRoute,
    RouteKind,
    StoreRoute,
    youngest_older_overlapping,
)


@dataclass(frozen=True)
class ARBConfig:
    """ARB geometry: Figure 1 sweeps banks x addresses_per_bank."""

    banks: int = 8
    addresses_per_bank: int = 16
    max_inflight: int = 128
    word_shift: int = 3  # 8-byte rows


class _Row:
    """One address row inside a bank."""

    __slots__ = ("word", "slots")

    def __init__(self, word: int):
        self.word = word
        self.slots: list[InFlight] = []


class ARBLSQ(BaseLSQ):
    """Address Resolution Buffer model."""

    __slots__ = ("cfg", "_banks", "_pending", "_inflight")

    name = "arb"

    def __init__(self, cfg: ARBConfig | None = None):
        super().__init__()
        self.cfg = cfg or ARBConfig()
        self._banks: list[dict[int, _Row]] = [dict() for _ in range(self.cfg.banks)]
        #: (seq, ins) pairs, kept sorted by age (addr-ready, waiting for a row)
        self._pending: list[tuple[int, InFlight]] = []
        self._inflight = 0

    # -- helpers -------------------------------------------------------------
    def _bank_of(self, ins: InFlight) -> int:
        return (ins.addr >> self.cfg.word_shift) % self.cfg.banks

    def _word_of(self, ins: InFlight) -> int:
        return ins.addr >> self.cfg.word_shift

    def _try_place(self, ins: InFlight) -> bool:
        bank = self._banks[self._bank_of(ins)]
        word = self._word_of(ins)
        self.stats.addr_comparisons += len(bank)
        row = bank.get(word)
        if row is None:
            if len(bank) >= self.cfg.addresses_per_bank:
                self.stats.placement_failures += 1
                return False
            row = _Row(word)
            bank[word] = row
        row.slots.append(ins)
        ins.placement = row
        ins.in_addr_buffer = False
        if ins.is_store:
            ins.disamb_resolved = True
        self.stats.placed += 1
        return True

    # -- lifecycle ---------------------------------------------------------
    def dispatch(self, ins: InFlight) -> bool:
        if self._inflight >= self.cfg.max_inflight:
            return False
        self._inflight += 1
        self.stats.dispatched += 1
        return True

    def address_ready(self, ins: InFlight) -> None:
        self._fwd_load = None
        if not self._try_place(ins):
            ins.in_addr_buffer = True
            # sorted insert (seqs are unique, so the pair never compares
            # the InFlight) replacing the old append-then-sort
            insort(self._pending, (ins.seq, ins))

    def begin_cycle(self, cycle: int) -> None:
        if not self._pending:
            return
        self._fwd_load = None
        still: list[tuple[int, InFlight]] = []
        for pair in self._pending:
            if not self._try_place(pair[1]):
                still.append(pair)
        self._pending[:] = still  # in place: see retry_queue

    def retry_queue(self):
        return self._pending

    def quiescent(self) -> bool:
        # every pending entry retries placement each cycle, charging
        # comparisons/failures even when nothing places
        return not self._pending

    def dispatch_would_block(self) -> bool:
        return self._inflight >= self.cfg.max_inflight

    # -- load scheduling -----------------------------------------------------
    def _forward_source(self, ins: InFlight) -> InFlight | None:
        """Youngest older overlapping store in ``ins``'s address row."""
        return youngest_older_overlapping(ins, ins.placement.slots)

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
        return False  # partial overlap: wait for commit

    def route_load(self, ins: InFlight) -> LoadRoute:
        src = self._fwd_src if self._fwd_load is ins else self._forward_source(ins)
        self._fwd_load = None
        if src is not None and src.contains(ins) and src.store_data_ready:
            self.stats.loads_forwarded += 1
            return LoadRoute(RouteKind.FORWARD, store=src)
        self.stats.loads_from_cache += 1
        self.stats.full_cache_accesses += 1
        return CACHE_LOAD_ROUTES[False][False]

    def route_store_commit(self, ins: InFlight) -> StoreRoute:
        self.stats.full_cache_accesses += 1
        return CACHE_STORE_ROUTES[False][False]

    # -- release -------------------------------------------------------------
    def commit(self, ins: InFlight) -> None:
        self._fwd_load = None
        row: _Row | None = ins.placement
        if row is not None:
            row.slots.remove(ins)
            if not row.slots:
                del self._banks[self._bank_of(ins)][row.word]
        self._inflight -= 1

    def flush(self) -> None:
        self._fwd_load = None
        for bank in self._banks:
            bank.clear()
        self._pending.clear()
        self._inflight = 0

    # -- introspection ---------------------------------------------------------
    def head_blocked(self, ins: InFlight) -> bool:
        if ins.placement is not None or not ins.addr_ready:
            return False
        self._fwd_load = None
        if self._try_place(ins):  # priority placement for the oldest instruction
            # sorted (seq, ins) pairs with unique seqs: bisect finds it
            pending = self._pending
            i = bisect_left(pending, (ins.seq,))
            if i < len(pending) and pending[i][1] is ins:
                del pending[i]
            return False
        return True

    def active_area(self) -> float:
        return 0.0  # the paper evaluates the ARB on IPC only (Figure 1)

    def area_integrals(self, t: int) -> dict[str, float]:
        return {self.name: 0.0}  # no area at any cycle count

    def occupancy(self) -> int:
        return self._inflight

    def rows_in_use(self) -> int:
        """Total address rows currently allocated (testing aid)."""
        return sum(len(b) for b in self._banks)
