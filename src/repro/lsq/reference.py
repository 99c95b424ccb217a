"""Retained reference implementations of the pre-optimization LSQ scans.

The hot-path overhaul (see ROADMAP.md "Performance") replaced the LSQ
models' linear searches with O(1) line/word indexes and regrouped the
SAMIE active-area sum into a closed form over maintained integer terms.
The reference models integrate their area with the fast models'
counters (:mod:`repro.energy.leakage`); ``walked_area_breakdown`` is the
oracle that tests/test_stage8.py checks those counters against, cycle by
cycle.
These subclasses retain the *original* linear-scan behaviour --
placement target selection, the youngest-older-overlapping forwarding
search, fairness-rule comparison counts, and the sequential all-banks
area walk -- while keeping the fast models' bookkeeping structures
consistent, so either class can drive a full simulation.

``tests/test_fastpath_reference.py`` runs identical fuzz programs through
the fast and reference models across the verify-grid geometries and
asserts bit-identical ``SimResult``s: any divergence means an index is
stale or a regrouped sum rounds differently.

The forwarding searches route through :func:`repro.lsq.base.
youngest_older_overlapping` *via the module attribute*, so the verify
campaign's fault injection blinds these models exactly like the fast
ones.
"""

from __future__ import annotations

from repro.core.inflight import InFlight
import repro.lsq.base as base
from repro.energy.leakage import ADDR_BUFFER_EXTRA_SLOTS
from repro.energy.tables import (
    DISTRIB_LSQ_ENERGY as E_D,
    SHARED_LSQ_ENERGY as E_S,
)
from repro.lsq.arb import ARBLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieEntry, SamieLSQ


class ReferenceConventionalLSQ(ConventionalLSQ):
    """Conventional LSQ with the original linear store-queue scans."""

    __slots__ = ()

    def _forward_source(self, ins: InFlight) -> InFlight | None:
        # original linear scan of the whole store queue, routed through
        # the shared helper (which applies the same seq/addr_ready/
        # overlap filter) so fault injection blinds this model too
        return base.youngest_older_overlapping(ins, self._stores)

    def _count_comparisons(self, ins: InFlight) -> int:
        # original linear fairness-rule counts
        if ins.is_load:
            return sum(
                1 for st in self._stores if st.seq < ins.seq and st.addr_ready
            )
        return sum(
            1 for ld in self._loads if ld.seq > ins.seq and ld.addr_ready
        )


class ReferenceARBLSQ(ARBLSQ):
    """ARB with the forwarding search routed through the shared helper."""

    __slots__ = ()

    def _forward_source(self, ins: InFlight) -> InFlight | None:
        return base.youngest_older_overlapping(ins, ins.placement.slots)


class ReferenceSamieLSQ(SamieLSQ):
    """SAMIE-LSQ with the original linear bank scans and area walk."""

    __slots__ = ()

    def _matching_stores(self, ins: InFlight) -> list[InFlight]:
        # original linear walk of the whole bank and SharedLSQ
        line = self.line_of(ins)
        out: list[InFlight] = []
        for entry in self._banks[self.bank_of(ins)]:
            if entry.line == line:
                out.extend(s for s in entry.slots if s.is_store)
        for entry in self._shared:
            if entry.line == line:
                out.extend(s for s in entry.slots if s.is_store)
        return out

    def _forward_source(self, ins: InFlight) -> InFlight | None:
        return base.youngest_older_overlapping(ins, self._matching_stores(ins))

    def _try_place(self, ins: InFlight, charge: bool = True) -> bool:
        """Original linear placement search.

        Target selection scans the bank and SharedLSQ lists front to back
        (the fast model's per-line index lists preserve exactly this
        order); the fast model's index/area bookkeeping is maintained so
        the inherited commit/flush paths stay consistent, and bank-full
        and SharedLSQ changes are charged through the fast model's
        area helpers.
        """
        line = self.line_of(ins)
        bank_idx = self.bank_of(ins)
        bank = self._banks[bank_idx]
        if charge:
            self._charge_placement_attempt(bank)
        cfg = self.cfg
        # 1. join a DistribLSQ entry holding the same line
        target: SamieEntry | None = None
        for entry in bank:
            if entry.line == line and len(entry.slots) < cfg.slots_per_entry:
                target = entry
                break
        # 2. allocate a fresh DistribLSQ entry
        if target is None and len(bank) < cfg.entries_per_bank:
            target = SamieEntry(line, shared=False)
            bank.append(target)
            self._bank_lines[bank_idx].setdefault(line, []).append(target)
            if len(bank) == cfg.entries_per_bank:
                self._bank_full(1)
            self.energy.charge("distrib", E_D["addr_rw"])
        # 3. join a SharedLSQ entry holding the same line
        if target is None:
            for entry in self._shared:
                if entry.line == line and len(entry.slots) < cfg.slots_per_entry:
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
            self.energy.charge("shared", E_S["addr_rw"])
        if target is None:
            self.stats.placement_failures += 1
            return False
        target.slots.append(ins)
        self._slot_joined(target)
        ins.placement = target
        ins.in_addr_buffer = False
        self.energy.charge(
            "shared" if target.shared else "distrib",
            (E_S if target.shared else E_D)["age_rw"],
        )
        if ins.is_store:
            ins.disamb_resolved = True
            if ins.store_data_ready:
                self.energy.charge(
                    "shared" if target.shared else "distrib",
                    (E_S if target.shared else E_D)["datum_rw"],
                )
        self.stats.placed += 1
        return True

    def area_breakdown(self) -> dict[str, float]:
        # original sequential walk of every bank (the fast model keeps
        # integer terms up to date and evaluates a closed form)
        return walked_area_breakdown(self)


def walked_area_breakdown(lsq: SamieLSQ) -> dict[str, float]:
    """Active-area breakdown of a SAMIE model's current state, by a
    sequential walk of every bank, entry and SharedLSQ entry -- the
    oracle of :meth:`SamieLSQ.area_breakdown`'s closed form."""
    cfg = lsq.cfg
    distrib = 0.0
    for bank in lsq._banks:
        for entry in bank:
            slots = min(len(entry.slots) + 1, cfg.slots_per_entry)
            distrib += lsq._area_entry_d + slots * lsq._area_slot_d
        if len(bank) < cfg.entries_per_bank:  # one powered spare entry
            distrib += lsq._area_entry_d + lsq._area_slot_d
    shared = 0.0
    for entry in lsq._shared:
        slots = min(len(entry.slots) + 1, cfg.slots_per_entry)
        shared += lsq._area_entry_s + slots * lsq._area_slot_s
    if cfg.shared_entries is None or len(lsq._shared) < cfg.shared_entries:
        shared += lsq._area_entry_s + lsq._area_slot_s
    ab_slots = min(len(lsq._addr_buffer) + ADDR_BUFFER_EXTRA_SLOTS, cfg.addr_buffer_slots)
    addrbuffer = ab_slots * lsq._area_slot_ab
    return {"distrib": distrib, "shared": shared, "addrbuffer": addrbuffer}


#: fast class -> retained reference class
REFERENCE_FOR = {
    ConventionalLSQ: ReferenceConventionalLSQ,
    ARBLSQ: ReferenceARBLSQ,
    SamieLSQ: ReferenceSamieLSQ,
}
