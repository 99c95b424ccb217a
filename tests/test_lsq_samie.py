"""Unit tests for the SAMIE-LSQ model (the paper's contribution)."""

import itertools

import pytest

from repro.core.processor import build_processor, run_simulation
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.lsq.base import RouteKind
from repro.lsq.samie import SamieConfig, SamieLSQ
from repro.workloads.registry import make_trace
from tests.conftest import mk_mem

LINE = 32


def make(banks=4, entries=2, slots=4, shared=2, ab=4, sets=4) -> SamieLSQ:
    return SamieLSQ(
        SamieConfig(
            banks=banks,
            entries_per_bank=entries,
            slots_per_entry=slots,
            shared_entries=shared,
            addr_buffer_slots=ab,
            l1d_sets=sets,
        )
    )


def addr_for_bank(bank: int, banks: int = 4, line_idx: int = 0) -> int:
    """Byte address whose line maps to the given bank."""
    return (bank + line_idx * banks) * LINE


def place(q: SamieLSQ, op, seq, addr, size=8, data_ready=True):
    ins = mk_mem(op, seq, addr, size, data_ready=data_ready)
    q.dispatch(ins)
    q.address_ready(ins)
    return ins


class TestPlacement:
    def test_same_line_shares_entry(self):
        q = make()
        a = place(q, OpClass.LOAD, 0, 0x100)
        b = place(q, OpClass.LOAD, 1, 0x108)
        assert a.placement is b.placement
        assert q.distrib_entries_in_use() == 1

    def test_distinct_lines_same_bank_use_entries(self):
        q = make()
        a = place(q, OpClass.LOAD, 0, addr_for_bank(1, line_idx=0))
        b = place(q, OpClass.LOAD, 1, addr_for_bank(1, line_idx=1))
        assert a.placement is not b.placement
        assert q.distrib_entries_in_use() == 2

    def test_full_entry_spills_to_new_entry_same_line(self):
        q = make(slots=2)
        a = place(q, OpClass.LOAD, 0, 0x100)
        place(q, OpClass.LOAD, 1, 0x108)  # fills the entry's second slot
        c = place(q, OpClass.LOAD, 2, 0x110)  # same line, entry full
        assert c.placement is not a.placement
        assert q.distrib_entries_in_use() == 2

    def test_bank_overflow_goes_to_shared(self):
        q = make()
        place(q, OpClass.LOAD, 0, addr_for_bank(2, line_idx=0))
        place(q, OpClass.LOAD, 1, addr_for_bank(2, line_idx=1))
        c = place(q, OpClass.LOAD, 2, addr_for_bank(2, line_idx=2))
        assert c.placement.shared
        assert q.shared_in_use() == 1

    def test_shared_overflow_goes_to_addr_buffer(self):
        q = make(shared=1)
        for i in range(3):  # fills 2 bank entries + 1 shared
            place(q, OpClass.LOAD, i, addr_for_bank(3, line_idx=i))
        d = place(q, OpClass.LOAD, 3, addr_for_bank(3, line_idx=3))
        assert d.placement is None
        assert d.in_addr_buffer
        assert q.addr_buffer_len() == 1

    def test_addr_buffer_overflow_requests_flush(self):
        q = make(shared=0, ab=1)
        place(q, OpClass.LOAD, 0, addr_for_bank(0, line_idx=0))
        place(q, OpClass.LOAD, 1, addr_for_bank(0, line_idx=1))
        place(q, OpClass.LOAD, 2, addr_for_bank(0, line_idx=2))  # -> AddrBuffer
        assert not q.need_flush
        place(q, OpClass.LOAD, 3, addr_for_bank(0, line_idx=3))  # nowhere
        assert q.need_flush

    def test_unbounded_shared(self):
        q = make(shared=None)
        for i in range(20):
            place(q, OpClass.LOAD, i, addr_for_bank(0, line_idx=i))
        assert q.addr_buffer_len() == 0
        assert q.shared_in_use() == 18

    def test_addr_buffer_drains_fifo_after_commit(self):
        q = make(shared=0, ab=4)
        resident = [place(q, OpClass.LOAD, i, addr_for_bank(1, line_idx=i)) for i in range(2)]
        waiting = place(q, OpClass.LOAD, 2, addr_for_bank(1, line_idx=2))
        assert waiting.in_addr_buffer
        q.begin_cycle(0)  # no capacity change: head stays
        assert waiting.placement is None
        q.commit(resident[0])
        q.begin_cycle(1)
        assert waiting.placement is not None
        assert q.addr_buffer_len() == 0

    def test_store_resolved_only_when_placed(self):
        q = make(shared=0)
        for i in range(2):
            place(q, OpClass.LOAD, i, addr_for_bank(1, line_idx=i))
        st = mk_mem(OpClass.STORE, 2, addr_for_bank(1, line_idx=2))
        st.disamb_resolved = False
        q.dispatch(st)
        q.address_ready(st)
        assert st.in_addr_buffer and not st.disamb_resolved


class TestForwarding:
    def test_forward_within_entry(self):
        q = make()
        st = place(q, OpClass.STORE, 0, 0x100, 8)
        ld = place(q, OpClass.LOAD, 1, 0x104, 4)
        assert q.load_ready(ld)
        route = q.route_load(ld)
        assert route.kind is RouteKind.FORWARD and route.store is st

    def test_forward_across_entries_same_line(self):
        # same line can occupy two entries when slots fill up
        q = make(slots=1)
        st = place(q, OpClass.STORE, 0, 0x100, 8)
        ld = place(q, OpClass.LOAD, 1, 0x100, 8)
        assert st.placement is not ld.placement
        route = q.route_load(ld)
        assert route.kind is RouteKind.FORWARD and route.store is st

    def test_forward_from_shared_entry(self):
        q = make(slots=1, entries=1)
        place(q, OpClass.LOAD, 0, addr_for_bank(0, line_idx=1))  # occupies the bank
        st = place(q, OpClass.STORE, 1, 0x100, 8)  # -> shared
        ld = place(q, OpClass.LOAD, 2, 0x100, 8)   # -> shared
        assert st.placement.shared
        route = q.route_load(ld)
        assert route.kind is RouteKind.FORWARD and route.store is st

    def test_partial_overlap_waits(self):
        q = make()
        st = place(q, OpClass.STORE, 0, 0x104, 4)
        ld = place(q, OpClass.LOAD, 1, 0x100, 8)
        assert not q.load_ready(ld)
        q.commit(st)
        assert q.load_ready(ld)

    def test_unplaced_load_not_ready(self):
        q = make(shared=0)
        for i in range(2):
            place(q, OpClass.LOAD, i, addr_for_bank(1, line_idx=i))
        waiting = place(q, OpClass.LOAD, 9, addr_for_bank(1, line_idx=9))
        assert waiting.placement is None
        assert not q.load_ready(waiting)


class TestExtensions:
    def test_way_known_after_record(self):
        q = make()
        a = place(q, OpClass.LOAD, 0, 0x100)
        b = place(q, OpClass.LOAD, 1, 0x108)
        r1 = q.route_load(a)
        assert r1.kind is RouteKind.CACHE and not r1.way_known and not r1.skip_tlb
        q.record_location(a, set_idx=2, way=1)
        r2 = q.route_load(b)
        assert r2.way_known and r2.skip_tlb
        assert q.stats.way_known_accesses == 1
        assert q.stats.tlb_skipped_accesses == 1

    def test_store_commit_uses_cached_location(self):
        q = make()
        ld = place(q, OpClass.LOAD, 0, 0x100)
        st = place(q, OpClass.STORE, 1, 0x108)
        q.record_location(ld, set_idx=0, way=3)
        route = q.route_store_commit(st)
        assert route.way_known and route.skip_tlb

    def test_eviction_resets_present_bit_not_tlb(self):
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, 0x100)  # line 8 -> bank 0, set 0
        b = place(q, OpClass.LOAD, 1, 0x108)
        q.record_location(a, set_idx=0, way=0)
        q.on_l1_evict(set_idx=0, line_addr=999)
        route = q.route_load(b)
        assert not route.way_known  # presentBit gone
        assert route.skip_tlb  # translation survives eviction

    def test_eviction_other_set_untouched(self):
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, 0x100)  # bank 0
        b = place(q, OpClass.LOAD, 1, 0x108)
        q.record_location(a, set_idx=0, way=0)
        q.on_l1_evict(set_idx=1, line_addr=999)  # different bank/set
        assert q.route_load(b).way_known

    def test_shared_entry_eviction_matches_set(self):
        q = make(banks=4, entries=1, sets=4)
        place(q, OpClass.LOAD, 0, addr_for_bank(0, line_idx=1))  # fills bank 0
        s1 = place(q, OpClass.LOAD, 1, 0x100)   # -> shared (bank 0 full), set 0
        s2 = place(q, OpClass.LOAD, 2, 0x120)   # -> shared, line 9, set 1
        q.record_location(s1, set_idx=0, way=0)
        q.record_location(s2, set_idx=1, way=0)
        q.on_l1_evict(set_idx=0, line_addr=999)
        assert s1.placement.location is None
        assert s2.placement.location is not None

    def test_banks_ge_sets_mapping(self):
        q = make(banks=8, sets=4)
        a = place(q, OpClass.LOAD, 0, 4 * LINE)  # line 4 -> bank 4, set 0
        q.record_location(a, set_idx=0, way=0)
        q.on_l1_evict(set_idx=0, line_addr=123)  # affects banks 0 and 4
        assert a.placement.location is None


class TestPresentBitBulkReset:
    """Regression tests for the §3.4 bulk-reset path: an L1 eviction clears
    cached locations on exactly the entries that can map to the evicted
    set, with no address comparison, and the next access re-pays the
    Table 5 tag/location energy."""

    def test_clears_every_entry_of_affected_bank(self):
        # two entries (distinct lines) in the same bank: both lose their
        # location, line address notwithstanding -- the "very simple
        # alternative" compares no addresses
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, addr_for_bank(2, line_idx=0))
        b = place(q, OpClass.LOAD, 1, addr_for_bank(2, line_idx=1))
        q.record_location(a, set_idx=2, way=0)
        q.record_location(b, set_idx=2, way=1)
        q.on_l1_evict(set_idx=2, line_addr=a.placement.line)
        assert a.placement.location is None
        assert b.placement.location is None

    def test_other_banks_untouched(self):
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, addr_for_bank(1))
        b = place(q, OpClass.LOAD, 1, addr_for_bank(3))
        q.record_location(a, set_idx=1, way=0)
        q.record_location(b, set_idx=3, way=0)
        q.on_l1_evict(set_idx=1, line_addr=999)
        assert a.placement.location is None
        assert b.placement.location == (3, 0)

    def test_banks_lt_sets_mapping(self):
        # 2 banks, 4 sets: lines of sets 1 and 3 both live in bank 1;
        # evicting set 3 must clear bank-1 entries even when they cached
        # set 1 (the bank cannot tell which of its lines was evicted)
        q = make(banks=2, sets=4)
        a = place(q, OpClass.LOAD, 0, 1 * LINE)  # line 1 -> bank 1
        q.record_location(a, set_idx=1, way=0)
        q.on_l1_evict(set_idx=3, line_addr=999)  # 3 % 2 banks -> bank 1
        assert a.placement.location is None

    def test_shared_entries_cleared_on_matching_set(self):
        # every SharedLSQ entry whose cached set matches is cleared; the
        # rest keep their location (narrow index equality, not a CAM scan)
        q = make(banks=4, entries=1, sets=4)
        place(q, OpClass.LOAD, 0, addr_for_bank(0, line_idx=1))  # fills bank 0
        s1 = place(q, OpClass.LOAD, 1, addr_for_bank(0, line_idx=2))  # -> shared
        s2 = place(q, OpClass.LOAD, 2, addr_for_bank(0, line_idx=3))  # -> shared
        assert s1.placement.shared and s2.placement.shared
        q.record_location(s1, set_idx=2, way=0)
        q.record_location(s2, set_idx=2, way=1)
        q.on_l1_evict(set_idx=2, line_addr=999)
        assert s1.placement.location is None
        assert s2.placement.location is None

    def test_tlb_translation_survives_reset(self):
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, 0x100)
        q.record_location(a, set_idx=0, way=0)
        q.on_l1_evict(set_idx=0, line_addr=999)
        assert a.placement.location is None
        assert a.placement.tlb_cached  # eviction never touches the DTLB cache

    def test_next_access_repays_tag_energy(self):
        from repro.energy.tables import DISTRIB_LSQ_ENERGY as E_D

        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, 0x100)
        b = place(q, OpClass.LOAD, 1, 0x108)
        q.record_location(a, set_idx=0, way=0)
        assert q.route_load(b).way_known
        before = q.stats.full_cache_accesses
        q.on_l1_evict(set_idx=0, line_addr=999)
        # the next access routes as a full (tag-checked) cache access ...
        route = q.route_load(a)
        assert not route.way_known
        assert q.stats.full_cache_accesses == before + 1
        # ... and re-learning the location re-pays the Table 5 location
        # write (but not the still-cached DTLB translation)
        e0 = q.energy.total("distrib")
        q.record_location(a, set_idx=0, way=2)
        assert q.energy.total("distrib") - e0 == pytest.approx(E_D["cache_line_id_rw"])

    def test_flush_drops_tlb_cache_with_entries(self):
        # a pipeline flush discards entries entirely: a re-placed access
        # pays both the tag check and the DTLB access again
        q = make(banks=4, sets=4)
        a = place(q, OpClass.LOAD, 0, 0x100)
        q.record_location(a, set_idx=0, way=0)
        q.flush()
        a2 = place(q, OpClass.LOAD, 1, 0x100)
        route = q.route_load(a2)
        assert not route.way_known and not route.skip_tlb


class TestDeadlockAndRelease:
    def test_head_blocked_true_when_no_room(self):
        q = make(shared=0)
        for i in range(2):
            place(q, OpClass.LOAD, i + 10, addr_for_bank(1, line_idx=i))
        head = place(q, OpClass.LOAD, 1, addr_for_bank(1, line_idx=5))
        assert head.placement is None
        assert q.head_blocked(head)

    def test_head_blocked_priority_placement(self):
        q = make(shared=0)
        blockers = [place(q, OpClass.LOAD, i + 10, addr_for_bank(1, line_idx=i)) for i in range(2)]
        head = place(q, OpClass.LOAD, 1, addr_for_bank(1, line_idx=5))
        q.commit(blockers[0])
        assert not q.head_blocked(head)  # priority try_place succeeds
        assert head.placement is not None
        assert q.addr_buffer_len() == 0  # removed from the FIFO

    def test_commit_frees_entry_when_empty(self):
        q = make()
        a = place(q, OpClass.LOAD, 0, 0x100)
        b = place(q, OpClass.LOAD, 1, 0x108)
        q.commit(a)
        assert q.distrib_entries_in_use() == 1
        q.commit(b)
        assert q.distrib_entries_in_use() == 0

    def test_commit_unplaced_raises(self):
        q = make(shared=0)
        for i in range(2):
            place(q, OpClass.LOAD, i, addr_for_bank(1, line_idx=i))
        waiting = place(q, OpClass.LOAD, 5, addr_for_bank(1, line_idx=5))
        with pytest.raises(RuntimeError):
            q.commit(waiting)

    def test_flush_resets_all(self):
        q = make(shared=1)
        for i in range(5):
            place(q, OpClass.LOAD, i, addr_for_bank(1, line_idx=i))
        q.flush()
        assert q.occupancy() == 0
        assert q.shared_in_use() == 0
        assert q.addr_buffer_len() == 0
        assert not q.need_flush


class TestEnergyAndArea:
    def test_bus_charged_per_attempt(self):
        q = make()
        place(q, OpClass.LOAD, 0, 0x100)
        assert q.energy.total("bus") == pytest.approx(54.4)

    def test_comparisons_scale_with_occupancy(self):
        q = make(shared=4)
        place(q, OpClass.LOAD, 0, addr_for_bank(0, line_idx=0))
        e1 = q.energy.total("distrib")
        place(q, OpClass.LOAD, 1, addr_for_bank(0, line_idx=1))
        e2 = q.energy.total("distrib") - e1
        assert e2 > e1 / 2  # second placement compares against one entry

    def test_area_breakdown_components(self):
        q = make()
        bd = q.area_breakdown()
        assert set(bd) == {"distrib", "shared", "addrbuffer"}
        assert all(v >= 0 for v in bd.values())
        base = sum(bd.values())
        place(q, OpClass.LOAD, 0, 0x100)
        assert sum(q.area_breakdown().values()) > base

    def test_spare_entry_policy(self):
        # empty LSQ: one spare per bank + one shared spare + 4 AddrBuffer slots
        from repro.energy.tables import (
            entry_area_distrib, entry_area_shared,
            slot_area_addrbuffer, slot_area_distrib, slot_area_shared,
        )
        q = make(banks=2, entries=1, shared=1, ab=8)
        expected = (
            2 * (entry_area_distrib() + slot_area_distrib())
            + entry_area_shared() + slot_area_shared()
            + 4 * slot_area_addrbuffer()
        )
        assert q.active_area() == pytest.approx(expected)

    def test_occupancy_counts_all_structures(self):
        q = make(shared=1, slots=1, entries=1, banks=2)
        n = 0
        for i in range(5):
            place(q, OpClass.LOAD, i, addr_for_bank(0, line_idx=i))
            n += 1
            assert q.occupancy() == n

    def test_shared_occupancy_sampling(self):
        # the pipeline's stage 8 samples SharedLSQ occupancy every cycle;
        # loads spread one line per bank never need the SharedLSQ
        def line_per_bank():
            for seq in itertools.count():
                yield UOp(seq, 0x400000 + 4 * (seq % 16), OpClass.LOAD,
                          addr=LINE * (seq % 64), size=8)

        r = run_simulation(line_per_bank(), lsq=SamieLSQ(SamieConfig(shared_entries=2)),
                           max_instructions=400)
        assert r.instructions >= 400
        assert r.shared_occupancy_mean == 0.0
        assert r.shared_occupancy_p99 == 0

    def test_shared_occupancy_sampling_is_bounded(self):
        # a pressured tiny geometry fills the SharedLSQ; the histogram
        # has a fixed bucket count however long the run, and every
        # measured cycle is one sample at most shared_entries
        cfg = SamieConfig(banks=4, entries_per_bank=1, slots_per_entry=1,
                          shared_entries=4, addr_buffer_slots=16)
        pipe = build_processor(SamieLSQ(cfg))
        pipe.attach_trace(make_trace("ammp"))
        r = pipe.run(1500, warmup=500)
        hist = pipe.shared_occ_hist
        assert len(hist.buckets) == hist.max_value + 1
        assert hist.count == r.cycles
        assert hist.overflow == 0
        assert all(c == 0 for c in hist.buckets[cfg.shared_entries + 1:])
        assert 0.0 < r.shared_occupancy_mean <= cfg.shared_entries
        assert 0 < r.shared_occupancy_p99 <= cfg.shared_entries
