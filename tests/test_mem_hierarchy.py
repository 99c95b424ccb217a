"""Unit tests for ports and the composite memory hierarchy."""

import pytest

from repro.core.processor import build_processor
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.mem.ports import PortPool


class TestPortPool:
    def test_grants_up_to_capacity(self):
        p = PortPool(2)
        assert p.try_acquire()
        assert p.try_acquire()
        assert not p.try_acquire()
        assert not p.try_acquire()  # a denial frees nothing

    def test_new_cycle_releases(self):
        # the cycle loop releases the D-cache ports at the top of a step
        pipe = build_processor("conventional")
        pipe.attach_trace(iter(()))
        ports = pipe.mem.dports
        while ports.try_acquire():
            pass
        pipe.step()
        assert all(ports.try_acquire() for _ in range(ports.ports))
        assert not ports.try_acquire()

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            PortPool(0)


def drain_fills(m: MemoryHierarchy, cycles: int = 200) -> None:
    """Advance the hierarchy clock until outstanding fills retire."""
    for _ in range(cycles):
        m.new_cycle()


class TestMemoryHierarchy:
    def test_paper_geometry(self):
        m = MemoryHierarchy()
        assert m.l1d.num_sets == 64 and m.l1d.assoc == 4
        assert m.l1i.size_bytes == 64 * 1024
        assert m.l2.line_bytes == 64
        assert m.dtlb.entries == 128
        assert m.dports.ports == 4
        assert m.dmshr.entries == 8 and m.dmshr.targets == 4
        assert not m.dmshr.blocking

    def test_l1_hit_latency(self):
        m = MemoryHierarchy()
        m.daccess(0x1000, write=False)  # cold
        drain_fills(m)  # let the fill complete; the line is now resident
        out = m.daccess(0x1008, write=False)  # same line, same page
        assert out.l1_hit
        assert out.latency == m.cfg.l1d_latency

    def test_l1_miss_l2_hit_latency(self):
        m = MemoryHierarchy()
        m.daccess(0x1000, write=False)  # fills L2 (64B) and L1 (32B)
        out = m.daccess(0x1020, write=False)  # next L1 line, same L2 line
        assert not out.l1_hit and out.l2_hit
        assert out.latency == m.cfg.l1d_latency + m.cfg.l2_hit_latency

    def test_cold_miss_latency(self):
        m = MemoryHierarchy()
        out = m.daccess(0x9000, write=False, skip_tlb=True)
        assert out.latency == m.cfg.l1d_latency + m.cfg.l2_miss_latency

    def test_tlb_miss_penalty(self):
        m = MemoryHierarchy()
        out = m.daccess(0x4000, write=False)
        assert not out.tlb_hit
        assert out.latency >= m.cfg.tlb_miss_latency

    def test_skip_tlb(self):
        m = MemoryHierarchy()
        hits0 = m.dtlb.hits.value + m.dtlb.misses.value
        m.daccess(0x4000, write=False, skip_tlb=True)
        assert m.dtlb.hits.value + m.dtlb.misses.value == hits0

    def test_fast_way_ablation(self):
        cfg = MemConfig(fast_way_hit_latency=1)
        m = MemoryHierarchy(cfg)
        m.daccess(0x1000, write=False)
        drain_fills(m)
        out = m.daccess(0x1000, write=False, skip_tlb=True, way_known=True)
        assert out.latency == 1
        out2 = m.daccess(0x1000, write=False, skip_tlb=True, way_known=False)
        assert out2.latency == cfg.l1d_latency

    def test_iaccess_hits_after_fill(self):
        m = MemoryHierarchy()
        m.iaccess(0x400000)
        drain_fills(m)
        assert m.iaccess(0x400004) == m.cfg.l1i_latency

    def test_new_cycle_resets_ports(self):
        m = MemoryHierarchy()
        for _ in range(4):
            assert m.dports.try_acquire()
        assert not m.dports.try_acquire()
        m.new_cycle()
        assert m.dports.try_acquire()
