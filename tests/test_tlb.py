"""Unit tests for the fully-associative TLB."""

from repro.mem.tlb import TLB


class TestTLB:
    def test_miss_then_hit(self):
        t = TLB(entries=4)
        assert not t.access(0x1000)
        assert t.access(0x1fff)  # same page
        assert t.misses.value == 1 and t.hits.value == 1

    def test_lru_eviction(self):
        t = TLB(entries=2, page_bytes=4096)
        t.access(0 << 12)
        t.access(1 << 12)
        t.access(0 << 12)  # refresh page 0
        t.access(2 << 12)  # evicts page 1
        assert t.access(0 << 12)
        assert not t.access(1 << 12)

    def test_capacity(self):
        t = TLB(entries=8)
        for p in range(8):
            t.access(p << 12)
        assert t.occupancy == 8
        t.access(100 << 12)
        assert t.occupancy == 8  # bounded
