"""Unit and property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import Cache


def small_cache(**kw) -> Cache:
    kw.setdefault("size_bytes", 1024)
    kw.setdefault("assoc", 2)
    kw.setdefault("line_bytes", 32)
    return Cache(**kw)


class TestGeometry:
    def test_paper_l1d(self):
        c = Cache(8 * 1024, 4, 32)
        assert c.num_sets == 64
        assert c.set_bits == 6

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Cache(1000, 2, 32)

    def test_address_decomposition(self):
        c = small_cache()  # 16 sets
        line = 0b1010101_0011
        assert c.set_of(line) == 0b0011
        assert c.tag_of(line) == 0b1010101


class TestAccess:
    def test_miss_then_hit(self):
        c = small_cache()
        r1 = c.access(0x100)
        assert not r1.hit
        r2 = c.access(0x100)
        assert r2.hit
        assert (r2.set_index, r2.way) == (r1.set_index, r1.way)

    def test_lru_within_set(self):
        c = small_cache()  # 2-way
        s = c.num_sets
        lines = [i * s for i in range(3)]  # same set
        c.access(lines[0])
        c.access(lines[1])
        c.access(lines[0])  # refresh
        r = c.access(lines[2])  # evicts lines[1]
        assert r.evicted_line == lines[1]
        assert c.probe(lines[0]) is not None
        assert c.probe(lines[1]) is None

    def test_eviction_callback(self):
        events = []
        c = small_cache(on_evict=lambda set_idx, line: events.append((set_idx, line)))
        s = c.num_sets
        for i in range(3):
            c.access(i * s)
        assert events == [(0, 0)]

    def test_dirty_writeback(self):
        c = small_cache()
        s = c.num_sets
        c.access(0, write=True)
        c.access(s)
        r = c.access(2 * s)
        assert r.evicted_line == 0
        assert r.evicted_dirty
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache()
        s = c.num_sets
        for i in range(3):
            c.access(i * s)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = small_cache()
        c.access(0x7)
        c.access(0x7, write=True)
        s = c.num_sets
        c.access(0x7 + s)
        r = c.access(0x7 + 2 * s)
        assert r.evicted_dirty

    def test_stats(self):
        c = small_cache()
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.miss_rate == pytest.approx(2 / 3)


class TestPresentBit:
    def test_set_and_read(self):
        c = small_cache()
        r = c.access(0x42)
        assert not c.present_bit(r.set_index, r.way)
        c.set_present_bit(r.set_index, r.way)
        assert c.present_bit(r.set_index, r.way)

    def test_cleared_on_replacement(self):
        c = small_cache()
        s = c.num_sets
        r = c.access(0)
        c.set_present_bit(r.set_index, r.way)
        c.access(s)
        c.access(2 * s)  # replaces line 0
        way = c.probe(2 * s)
        assert not c.present_bit(0, way)

    def test_line_at(self):
        c = small_cache()
        r = c.access(0x55)
        assert c.line_at(r.set_index, r.way) == 0x55

    def test_flush(self):
        c = small_cache()
        c.access(1)
        c.flush()
        assert c.probe(1) is None
        assert c.contents() == set()

    def test_untouched_set_reads_invalid_without_building_lines(self):
        c = small_cache()
        c.access(0)  # builds set 0 only
        line = 3 + 5 * c.num_sets  # set 3, never touched
        assert c.probe(line) is None
        assert c.present_bit(3, 1) is False
        assert c.line_at(3, 0) is None
        assert c.contents() == {0}
        assert [i for i, s in enumerate(c._sets) if s is not None] == [0]


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_cache_matches_lru_reference(lines):
    """The cache must agree with a straightforward per-set LRU model."""
    c = Cache(512, 2, 32)  # 8 sets, 2 ways
    ref: dict[int, list[int]] = {s: [] for s in range(c.num_sets)}  # MRU first
    for line in lines:
        s = c.set_of(line)
        res = c.access(line)
        model = ref[s]
        expected_hit = line in model
        assert res.hit == expected_hit
        if expected_hit:
            model.remove(line)
        model.insert(0, line)
        if len(model) > 2:
            evicted = model.pop()
            assert res.evicted_line == evicted
    assert c.contents() == {line for s in ref.values() for line in s}
