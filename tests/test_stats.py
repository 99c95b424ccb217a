"""Unit tests for repro.common.stats."""

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Counter, Histogram


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6
        c.reset()
        assert c.value == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestHistogram:
    def test_mean(self):
        h = Histogram(10)
        h.add(2)
        h.add(4)
        assert h.mean == 3.0

    def test_overflow_bucket(self):
        h = Histogram(4)
        h.add(100)
        assert h.overflow == 1
        assert h.count == 1
        assert h.quantile(1.0) == 5  # max_value + 1 marks overflow

    def test_quantiles(self):
        h = Histogram(10)
        for v in [0, 0, 0, 0, 0, 0, 0, 0, 0, 5]:
            h.add(v)
        assert h.quantile(0.5) == 0
        assert h.quantile(0.9) == 0
        assert h.quantile(0.95) == 5

    def test_quantile_bounds(self):
        h = Histogram(4)
        with pytest.raises(ValueError):
            h.add(-1)
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_quantile(self):
        assert Histogram(4).quantile(0.99) == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100))
    def test_quantile_monotone(self, values):
        h = Histogram(20)
        for v in values:
            h.add(v)
        qs = [h.quantile(q) for q in (0.25, 0.5, 0.75, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert h.quantile(1.0) == max(values)
