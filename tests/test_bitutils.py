"""Unit tests for repro.common.bitutils."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitutils import ilog2, is_pow2


class TestIsPow2:
    def test_powers(self):
        for k in range(20):
            assert is_pow2(1 << k)

    def test_non_powers(self):
        for x in (0, 3, 5, 6, 7, 9, 12, 100, -4, -1):
            assert not is_pow2(x)


class TestIlog2:
    def test_exact(self):
        assert ilog2(1) == 0
        assert ilog2(2) == 1
        assert ilog2(64) == 6
        assert ilog2(1 << 20) == 20

    @pytest.mark.parametrize("bad", [0, -2, 3, 6, 100])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            ilog2(bad)

    @given(st.integers(min_value=0, max_value=60))
    def test_roundtrip(self, k):
        assert ilog2(1 << k) == k
