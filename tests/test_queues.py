"""Unit tests for repro.common.queues."""

import pytest

from repro.common.queues import BoundedFIFO


class TestBoundedFIFO:
    def test_try_push_respects_capacity(self):
        q = BoundedFIFO(2)
        assert q.try_push(1)
        assert q.try_push(2)
        assert not q.try_push(3)
        assert len(q) == 2

    def test_peek_and_clear(self):
        q = BoundedFIFO(2)
        q.try_push("x")
        assert next(iter(q)) == "x" and len(q) == 1  # the head stays
        q.clear()
        assert len(q) == 0
        assert q.try_push(1) and q.try_push(2)  # full capacity again

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedFIFO(0)

    def test_iteration(self):
        q = BoundedFIFO(4)
        for i in range(3):
            q.try_push(i)
        assert list(q) == [0, 1, 2]
