"""Unit tests for ROB, issue queue and functional-unit pools."""

import pytest

from repro.core.fu import FuncUnitPool
from repro.core.inflight import InFlight
from repro.core.issue_queue import IssueQueue
from repro.core.rob import ReorderBuffer
from repro.isa.opclasses import OpClass
from tests.conftest import mk_uop


def ins(seq: int, op=OpClass.INT_ALU) -> InFlight:
    return InFlight.from_uop(mk_uop(op, seq=seq))


class TestReorderBuffer:
    def test_in_order(self):
        rob = ReorderBuffer(4)
        a, b = ins(0), ins(1)
        rob.push(a)
        rob.push(b)
        assert rob.head() is a
        assert rob.pop_head() is a
        assert rob.head() is b

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(ins(0))
        rob.push(ins(1))
        assert rob.is_full()
        with pytest.raises(OverflowError):
            rob.push(ins(2))

    def test_empty_head(self):
        assert ReorderBuffer(2).head() is None

    def test_clear(self):
        rob = ReorderBuffer(2)
        rob.push(ins(0))
        rob.clear()
        assert len(rob) == 0 and rob.head() is None

    def test_iteration_oldest_first(self):
        rob = ReorderBuffer(4)
        items = [ins(i) for i in range(3)]
        for i in items:
            rob.push(i)
        assert list(rob) == items


class TestIssueQueue:
    def test_ready_at_insert(self):
        iq = IssueQueue(4)
        a = ins(0)
        iq.insert(a)
        assert iq.pop_ready() is a
        assert iq.size == 0

    def test_waits_for_deps(self):
        iq = IssueQueue(4)
        a = ins(0)
        a.deps_left = 1
        iq.insert(a)
        assert iq.pop_ready() is None
        a.deps_left = 0
        iq.mark_ready(a)
        assert iq.pop_ready() is a

    def test_oldest_first(self):
        iq = IssueQueue(4)
        old, young = ins(1), ins(5)
        iq.insert(young)
        iq.insert(old)
        assert iq.pop_ready() is old

    def test_capacity(self):
        iq = IssueQueue(1)
        iq.insert(ins(0))
        assert iq.is_full()
        with pytest.raises(OverflowError):
            iq.insert(ins(1))

    def test_push_back(self):
        iq = IssueQueue(2)
        a = ins(0)
        iq.insert(a)
        got = iq.pop_ready()
        iq.push_back(got)
        assert iq.size == 1
        assert iq.pop_ready() is a

    def test_clear(self):
        iq = IssueQueue(2)
        iq.insert(ins(0))
        iq.clear()
        assert iq.size == 0 and iq.pop_ready() is None


class TestFuncUnitPool:
    def test_pipelined_throughput(self):
        p = FuncUnitPool("alu", 2)
        p.new_cycle(0)
        assert p.issue(0, 3, pipelined=True)
        assert p.issue(0, 3, pipelined=True)
        assert not p.issue(0, 3, pipelined=True)  # per-cycle bandwidth
        p.new_cycle(1)
        assert p.issue(1, 3, pipelined=True)  # pipelined: free next cycle

    def test_non_pipelined_occupies(self):
        p = FuncUnitPool("div", 1)
        p.new_cycle(0)
        assert p.issue(0, 10, pipelined=False)
        p.new_cycle(1)
        assert not p.issue(1, 10, pipelined=False)  # still busy
        p.new_cycle(10)
        assert p.issue(10, 10, pipelined=False)  # released at cycle 10

    def test_mixed(self):
        p = FuncUnitPool("mult", 2)
        p.new_cycle(0)
        assert p.issue(0, 20, pipelined=False)
        p.new_cycle(1)
        assert p.available() == 1

    def test_flush_releases(self):
        p = FuncUnitPool("div", 1)
        p.new_cycle(0)
        p.issue(0, 100, pipelined=False)
        p.flush()
        p.new_cycle(1)
        assert p.issue(1, 100, pipelined=False)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            FuncUnitPool("x", 0)


class TestInFlight:
    def test_overlap_and_containment(self):
        a = InFlight.from_uop(mk_uop(OpClass.STORE, seq=0, addr=0x100, size=8))
        b = InFlight.from_uop(mk_uop(OpClass.LOAD, seq=1, addr=0x104, size=4))
        c = InFlight.from_uop(mk_uop(OpClass.LOAD, seq=2, addr=0x108, size=4))
        assert a.overlaps(b) and b.overlaps(a)
        assert a.contains(b) and not b.contains(a)
        assert not a.overlaps(c)

    def test_byte_range(self):
        a = InFlight.from_uop(mk_uop(OpClass.LOAD, seq=0, addr=0x10, size=4))
        assert a.byte_range() == (0x10, 0x14)

    def test_seq_property(self):
        assert InFlight.from_uop(mk_uop(seq=42)).seq == 42
