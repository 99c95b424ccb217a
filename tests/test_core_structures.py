"""Unit tests for ROB, issue queue and functional-unit pools.

These structures are slotted state that the cycle loop in
:mod:`repro.core.pipeline` mutates directly, so their behaviour is
checked by driving the pipeline's own stages on a small machine:
instructions are placed in the fetch queue, dispatched by
``_dispatch``, issued by ``_issue_from``/``step`` and committed by
``_commit``.
"""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.fu import FuncUnitPool
from repro.core.inflight import InFlight
from repro.core.processor import build_processor
from repro.core.rob import ReorderBuffer
from repro.isa.opclasses import OpClass
from tests.conftest import mk_uop


def ins(seq: int, op=OpClass.INT_ALU, src1: int = 0) -> InFlight:
    return InFlight.from_uop(mk_uop(op, seq=seq, src1=src1))


def machine(**cfg):
    """A conventional pipeline with an empty trace: tests feed it directly."""
    pipe = build_processor("conventional", ProcessorConfig(**cfg))
    pipe.attach_trace(iter(()))
    return pipe


def dispatch(pipe, *instrs: InFlight) -> None:
    """Queue ``instrs`` behind fetch and run one dispatch stage."""
    pipe.fetch_queue.extend(instrs)
    pipe._dispatch()


def ready(iq) -> list[InFlight]:
    return [i for _, i in sorted(iq._ready)]


class TestReorderBuffer:
    def test_in_order(self):
        pipe = machine()
        a, b = ins(0), ins(1)
        dispatch(pipe, a, b)
        assert pipe.rob.head() is a
        b.done = True
        pipe._commit()  # the head is not done: nothing retires
        assert pipe.committed == 0 and pipe.rob.head() is a
        a.done = True
        pipe._commit()
        assert pipe.committed == 2 and pipe.rob.head() is None

    def test_capacity(self):
        pipe = machine(rob_entries=2)
        dispatch(pipe, ins(0), ins(1), ins(2))
        assert len(pipe.rob) == 2
        assert [i.seq for i in pipe.fetch_queue] == [2]  # dispatch stalled

    def test_empty_head(self):
        assert ReorderBuffer(2).head() is None

    def test_clear(self):
        pipe = machine()
        dispatch(pipe, ins(0))
        pipe.rob.clear()
        assert len(pipe.rob) == 0 and pipe.rob.head() is None

    def test_iteration_oldest_first(self):
        pipe = machine()
        items = [ins(i) for i in range(3)]
        dispatch(pipe, *items)
        assert list(pipe.rob.buf) == items


class TestIssueQueue:
    def test_ready_at_insert(self):
        pipe = machine()
        a = ins(0)
        dispatch(pipe, a)
        assert ready(pipe.int_iq) == [a] and pipe.int_iq.size == 1
        pipe._issue_from(pipe.int_iq, 8)
        assert a.issued and pipe.int_iq.size == 0

    def test_waits_for_deps(self):
        pipe = machine()
        a, b = ins(0), ins(1, src1=1)  # b reads a's result
        dispatch(pipe, a, b)
        assert ready(pipe.int_iq) == [a] and b.deps_left == 1
        pipe.step()  # cycle 0: a issues, b still waits
        assert a.issued and not b.issued
        pipe.step()  # cycle 1: a completes and wakes b, which issues
        assert b.issued

    def test_oldest_first(self):
        pipe = machine(issue_width_int=1)
        p, old, young = ins(0), ins(1, src1=1), ins(2)
        dispatch(pipe, p, old, young)
        pipe.step()  # cycle 0: p issues; young is ready before old
        assert p.issued and not young.issued
        pipe.step()  # cycle 1: old wakes and is picked ahead of young
        assert old.issued and not young.issued

    def test_capacity(self):
        pipe = machine(issue_queue_int=1)
        dispatch(pipe, ins(0), ins(1))
        assert pipe.int_iq.size == 1
        assert [i.seq for i in pipe.fetch_queue] == [1]  # dispatch stalled

    def test_push_back(self):
        pipe = machine(int_alu=1)
        a, b = ins(0), ins(1)
        dispatch(pipe, a, b)
        pipe._issue_from(pipe.int_iq, 8)
        assert a.issued and not b.issued
        assert pipe.int_iq.size == 1 and ready(pipe.int_iq) == [b]
        pipe.step()
        assert b.issued and pipe.int_iq.size == 0

    def test_clear(self):
        pipe = machine()
        dispatch(pipe, ins(0), ins(1, src1=1))
        pipe.int_iq.clear()
        assert pipe.int_iq.size == 0 and ready(pipe.int_iq) == []


class TestFuncUnitPool:
    def test_pipelined_throughput(self):
        pipe = machine(int_alu=2)
        a, b, c = ins(0), ins(1), ins(2)
        dispatch(pipe, a, b, c)
        pipe._issue_from(pipe.int_iq, 8)
        assert a.issued and b.issued and not c.issued  # per-cycle bandwidth
        pipe.step()
        assert c.issued  # pipelined: free next cycle

    def test_non_pipelined_occupies(self):
        pipe = machine(int_mult=1)
        a, b = ins(0, OpClass.INT_DIV), ins(1, OpClass.INT_DIV)
        dispatch(pipe, a, b)
        pipe.step()
        assert a.issued and not b.issued
        while not b.issued:
            pipe.step()
            assert pipe.cycle <= 21
        assert pipe.cycle - 1 == 20  # released at cycle 0 + latency 20

    def test_mixed(self):
        pipe = machine(int_mult=2)
        div = ins(0, OpClass.INT_DIV)
        m1, m2 = ins(1, OpClass.INT_MULT), ins(2, OpClass.INT_MULT)
        dispatch(pipe, div, m1, m2)
        pipe.step()  # cycle 0: the divide
        assert div.issued
        pipe.step()  # cycle 1: the busy divider leaves one unit
        assert m1.issued and not m2.issued

    def test_flush_releases(self):
        pipe = machine(int_mult=1)
        a, b = ins(0, OpClass.INT_DIV), ins(1, OpClass.INT_DIV)
        dispatch(pipe, a, b)
        pipe._issue_from(pipe.int_iq, 8)
        assert a.issued and not b.issued
        pipe.pools["int_mult"].flush()
        pipe._issue_from(pipe.int_iq, 8)
        assert b.issued

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
        assert (a.byte0, a.byte1) == (0x10, 0x14)

    def test_seq_property(self):
        assert InFlight.from_uop(mk_uop(seq=42)).seq == 42
