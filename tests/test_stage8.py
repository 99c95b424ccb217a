"""Stage-8 telemetry: each LSQ model integrates its own active area.

A model charges its area counters where they change, at its clock
``now`` (:mod:`repro.energy.leakage`).  The hypothesis test drives the
SAMIE, reference SAMIE and conventional models through random place /
AddrBuffer drain / ``head_blocked`` / commit / flush sequences, each at
a random non-decreasing cycle, with random ``area_reset`` points.  After
every operation it checks the integrals, the SharedLSQ occupancy
histogram and the AddrBuffer-busy cycles against one breakdown sample
per cycle (the reference walk ``walked_area_breakdown`` for SAMIE), and
SAMIE's O(1) breakdown against the walk of the same state.

The pipeline tests re-derive every result counter from one sample per
stepped cycle, and pin two window rules: a zero-cycle window has no
area (ARB keeps its zero key), and repeated ``run()`` calls without a
reset accumulate.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.stats import Histogram
from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.isa.opclasses import OpClass
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.reference import ReferenceSamieLSQ, walked_area_breakdown
from repro.lsq.samie import OCC_HIST_MAX, SamieConfig, SamieLSQ
from repro.workloads.registry import make_trace
from tests.conftest import mk_mem

LINE = 32

GEOMETRIES = {
    "unbounded-shared": SamieConfig(banks=2, entries_per_bank=1, slots_per_entry=2,
                                    shared_entries=None, addr_buffer_slots=2, l1d_sets=4),
    "one-slot": SamieConfig(banks=2, entries_per_bank=1, slots_per_entry=1,
                            shared_entries=2, addr_buffer_slots=2, l1d_sets=4),
    "two-slot": SamieConfig(banks=2, entries_per_bank=1, slots_per_entry=2,
                            shared_entries=2, addr_buffer_slots=2, l1d_sets=4),
    "four-slot": SamieConfig(banks=2, entries_per_bank=1, slots_per_entry=4,
                             shared_entries=3, addr_buffer_slots=4, l1d_sets=4),
}

# few lines over few banks, so entries fill, spill to the SharedLSQ and
# park in the AddrBuffer; each operation happens 0-3 cycles after the
# previous one, and about one in eight starts a new measurement epoch
OPS = st.lists(
    st.tuples(
        st.sampled_from(["place"] * 5 + ["commit"] * 3 + ["drain", "head", "flush"]),
        st.integers(0, 5),
        st.booleans(),
        st.integers(0, 3),
        st.sampled_from([False] * 7 + [True]),
    ),
    max_size=100,
)


class PerCycle:
    """The oracle: one breakdown sample per cycle since the last reset."""

    def __init__(self, q):
        self.q = q
        self.samie = isinstance(q, SamieLSQ)
        self.now = 0
        self.reset()

    def reset(self):
        self.q.area_reset(self.now)
        self.area: dict[str, float] = {}
        self.hist = Histogram(max_value=OCC_HIST_MAX)
        self.busy = 0

    def advance(self, to: int):
        """Sample the state (it holds since the last operation) for
        every cycle up to ``to``, then move the model's clock there."""
        q = self.q
        for _ in range(self.now, to):
            bd = walked_area_breakdown(q) if self.samie else q.area_breakdown()
            for comp, a in bd.items():
                self.area[comp] = self.area.get(comp, 0.0) + a
            if self.samie:
                self.hist.add(q.shared_in_use())
                self.busy += bool(q.addr_buffer_len())
        self.now = to
        q.now = to

    def check(self, step):
        q = self.q
        assert q.area_integrals(self.now) == self.area, step
        if self.samie:
            hist = q.shared_occupancy(self.now)
            assert (hist.buckets, hist.overflow) == (self.hist.buckets, self.hist.overflow), step
            assert q.addr_buffer_busy(self.now) == self.busy, step
            assert q.area_breakdown() == walked_area_breakdown(q), step
            assert q.distrib_entries_in_use() == sum(len(b) for b in q._banks), step


def _drive(q, ops):
    """Apply ``ops`` to ``q`` on a clock, checking after each one."""
    clock = PerCycle(q)
    live = []  # placed or parked, oldest first
    seq = 0
    clock.check("initial")
    for step, (kind, k, is_store, gap, reset) in enumerate(ops):
        clock.advance(clock.now + gap)
        if reset:  # between cycles, like Pipeline.reset_stats
            clock.reset()
        if kind == "place":
            op = OpClass.STORE if is_store else OpClass.LOAD
            ins = mk_mem(op, seq, LINE * k + 8 * (seq % 4))
            seq += 1
            if q.dispatch(ins):
                q.address_ready(ins)
                if getattr(q, "need_flush", False):  # the pipeline would flush
                    q.flush()
                    live.clear()
                else:
                    live.append(ins)
        elif kind == "drain":
            q.begin_cycle(clock.now)
        elif kind == "head":
            parked = [i for i in live if i.placement is None]
            if parked:
                q.head_blocked(parked[0])
        elif kind == "commit":
            placed = [i for i in live if i.placement is not None]
            if placed:
                # SAMIE frees any placed entry; the conventional queue
                # retires in order
                victim = placed[k % len(placed)] if clock.samie else placed[0]
                q.commit(victim)
                live.remove(victim)
        else:
            q.flush()
            live.clear()
        clock.check((step, kind))
    clock.advance(clock.now + 2)
    clock.check("final")


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_closed_form_matches_walk(geometry, ops):
    for model in (SamieLSQ, ReferenceSamieLSQ):
        _drive(model(GEOMETRIES[geometry]), ops)


# below, at and above the four extra powered entries
@pytest.mark.parametrize("capacity", [2, 6, None])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_conventional_integrals_match_samples(capacity, ops):
    _drive(ConventionalLSQ(capacity), ops)


class Sampler:
    """A cycle tracer taking one end-of-cycle sample per step (a tracer
    keeps the stepped loop and never steers the run)."""

    def __init__(self):
        self.area: dict[str, float] = {}
        self.cycles = 0

    def snap(self, pipe):
        self.cycles += 1
        for comp, a in pipe.lsq.area_breakdown().items():
            self.area[comp] = self.area.get(comp, 0.0) + a

    def event(self, *args, **fields):
        pass


def _pipe(lsq, workload="ammp"):
    if lsq == "samie-tiny":
        lsq = SamieLSQ(SamieConfig(shared_entries=1, addr_buffer_slots=6,
                                   slots_per_entry=2, entries_per_bank=1))
    pipe = build_processor(lsq, ProcessorConfig())
    pipe.attach_trace(make_trace(workload))
    return pipe


# ammp keeps SAMIE's AddrBuffer busy most cycles, swim leaves it idle
@pytest.mark.parametrize("lsq,workload", [
    ("conventional", "ammp"), ("samie", "ammp"), ("samie", "swim"),
    ("samie-tiny", "ammp"), ("arb", "ammp"),
])
def test_stage8_matches_per_cycle_sampling(lsq, workload):
    """One sample per stepped cycle gives the same telemetry as the
    change-point charging, across a warmup reset."""
    pipe = _pipe(lsq, workload)
    while pipe.committed < 300:  # warm up; the LSQ state spans the reset
        pipe.step()
    pipe.reset_stats()
    area: dict[str, float] = {}
    hist = Histogram(max_value=512)
    busy = 0
    cycles = 0
    while pipe.committed < 1500:
        pipe.step()
        cycles += 1
        for comp, a in pipe.lsq.area_breakdown().items():
            area[comp] = area.get(comp, 0.0) + a
        if pipe._sample_occ:
            hist.add(pipe.lsq.shared_in_use())
            busy += bool(pipe.lsq.addr_buffer_len())
    r = pipe.result()
    assert r.cycles == cycles
    assert r.area_um2_cycles == area
    assert pipe.shared_occ_hist.buckets == hist.buckets
    assert r.shared_occupancy_mean == hist.mean
    assert r.addr_buffer_busy_frac == (busy / cycles)
    if lsq == "samie-tiny":
        assert pipe.deadlock_flushes > 0 and hist.mean > 0


@pytest.mark.parametrize("lsq,empty", [
    ("conventional", {}), ("samie", {}), ("arb", {"arb": 0.0}),
])
def test_zero_cycle_window_has_no_area(lsq, empty):
    pipe = _pipe(lsq)
    assert pipe.run(0).area_um2_cycles == empty  # before the first step
    r = pipe.run(0, warmup=200)  # right after a reset
    assert r.cycles == 0 and r.area_um2_cycles == empty
    assert r.shared_occupancy_mean == 0.0 and r.addr_buffer_busy_frac == 0.0


@pytest.mark.parametrize("lsq", ["conventional", "samie-tiny", "arb"])
def test_repeated_runs_accumulate(lsq):
    """Without a reset, each run's result covers every cycle since the
    last one, the earlier runs' included."""
    pipe = _pipe(lsq)
    sampler = Sampler()
    pipe.set_cycle_tracer(sampler)
    first = pipe.run(400)
    assert first.cycles == sampler.cycles
    assert first.area_um2_cycles == sampler.area
    second = pipe.run(600)
    assert second.instructions == pipe.committed >= first.instructions + 600
    assert second.cycles == sampler.cycles > first.cycles
    assert second.area_um2_cycles == sampler.area
