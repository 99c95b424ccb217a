"""Stage-8 telemetry: SAMIE's O(1) area breakdown and per-run charging.

``SamieLSQ.area_breakdown`` is a closed form over integer terms that
placement, commit and flush keep up to date.  The hypothesis test drives
the model through random place / AddrBuffer drain / ``head_blocked`` /
commit / flush sequences and, after every operation, checks it against
the reference walk of the same state (``walked_area_breakdown``), and
checks the cache contract the pipeline relies on: a state change yields
a new breakdown object.

The pipeline charges stage 8 once per run of unchanged LSQ state; the
per-cycle test below re-derives every counter from one sample per
stepped cycle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.stats import Histogram
from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.isa.opclasses import OpClass
from repro.lsq.reference import walked_area_breakdown
from repro.lsq.samie import SamieConfig, SamieLSQ
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
# park in the AddrBuffer
OPS = st.lists(
    st.tuples(
        st.sampled_from(["place"] * 5 + ["commit"] * 3 + ["drain", "head", "flush"]),
        st.integers(0, 5),
        st.booleans(),
    ),
    max_size=100,
)


def _signature(q: SamieLSQ) -> tuple:
    """Everything the breakdown depends on."""
    return (
        tuple(tuple(len(e.slots) for e in bank) for bank in q._banks),
        tuple(len(e.slots) for e in q._shared),
        len(q._addr_buffer),
    )


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_closed_form_matches_walk(geometry, ops):
    q = SamieLSQ(GEOMETRIES[geometry])
    live = []  # placed or parked, oldest first
    seq = 0
    last_bd, last_sig = None, None

    def check(step):
        nonlocal last_bd, last_sig
        bd = q.area_breakdown()
        assert bd == walked_area_breakdown(q), step
        assert q.distrib_entries_in_use() == sum(len(b) for b in q._banks), step
        sig = _signature(q)
        if sig != last_sig:
            assert bd is not last_bd, step  # a change must rebuild the dict
        assert q.area_breakdown() is bd, step  # an unchanged state must not
        last_bd, last_sig = bd, sig

    check("initial")
    for step, (kind, k, is_store) in enumerate(ops):
        if kind == "place":
            op = OpClass.STORE if is_store else OpClass.LOAD
            ins = mk_mem(op, seq, LINE * k + 8 * (seq % 4))
            seq += 1
            q.dispatch(ins)
            q.address_ready(ins)
            if q.need_flush:  # nowhere to go: the pipeline would flush
                q.flush()
                live.clear()
            else:
                live.append(ins)
        elif kind == "drain":
            q.begin_cycle(0)
        elif kind == "head":
            parked = [i for i in live if i.placement is None]
            if parked:
                q.head_blocked(parked[0])
        elif kind == "commit":
            placed = [i for i in live if i.placement is not None]
            if placed:
                victim = placed[k % len(placed)]
                q.commit(victim)
                live.remove(victim)
        else:
            q.flush()
            live.clear()
        check((step, kind))


# ammp keeps SAMIE's AddrBuffer busy most cycles, swim leaves it idle
@pytest.mark.parametrize("lsq,workload", [
    ("conventional", "ammp"), ("samie", "ammp"), ("samie", "swim"),
    ("samie-tiny", "ammp"), ("arb", "ammp"),
])
def test_stage8_matches_per_cycle_sampling(lsq, workload):
    """One sample per stepped cycle gives the same telemetry as the
    per-run charging, across a warmup reset."""
    if lsq == "samie-tiny":
        model = SamieLSQ(SamieConfig(shared_entries=1, addr_buffer_slots=6,
                                     slots_per_entry=2, entries_per_bank=1))
    else:
        model = lsq
    pipe = build_processor(model, ProcessorConfig())
    pipe.attach_trace(make_trace(workload))
    while pipe.committed < 300:  # warm up; the held run spans the reset
        pipe.step()
    pipe.reset_stats()
    area: dict[str, float] = {}
    hist = Histogram(max_value=512)
    busy = 0
    for comp, a in pipe.lsq.area_breakdown().items():
        if pipe._skip_area:
            area[comp] = area.get(comp, 0.0) + a  # the constant-zero seed
    cycles = 0
    while pipe.committed < 1500:
        pipe.step()
        cycles += 1
        if not pipe._skip_area:
            for comp, a in pipe.lsq.area_breakdown().items():
                area[comp] = area.get(comp, 0.0) + a
        if pipe._sample_occ:
            hist.add(pipe.lsq.shared_in_use())
            busy += bool(pipe.lsq.addr_buffer_len())
    r = pipe.result()
    assert r.cycles == cycles == pipe.area.cycles
    assert r.area_um2_cycles == area
    assert pipe.shared_occ_hist.buckets == hist.buckets
    assert r.shared_occupancy_mean == hist.mean
    assert r.addr_buffer_busy_frac == (busy / cycles)
    if lsq == "samie-tiny":
        assert pipe.deadlock_flushes > 0 and hist.mean > 0
