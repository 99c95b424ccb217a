"""Invariants of the in-flight window, checked after every cycle.

The pipeline keeps no seq-keyed map of what is in flight: the ROB is
the window.  That rests on a few facts, checked here after each step of
three machines that flush often:

* the ROB holds consecutive seqs (a producer ``d`` back is then
  ``rob[-1 - d]``);
* the fetch queue, then the refetch queue a flush builds, continue them,
  and the chain ends at the last record fetched;
* every queued event's instruction is in the ROB, and has one event.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.lsq.arb import ARBConfig, ARBLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieConfig, SamieLSQ
from repro.workloads.registry import make_trace

MACHINES = {
    "samie-tiny": lambda: SamieLSQ(SamieConfig(
        shared_entries=1, addr_buffer_slots=6, slots_per_entry=2,
        entries_per_bank=1)),
    "arb-small": lambda: ARBLSQ(ARBConfig(banks=2, addresses_per_bank=2,
                                          max_inflight=32)),
    "conventional-8": lambda: ConventionalLSQ(capacity=8),
}
#: commit watchdog per machine: a conventional LSQ never deadlocks, so a
#: short watchdog makes its L2 misses at the ROB head flush instead
WATCHDOG = {"conventional-8": 60}


def check_window(pipe) -> None:
    """Assert the window invariants on ``pipe``'s current state."""
    rob = list(pipe.rob.buf)
    seqs = [ins.seq for ins in rob]
    seqs += [ins.seq for ins in pipe.fetch_queue]
    seqs += [ins.seq for ins in pipe._refetch]
    if seqs:
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert seqs[-1] == pipe._records - 1
    in_rob = {id(ins) for ins in rob}
    queued = [id(ins) for bucket in pipe._events.values() for ins in bucket]
    assert len(queued) == len(set(queued)), "an instruction has two events"
    assert set(queued) <= in_rob, "an event outlived its instruction"


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_window_invariants_every_cycle(machine):
    cfg = ProcessorConfig(track_data=True)
    cfg.commit_watchdog = WATCHDOG.get(machine, cfg.commit_watchdog)
    pipe = build_processor(MACHINES[machine](), cfg)
    pipe.attach_trace(make_trace("ammp", 1))
    refetched = 0
    while pipe.committed < 4000:
        pipe.step()
        check_window(pipe)
        refetched = max(refetched, len(pipe._refetch))
    assert pipe.deadlock_flushes > 0 and refetched > 0
    assert not pipe.data_violations
