"""Event-driven cycle skipping is bit-identical to stepped execution.

``Pipeline.event_skip`` (on for every run) lets ``_run_until`` jump the
clock over provably quiescent stall regions; ``event_skip = False``
keeps the stepped loop as the oracle.  The contract (like the vectorized
warm engine) is *bit identity*: every field of the ``SimResult`` --
cycles, energy, area integrals, occupancy histograms, MSHR counters --
must match a stepped run exactly, which is why the flag is not part of
any cache key.  This suite enforces the contract across the golden-grid
machine configurations, tight MSHR geometries (where stall episodes
dominate), a cycle cap, a data-tracking run and a full sampled run, and
checks non-vacuity (cycles actually skipped) and that the modes which
must see every cycle still step.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.experiments.runner import build_lsq, lsq_spec
from repro.mem.hierarchy import MemConfig
from repro.obs.cycletrace import CycleTracer
from repro.trace.sampling import SamplePlan, run_sampled
from repro.workloads.registry import make_trace

#: (name, workload, lsq_spec, mem geometry, run options) -- the
#: bit-identity golden grid's machine shapes plus stall-heavy tight-MSHR
#: corners, a cycle cap and a data-tracking (``repro verify``) run
CASES = [
    ("conv128-swim", "swim", lsq_spec("conventional", capacity=128), None, {}),
    ("conv16-mcf", "mcf", lsq_spec("conventional", capacity=16), None, {}),
    ("samie-swim", "swim", lsq_spec("samie"), None, {}),
    ("samie-gcc", "gcc", lsq_spec("samie"), None, {}),
    ("arb-8x16-swim", "swim",
     lsq_spec("arb", banks=8, addresses_per_bank=16, max_inflight=128), None, {}),
    ("arb-2x4-gzip", "gzip",
     lsq_spec("arb", banks=2, addresses_per_bank=4, max_inflight=32), None, {}),
    ("samie-e2t1-mcf", "mcf", lsq_spec("samie"),
     dict(mshr_entries=2, mshr_targets=1), {}),
    ("samie-e1t2-gcc", "gcc", lsq_spec("samie"),
     dict(mshr_entries=1, mshr_targets=2), {}),
    ("conv128-e1t2-mcf", "mcf", lsq_spec("conventional", capacity=128),
     dict(mshr_entries=1, mshr_targets=2), {}),
    ("samie-blocking-swim", "swim", lsq_spec("samie"),
     dict(mshr_entries=1, mshr_targets=1), {}),
    # the cap lands inside a 101-cycle miss stall (measured cycles
    # 8671-8772), so the skip that reaches it is cut short by the limit
    ("samie-cyclecap-mcf", "mcf", lsq_spec("samie"), None,
     dict(max_cycles=8700)),
    ("samie-trackdata-gzip", "gzip", lsq_spec("samie"), None,
     dict(track_data=True)),
]


def _run(spec, workload, geom, skip, opts):
    """(result dict, retired load values, memory image, skipped cycles)."""
    cfg = ProcessorConfig(mem=MemConfig(**(geom or {})),
                          track_data=opts.get("track_data", False))
    pipe = build_processor(build_lsq(spec), cfg)
    pipe.event_skip = skip
    pipe.attach_trace(make_trace(workload, seed=1))
    result = pipe.run(3000, max_cycles=opts.get("max_cycles"), warmup=500)
    return (result.to_dict(), pipe.committed_load_values,
            pipe.committed_memory(), pipe.skipped_cycles)


class TestSkipBitIdentity:
    @pytest.mark.parametrize("name,workload,spec,geom,opts", CASES,
                             ids=[c[0] for c in CASES])
    def test_skip_on_equals_skip_off(self, name, workload, spec, geom, opts):
        *off, _ = _run(spec, workload, geom, False, opts)
        *on, skipped = _run(spec, workload, geom, True, opts)
        assert on == off
        # non-vacuity: the machine idles at memory on every seed
        # workload, so a skip that never fires means a dead guard
        assert skipped > 0
        if "max_cycles" in opts:
            assert on[0]["cycles"] == opts["max_cycles"]  # the cap bound
        if opts.get("track_data"):
            assert on[1] and on[2]  # the oracle actually tracked data

    def test_default_is_on_on_bare_pipelines(self):
        pipe = build_processor(build_lsq(lsq_spec("samie")))
        assert pipe.event_skip is True
        assert pipe.skipped_cycles == 0

    @pytest.mark.parametrize("mode", ["per-poll-mshr", "cycle-tracer"])
    def test_modes_that_see_every_cycle_still_step(self, mode):
        cfg = ProcessorConfig(mem=MemConfig(mshr_entries=2, mshr_targets=1))
        pipe = build_processor(build_lsq(lsq_spec("samie")), cfg)
        pipe.event_skip = True  # the guard, not the flag, must force stepping
        if mode == "per-poll-mshr":
            pipe.mem.interval_stall_stats = False
        else:
            pipe.set_cycle_tracer(CycleTracer())
        pipe.attach_trace(make_trace("mcf", seed=1))
        pipe.run(1500, warmup=300)
        assert pipe.skipped_cycles == 0


class TestSampledRunSkip:
    def test_sampled_run_is_bit_identical_and_skips(self):
        plan = SamplePlan(period=4000, warmup=200, measure=600)
        results = {}
        skipped = {}
        for flag in (False, True):
            pipe = build_processor(build_lsq(lsq_spec("samie")))
            pipe.event_skip = flag
            r = run_sampled(pipe, make_trace("mcf", seed=1), plan,
                            max_measured=2400)
            results[flag] = r.to_dict()
            skipped[flag] = pipe.skipped_cycles
        assert results[True] == results[False]
        assert skipped[True] > 0 and skipped[False] == 0

    def test_run_sampled_runs_with_callers_setting(self):
        plan = SamplePlan(period=4000, warmup=100, measure=400)
        pipe = build_processor(build_lsq(lsq_spec("samie")))
        pipe.event_skip = False
        run_sampled(pipe, make_trace("gzip", seed=1), plan, max_measured=400)
        assert pipe.event_skip is False
        assert pipe.skipped_cycles == 0  # the windows stepped every cycle
