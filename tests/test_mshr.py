"""MSHR / non-blocking memory hierarchy tests.

Covers the MSHR file (allocate/merge/retire, exhaustion), the hierarchy's
non-blocking latency semantics (secondary-miss merging, structural
stalls), the pipeline-level structural-stall handling, and the property
the whole PR hangs on: the degenerate ``mshr_entries=1, mshr_targets=1``
geometry reproduces the pre-MSHR blocking-cache cycle counts
bit-identically on the seed workloads (golden values captured from the
pre-MSHR model at the same scale).
"""

from __future__ import annotations

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import run_simulation
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    SimSpec,
    clear_cache,
    make_mem_config,
    mem_spec,
    run_many,
    run_spec,
)
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.workloads.registry import make_trace

BLOCKING = mem_spec(mshr_entries=1, mshr_targets=1)


class TestMSHRFile:
    def test_allocate_lookup_retire(self):
        f = MSHRFile(entries=4, targets=2)
        e = f.allocate(0x80, ready_cycle=102)
        assert f.lookup(0x80) is e and len(f) == 1
        assert e.targets_used == 1  # the primary miss holds a slot
        assert f.retire(101) == 0 and f.lookup(0x80) is e
        assert f.retire(102) == 1 and f.lookup(0x80) is None
        assert f.stats.allocations == 1 and f.stats.retired == 1

    def test_merge_consumes_target_slots(self):
        f = MSHRFile(entries=2, targets=3)
        e = f.allocate(0x80, 100)
        assert f.merge(e) and f.merge(e)  # slots 2 and 3
        assert not f.merge(e)  # exhausted
        assert f.stats.merges == 2

    def test_entry_exhaustion(self):
        f = MSHRFile(entries=2, targets=1)
        f.allocate(1, 10)
        f.allocate(2, 20)
        assert not f.can_allocate()
        with pytest.raises(RuntimeError):
            f.allocate(3, 30)
        f.retire(10)  # first fill completes
        assert f.can_allocate()

    def test_double_allocate_same_line_rejected(self):
        f = MSHRFile(entries=4, targets=4)
        f.allocate(0x80, 10)
        with pytest.raises(RuntimeError):
            f.allocate(0x80, 20)

    def test_blocking_flag(self):
        assert MSHRFile(1, 1).blocking
        assert not MSHRFile(2, 1).blocking
        assert not MSHRFile(1, 2).blocking
        with pytest.raises(ValueError):
            MSHRFile(0, 1)

    def test_peak_inflight_tracked(self):
        f = MSHRFile(entries=4, targets=1)
        f.allocate(1, 50)
        f.allocate(2, 50)
        f.retire(50)
        f.allocate(3, 99)
        assert f.stats.peak_inflight == 2


def _mem(**kw) -> MemoryHierarchy:
    return MemoryHierarchy(MemConfig(**kw))


def advance(m: MemoryHierarchy, cycles: int) -> None:
    for _ in range(cycles):
        m.new_cycle()


class TestNonBlockingDaccess:
    def test_primary_miss_allocates_and_pays_full_latency(self):
        m = _mem()
        out = m.daccess(0x1000, write=False, skip_tlb=True)
        assert not out.l1_hit and out.mshr_fill and not out.merged
        assert out.latency == m.cfg.l1d_latency + m.cfg.l2_miss_latency
        assert m.dmshr.lookup(0x1000 >> m.l1d.line_shift) is not None

    def test_secondary_miss_stalls_until_fill_completion(self):
        m = _mem()
        m.daccess(0x1000, write=False, skip_tlb=True)  # fill ready at 102
        advance(m, 10)
        out = m.daccess(0x1008, write=False, skip_tlb=True)  # same line
        assert out.merged
        assert out.latency == 102 - 10  # remaining fill, not a fresh miss
        advance(m, 90)  # cycle 100: 2 cycles of fill left
        out2 = m.daccess(0x1010, write=False, skip_tlb=True)
        assert out2.merged and out2.latency == m.cfg.l1d_latency

    def test_fill_retires_then_line_hits_normally(self):
        m = _mem()
        m.daccess(0x1000, write=False, skip_tlb=True)
        advance(m, 200)
        assert m.dmshr.lookup(0x1000 >> m.l1d.line_shift) is None
        out = m.daccess(0x1008, write=False, skip_tlb=True)
        assert out.l1_hit and not out.merged
        assert out.latency == m.cfg.l1d_latency

    def test_target_exhaustion_blocks_without_side_effects(self):
        m = _mem(mshr_targets=2)
        m.daccess(0x1000, write=False, skip_tlb=True)  # primary: slot 1
        m.daccess(0x1008, write=False, skip_tlb=True)  # merge: slot 2
        before = (m.l1d.stats.accesses, m.dtlb.hits.value + m.dtlb.misses.value)
        out = m.daccess(0x1010, write=False)  # no slot left
        assert out.blocked and out.l1 is None
        after = (m.l1d.stats.accesses, m.dtlb.hits.value + m.dtlb.misses.value)
        assert before == after  # a blocked access touches nothing
        assert m.dmshr.stats.target_stall_cycles > 0

    def test_entry_exhaustion_blocks_and_recovers(self):
        m = _mem(mshr_entries=2)
        m.daccess(0x1000, write=False, skip_tlb=True)
        m.daccess(0x2000, write=False, skip_tlb=True)
        assert m.daccess_blocked(0x3000)  # both entries busy
        out = m.daccess(0x3000, write=False, skip_tlb=True)
        assert out.blocked
        # accesses to resident or in-flight-mergeable lines still proceed
        assert not m.daccess_blocked(0x1008)
        advance(m, 200)  # fills retire
        assert not m.daccess_blocked(0x3000)
        assert m.daccess(0x3000, write=False, skip_tlb=True).mshr_fill
        assert m.dmshr.stats.entry_stall_cycles > 0

    def test_blocking_geometry_tracks_nothing(self):
        m = _mem(mshr_entries=1, mshr_targets=1)
        out = m.daccess(0x1000, write=False, skip_tlb=True)
        assert out.latency == m.cfg.l1d_latency + m.cfg.l2_miss_latency
        assert m.dmshr.lookup(0x1000 >> m.l1d.line_shift) is None
        # an immediate same-line access hits at hit latency (the
        # historical instant-allocate model)
        out2 = m.daccess(0x1008, write=False, skip_tlb=True)
        assert out2.l1_hit and out2.latency == m.cfg.l1d_latency
        assert not m.daccess_blocked(0x5000)

    def test_warm_paths_bypass_mshrs_and_stats(self):
        m = _mem()
        m.warm_daccess(0x1000, write=False)
        m.warm_iaccess(0x400000)
        assert len(m.dmshr) == 0 and len(m.imshr) == 0
        # warm traffic fills lines but never touches the hit/miss
        # counters -- measured windows report detailed traffic only
        # (warm totals live under extra["sampling"]["warm"])
        assert m.l1d.stats.accesses == 0
        assert m.l1i.stats.accesses == 0
        # ...yet the state really was warmed: the detailed path now hits
        assert m.daccess(0x1008, write=False, skip_tlb=True).l1_hit

    def test_warm_daccess_leaves_l2_cold(self):
        # the warmer deliberately skips the L2 (filter-sensitive content)
        m = _mem()
        m.warm_daccess(0x1000, write=False)
        assert m.l2.stats.accesses == 0

    def test_iaccess_merges_inflight_line(self):
        m = _mem()
        m.itlb.access(0x400000)  # prime the page translation
        lat = m.iaccess(0x400000)  # cold: L1I 1 + L2 miss 100
        assert lat == m.cfg.l1i_latency + m.cfg.l2_miss_latency
        advance(m, 50)
        lat2 = m.iaccess(0x400004)  # same line, fill in flight
        assert lat2 == 101 - 50  # remaining fill

    def test_iaccess_exhaustion_falls_back_to_blocking(self):
        m = _mem(mshr_entries=2)
        m.iaccess(0x400000)
        m.iaccess(0x410000)
        lat = m.iaccess(0x420000)  # no entry free: blocking-style charge
        assert lat >= m.cfg.l1i_latency + m.cfg.l2_miss_latency
        assert m.imshr.stats.fallback_blocking == 1


class TestPipelineStructuralStalls:
    def test_tiny_mshr_file_stalls_but_stays_correct(self):
        cfg = ProcessorConfig(
            track_data=True,
            mem=MemConfig(mshr_entries=2, mshr_targets=1),
        )
        r = run_simulation(make_trace("art"), lsq="samie", cfg=cfg,
                           max_instructions=1500, warmup=300)
        assert r.instructions >= 1500  # forward progress under pressure
        assert r.data_violations == 0  # timing changes never break values
        assert r.telemetry()["mshr"]["d_entry_stall_cycles"] > 0

    def test_default_model_merges_and_differs_from_blocking(self):
        base = SimSpec.make("mcf", MACHINE_SAMIE, 1500, 300)
        blocking = SimSpec.make("mcf", MACHINE_SAMIE, 1500, 300, mem=BLOCKING)
        r_nb, r_b = run_many([base, blocking], jobs=1)
        assert r_nb.telemetry()["mshr"]["d_merges"] > 0
        assert r_b.telemetry()["mshr"]["d_merges"] == 0
        # duplicate in-flight misses now cost real cycles
        assert r_nb.cycles > r_b.cycles


#: (workload, machine_key) -> (instructions, cycles) of the pre-MSHR
#: blocking-cache model at instructions=2000, warmup=500, seed=1,
#: captured from the last pre-MSHR commit at this exact scale.
GOLDEN_BLOCKING = {
    ("gzip", "conv128"): (2003, 3480),
    ("gzip", "samie"): (2003, 3480),
    ("swim", "conv128"): (2001, 4591),
    ("swim", "samie"): (2001, 4591),
    ("ammp", "conv128"): (2002, 7616),
    ("ammp", "samie"): (2007, 9042),
    ("mcf", "conv128"): (2001, 7516),
    ("mcf", "samie"): (2001, 7516),
    ("art", "conv128"): (2005, 3871),
    ("art", "samie"): (2005, 3835),
}


class TestBlockingBitIdentity:
    """``mshr_entries=1, mshr_targets=1`` must be the pre-MSHR model."""

    @pytest.mark.parametrize("workload,machine_key", sorted(GOLDEN_BLOCKING))
    def test_reproduces_pre_mshr_cycle_counts(self, workload, machine_key):
        machine = MACHINE_CONV128 if machine_key == "conv128" else MACHINE_SAMIE
        r = run_spec(SimSpec.make(workload, machine, 2000, 500, mem=BLOCKING))
        assert (r.instructions, r.cycles) == GOLDEN_BLOCKING[(workload, machine_key)]

    def test_blocking_override_equals_blocking_cfg(self):
        # the two ways of selecting the blocking model agree bit-for-bit
        via_mem = run_spec(SimSpec.make("swim", MACHINE_SAMIE, 800, 200, mem=BLOCKING))
        cfg = ProcessorConfig(mem=MemConfig(mshr_entries=1, mshr_targets=1))
        via_cfg = run_spec(SimSpec.make("swim", MACHINE_SAMIE, 800, 200, cfg=cfg))
        assert via_mem == via_cfg


class TestMemCrossProductSweep:
    def test_l1d_sets_x_mshr_entries_grid(self):
        clear_cache()
        grid = [
            SimSpec.make("gzip", machine, 300, 50,
                         mem=mem_spec(l1d_sets=sets, mshr_entries=entries))
            for machine in (MACHINE_CONV128, MACHINE_SAMIE)
            for sets in (64, 128)
            for entries in (2, 8)
        ]
        keys = {s.key for s in grid}
        assert len(keys) == len(grid)  # every grid point has its own identity
        results = run_many(grid, jobs=1)
        assert len(results) == len(grid)
        assert all(300 <= r.instructions < 310 for r in results)

    def test_mem_override_changes_geometry(self):
        cfg = make_mem_config(mem_spec(l1d_sets=128, l1d_ways=2, mshr_entries=4))
        assert cfg.l1d_size == 128 * 2 * 32
        assert cfg.l1d_assoc == 2 and cfg.mshr_entries == 4
        m = MemoryHierarchy(cfg)
        assert m.l1d.num_sets == 128 and m.dmshr.entries == 4


class TestIntervalStallDifferential:
    """Closed-form interval stall charging equals per-poll counting.

    The reference per-cycle-polled accounting survives behind
    ``interval_stall_stats=False``; on any run that drains fully (finite
    trace, no flush truncation) the two must agree on every field of the
    result, counter-for-counter.  Fixed-instruction runs that stop
    mid-stream may legitimately differ on the stall counters alone:
    interval charging pre-pays an episode in full, so an episode cut off
    by the end of the run reports its whole span (the one documented
    divergence; see MemoryHierarchy.daccess_blocked).
    """

    GEOMETRIES = [
        dict(mshr_entries=2, mshr_targets=1),
        dict(mshr_entries=1, mshr_targets=2),
        dict(mshr_entries=4, mshr_targets=2),
        dict(mshr_entries=1, mshr_targets=1),  # blocking: counters all zero
        dict(mshr_entries=8, mshr_targets=4),
    ]

    @staticmethod
    def _drained_run(lsq_name, geom, workload, interval, uops=2000, warmup=400):
        import itertools

        from repro.core.processor import build_processor
        from repro.experiments.runner import build_lsq, lsq_spec

        cfg = ProcessorConfig(mem=MemConfig(**geom))
        pipe = build_processor(build_lsq(lsq_spec(lsq_name)), cfg)
        pipe.mem.interval_stall_stats = interval
        # a finite trace run far past its length drains the machine
        # completely: no episode is alive at the end to be truncated
        pipe.attach_trace(itertools.islice(make_trace(workload, 1), uops))
        r = pipe.run(10**9, max_cycles=10**6, warmup=warmup)
        assert r.deadlock_flushes == 0, "differential tier requires flush-free runs"
        return r.to_dict()

    @pytest.mark.parametrize("geom", GEOMETRIES,
                             ids=lambda g: f"e{g['mshr_entries']}t{g['mshr_targets']}")
    @pytest.mark.parametrize("workload", ["swim", "mcf"])
    def test_interval_equals_polled_on_drained_runs(self, geom, workload):
        a = self._drained_run("samie", geom, workload, interval=True)
        b = self._drained_run("samie", geom, workload, interval=False)
        assert a == b

    def test_interval_equals_polled_across_lsq_models(self):
        geom = dict(mshr_entries=2, mshr_targets=1)
        for lsq in ("conventional", "arb"):
            a = self._drained_run(lsq, geom, "mcf", interval=True)
            b = self._drained_run(lsq, geom, "mcf", interval=False)
            assert a == b, lsq

    def test_warmup_reset_boundary_is_exact(self):
        # the stall epoch voids stale watermarks at the stats reset, so
        # an episode straddling the warmup boundary re-charges exactly
        # its post-reset remainder -- heavy warmup maximizes straddles
        geom = dict(mshr_entries=1, mshr_targets=2)
        a = self._drained_run("samie", geom, "swim", interval=True, warmup=1000)
        b = self._drained_run("samie", geom, "swim", interval=False, warmup=1000)
        assert a == b

    def test_truncated_run_diverges_only_on_stall_counters(self):
        # fixed-instruction stop mid-stream: the documented divergence
        # may appear, but only ever on the two stall counters and only
        # as interval >= polled (a pre-paid episode cut short)
        cfg = ProcessorConfig(mem=MemConfig(mshr_entries=2, mshr_targets=1))
        out = {}
        for interval in (True, False):
            from repro.core.processor import build_processor
            from repro.experiments.runner import build_lsq, lsq_spec

            pipe = build_processor(build_lsq(lsq_spec("samie")), cfg)
            pipe.mem.interval_stall_stats = interval
            pipe.attach_trace(make_trace("swim", 1))
            out[interval] = pipe.run(3000, warmup=500).to_dict()
        a, b = out[True], out[False]
        am, bm = a["extra"]["mshr"], b["extra"]["mshr"]
        for k in am:
            if k.endswith("stall_cycles"):
                assert am[k] >= bm[k], k
            else:
                assert am[k] == bm[k], k
        assert {k: v for k, v in a.items() if k != "extra"} == \
               {k: v for k, v in b.items() if k != "extra"}
