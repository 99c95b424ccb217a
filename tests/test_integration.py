"""Cross-module integration tests: whole-machine runs on real workloads."""

from __future__ import annotations

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor, run_simulation
from repro.lsq.reference import walked_area_breakdown
from repro.lsq.samie import SamieConfig, SamieLSQ
from repro.workloads.registry import list_workloads, make_trace

SMOKE_N, SMOKE_W = 1200, 300


class TestWholeSuiteSmoke:
    @pytest.mark.parametrize("workload", list_workloads())
    def test_every_workload_runs_on_samie(self, workload):
        r = run_simulation(
            make_trace(workload), lsq="samie", max_instructions=SMOKE_N, warmup=SMOKE_W
        )
        assert r.instructions >= SMOKE_N
        assert 0.02 < r.ipc < 8.0
        assert r.lsq_energy_total_pj > 0

    @pytest.mark.parametrize("workload", ["ammp", "swim", "gcc", "mcf"])
    def test_oracle_on_real_workloads_all_lsqs(self, workload):
        cfg = ProcessorConfig(track_data=True)
        for lsq in ("conventional", "samie", "arb"):
            r = run_simulation(
                make_trace(workload), lsq=lsq, cfg=cfg,
                max_instructions=2000, warmup=300,
            )
            assert r.data_violations == 0, (workload, lsq)


class TestPaperHeadlines:
    """The paper's qualitative claims at reduced scale."""

    def _pair(self, workload, n=5000, w=2500):
        base = run_simulation(make_trace(workload), lsq="conventional",
                              max_instructions=n, warmup=w)
        samie = run_simulation(make_trace(workload), lsq="samie",
                               max_instructions=n, warmup=w)
        return base, samie

    def test_lsq_energy_savings_large_for_int(self):
        base, samie = self._pair("gzip")
        saving = 1 - (samie.lsq_energy_total_pj / samie.instructions) / (
            base.lsq_energy_total_pj / base.instructions
        )
        assert saving > 0.7  # paper average: 82%

    def test_dcache_and_dtlb_savings_for_streaming(self):
        base, samie = self._pair("swim")
        dc = 1 - samie.cache_energy_pj["dcache"] / base.cache_energy_pj["dcache"]
        tlb = 1 - samie.cache_energy_pj["dtlb"] / base.cache_energy_pj["dtlb"]
        assert dc > 0.3  # paper: 42% average, swim at the top
        assert tlb > dc  # TLB fraction saved exceeds D-cache fraction

    def test_ipc_impact_negligible_for_most(self):
        for w in ("gzip", "swim", "mcf"):
            base, samie = self._pair(w, n=4000, w=2000)
            assert abs(base.ipc - samie.ipc) / base.ipc < 0.03, w

    def test_ammp_is_the_pressure_outlier(self):
        base, samie = self._pair("ammp", n=6000, w=3000)
        assert samie.deadlock_flushes > 0
        assert samie.ipc <= base.ipc

    def test_active_area_comparable(self):
        base, samie = self._pair("swim")
        a_base = sum(base.area_um2_cycles.values()) / base.instructions
        a_samie = sum(samie.area_um2_cycles.values()) / samie.instructions
        assert 0.3 < a_samie / a_base < 3.0  # paper: parity within ~5%

    def test_int_programs_worse_for_samie_area(self):
        # tiny LSQ occupancy: SAMIE's powered spare entries dominate
        base, samie = self._pair("crafty")
        a_base = sum(base.area_um2_cycles.values())
        a_samie = sum(samie.area_um2_cycles.values())
        assert a_samie > a_base


class TestSamieAreaConsistency:
    def test_breakdown_matches_walk(self):
        # the O(1) closed form over the maintained counters equals the
        # reference walk of every bank after every cycle of a real run
        pipe = build_processor(SamieLSQ(SamieConfig()))
        pipe.attach_trace(make_trace("ammp"))
        lsq: SamieLSQ = pipe.lsq
        for _ in range(400):
            pipe.step()
            assert lsq.area_breakdown() == walked_area_breakdown(lsq)


class TestDeterminismEndToEnd:
    def test_same_seed_same_result(self):
        a = run_simulation(make_trace("apsi", seed=9), lsq="samie",
                           max_instructions=1500, warmup=300)
        b = run_simulation(make_trace("apsi", seed=9), lsq="samie",
                           max_instructions=1500, warmup=300)
        assert a.cycles == b.cycles
        assert a.lsq_energy_pj == b.lsq_energy_pj
        assert a.area_um2_cycles == b.area_um2_cycles

    def test_different_seeds_differ(self):
        a = run_simulation(make_trace("apsi", seed=9), lsq="samie",
                           max_instructions=1500, warmup=300)
        b = run_simulation(make_trace("apsi", seed=10), lsq="samie",
                           max_instructions=1500, warmup=300)
        assert a.cycles != b.cycles
