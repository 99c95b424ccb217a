"""Tests for the workload profiles and trace builder."""

from collections import Counter

import pytest

from repro.isa.opclasses import OpClass
from repro.workloads.base import TraceBuilder
from repro.workloads.registry import get_workload, list_workloads
from repro.workloads.spec2000 import SPEC2000_PROFILES, SPEC_FP, SPEC_INT


class TestRegistry:
    def test_all_26_benchmarks(self):
        assert len(list_workloads()) == 26
        assert len(SPEC_INT) == 12
        assert len(SPEC_FP) == 14

    def test_paper_names(self):
        for name in ("ammp", "gcc", "swim", "mcf", "sixtrack", "wupwise"):
            assert name in SPEC2000_PROFILES

    def test_unknown_raises_with_hint(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("doom3")

    def test_every_profile_generates(self):
        for name in list_workloads():
            uops = TraceBuilder(get_workload(name), seed=3).generate_n(200)
            assert len(uops) == 200


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = TraceBuilder(get_workload("gcc"), seed=5).generate_n(500)
        b = TraceBuilder(get_workload("gcc"), seed=5).generate_n(500)
        for x, y in zip(a, b):
            assert (x.seq, x.pc, x.op, x.addr, x.src1, x.taken) == (
                y.seq, y.pc, y.op, y.addr, y.src1, y.taken
            )

    def test_different_seed_differs(self):
        a = TraceBuilder(get_workload("gcc"), seed=5).generate_n(500)
        b = TraceBuilder(get_workload("gcc"), seed=6).generate_n(500)
        assert any(x.addr != y.addr for x, y in zip(a, b) if x.op == y.op)

    def test_sequence_numbers_dense(self):
        for n in (0, 300):
            uops = TraceBuilder(get_workload("swim"), seed=1).generate_n(n)
            assert [u.seq for u in uops] == list(range(n))


class TestTraceShape:
    @pytest.mark.parametrize("name", ["gcc", "swim", "mcf", "ammp"])
    def test_mix_fractions_near_profile(self, name):
        prof = get_workload(name)
        uops = TraceBuilder(prof, seed=2).generate_n(6000)
        counts = Counter(u.op for u in uops)
        mem = counts[OpClass.LOAD] + counts[OpClass.STORE]
        mem_frac = mem / len(uops)
        assert mem_frac == pytest.approx(prof.mem_frac, abs=0.08)
        store_frac = counts[OpClass.STORE] / mem
        assert store_frac == pytest.approx(prof.store_frac, abs=0.10)

    def test_fp_suite_uses_fp_units(self):
        uops = TraceBuilder(get_workload("swim"), seed=2).generate_n(4000)
        counts = Counter(u.op for u in uops)
        assert counts[OpClass.FP_ALU] + counts[OpClass.FP_MULT] > 0.2 * len(uops)

    def test_int_suite_no_fp(self):
        uops = TraceBuilder(get_workload("gzip"), seed=2).generate_n(4000)
        counts = Counter(u.op for u in uops)
        assert counts[OpClass.FP_ALU] + counts[OpClass.FP_MULT] == 0

    def test_mem_ops_aligned_within_line(self):
        for name in ("ammp", "mcf", "gzip"):
            for u in TraceBuilder(get_workload(name), seed=2).generate_n(3000):
                if u.is_mem:
                    assert u.addr % u.size == 0
                    assert (u.addr % 32) + u.size <= 32  # never crosses a line

    def test_branches_have_targets(self):
        for u in TraceBuilder(get_workload("gcc"), seed=2).generate_n(3000):
            if u.is_branch and u.taken:
                assert u.target != 0

    def test_dep_distances_bounded(self):
        prof = get_workload("swim")
        for u in TraceBuilder(prof, seed=2).generate_n(3000):
            assert 0 <= u.src1 <= prof.dep_max
            assert 0 <= u.src2 <= prof.dep_max


class TestBehaviouralContrasts:
    """The suite-level contrasts the paper's results depend on."""

    def _line_sharing(self, name: str, window: int = 256) -> float:
        uops = TraceBuilder(get_workload(name), seed=4).generate_n(8000)
        mem = [u for u in uops if u.is_mem]
        total, distinct = 0, 0
        for i in range(0, len(mem) - window, window):
            chunk = mem[i : i + window]
            total += len(chunk)
            distinct += len({u.addr >> 5 for u in chunk})
        return total / distinct  # accesses per distinct line in a window

    def test_swim_shares_lines_more_than_sixtrack(self):
        assert self._line_sharing("swim") > 2 * self._line_sharing("sixtrack")

    def test_ammp_concentrates_banks(self):
        uops = TraceBuilder(get_workload("ammp"), seed=4).generate_n(8000)
        mem = [u for u in uops if u.is_mem]
        from collections import Counter as C
        banks = C((u.addr >> 5) % 64 for u in mem)
        top2 = sum(c for _, c in banks.most_common(2)) / len(mem)
        uops_g = TraceBuilder(get_workload("gzip"), seed=4).generate_n(8000)
        mem_g = [u for u in uops_g if u.is_mem]
        banks_g = C((u.addr >> 5) % 64 for u in mem_g)
        top2_g = sum(c for _, c in banks_g.most_common(2)) / len(mem_g)
        assert top2 > top2_g

    def test_mcf_footprint_larger_than_crafty(self):
        def footprint(name):
            uops = TraceBuilder(get_workload(name), seed=4).generate_n(8000)
            return len({u.addr >> 12 for u in uops if u.is_mem})

        assert footprint("mcf") > 4 * footprint("crafty")

    def test_int_branchier_than_fp(self):
        def branch_frac(name):
            uops = TraceBuilder(get_workload(name), seed=4).generate_n(6000)
            return sum(u.is_branch for u in uops) / len(uops)

        assert branch_frac("gcc") > 2 * branch_frac("swim")
