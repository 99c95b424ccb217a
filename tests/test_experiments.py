"""Tests for the experiment drivers (small scale) and report helpers."""

from __future__ import annotations

import pytest

from repro.experiments import figure1, figure3, figure4, figure5, figure6, figure7
from repro.experiments import figure8, figure9, figure10, figure11, figure12, table1
from repro.experiments.report import FigureResult, format_table, geomean
from repro.experiments.runner import clear_cache, suite_pairs

SMALL = dict(instructions=1500, warmup=500)
FEW = ["ammp", "gzip", "swim"]


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield


class TestReportHelpers:
    def test_format_table_alignment(self):
        txt = format_table(["a", "bench"], [[1.0, "x"], [22.5, "yy"]])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) <= 2

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_figure_result_roundtrip(self):
        fr = FigureResult("fig", "t", ["a", "b"], [[1, 2], [3, 4]], {"s": 1.0})
        assert fr.column("b") == [2, 4]
        assert "fig" in fr.to_text()
        assert "s=1" in fr.to_text()


class TestRunnerCaching:
    def test_pair_is_memoised(self):
        a = suite_pairs(["gzip"], **SMALL)["gzip"]
        b = suite_pairs(["gzip"], **SMALL)["gzip"]
        assert a[0] is b[0] and a[1] is b[1]

    def test_distinct_scales_not_conflated(self):
        a = suite_pairs(["gzip"], instructions=1500, warmup=500)["gzip"]
        b = suite_pairs(["gzip"], instructions=1000, warmup=500)["gzip"]
        assert a[0] is not b[0]


class TestSimulationFigures:
    def test_figure5_shape(self):
        fr = figure5.compute(FEW, **SMALL)
        assert fr.columns[-1] == "ipc_loss_pct"
        assert [r[0] for r in fr.rows[:-1]] == FEW
        assert fr.rows[-1][0] == "SPEC"
        assert abs(fr.summary["avg_ipc_loss_pct"]) < 50

    def test_figure6_rates_nonnegative(self):
        fr = figure6.compute(FEW, **SMALL)
        assert all(r[2] >= 0 for r in fr.rows)

    def test_figure7_samie_saves_on_friendly_bench(self):
        fr = figure7.compute(FEW, **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["gzip"][3] > 50.0  # gzip: big LSQ energy saving

    def test_figure8_shares_sum_to_100(self):
        fr = figure8.compute(FEW, **SMALL)
        for r in fr.rows:
            assert sum(r[1:]) == pytest.approx(100.0, abs=0.1)

    def test_figure9_and_10_savings_positive(self):
        f9 = figure9.compute(FEW, **SMALL)
        f10 = figure10.compute(FEW, **SMALL)
        for r9, r10 in zip(f9.rows[:-1], f10.rows[:-1]):
            assert r9[3] > 0
            assert r10[3] >= r9[3] - 5  # TLB saving >= cache saving (roughly)

    def test_figure11_areas_positive(self):
        fr = figure11.compute(FEW, **SMALL)
        assert all(r[1] > 0 and r[2] > 0 for r in fr.rows)

    def test_figure12_distrib_dominates_for_int(self):
        fr = figure12.compute(FEW, **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["gzip"][1] > 50.0  # distrib share

    def test_figure3_64x2_needs_less_than_128x1(self):
        fr = figure3.compute(["ammp", "gzip"], **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["ammp"][1] >= row["ammp"][2]  # 128x1 >= 64x2
        assert row["gzip"][1] < 1.0  # integer code barely uses it

    def test_figure4_cumulative_monotone(self):
        fr = figure4.compute(["ammp", "gzip", "swim"], **SMALL)
        counts = fr.column("num_programs")
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_figure1_small_sweep(self):
        fr = figure1.compute(["gzip"], configs=[(1, 128), (64, 2)], **SMALL)
        assert len(fr.rows) == 2
        full = fr.rows[0][1]
        banked = fr.rows[1][1]
        assert 0 < banked <= 110.0 and 0 < full <= 110.0


class TestTable1:
    def test_matches_paper_within_tolerance(self):
        fr = table1.compute()
        for row in fr.rows:
            assert row[1] == pytest.approx(row[4], rel=0.20)  # conv
            assert row[2] == pytest.approx(row[5], rel=0.20)  # known
        assert fr.summary["baseline_over_samie"] == pytest.approx(1.23, abs=0.05)

    def test_notes_and_columns(self):
        fr = table1.compute()
        assert len(fr.rows) == 8
        assert fr.columns[0] == "config"
