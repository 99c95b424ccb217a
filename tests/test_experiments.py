"""Tests for the artefact table (small scale, plus a golden) and report helpers."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.report import FigureResult, format_table
from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE, SimSpec, clear_cache, run_many
from repro.service.session import SimService
from repro.service.store import CacheConfig

SMALL = dict(instructions=1500, warmup=500)
FEW = ["ammp", "gzip", "swim"]

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "artefacts.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


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

    def test_figure_result_roundtrip(self):
        fr = FigureResult("fig", "t", ["a", "b"], [[1, 2], [3, 4]], {"s": 1.0})
        assert fr.column("b") == [2, 4]
        assert "fig" in fr.to_text()
        assert "s=1" in fr.to_text()


def _gzip_pair(instructions: int, warmup: int) -> list[SimSpec]:
    return [SimSpec.make("gzip", m, instructions, warmup) for m in (MACHINE_CONV128, MACHINE_SAMIE)]


class TestRunnerCaching:
    def test_pair_is_memoised(self):
        a = run_many(_gzip_pair(**SMALL))
        b = run_many(_gzip_pair(**SMALL))
        assert a[0] is b[0] and a[1] is b[1]

    def test_distinct_scales_not_conflated(self):
        a = run_many(_gzip_pair(instructions=1500, warmup=500))
        b = run_many(_gzip_pair(instructions=1000, warmup=500))
        assert a[0] is not b[0]


class TestSimulationFigures:
    def test_figure5_shape(self):
        fr = ARTEFACTS["figure5"].compute(FEW, **SMALL)
        assert fr.columns[-1] == "ipc_loss_pct"
        assert [r[0] for r in fr.rows[:-1]] == FEW
        assert fr.rows[-1][0] == "SPEC"
        assert abs(fr.summary["avg_ipc_loss_pct"]) < 50

    def test_figure6_rates_nonnegative(self):
        fr = ARTEFACTS["figure6"].compute(FEW, **SMALL)
        assert all(r[2] >= 0 for r in fr.rows)

    def test_figure7_samie_saves_on_friendly_bench(self):
        fr = ARTEFACTS["figure7"].compute(FEW, **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["gzip"][3] > 50.0  # gzip: big LSQ energy saving

    def test_figure8_shares_sum_to_100(self):
        fr = ARTEFACTS["figure8"].compute(FEW, **SMALL)
        for r in fr.rows:
            assert sum(r[1:]) == pytest.approx(100.0, abs=0.1)

    def test_figure9_and_10_savings_positive(self):
        f9 = ARTEFACTS["figure9"].compute(FEW, **SMALL)
        f10 = ARTEFACTS["figure10"].compute(FEW, **SMALL)
        for r9, r10 in zip(f9.rows[:-1], f10.rows[:-1]):
            assert r9[3] > 0
            assert r10[3] >= r9[3] - 5  # TLB saving >= cache saving (roughly)

    def test_figure11_areas_positive(self):
        fr = ARTEFACTS["figure11"].compute(FEW, **SMALL)
        assert all(r[1] > 0 and r[2] > 0 for r in fr.rows)

    def test_figure12_distrib_dominates_for_int(self):
        fr = ARTEFACTS["figure12"].compute(FEW, **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["gzip"][1] > 50.0  # distrib share

    def test_figure3_64x2_needs_less_than_128x1(self):
        fr = ARTEFACTS["figure3"].compute(["ammp", "gzip"], **SMALL)
        row = {r[0]: r for r in fr.rows}
        assert row["ammp"][1] >= row["ammp"][2]  # 128x1 >= 64x2
        assert row["gzip"][1] < 1.0  # integer code barely uses it

    def test_figure4_cumulative_monotone(self):
        fr = ARTEFACTS["figure4"].compute(["ammp", "gzip", "swim"], **SMALL)
        counts = fr.column("num_programs")
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_figure1_small_sweep(self):
        corners = replace(ARTEFACTS["figure1"], points=((1, 128), (64, 2)))
        fr = corners.compute(["gzip"], **SMALL)
        assert len(fr.rows) == 2
        full = fr.rows[0][1]
        banked = fr.rows[1][1]
        assert 0 < banked <= 110.0 and 0 < full <= 110.0


class TestTable1:
    def test_matches_paper_within_tolerance(self):
        fr = ARTEFACTS["table1"].compute()
        for row in fr.rows:
            assert row[1] == pytest.approx(row[4], rel=0.20)  # conv
            assert row[2] == pytest.approx(row[5], rel=0.20)  # known
        assert fr.summary["baseline_over_samie"] == pytest.approx(1.23, abs=0.05)

    def test_notes_and_columns(self):
        fr = ARTEFACTS["table1"].compute()
        assert len(fr.rows) == 8
        assert fr.columns[0] == "config"


def _assert_same(got, want, where: str) -> None:
    """``got`` has ``want``'s shape exactly -- types (an int stays an
    int), dict keys in order, list lengths, strings, ints -- and its
    floats to 1e-12.  Python 3.12's ``sum()`` compensates its rounding,
    so an average may move in its last bits between interpreter
    versions; a changed formula or aggregation moves it far more."""
    assert type(got) is type(want), f"{where}: got {got!r}, want {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items, want {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (
            f"{where}: got {got!r}, want {want!r}")
    else:
        assert got == want, f"{where}: got {got!r}, want {want!r}"


class TestArtefactGolden:
    """Every artefact at the golden's scale, with its default workloads
    and points, reproduces ``tests/golden/artefacts.json``: rows, summary
    (in order) and notes, compared by :func:`_assert_same`.

    Regenerate only after an intentional change to a simulated result or
    a formula: ``PYTHONPATH=src python tests/golden/gen_bit_identity.py``.
    """

    @pytest.fixture(scope="class")
    def session(self):
        # store-less: every result is simulated here, never read from disk
        with SimService(cache=CacheConfig(backend="off")) as session:
            yield session

    def test_table_is_the_golden_set(self):
        assert list(ARTEFACTS) == list(GOLDEN["artefacts"])

    @pytest.mark.parametrize("figure_id", list(GOLDEN["artefacts"]))
    def test_matches_golden(self, session, figure_id):
        result = ARTEFACTS[figure_id].compute(
            instructions=GOLDEN["instructions"], warmup=GOLDEN["warmup"], session=session)
        got = json.loads(json.dumps(result.to_dict()))
        _assert_same(got, GOLDEN["artefacts"][figure_id], figure_id)

    def test_bar_charts(self):
        bars = {k: a.bar for k, a in ARTEFACTS.items() if a.bar}
        assert set(bars) == {
            "figure1", "figure5", "figure6", "figure7", "figure9", "figure10", "figure11",
        }
        assert all(column in ARTEFACTS[k].columns for k, (column, _) in bars.items())
