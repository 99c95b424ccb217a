"""Tests for SimResult serialisation and derived metrics."""

import dataclasses
import json
import os

import pytest

from repro.core.pipeline import SimResult
from repro.core.processor import run_simulation
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp


def tiny_trace():
    seq = 0
    while True:
        yield UOp(seq, 0x400000 + 4 * (seq % 32), OpClass.INT_ALU)
        seq += 1


GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "core_bit_identity.json"
)
with open(GOLDEN_PATH) as _fh:
    GOLDEN_RESULTS = {
        name: case["result"] for name, case in json.load(_fh)["cases"].items()
    }


class TestToDict:
    """``to_dict`` is ``dataclasses.asdict`` plus the two derived keys."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
    def test_equals_asdict_on_golden_results(self, name):
        r = SimResult.from_dict(GOLDEN_RESULTS[name])
        want = dataclasses.asdict(r)
        want["ipc"] = r.ipc
        want["lsq_energy_total_pj"] = r.lsq_energy_total_pj
        got = r.to_dict()
        assert got == want
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
    def test_mutating_the_dict_leaves_the_result_alone(self, name):
        r = SimResult.from_dict(GOLDEN_RESULTS[name])
        before = json.dumps(r.to_dict())
        d = r.to_dict()
        for value in d.values():
            if isinstance(value, dict):
                value["injected"] = 1
                for inner in value.values():
                    if isinstance(inner, dict):
                        inner.clear()
        assert json.dumps(r.to_dict()) == before


class TestSimResult:
    def test_roundtrip(self):
        r = run_simulation(tiny_trace(), max_instructions=300, warmup=50)
        d = r.to_dict()
        assert d["ipc"] == r.ipc
        back = SimResult.from_dict(d)
        assert back.instructions == r.instructions
        assert back.cycles == r.cycles
        assert back.lsq_energy_pj == r.lsq_energy_pj

    def test_json_serialisable(self):
        import json

        r = run_simulation(tiny_trace(), max_instructions=200, warmup=50)
        text = json.dumps(r.to_dict())
        assert "ipc" in text

    def test_zero_cycle_guards(self):
        r = SimResult(
            instructions=0, cycles=0, lsq_name="x", lsq_energy_pj={},
            cache_energy_pj={}, area_um2_cycles={}, deadlock_flushes=0,
            mispredict_rate=0.0, l1d_miss_rate=0.0, dtlb_miss_rate=0.0,
            lsq_stats={},
        )
        assert r.ipc == 0.0
        assert r.lsq_energy_total_pj == 0.0


class TestCliOut(object):
    def test_all_with_out_writes_files(self, tmp_path, monkeypatch):
        # restrict to the instant artefact to keep this test fast
        import repro.cli as cli
        from repro.experiments import artefacts

        monkeypatch.setattr(artefacts, "ARTEFACTS", {"table1": artefacts.ARTEFACTS["table1"]})
        rc = cli.main(["all", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.json").exists()
        import json

        data = json.loads((tmp_path / "table1.json").read_text())
        assert "summary" in data and len(data["rows"]) == 8
