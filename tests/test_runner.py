"""Tests for the runner's canonical machines and the energy calibration module."""

from __future__ import annotations

from repro.energy.calibration import STRUCT_TARGETS, TABLE1_TARGETS, report, residuals
from repro.energy.cacti import DEFAULT_PARAMS
from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE, build_lsq
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieLSQ


class TestMachineFactories:
    def test_baseline_is_128(self):
        lsq = build_lsq(MACHINE_CONV128[1])
        assert isinstance(lsq, ConventionalLSQ)
        assert lsq.capacity == 128

    def test_samie_default_is_table3(self):
        lsq = build_lsq(MACHINE_SAMIE[1])
        assert isinstance(lsq, SamieLSQ)
        cfg = lsq.cfg
        assert (cfg.banks, cfg.entries_per_bank, cfg.slots_per_entry) == (64, 2, 8)
        assert cfg.shared_entries == 8
        assert cfg.addr_buffer_slots == 64


class TestCalibration:
    def test_residuals_shape(self):
        import numpy as np
        import dataclasses

        fields = [f.name for f in dataclasses.fields(DEFAULT_PARAMS) if not f.name.startswith("e_")]
        x0 = np.array([getattr(DEFAULT_PARAMS, f) for f in fields])
        res = residuals(x0)
        # 2 per Table 1 row + structure targets + one prior term per param
        assert len(res) == 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS) + len(fields)

    def test_frozen_params_fit_targets(self):
        import numpy as np
        import dataclasses

        fields = [f.name for f in dataclasses.fields(DEFAULT_PARAMS) if not f.name.startswith("e_")]
        x0 = np.array([getattr(DEFAULT_PARAMS, f) for f in fields])
        res = residuals(x0)[: 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS)]
        assert max(abs(r) for r in res) < 0.20  # every target within 20%

    def test_report_rows(self, capsys):
        rows = report(DEFAULT_PARAMS)
        capsys.readouterr()
        assert len(rows) == 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS)
        for _, paper, model in rows:
            assert paper > 0 and model > 0
