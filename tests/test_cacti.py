"""Tests for the CACTI-like delay/energy model.

The calibrated model must stay close to every delay the paper publishes
(Table 1 and §3.6) and obey basic physical monotonicities.
"""

import pytest

from repro.energy.cacti import (
    CactiModel,
    bus_time,
    cache_access_energy,
    cache_access_time,
    cache_best_org,
    cam_search_time,
    fa_search_energy,
    ram_access_time,
)
from repro.experiments.artefacts import ARTEFACTS

#: the paper's Table 1 rows: (size, assoc, ports, paper_conv, paper_known)
PAPER_TABLE1 = ARTEFACTS["table1"].points

TOL = 0.20  # relative tolerance against the paper's published numbers


class TestTable1Calibration:
    @pytest.mark.parametrize("size,assoc,ports,conv,known", PAPER_TABLE1)
    def test_conventional_within_tolerance(self, size, assoc, ports, conv, known):
        model = cache_access_time(size, assoc, 32, ports, way_known=False)
        assert model == pytest.approx(conv, rel=TOL)

    @pytest.mark.parametrize("size,assoc,ports,conv,known", PAPER_TABLE1)
    def test_way_known_within_tolerance(self, size, assoc, ports, conv, known):
        model = cache_access_time(size, assoc, 32, ports, way_known=True)
        assert model == pytest.approx(known, rel=TOL)

    @pytest.mark.parametrize("size,assoc,ports,conv,known", PAPER_TABLE1)
    def test_known_never_slower(self, size, assoc, ports, conv, known):
        t_conv = cache_access_time(size, assoc, 32, ports, way_known=False)
        t_known = cache_access_time(size, assoc, 32, ports, way_known=True)
        assert t_known <= t_conv + 1e-12


class TestSection36Delays:
    def test_structure_delays(self):
        m = CactiModel()
        assert m.distrib_total_delay() == pytest.approx(0.714, rel=0.05)
        assert m.shared_lsq_delay() == pytest.approx(0.617, rel=0.05)
        assert m.addrbuffer_delay() == pytest.approx(0.319, rel=0.05)
        assert m.conventional_lsq_delay() == pytest.approx(0.881, rel=0.05)

    def test_baseline_23pct_slower_than_samie(self):
        m = CactiModel()
        ratio = m.conventional_lsq_delay() / m.distrib_total_delay()
        assert ratio == pytest.approx(1.23, rel=0.05)

    def test_16_entry_lsq_close_to_samie(self):
        m = CactiModel()
        t16 = m.conventional_lsq_delay(entries=16)
        assert t16 / m.distrib_total_delay() == pytest.approx(1.04, abs=0.05)

    def test_bus_delay(self):
        assert bus_time(128) == pytest.approx(0.124, rel=0.05)


class TestMonotonicity:
    def test_ram_grows_with_rows(self):
        assert ram_access_time(256, 32) > ram_access_time(64, 32)

    def test_ram_grows_with_ports(self):
        assert ram_access_time(64, 32, ports=4) > ram_access_time(64, 32, ports=1)

    def test_cam_grows_with_entries_and_bits(self):
        assert cam_search_time(128, 32) > cam_search_time(8, 32)
        assert cam_search_time(64, 48) > cam_search_time(64, 24)

    def test_cache_grows_with_size(self):
        assert cache_access_time(64 * 1024, 2, 32, 2) > cache_access_time(8 * 1024, 2, 32, 2)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ram_access_time(0, 8)
        with pytest.raises(ValueError):
            cam_search_time(4, 0)

    def test_org_search_picks_minimum(self):
        org = cache_best_org(32 * 1024, 4, 32, 2)
        assert org.total <= cache_access_time(32 * 1024, 4, 32, 2) + 1e-12


class TestEnergyModel:
    def test_reference_points(self):
        assert cache_access_energy(8192, 4, 32, 4) == pytest.approx(1009.0, rel=0.10)
        assert cache_access_energy(8192, 4, 32, 4, way_known=True) == pytest.approx(276.0, rel=0.10)
        assert fa_search_energy(128, 20) == pytest.approx(273.0, rel=0.10)

    def test_way_known_cheaper(self):
        full = cache_access_energy(8192, 4, 32, 4)
        known = cache_access_energy(8192, 4, 32, 4, way_known=True)
        assert known < full / 2
