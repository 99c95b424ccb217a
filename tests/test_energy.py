"""Unit tests for energy tables and accounting."""

import pytest

from repro.energy.accounting import EnergyAccount
from repro.energy.tables import (
    ADDR_BUFFER_ENERGY,
    AREA_CELLS,
    BUS_ENERGY,
    CACHE_ENERGY,
    CONVENTIONAL_LSQ_ENERGY,
    DISTRIB_LSQ_ENERGY,
    FIELD_BITS,
    SHARED_LSQ_ENERGY,
    entry_area_conventional,
    entry_area_distrib,
    entry_area_shared,
    slot_area_addrbuffer,
    slot_area_distrib,
    slot_area_shared,
)


class TestPaperConstants:
    """The published numbers must stay verbatim (Tables 4, 5, 6)."""

    def test_table4(self):
        assert CONVENTIONAL_LSQ_ENERGY["addr_compare_base"] == 452.0
        assert CONVENTIONAL_LSQ_ENERGY["addr_compare_per_addr"] == 3.53
        assert CONVENTIONAL_LSQ_ENERGY["addr_rw"] == 57.1
        assert CONVENTIONAL_LSQ_ENERGY["datum_rw"] == 93.2

    def test_table5_distrib(self):
        assert DISTRIB_LSQ_ENERGY["addr_compare_base"] == 4.33
        assert DISTRIB_LSQ_ENERGY["addr_compare_per_addr"] == 2.17
        assert DISTRIB_LSQ_ENERGY["age_compare_base"] == 19.4
        assert DISTRIB_LSQ_ENERGY["age_compare_per_id"] == 1.21
        assert DISTRIB_LSQ_ENERGY["tlb_translation_rw"] == 6.02
        assert DISTRIB_LSQ_ENERGY["cache_line_id_rw"] == 0.236

    def test_table5_shared_and_buffer(self):
        assert SHARED_LSQ_ENERGY["addr_compare_base"] == 22.7
        assert SHARED_LSQ_ENERGY["age_compare_per_id"] == 2.43
        assert ADDR_BUFFER_ENERGY["datum_rw"] == 31.6
        assert ADDR_BUFFER_ENERGY["age_rw"] == 15.7
        assert BUS_ENERGY["send_address"] == 54.4

    def test_cache_energies(self):
        assert CACHE_ENERGY["dcache_full_access"] == 1009.0
        assert CACHE_ENERGY["dcache_way_known_access"] == 276.0
        assert CACHE_ENERGY["dtlb_access"] == 273.0

    def test_table6_cells(self):
        assert AREA_CELLS["conventional"]["addr_cam"] == 28.0
        assert AREA_CELLS["distrib"]["addr_cam"] == 10.0
        assert AREA_CELLS["addrbuffer"]["datum_ram"] == 20.0

    def test_area_compositions(self):
        conv = entry_area_conventional()
        assert conv == 28.0 * FIELD_BITS["vaddr"] + 20.0 * FIELD_BITS["datum"]
        assert entry_area_distrib() == entry_area_shared()  # same cells
        assert slot_area_distrib() == slot_area_shared()
        assert slot_area_addrbuffer() > 0
        # a fully-populated SAMIE entry is bigger than one conventional entry
        full = entry_area_distrib() + 8 * slot_area_distrib()
        assert full > conv


class TestEnergyAccount:
    def test_charge_and_totals(self):
        e = EnergyAccount()
        e.charge("a", 10.0)
        e.charge("a", 5.0)
        e.charge("b", 1.0)
        assert e.total("a") == 15.0
        assert e.total() == 16.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyAccount().charge("x", -1.0)

    def test_reset(self):
        e = EnergyAccount()
        e.charge("x", 1.0)
        e.charge("y", 3.0)
        e.reset()
        assert e.total() == 0.0 and e.as_dict() == {}
