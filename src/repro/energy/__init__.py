"""Energy, delay and area modelling.

``tables`` holds the paper's published per-event energies (Tables 4 and 5)
and per-cell areas (Table 6); ``accounting`` turns simulator events into
joules; ``cacti`` is a CACTI-3.0-style analytical timing model used for
Table 1 and the §3.6 delay comparison; ``leakage`` states the active-area
policy (the paper's leakage proxy) and how the LSQ models integrate it.
"""

from repro.energy.tables import (
    CONVENTIONAL_LSQ_ENERGY,
    DISTRIB_LSQ_ENERGY,
    SHARED_LSQ_ENERGY,
    ADDR_BUFFER_ENERGY,
    BUS_ENERGY,
    CACHE_ENERGY,
    AREA_CELLS,
    FIELD_BITS,
    entry_area_conventional,
    entry_area_distrib,
    slot_area_distrib,
    entry_area_shared,
    slot_area_shared,
    slot_area_addrbuffer,
)
from repro.energy.accounting import EnergyAccount
from repro.energy.cacti import (
    CactiModel,
    CacheOrg,
    cache_access_time,
    cam_search_time,
    ram_access_time,
)

__all__ = [
    "CONVENTIONAL_LSQ_ENERGY",
    "DISTRIB_LSQ_ENERGY",
    "SHARED_LSQ_ENERGY",
    "ADDR_BUFFER_ENERGY",
    "BUS_ENERGY",
    "CACHE_ENERGY",
    "AREA_CELLS",
    "FIELD_BITS",
    "entry_area_conventional",
    "entry_area_distrib",
    "slot_area_distrib",
    "entry_area_shared",
    "slot_area_shared",
    "slot_area_addrbuffer",
    "EnergyAccount",
    "CactiModel",
    "CacheOrg",
    "cache_access_time",
    "cam_search_time",
    "ram_access_time",
]
