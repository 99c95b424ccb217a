"""Active-area accumulation: the paper's leakage proxy.

CACTI 3.0 does not estimate leakage, so the paper (§4.2) tracks the
*active area* of each structure every cycle under an aggressive
power-gating policy:

* conventional LSQ: all in-use entries plus four extra entries;
* SAMIE: in-use entries plus one extra entry per DistribLSQ bank and one
  extra SharedLSQ entry; within an entry, in-use slots plus one extra;
* AddrBuffer: in-use slots plus four extra.

``ActiveAreaTracker`` holds the um^2 x cycles accumulated per named
component, which regenerates Figures 11 and 12.  It is slotted state:
stage 8 of :mod:`repro.core.pipeline` writes ``_area_cycles`` and
``cycles`` itself, charging each run of unchanged LSQ state at once.
"""

from __future__ import annotations

from collections import defaultdict


class ActiveAreaTracker:
    """Accumulates per-component active area over cycles."""

    __slots__ = ("_area_cycles", "cycles")

    def __init__(self):
        self._area_cycles: defaultdict[str, float] = defaultdict(float)
        self.cycles = 0

    def as_dict(self) -> dict[str, float]:
        """Snapshot of accumulated area-cycles per component."""
        return dict(self._area_cycles)

    def reset(self) -> None:
        """Zero all accumulators."""
        self._area_cycles.clear()
        self.cycles = 0
