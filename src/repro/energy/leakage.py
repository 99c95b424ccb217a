"""Active area: the paper's leakage proxy, and how it is integrated.

CACTI 3.0 does not estimate leakage, so the paper (§4.2) tracks the
*active area* of each structure every cycle under an aggressive
power-gating policy:

* conventional LSQ: all in-use entries plus four extra entries;
* SAMIE: in-use entries plus one extra entry per DistribLSQ bank and one
  extra SharedLSQ entry; within an entry, in-use slots plus one extra;
* AddrBuffer: in-use slots plus four extra.

The um^2 x cycles per component (Figures 11 and 12) are charged where
the LSQ state changes, not per cycle.  Each LSQ model keeps the integer
counters its area is built from (active entries, full banks, powered
slots, ...).  The state at the end of a cycle holds for that cycle, so
when a counter ``x`` changes by ``delta`` during the cycle ``now``, the
model adds ``delta * now`` to the counter's change-weighted sum ``W``.
The counter's integral over cycles ``[t0, t)`` is then ``x * t - W``,
and a stats reset at ``t0`` sets ``W = x * t0``.  The integrals are
exact integers and the Table 5 areas are whole um^2 (guarded by
tests/test_bit_identity.py), so every product and sum that turns them
into um^2 x cycles is an integer far below 2**53 and equals the
per-cycle float sum bit for bit.  SAMIE closes its SharedLSQ occupancy
histogram runs and AddrBuffer-busy spans at the same change points.
"""

from __future__ import annotations

#: power-gated conventional-LSQ entries kept active beyond those in use
CONVENTIONAL_EXTRA_ENTRIES = 4

#: power-gated AddrBuffer slots kept active beyond those in use
ADDR_BUFFER_EXTRA_SLOTS = 4
