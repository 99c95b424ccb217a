"""Hybrid (tournament) predictor: gshare + bimodal + selector.

Configuration from Table 2 of the paper: 2K gshare, 2K bimodal, 1K
selector.  The selector is a table of 2-bit counters indexed by PC; values
>= 2 choose gshare, < 2 choose bimodal.  Selector training follows the
classic Alpha 21264 rule: train only when the components disagree, toward
the component that was right.

:meth:`HybridPredictor.predict` and :meth:`HybridPredictor.update` read
and train the component tables directly -- one call per branch instead
of one per component operation -- with exactly the arithmetic of the
components' own ``predict``/``update`` (all three tables are indexed
with the same ``pc_shift``).
"""

from __future__ import annotations

from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GsharePredictor
from repro.common.bitutils import ilog2
from repro.common.stats import Counter


class HybridPredictor:
    """Tournament predictor with per-component statistics."""

    __slots__ = (
        "gshare",
        "bimodal",
        "_selector",
        "_sel_mask",
        "_shift",
        "lookups",
        "mispredicts",
    )

    def __init__(
        self,
        gshare_entries: int = 2048,
        bimodal_entries: int = 2048,
        selector_entries: int = 1024,
        pc_shift: int = 2,
    ):
        ilog2(selector_entries)
        self.gshare = GsharePredictor(gshare_entries, pc_shift)
        self.bimodal = BimodalPredictor(bimodal_entries, pc_shift)
        self._selector = bytearray([2] * selector_entries)  # weakly prefer gshare
        self._sel_mask = selector_entries - 1
        self._shift = pc_shift
        self.lookups = Counter("branch_lookups")
        self.mispredicts = Counter("branch_mispredicts")

    def predict(self, pc: int) -> bool:
        """Predict direction for the branch at ``pc``."""
        self.lookups.value += 1  # inlined Counter.add (hot path)
        i = pc >> self._shift
        if self._selector[i & self._sel_mask] >= 2:
            g = self.gshare
            return g._table[(i ^ g._history) & g._index_mask] >= 2
        b = self.bimodal
        return b._table[i & b._index_mask] >= 2

    def update(self, pc: int, taken: bool, predicted: bool | None = None) -> None:
        """Resolve the branch: train selector and both components.

        ``predicted`` (when provided) is used only for misprediction
        statistics; components are always trained with the true outcome.
        """
        g = self.gshare
        b = self.bimodal
        i = pc >> self._shift
        gtab = g._table
        btab = b._table
        gi = (i ^ g._history) & g._index_mask
        bi = i & b._index_mask
        gc = gtab[gi]
        bc = btab[bi]
        g_taken = gc >= 2
        if g_taken != (bc >= 2):
            si = i & self._sel_mask
            c = self._selector[si]
            if g_taken == taken:
                if c < 3:
                    self._selector[si] = c + 1
            elif c > 0:
                self._selector[si] = c - 1
        # both components: saturating 2-bit counters toward the outcome
        if taken:
            if bc < 3:
                btab[bi] = bc + 1
            if gc < 3:
                gtab[gi] = gc + 1
        else:
            if bc > 0:
                btab[bi] = bc - 1
            if gc > 0:
                gtab[gi] = gc - 1
        # gshare shifts the outcome into its global history
        g._history = ((g._history << 1) | int(taken)) & g._hist_mask
        if predicted is not None and predicted != taken:
            self.mispredicts.add()

    def state_dump(self) -> dict:
        """Canonical snapshot (selector + both components) for the
        warm-engine equivalence tier; statistics counters are excluded
        (they are windowed state, covered by ``SimResult`` compares)."""
        return {
            "selector": bytes(self._selector),
            "gshare": self.gshare.state_dump(),
            "bimodal": self.bimodal.state_dump(),
        }

    @property
    def mispredict_rate(self) -> float:
        """Fraction of resolved branches whose direction was mispredicted."""
        n = self.lookups.value
        return self.mispredicts.value / n if n else 0.0
