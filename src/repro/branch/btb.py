"""Branch target buffer: set-associative tag/target store with LRU."""

from __future__ import annotations

from repro.common.bitutils import ilog2
from repro.common.stats import Counter


class BTB:
    """Set-associative branch target buffer (Table 2: 2048 entries, 4-way).

    ``lookup`` returns the stored target for a hit, else ``None`` (a taken
    branch with a BTB miss is a misfetch: the front end cannot redirect
    until the branch executes).
    """

    __slots__ = (
        "_sets", "_assoc", "_num_sets", "_set_mask", "_shift", "_tag_shift",
        "hits", "misses",
    )

    def __init__(self, entries: int = 2048, assoc: int = 4, pc_shift: int = 2):
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self._num_sets = entries // assoc
        set_bits = ilog2(self._num_sets)
        self._assoc = assoc
        self._set_mask = self._num_sets - 1
        self._shift = pc_shift
        #: the tag is the PC above the offset and set-index bits
        self._tag_shift = pc_shift + set_bits
        # Each set is an LRU-ordered list of (tag, target); index 0 = MRU.
        self._sets: list[list[tuple[int, int]]] = [[] for _ in range(self._num_sets)]
        self.hits = Counter("btb_hits")
        self.misses = Counter("btb_misses")

    def lookup(self, pc: int) -> int | None:
        """Return the predicted target for ``pc`` or None on a miss."""
        ways = self._sets[(pc >> self._shift) & self._set_mask]
        tag = pc >> self._tag_shift
        for i, (t, target) in enumerate(ways):
            if t == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                self.hits.value += 1  # counters bumped in place (hot path)
                return target
        self.misses.value += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of a taken branch."""
        ways = self._sets[(pc >> self._shift) & self._set_mask]
        tag = pc >> self._tag_shift
        for i, (t, _) in enumerate(ways):
            if t == tag:
                ways.pop(i)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self._assoc:
            ways.pop()

    def state_dump(self) -> dict:
        """Canonical snapshot (per-set MRU-ordered ``(tag, target)``
        lists) for the warm-engine equivalence tier."""
        return {"sets": [list(ways) for ways in self._sets]}
