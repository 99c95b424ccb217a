"""Functional-unit pools with pipelined and non-pipelined units.

Pipelined units (ALUs, multipliers) accept one operation per unit per
cycle.  Non-pipelined operations (divides, Table 2) occupy their unit for
the whole latency.  A pool is slotted state: the pipeline's issue stage
claims units and :meth:`~repro.core.pipeline.Pipeline.step` releases
them at the top of each cycle.
"""

from __future__ import annotations


class FuncUnitPool:
    """A pool of identical functional units."""

    __slots__ = ("name", "units", "_issued_this_cycle", "_busy_until")

    def __init__(self, name: str, units: int):
        if units < 1:
            raise ValueError("a pool needs at least one unit")
        self.name = name
        self.units = units
        self._issued_this_cycle = 0
        self._busy_until: list[int] = []  # completion cycles of non-pipelined ops

    def flush(self) -> None:
        """Release every unit (pipeline flush)."""
        self._issued_this_cycle = 0
        self._busy_until.clear()
