"""Dynamic-energy accounting.

``EnergyAccount`` is a bag of named picojoule accumulators.  Every LSQ
model and the pipeline charge events to an account; the paper's artefacts
(:mod:`repro.experiments.artefacts`) read totals per category to
regenerate the paper's Figures 7-10 (energy) and Figure 8 (breakdown).
"""

from __future__ import annotations

from collections import defaultdict


class EnergyAccount:
    """Named picojoule accumulators with category totals."""

    __slots__ = ("_pj",)

    def __init__(self):
        self._pj: defaultdict[str, float] = defaultdict(float)

    def charge(self, category: str, picojoules: float) -> None:
        """Add ``picojoules`` to ``category`` (must be >= 0)."""
        if picojoules < 0:
            raise ValueError("energy must be non-negative")
        self._pj[category] += picojoules

    def total(self, *categories: str) -> float:
        """Sum of the given categories (all categories when none given)."""
        if not categories:
            return sum(self._pj.values())
        return sum(self._pj[c] for c in categories)

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all accumulators."""
        return dict(self._pj)

    def reset(self) -> None:
        """Zero all accumulators."""
        self._pj.clear()
