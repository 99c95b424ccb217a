"""Bit-manipulation helpers used throughout the simulator.

All structures in the modelled machine (caches, TLBs, LSQ banks, predictors)
are power-of-two sized and indexed by address bit fields, so these helpers
are on the hot path of nearly every module.
"""

from __future__ import annotations


def is_pow2(x: int) -> bool:
    """Return True when ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Integer log2 of a power of two.

    Raises ``ValueError`` for values that are not positive powers of two so
    configuration errors (e.g. a 3-way "set-associative" bank count) fail
    loudly at construction time instead of silently mis-indexing.
    """
    if not is_pow2(x):
        raise ValueError(f"expected a positive power of two, got {x!r}")
    return x.bit_length() - 1

