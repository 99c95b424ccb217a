"""Shared low-level utilities: bit manipulation, queues, RNG, statistics."""

from repro.common.bitutils import is_pow2, ilog2
from repro.common.queues import BoundedFIFO
from repro.common.stats import Counter, Histogram
from repro.common.rng import make_rng, derive_seed

__all__ = [
    "is_pow2",
    "ilog2",
    "BoundedFIFO",
    "Counter",
    "Histogram",
    "make_rng",
    "derive_seed",
]
