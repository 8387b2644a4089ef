"""Small shared utilities: timing and deterministic test-data helpers."""

from .arrays import multi_range, segment_boundaries_split, segment_sums_at
from .timing import Timer
from .testing import random_spd_csr, random_lower_csr, rng_for

__all__ = [
    "Timer",
    "random_spd_csr",
    "random_lower_csr",
    "rng_for",
    "multi_range",
    "segment_boundaries_split",
    "segment_sums_at",
]
