"""Small shared utilities: timing and vectorized array helpers.

The deterministic random-matrix helpers live in :mod:`repro.utils.testing`
and are imported from there: they build :mod:`repro.sparse` matrices, and
:mod:`repro.sparse` itself imports from this package.
"""

from .arrays import multi_range, row_block_matvec
from .timing import Timer

__all__ = ["Timer", "multi_range", "row_block_matvec"]
