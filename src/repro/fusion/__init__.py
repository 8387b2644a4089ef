"""Sparse fusion: inspector, public fuse() API, Table 1 combinations."""

from .combinations import COMBINATIONS, KernelCombination, build_combination
from .fused import FusedLoops, fuse, inspect_loops, repack_schedule
from .inspector import build_inter_dep, compute_reuse, shared_variables

__all__ = [
    "COMBINATIONS",
    "KernelCombination",
    "build_combination",
    "FusedLoops",
    "fuse",
    "inspect_loops",
    "repack_schedule",
    "build_inter_dep",
    "compute_reuse",
    "shared_variables",
]
