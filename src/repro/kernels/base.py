"""Kernel abstraction: schedulable sparse loops with explicit dataflow.

A :class:`Kernel` is one outermost sparse loop (the unit of fusion in the
paper). It must expose everything the inspector and the runtime need:

* **iteration execution** — ``run_iteration(i, state, scratch)`` computes
  iteration ``i`` against a *state* (a dict mapping variable names to 1-D
  ``float64`` arrays). Any valid schedule that respects the DAGs and
  ``F`` must make the sequence of ``run_iteration`` calls produce the
  same result as ``run_reference``.
* **dataflow** — per-iteration element-granular read/write sets over
  named variables (:meth:`reads_of` / :meth:`writes_of`). The generic
  inter-kernel dependence builder in :mod:`repro.fusion.inspector` joins
  these across kernels, exactly like the paper's ``inter_DAG`` functions
  join statement accesses.
* **structure** — the intra-kernel dependency DAG (:meth:`intra_dag`,
  empty for parallel loops), the per-iteration cost ``c(v)`` (nonzeros
  touched), theoretical flops, and variable sizes for the reuse ratio.

Variables whose names start with ``"_"`` are *internal* (private scratch
like the CSC-TRSV accumulator): they participate in execution but are
excluded from the reuse-ratio metric and cannot be shared across kernels.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

import numpy as np

from ..graph.dag import DAG
from ..sparse.base import INDEX_DTYPE, VALUE_DTYPE
from ..utils.arrays import multi_range
from ..utils.intsort import stable_lexsort

__all__ = [
    "Kernel",
    "State",
    "make_state",
    "internal_var",
    "empty_map",
    "identity_map",
    "slice_map",
    "map_from_counts",
    "map_from_ranges",
    "map_from_pairs",
]

State = dict[str, np.ndarray]
"""Execution state: variable name -> 1-D float64 array."""

_EMPTY_INDEX = np.empty(0, dtype=INDEX_DTYPE)


def internal_var(name: str) -> bool:
    """True for kernel-private variables (excluded from reuse metrics)."""
    return name.startswith("_")


def make_state(sizes: Mapping[str, int], *, fill: float = 0.0) -> State:
    """Allocate a zeroed (or constant-filled) state for the given sizes."""
    return {
        name: np.full(int(size), fill, dtype=VALUE_DTYPE)
        for name, size in sizes.items()
    }


class Kernel(abc.ABC):
    """One fusable sparse loop. See the module docstring for the contract."""

    #: Human-readable kernel name, e.g. ``"SpTRSV-CSR"``.
    name: str = "kernel"

    #: Per-variable commutative-update declaration, the one place a
    #: kernel states the paper's ``Atomic`` annotation: variable name ->
    #: access kinds (``"read"``/``"write"``) that form a commutative
    #: read-modify-write accumulation (``y[rows] += ...``). Two such
    #: accesses of the *same* kernel commute, so the dynamic dependence
    #: sanitizer (:mod:`repro.obs.memtrace`) requires no ordering between
    #: them. Consuming reads and exclusive writes must never be declared
    #: here.
    atomic_update_vars: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def n_iterations(self) -> int:
        """Trip count of the outermost loop."""

    @abc.abstractmethod
    def intra_dag(self) -> DAG:
        """Dependency DAG between this loop's iterations.

        Parallel loops return ``DAG.empty(n_iterations)``. Implementations
        should cache: schedulers ask repeatedly.
        """

    @property
    def has_carried_dependence(self) -> bool:
        """True when the loop has loop-carried dependencies."""
        return self.intra_dag().has_edges

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def setup(self, state: State) -> None:
        """Initialize output variables this kernel owns (e.g. zero an
        accumulator). Runs once, before any iteration of any fused loop —
        must therefore never touch data another kernel produces."""

    @abc.abstractmethod
    def run_iteration(self, i: int, state: State, scratch: Any = None) -> None:
        """Execute iteration *i* against *state*."""

    @abc.abstractmethod
    def run_reference(self, state: State) -> None:
        """Sequential reference execution of the whole loop (vectorized
        where possible); includes the effect of :meth:`setup`."""

    def make_scratch(self) -> Any:
        """Allocate one run's scratch: the ``iter`` and ``plan`` executors
        make it once per run and pass it to every call of this kernel."""
        return None

    def precompute_levels(self, iters: np.ndarray, sizes) -> list:
        """The reusable precomputation of several level steps of this loop.

        *iters* concatenates the steps' iterations and *sizes* gives their
        lengths; the result holds one precomputation per step, in order.
        The plan compiler calls this once per loop with all of the loop's
        level steps and hands each step's entry back verbatim to every
        :meth:`run_level_batch` call for that step. Shipped kernels answer
        with one gather pass over all steps, split per step (concatenated
        gather/scatter index arrays and ``np.add.reduceat`` segment
        boundaries). The default has nothing to precompute.
        """
        return [None] * len(sizes)

    def bind_level(
        self, iters: np.ndarray, precomp: Any, values: Mapping[str, np.ndarray]
    ) -> Any:
        """*precomp* extended with this step's gathers of read-only arrays.

        *values* maps variable names to arrays no loop of the plan writes
        (:meth:`repro.runtime.plan.ExecutionPlan.bind`). A kernel that
        reads one of them in :meth:`run_level_batch` may return a *new*
        precomputation that also carries the gathered values, so that
        every later run of the step skips the gather; it must leave
        *precomp* itself untouched, and :meth:`run_level_batch` must
        still accept the unbound form. The default binds nothing and
        returns *precomp*.
        """
        return precomp

    def run_level_batch(
        self,
        iters: np.ndarray,
        state: State,
        precomp: Any,
        scratch: Any = None,
    ) -> None:
        """Execute the mutually independent iterations *iters* at once.

        *iters* must be an antichain of the intra-DAG (no dependence
        between any two of them) whose predecessors have all executed —
        exactly what one intra level of a compiled plan step provides.
        *precomp* is this step's entry of :meth:`precompute_levels`, or
        :meth:`bind_level`'s extension of it. The default runs the
        iterations one at a time, which is correct for any kernel.
        """
        for i in np.asarray(iters).tolist():
            self.run_iteration(i, state, scratch)

    # ------------------------------------------------------------------
    # Dataflow
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def read_vars(self) -> tuple[str, ...]:
        """Names of variables read by some iteration."""

    @property
    @abc.abstractmethod
    def write_vars(self) -> tuple[str, ...]:
        """Names of variables written by some iteration."""

    @property
    def all_vars(self) -> tuple[str, ...]:
        """Read plus write variables, reads first, no duplicates."""
        out = list(self.read_vars)
        out.extend(v for v in self.write_vars if v not in out)
        return tuple(out)

    @abc.abstractmethod
    def var_sizes(self) -> dict[str, int]:
        """Element count of every variable this kernel touches."""

    @abc.abstractmethod
    def reads_of(self, var: str, i: int) -> np.ndarray:
        """Element indices of *var* read by iteration *i* (may be empty)."""

    @abc.abstractmethod
    def writes_of(self, var: str, i: int) -> np.ndarray:
        """Element indices of *var* written by iteration *i*."""

    def write_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        """Full iteration->written-elements map as ``(indptr, indices)``.

        The generic implementation calls :meth:`writes_of` once per
        iteration. It is the default for new kernels and the oracle the
        dataflow tests compare against; every shipped kernel overrides
        both maps with whole-array builders (see :func:`map_from_counts`
        and :func:`map_from_pairs`), so no per-iteration Python runs
        between a sparsity pattern and the inspector's ``F`` join.
        """
        return _build_map(self, var, kind="write")

    def read_map(self, var: str) -> tuple[np.ndarray, np.ndarray]:
        """Full iteration->read-elements map as ``(indptr, indices)``."""
        return _build_map(self, var, kind="read")

    def access_maps(
        self, var: str
    ) -> tuple[tuple[np.ndarray, np.ndarray] | None, tuple[np.ndarray, np.ndarray] | None]:
        """Memoized ``(read_map, write_map)`` of *var*.

        Each entry is an ``(indptr, indices)`` pair, or ``None`` when
        the kernel never reads (writes) *var*. The maps depend only on
        the kernel's immutable sparsity structure, so they are built at
        most once; every map consumer — the inspector's inter-DAG join,
        the dynamic dependence sanitizer, the locality profiler — then
        walks the same arrays instead of re-deriving them per call.
        """
        cache = self.__dict__.setdefault("_access_maps", {})
        hit = cache.get(var)
        if hit is None:
            read = self.read_map(var) if var in self.read_vars else None
            write = self.write_map(var) if var in self.write_vars else None
            hit = cache[var] = (read, write)
        return hit

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def iteration_costs(self) -> np.ndarray:
        """The paper's ``c(v)``: nonzeros touched per iteration
        (``float64`` array of length ``n_iterations``)."""

    @abc.abstractmethod
    def flop_count(self) -> float:
        """Theoretical floating-point operations of the whole loop
        (used for the GFLOP/s axis of Fig. 5; identical across
        implementations by construction)."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n_iterations})"


def empty_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The map of a variable none of *n* iterations touches."""
    return np.zeros(n + 1, dtype=INDEX_DTYPE), _EMPTY_INDEX


def identity_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Iteration ``i`` touches element ``i`` only."""
    return np.arange(n + 1, dtype=INDEX_DTYPE), np.arange(n, dtype=INDEX_DTYPE)


def slice_map(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iteration ``i`` touches storage positions ``indptr[i]:indptr[i+1]``
    (its own row or column of a compressed matrix)."""
    return (
        np.array(indptr, dtype=INDEX_DTYPE),
        np.arange(indptr[-1], dtype=INDEX_DTYPE),
    )


def map_from_counts(
    counts: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map whose iteration ``i`` owns the next ``counts[i]`` *indices*.

    *indices* must already be grouped by iteration, each group in the
    order the iteration's accessor returns it.
    """
    indptr = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.asarray(indices, dtype=INDEX_DTYPE)


def map_from_ranges(
    group_ptr: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map whose iteration ``i`` touches the element ranges
    ``range(starts[g], starts[g] + counts[g])`` for ``g`` in
    ``group_ptr[i]:group_ptr[i + 1]``, concatenated in that order."""
    ends = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=ends[1:])
    return ends[group_ptr], multi_range(starts, counts)


def map_from_pairs(
    n: int, iters: np.ndarray, elems: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map from unordered ``(iteration, element)`` pairs.

    Each iteration's elements come out sorted and duplicate-free — the
    order of a per-iteration ``np.unique`` — via one ``lexsort`` and an
    adjacent-duplicate drop.
    """
    order = stable_lexsort((elems, iters))
    it, el = iters[order], elems[order]
    keep = np.ones(it.shape[0], dtype=bool)
    keep[1:] = (it[1:] != it[:-1]) | (el[1:] != el[:-1])
    return map_from_counts(np.bincount(it[keep], minlength=n), el[keep])


def _build_map(kernel: Kernel, var: str, *, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Generic per-iteration access-map builder (see Kernel.write_map)."""
    getter = kernel.writes_of if kind == "write" else kernel.reads_of
    n = kernel.n_iterations
    chunks = []
    counts = np.zeros(n, dtype=INDEX_DTYPE)
    for i in range(n):
        idx = getter(var, i)
        counts[i] = idx.shape[0]
        if idx.shape[0]:
            chunks.append(np.asarray(idx, dtype=INDEX_DTYPE))
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(chunks) if chunks else _EMPTY_INDEX
    )
    return indptr, indices
