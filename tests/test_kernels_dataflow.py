"""Cross-kernel dataflow contract tests.

Every kernel's declared dataflow must be *sound*: the access maps must
agree with the per-iteration accessors, and — the property the whole
inspector rests on — an iteration may only read/write elements it
declared. The latter is checked by instrumenting state arrays and
watching which elements actually change or get read (via a write-canary
trick for writes).
"""

import numpy as np
import pytest

from repro.kernels import (
    DScalCSC,
    DScalCSR,
    SpIC0,
    SpILU0,
    SpMVCSC,
    SpMVCSR,
    SpMVSymLower,
    SpTRSVBackwardCSR,
    SpTRSVCSC,
    SpTRSVCSR,
    SpTRSVCSRFromLU,
)
from repro.kernels import base as kernel_base
from repro.runtime import allocate_state
from repro.sparse import CSRMatrix, banded_spd
from repro.sparse.base import INDEX_DTYPE


def all_kernels(a):
    low = a.lower_triangle()
    low_csc = low.to_csc()
    return [
        SpTRSVCSR(low),
        SpTRSVCSC(low_csc),
        SpTRSVCSRFromLU(a),
        SpTRSVBackwardCSR(low),
        SpMVCSR(a),
        SpMVCSC(a.to_csc()),
        SpMVSymLower(low_csc),
        SpIC0(low_csc),
        SpILU0(a),
        DScalCSR(a),
        DScalCSC(low_csc),
    ]


def _nonsymmetric_pattern(n=40, density=0.08, seed=3):
    """Random pattern with a full diagonal and no symmetry."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(dense, 4.0)
    return CSRMatrix.from_dense(dense)


#: Patterns the map contract is checked on, beyond the standard fixture:
#: a deep banded DAG, no strict-lower entries at all, a single iteration,
#: and a nonsymmetric pattern (SpILU0 / SpTRSVCSRFromLU see both halves).
MAP_PATTERNS = {
    "banded": lambda: banded_spd(150, 4, seed=7),
    "diagonal": lambda: CSRMatrix.from_dense(np.diag(np.arange(1.0, 6.0))),
    "n1": lambda: CSRMatrix.from_dense(np.array([[3.0]])),
    "nonsymmetric": _nonsymmetric_pattern,
}


@pytest.fixture
def kernels(lap2d_nd):
    return all_kernels(lap2d_nd)


@pytest.fixture(params=["lap2d_nd", *sorted(MAP_PATTERNS)])
def pattern_kernels(request, lap2d_nd):
    if request.param == "lap2d_nd":
        return all_kernels(lap2d_nd)
    return all_kernels(MAP_PATTERNS[request.param]())


def test_maps_match_per_iteration_accessors(kernels):
    """Map slices equal the accessors element for element, *in order*:
    the cache-fidelity machine builds its per-thread access stream from
    the maps, in the order a thread calling the accessors would touch.
    The whole map is also bit-identical (values and dtype) to the generic
    per-iteration builder, the oracle the vectorized builders replace."""
    _check_maps_match_accessors(kernels)


@pytest.mark.parametrize("pattern", sorted(MAP_PATTERNS))
def test_maps_match_per_iteration_accessors_on_edge_patterns(pattern):
    a = MAP_PATTERNS[pattern]()
    if pattern == "nonsymmetric":
        dense = a.to_dense() != 0
        assert not np.array_equal(dense, dense.T)
    _check_maps_match_accessors(all_kernels(a))


def _check_maps_match_accessors(kernels):
    for k in kernels:
        n = k.n_iterations
        for var in set(k.read_vars) | set(k.write_vars):
            for kind in ("read", "write"):
                getter = k.reads_of if kind == "read" else k.writes_of
                indptr, indices = (
                    k.read_map(var) if kind == "read" else k.write_map(var)
                )
                assert indptr.shape == (n + 1,), (k.name, var, kind)
                assert indptr.dtype == INDEX_DTYPE, (k.name, var, kind)
                assert indices.dtype == INDEX_DTYPE, (k.name, var, kind)
                ref_indptr, ref_indices = kernel_base._build_map(k, var, kind=kind)
                assert np.array_equal(indptr, ref_indptr), (k.name, var, kind)
                assert np.array_equal(indices, ref_indices), (k.name, var, kind)
                for i in range(n):
                    from_map = indices[indptr[i] : indptr[i + 1]]
                    assert np.array_equal(from_map, getter(var, i)), (
                        k.name,
                        var,
                        kind,
                        i,
                    )


def test_access_maps_never_use_the_generic_builder(pattern_kernels, monkeypatch):
    """Every shipped kernel builds its maps with whole-array NumPy: the
    per-iteration fallback stays the default for new kernels only."""
    calls = []

    def spy(kernel, var, *, kind):
        calls.append((kernel.name, var, kind))
        raise AssertionError("generic per-iteration map builder called")

    monkeypatch.setattr(kernel_base, "_build_map", spy)
    for k in pattern_kernels:
        for var in k.all_vars:
            read, write = k.access_maps(var)
            assert (read is not None) == (var in k.read_vars)
            assert (write is not None) == (var in k.write_vars)
    assert calls == []


def test_declared_accesses_in_bounds(kernels):
    for k in kernels:
        sizes = k.var_sizes()
        for var in set(k.read_vars) | set(k.write_vars):
            for i in (0, k.n_iterations - 1):
                for idx in (k.reads_of(var, i), k.writes_of(var, i)):
                    if idx.shape[0]:
                        assert idx.min() >= 0 and idx.max() < sizes[var], (
                            k.name,
                            var,
                        )


def test_writes_are_complete(kernels, rng):
    """Executing iteration i changes only elements listed in writes_of."""
    for k in kernels:
        state = allocate_state([k])
        # plausible inputs: SPD-like values for factor kernels
        for var in state:
            state[var][:] = rng.random(state[var].shape[0]) + 0.1
        # factorization kernels need genuine matrix values to avoid
        # breakdown; give every kernel its operand values when it has one
        for attr in ("low", "a"):
            mat = getattr(k, attr, None)
            if mat is not None:
                for var in (getattr(k, "a_var", None), getattr(k, "l_var", None),
                            getattr(k, "lu_var", None)):
                    if var in state and state[var].shape[0] == mat.nnz:
                        state[var][:] = np.abs(mat.data) + 1.0
                break
        k.setup(state)
        scratch = k.make_scratch()
        n = k.n_iterations
        for i in (0, n // 3, n - 1):
            before = {v: a.copy() for v, a in state.items()}
            try:
                k.run_iteration(i, state, scratch)
            except ValueError:
                continue  # breakdown on synthetic values: skip this probe
            for var, arr in state.items():
                changed = np.nonzero(arr != before[var])[0]
                declared = set(k.writes_of(var, i).tolist())
                undeclared = set(changed.tolist()) - declared
                assert not undeclared, (k.name, var, i, sorted(undeclared)[:5])


def test_var_sizes_cover_all_vars(kernels):
    for k in kernels:
        sizes = k.var_sizes()
        for var in set(k.read_vars) | set(k.write_vars):
            assert var in sizes, (k.name, var)


def test_costs_shape_and_positivity(kernels):
    for k in kernels:
        c = k.iteration_costs()
        assert c.shape == (k.n_iterations,)
        assert np.all(c > 0), k.name
        assert k.flop_count() > 0, k.name
