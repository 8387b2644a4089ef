"""Solver set-up reuse: ``pcg_ic0`` and plan-executor ``gauss_seidel``
take their pattern-only set-up (kernels, level schedules, unbound plans,
value maps) from the inspection cache, and every call still computes
from its own values: a reused set-up gives the bits a freshly built one
gives. Also the solvers' fail-fast checks on non-finite input."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.obs import recording
from repro.schedule.cache import (
    SETUP_TIER,
    ScheduleCache,
    set_default_cache,
    setup_cache,
)
from repro.solvers import gauss_seidel, pcg_ic0
from repro.sparse import CSRMatrix, banded_spd

SOLVERS = {
    "pcg": lambda a, b, x0=None: pcg_ic0(a, b, tol=1e-10, x0=x0),
    "gs": lambda a, b, x0=None: gauss_seidel(a, b, tol=1e-8, max_iters=3000, x0=x0),
}


def _scaled(a, rng):
    """``D A D`` for a random positive diagonal ``D``: same pattern, new values."""
    d = rng.uniform(0.5, 2.0, a.n_rows)
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    data = a.data * d[rows] * d[a.indices]
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr.copy(), a.indices.copy(), data)


def _fresh(solve, a, b, x0=None):
    """The solve with no set-up cached."""
    SETUP_TIER.clear()
    return solve(a, b, x0)


def _matching_matrix(n, seed):
    """``4 I`` plus ``-1`` at a random perfect matching: every row holds
    one off-diagonal entry, so two seeds share ``indptr`` but not
    ``indices``."""
    pairs = np.random.default_rng(seed).permutation(n).reshape(-1, 2)
    dense = 4.0 * np.eye(n)
    dense[pairs[:, 0], pairs[:, 1]] = dense[pairs[:, 1], pairs[:, 0]] = -1.0
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_same_pattern_new_values_is_bitwise_a_fresh_solve(lap3d_nd, rng, solver):
    solve = SOLVERS[solver]
    solve(lap3d_nd, rng.random(lap3d_nd.n_rows))
    a = _scaled(lap3d_nd, rng)
    b, x0 = rng.random(a.n_rows), rng.random(a.n_rows)
    with recording() as rec:
        reused = solve(a, b, x0)
    assert rec.counter("solver.setup_hits") == 1
    assert rec.counter("solver.setup_misses") == 0
    assert rec.counter("plan.cache_misses") == 0
    fresh = _fresh(solve, a, b, x0)
    assert reused.converged and reused.iterations == fresh.iterations
    assert reused.x.tobytes() == fresh.x.tobytes()
    assert reused.residuals == fresh.residuals


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_changed_pattern_misses(lap2d_nd, lap3d_nd, rng, solver):
    solve = SOLVERS[solver]
    for a in (lap2d_nd, lap3d_nd):
        with recording() as rec:
            solve(a, rng.random(a.n_rows))
        assert rec.counter("solver.setup_misses") == 1
        assert rec.counter("plan.cache_misses") == 1
    assert setup_cache().stats["setup_entries"] == 2


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_indices_edited_in_place_miss(rng, solver):
    solve = SOLVERS[solver]
    a, other = _matching_matrix(40, 1), _matching_matrix(40, 2)
    assert np.array_equal(a.indptr, other.indptr)
    assert not np.array_equal(a.indices, other.indices)
    b = rng.random(a.n_rows)
    solve(a, b)
    a.indices[:] = other.indices  # same object, new pattern
    a.data[:] = other.data
    with recording() as rec:
        edited = solve(a, b)
    assert rec.counter("solver.setup_misses") == 1
    fresh = _fresh(solve, other, b)
    assert edited.x.tobytes() == fresh.x.tobytes()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_matrices_solved_in_turn_never_cross(lap2d_nd, lap3d_nd, rng, solver):
    solve = SOLVERS[solver]
    calls = [
        (a, rng.random(a.n_rows))
        for a in (lap2d_nd, lap3d_nd, _scaled(lap2d_nd, rng), _scaled(lap3d_nd, rng))
    ]
    expect = [_fresh(solve, a, b).x.tobytes() for a, b in calls]
    SETUP_TIER.clear()
    with recording() as rec:
        for _ in range(2):
            got = [solve(a, b).x.tobytes() for a, b in calls]
            assert got == expect
    assert SETUP_TIER.stats["setup_entries"] == 2
    assert rec.counter("solver.setup_misses") == 2
    assert rec.counter("solver.setup_hits") == 6


def test_tier_keeps_its_lru_bound(rng):
    mats = [banded_spd(30 + k, 2, seed=k) for k in range(SETUP_TIER.maxsize + 1)]
    for a in mats:
        gauss_seidel(a, rng.random(a.n_rows), tol=1e-6)
    assert SETUP_TIER.stats["setup_entries"] == SETUP_TIER.maxsize
    with recording() as rec:
        gauss_seidel(mats[-1], rng.random(mats[-1].n_rows), tol=1e-6)
        gauss_seidel(mats[0], rng.random(mats[0].n_rows), tol=1e-6)
    # the newest is still there; the oldest was evicted and is rebuilt
    assert rec.counter("solver.setup_hits") == 1
    assert rec.counter("solver.setup_misses") == 1
    assert SETUP_TIER.stats["setup_entries"] == SETUP_TIER.maxsize


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_returned_x_never_aliases_cached_state(lap2d_nd, rng, solver):
    solve = SOLVERS[solver]
    b = rng.random(lap2d_nd.n_rows)
    first = solve(lap2d_nd, b)
    kept = first.x.copy()
    first.x[:] = np.nan
    second = solve(lap2d_nd, b)
    assert not np.shares_memory(first.x, second.x)
    assert second.x.tobytes() == kept.tobytes()


def test_unroll_is_part_of_the_key(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    with recording() as rec:
        for unroll in (1, 2, 1):
            gauss_seidel(lap2d_nd, b, tol=1e-6, unroll=unroll)
    assert rec.counter("solver.setup_misses") == 2
    assert rec.counter("solver.setup_hits") == 1


def test_installed_default_cache_holds_the_setups(lap2d_nd, rng):
    cache = ScheduleCache()
    previous = set_default_cache(cache)
    try:
        assert setup_cache() is cache
        for _ in range(2):
            pcg_ic0(lap2d_nd, rng.random(lap2d_nd.n_rows))
    finally:
        set_default_cache(previous)
    assert cache.stats["setup_misses"] == 1 and cache.stats["setup_hits"] == 1
    assert SETUP_TIER.stats["setup_entries"] == 0


def test_fuse_without_a_cache_never_reads_the_tier(lap2d_nd, rng):
    pcg_ic0(lap2d_nd, rng.random(lap2d_nd.n_rows))
    kernels, _ = build_combination(1, lap2d_nd)
    with recording() as rec:
        fused = fuse(kernels, 4)
    assert fused.meta["cache"] is None
    assert rec.counter("inspector.cache_misses") == 0
    assert rec.counter("ico.vertices") > 0  # ICO ran


def test_spans_carry_the_lookup_outcome(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    with recording() as rec:
        for _ in range(2):
            pcg_ic0(lap2d_nd, b)
            gauss_seidel(lap2d_nd, b, tol=1e-6)
    for name in ("pcg.setup", "gs.schedule"):
        hits = [sp.attrs["hit"] for sp in rec.spans if sp.name == name]
        assert hits == [False, True], name


# -- non-finite inputs ------------------------------------------------------
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("arg, bad", [("b", np.nan), ("x0", np.inf), ("b", -np.inf)])
def test_non_finite_vector_fails_fast(lap2d_small, solver, arg, bad):
    n = lap2d_small.n_rows
    vectors = {"b": np.ones(n), "x0": np.zeros(n)}
    vectors[arg][7] = bad
    vectors[arg][9] = np.nan
    with pytest.raises(ValueError, match=rf"^{arg}\[7\] is {bad}: must be finite"):
        SOLVERS[solver](lap2d_small, vectors["b"], vectors["x0"])


def _with_nan_coupling(a):
    """*a* with one symmetric off-diagonal pair set to NaN."""
    bad = a.copy()
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    i, j = next((r, c) for r, c in zip(rows, a.indices) if r < c)
    bad.data[(rows == i) & (a.indices == j)] = np.nan
    bad.data[(rows == j) & (a.indices == i)] = np.nan
    return bad


@pytest.mark.parametrize("solver, stopped_at", [("pcg", 0), ("gs", 2)])
def test_non_finite_residual_stops_the_solve(lap2d_small, rng, solver, stopped_at):
    res = SOLVERS[solver](_with_nan_coupling(lap2d_small), rng.random(64))
    assert not res.converged
    assert res.iterations == stopped_at
    assert res.meta["stopped"] == f"non-finite residual at iteration {stopped_at}"


def test_zero_diagonal_stops_gauss_seidel(lap2d_small, rng):
    a = lap2d_small.copy()
    a.data[a.diagonal_positions()[5]] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        res = gauss_seidel(a, rng.random(a.n_rows))
    assert not res.converged and res.iterations == 2
    assert res.meta["stopped"] == "non-finite residual at iteration 2"


def test_finite_solves_name_no_stop(lap2d_small, rng):
    for solve in SOLVERS.values():
        assert "stopped" not in solve(lap2d_small, rng.random(64)).meta
