"""Tests for the simulated GS pricing path (the Fig. 9 benchmark core)."""

import numpy as np
import pytest

from repro.solvers import (
    gauss_seidel,
    gauss_seidel_simulated,
    gs_iterations_to_converge,
)
from repro.sparse import laplacian_2d


@pytest.fixture
def problem(rng):
    a = laplacian_2d(10)
    return a, rng.random(a.n_rows)


def test_iteration_counter_matches_executed_solve(problem):
    a, b = problem
    iters = gs_iterations_to_converge(a, b, tol=1e-6, max_iters=2000)
    executed = gauss_seidel(a, b, tol=1e-6, max_iters=2000, unroll=1)
    assert executed.converged
    assert executed.iterations == iters


def test_counter_respects_max_iters(problem):
    a, b = problem
    assert gs_iterations_to_converge(a, b, tol=0.0, max_iters=7) == 7


def test_counter_with_initial_guess(problem):
    a, b = problem
    x_star = np.linalg.solve(a.to_dense(), b)
    assert gs_iterations_to_converge(a, b, tol=1e-6, x0=x_star) == 1


def test_simulated_matches_executed_pricing(problem):
    """Pricing the executed iteration count covers the executed chunks;
    the executed solve itself prices nothing."""
    a, b = problem
    iters = gs_iterations_to_converge(a, b, tol=1e-6, max_iters=2000)
    sim = gauss_seidel_simulated(a, b, iterations=iters, unroll=2)
    real = gauss_seidel(a, b, tol=1e-6, max_iters=2000, unroll=2)
    assert sim.meta["chunks"] == real.meta["chunks"]
    assert sim.iterations == real.iterations
    assert sim.simulated_solve_seconds > 0
    assert real.simulated_solve_seconds is None


@pytest.mark.parametrize("arg", ["b", "x0"])
def test_counter_rejects_wrong_length_vector(problem, arg):
    a, b = problem
    kwargs = {"b": b, "x0": np.zeros(a.n_rows)}
    kwargs[arg] = np.ones(3)
    with pytest.raises(ValueError, match=rf"{arg} must have shape \({a.n_rows},\)"):
        gs_iterations_to_converge(a, kwargs.pop("b"), **kwargs)


def test_simulated_ceil_division(problem):
    a, b = problem
    sim = gauss_seidel_simulated(a, b, iterations=5, unroll=2)
    assert sim.meta["chunks"] == 3  # ceil(5/2)
    assert sim.iterations == 6


@pytest.mark.parametrize("method", ["parsy", "sparse-fusion", "joint-lbc"])
def test_simulated_all_methods(problem, method):
    a, b = problem
    sim = gauss_seidel_simulated(a, b, iterations=10, unroll=2, method=method)
    assert sim.simulated_solve_seconds > 0
    assert sim.method == method
    assert sim.meta["simulated_only"]


def test_simulated_marks_no_residuals(problem):
    a, b = problem
    sim = gauss_seidel_simulated(a, b, iterations=4, unroll=1)
    assert sim.residuals == []
    assert np.all(sim.x == 0)
