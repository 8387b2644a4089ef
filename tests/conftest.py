"""Shared fixtures: deterministic matrices and kernel combinations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import (
    apply_ordering,
    banded_spd,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)


@pytest.fixture(scope="session")
def lap2d_small():
    """Naturally-ordered 2-D Laplacian (8x8 grid, n=64)."""
    return laplacian_2d(8)


@pytest.fixture(scope="session")
def lap2d_nd():
    """ND-reordered 2-D Laplacian (12x12 grid, n=144) — the standard
    schedulable test matrix (METIS-style branching elimination tree)."""
    a, _ = apply_ordering(laplacian_2d(12), "nd")
    return a


@pytest.fixture(scope="session")
def lap3d_nd():
    """ND-reordered 3-D Laplacian (6^3 grid, n=216) — bone010 stand-in."""
    a, _ = apply_ordering(laplacian_3d(6), "nd")
    return a


@pytest.fixture(scope="session")
def band_small():
    """Banded SPD (n=200, bw=4): deep, narrow dependence DAG."""
    return banded_spd(200, 4, seed=7)


@pytest.fixture(scope="session")
def rand_spd_nd():
    """ND-reordered random SPD (n=300): wide, shallow DAG."""
    a, _ = apply_ordering(random_spd(300, 6.0, seed=11), "nd")
    return a


@pytest.fixture(scope="session")
def matrix_zoo(lap2d_small, lap2d_nd, lap3d_nd, band_small, rand_spd_nd):
    """All structural regimes in one list (name, matrix)."""
    return [
        ("lap2d_small", lap2d_small),
        ("lap2d_nd", lap2d_nd),
        ("lap3d_nd", lap3d_nd),
        ("band_small", band_small),
        ("rand_spd_nd", rand_spd_nd),
    ]


@pytest.fixture(scope="session")
def dependence_edges():
    """``edges(fused) -> (src, dst)``: global vertex ids of every
    intra-DAG and ``F`` edge of a :class:`~repro.fusion.FusedLoops`."""

    def edges(fl):
        off = fl.schedule.offsets
        src = [np.empty(0, dtype=np.int64)]
        dst = [np.empty(0, dtype=np.int64)]
        for k, dag in enumerate(fl.dags):
            e = dag.edge_list()
            src.append(e[:, 0] + off[k])
            dst.append(e[:, 1] + off[k])
        for (a, b), f in fl.inter.items():
            e = f.edge_list()  # (producer_j, consumer_i)
            src.append(e[:, 0] + off[a])
            dst.append(e[:, 1] + off[b])
        return np.concatenate(src), np.concatenate(dst)

    return edges


@pytest.fixture
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _empty_solver_setup_tier():
    """Every test starts with no cached solver set-up, so what a solve
    compiles does not depend on which tests solved the same pattern
    before it."""
    from repro.schedule.cache import SETUP_TIER

    SETUP_TIER.clear()


@pytest.fixture(autouse=True)
def _enforce_cycle_conservation(monkeypatch):
    """Check the attribution identity on EVERY simulated run in the suite.

    ``compute + memory + wait + barrier == makespan * n_threads`` must
    hold for any schedule/fidelity/efficiency/override combination the
    tests exercise; wrapping :meth:`SimulatedMachine.simulate` here
    turns each of the suite's hundreds of simulations into a check of
    :meth:`MachineReport.assert_conserved`.
    """
    from repro.runtime.machine import SimulatedMachine

    original = SimulatedMachine.simulate

    def checked(self, schedule, kernels, **kwargs):
        report = original(self, schedule, kernels, **kwargs)
        report.assert_conserved()
        return report

    monkeypatch.setattr(SimulatedMachine, "simulate", checked)
