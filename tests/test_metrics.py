"""Tests for evaluation metrics and utility helpers."""

import numpy as np
import pytest

from repro.graph import DAG, InterDep
from repro.runtime.metrics import (
    barrier_reduction,
    fusion_edge_growth,
    gflops,
    ner,
)
from repro.utils import Timer
from repro.utils.testing import random_lower_csr, random_spd_csr, rng_for


class TestNER:
    def test_positive_when_executor_faster(self):
        assert ner(10.0, 5.0, 1.0) == pytest.approx(2.5)

    def test_sentinel_when_executor_slower(self):
        assert ner(10.0, 1.0, 5.0) == float("inf")

    def test_infinite_when_equal(self):
        assert ner(10.0, 2.0, 2.0) == float("inf")

    def test_sentinel_on_near_tie(self):
        assert ner(10.0, 2.0, 2.0 - 1e-13) == float("inf")


class TestEdgeGrowth:
    def test_zero_without_inter_edges(self):
        g = DAG.from_edges(3, [(0, 1)])
        assert fusion_edge_growth([g, DAG.empty(2)], {}) == 0.0

    def test_ratio(self):
        g = DAG.from_edges(4, [(0, 1), (1, 2)])
        f = InterDep.identity(4)
        growth = fusion_edge_growth([g, DAG.empty(4)], {(0, 1): f})
        assert growth == pytest.approx(4 / 2)

    def test_infinite_for_pure_parallel(self):
        f = InterDep.identity(3)
        assert fusion_edge_growth(
            [DAG.empty(3), DAG.empty(3)], {(0, 1): f}
        ) == float("inf")


class TestBarrierReduction:
    def test_half(self):
        assert barrier_reduction(10, 5) == pytest.approx(0.5)

    def test_no_baseline(self):
        assert barrier_reduction(0, 5) == 0.0

    def test_negative_when_worse(self):
        assert barrier_reduction(5, 10) == pytest.approx(-1.0)


class TestGflops:
    def test_inverse_proportional_to_seconds(self, lap2d_nd):
        from repro.baselines import sequential_schedule
        from repro.kernels import SpMVCSR
        from repro.runtime import MachineConfig, SimulatedMachine

        k = SpMVCSR(lap2d_nd)
        m1 = SimulatedMachine(MachineConfig(n_threads=1, clock_ghz=1.0))
        m2 = SimulatedMachine(MachineConfig(n_threads=1, clock_ghz=2.0))
        s = sequential_schedule(k)
        g1 = gflops([k], m1.simulate(s, [k]))
        g2 = gflops([k], m2.simulate(s, [k]))
        assert g2 == pytest.approx(2 * g1)

    def test_zero_seconds_report_yields_zero(self, lap2d_nd):
        """A zero-duration report must give 0.0, not inf (inf poisons
        geomeans and is not JSON-serializable)."""
        import json

        import numpy as np

        from repro.kernels import SpMVCSR
        from repro.runtime.machine import MachineReport

        k = SpMVCSR(lap2d_nd)
        report = MachineReport(
            total_cycles=0.0,
            spartition_cycles=[],
            busy_cycles=np.zeros((0, 1)),
            n_barriers=0,
        )
        g = gflops([k], report)
        assert g == 0.0
        json.dumps(g)  # finite => serializable


class TestUtils:
    def test_timer_measures(self):
        import time

        with Timer() as t:
            time.sleep(0.01)
        assert 0.005 < t.seconds < 1.0

    def test_rng_deterministic(self):
        assert rng_for(7).random() == rng_for(7).random()

    def test_random_matrix_helpers(self):
        a = random_spd_csr(30, seed=1)
        d = a.to_dense()
        assert np.all(np.linalg.eigvalsh(d) > 0)
        low = random_lower_csr(30, seed=1)
        assert low.is_lower_triangular()
