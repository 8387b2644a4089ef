"""Property-based tests (hypothesis) on the core invariants.

Random sparse structures drive the three load-bearing properties:

1. every scheduler emits *valid* schedules on arbitrary DAG/F shapes,
2. executing any valid schedule is numerically equivalent to the
   sequential reference,
3. structural invariants of the substrate (levels/slack, LRU pricing,
   transpose round-trips) hold for arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import DAG, InterDep
from repro.kernels import SpMVCSC, SpMVCSR, SpTRSVCSR
from repro.runtime import allocate_state, execute_schedule, run_reference
from repro.schedule import (
    dagp_schedule,
    hdagg_schedule,
    ico_schedule,
    lbc_schedule,
    validate_schedule,
    wavefront_schedule,
)
from repro.sparse import CSRMatrix, random_lower_triangular, random_spd

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def lower_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    density = draw(st.floats(min_value=1.0, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_lower_triangular(n, density, seed=seed)


@st.composite
def line_streams(draw):
    """``(lines, streams, calls)``: up to 3 thread streams of line ids,
    each cut into coalescing loads at random points."""
    lines = draw(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200)
    )
    n = len(lines)
    breaks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    n_streams = draw(st.integers(min_value=1, max_value=3))
    streams = np.arange(n) * n_streams // n
    return np.array(lines), streams, np.cumsum(breaks) * 3 + streams


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(min_value=0, max_value=3 * n))
    if m and n > 1:
        u = rng.integers(0, n - 1, size=m)
        span = (rng.random(m) * (n - 1 - u)).astype(np.int64) + 1
        edges = np.stack([u, u + span], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    weights = rng.random(n) + 0.1
    return DAG.from_edges(n, edges, weights)


@st.composite
def inter_deps(draw, n1, n2):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(min_value=0, max_value=2 * max(n1, n2)))
    if m:
        j = rng.integers(0, n1, size=m)
        i = rng.integers(0, n2, size=m)
        return InterDep.from_edges(n2, n1, np.stack([j, i], axis=1))
    return InterDep.empty(n2, n1)


class TestDagInvariants:
    @SETTINGS
    @given(random_dags())
    def test_levels_heights_slack(self, g):
        lv, h, sn = g.levels(), g.heights(), g.slack_numbers()
        assert np.all(sn >= 0)
        if g.n:
            assert int((lv + h).max()) == g.n_wavefronts - 1
        for u, v in g.edge_list():
            assert lv[v] > lv[u]
            assert h[u] > h[v]

    @SETTINGS
    @given(random_dags())
    def test_transpose_involution(self, g):
        gt2 = g.transpose().transpose()
        assert np.array_equal(np.sort(g.edge_list(), axis=0),
                              np.sort(gt2.edge_list(), axis=0))

    @SETTINGS
    @given(random_dags())
    def test_wavefronts_partition(self, g):
        wf = g.wavefronts()
        if g.n:
            allv = np.sort(np.concatenate(wf))
            assert np.array_equal(allv, np.arange(g.n))


class TestSchedulerValidity:
    @SETTINGS
    @given(random_dags(), st.integers(min_value=1, max_value=8))
    def test_single_dag_schedulers(self, g, r):
        for scheduler in (
            wavefront_schedule,
            lbc_schedule,
            dagp_schedule,
            hdagg_schedule,
        ):
            s = scheduler(g, r)
            validate_schedule(s, [g])

    @SETTINGS
    @given(st.data())
    def test_ico_arbitrary_pair(self, data):
        g1 = data.draw(random_dags())
        g2 = data.draw(random_dags())
        f = data.draw(inter_deps(g1.n, g2.n))
        r = data.draw(st.integers(min_value=1, max_value=6))
        reuse = data.draw(st.floats(min_value=0.0, max_value=2.0))
        s = ico_schedule([g1, g2], {(0, 1): f}, r, reuse)
        validate_schedule(s, [g1, g2], {(0, 1): f})

    @SETTINGS
    @given(st.data())
    def test_ico_three_loops(self, data):
        g1 = data.draw(random_dags())
        g2 = data.draw(random_dags())
        g3 = data.draw(random_dags())
        f12 = data.draw(inter_deps(g1.n, g2.n))
        f23 = data.draw(inter_deps(g2.n, g3.n))
        s = ico_schedule(
            [g1, g2, g3], {(0, 1): f12, (1, 2): f23}, 4, 1.0
        )
        validate_schedule(s, [g1, g2, g3], {(0, 1): f12, (1, 2): f23})


class TestNumericalEquivalence:
    @SETTINGS
    @given(lower_matrices(), st.integers(min_value=1, max_value=6))
    def test_fused_trsv_spmv_equals_reference(self, low, r):
        n = low.n_rows
        full = CSRMatrix.from_scipy(
            low.to_scipy() + low.to_scipy().T
        )
        k1 = SpTRSVCSR(low, b_var="b", x_var="y")
        k2 = SpMVCSC(full.to_csc(), a_var="Ax", x_var="y", y_var="z")
        from repro.fusion import fuse

        fl = fuse([k1, k2], r)
        state = allocate_state([k1, k2])
        rng = np.random.default_rng(n)
        state["Lx"][:] = low.data
        state["Ax"][:] = full.to_csc().data
        state["b"][:] = rng.random(n)
        expected = {v: a.copy() for v, a in state.items()}
        run_reference([k1, k2], expected)
        fl.execute(state)
        assert np.allclose(state["z"], expected["z"], atol=1e-8)

    @SETTINGS
    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=6),
    )
    def test_fused_factor_trsv_equals_reference(self, n, seed, r):
        a = random_spd(n, 5.0, seed=seed)
        from repro.fusion import build_combination, fuse

        kernels, state = build_combination(5, a, seed=seed)  # ILU0-TRSV
        expected = {v: x.copy() for v, x in state.items()}
        run_reference(kernels, expected)
        fl = fuse(kernels, r)
        fl.execute(state)
        assert np.array_equal(state["LUx"], expected["LUx"])
        assert np.allclose(state["y"], expected["y"], atol=1e-9)


class TestSubstrateInvariants:
    @SETTINGS
    @given(lower_matrices())
    def test_csr_csc_roundtrip(self, low):
        assert low.to_csc().to_csr().allclose(low)
        assert low.transpose().transpose().allclose(low)

    @SETTINGS
    @given(
        line_streams(),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=16),
    )
    def test_stack_distance_verdicts_match_oracle(self, stream, l1_lines, llc_lines):
        """L1/LLC/DRAM verdicts priced from stack distances equal the
        per-access OrderedDict replay, coalescing loads included."""
        from repro.runtime import CacheConfig
        from repro.runtime.cache import cache_levels, stack_distances

        from .cache_oracle import OracleThreadCache

        lines, streams, calls = stream
        cfg = CacheConfig(l1_lines=l1_lines, llc_lines=llc_lines)
        oracles = {}
        expected = []
        for c in np.unique(calls):
            sel = calls == c
            oracle = oracles.setdefault(int(streams[sel][0]), OracleThreadCache(cfg))
            expected.extend(oracle.load(lines[sel].tolist()))
        levels, distances = cache_levels(lines, streams, calls, cfg)
        assert levels.tolist() == expected
        span = int(lines.max(initial=0)) + 1
        assert np.array_equal(distances, stack_distances(streams * span + lines))

    @SETTINGS
    @given(lower_matrices())
    def test_reuse_ratio_bounds(self, low):
        from repro.fusion import compute_reuse

        k1 = SpTRSVCSR(low, b_var="b", x_var="y")
        k2 = SpTRSVCSR(low, b_var="y", x_var="z")
        assert 0.0 <= compute_reuse(k1, k2) <= 2.0


class TestPlanEquivalence:
    @SETTINGS
    @given(lower_matrices(), st.integers(min_value=1, max_value=6))
    def test_plan_matches_oracle(self, low, r):
        """Random TRSV->SpMV-CSC fusions: the compiled plan, whose steps
        span whole s-partitions, agrees with the per-iteration oracle."""
        from repro.fusion import fuse
        from repro.runtime import execute_schedule_planned

        full = CSRMatrix.from_scipy(low.to_scipy() + low.to_scipy().T)
        k1 = SpTRSVCSR(low, b_var="b", x_var="y")
        k2 = SpMVCSC(full.to_csc(), a_var="Ax", x_var="y", y_var="z")
        fl = fuse([k1, k2], r)
        state = allocate_state([k1, k2])
        rng = np.random.default_rng(low.n_rows + 1)
        state["Lx"][:] = low.data
        state["Ax"][:] = full.to_csc().data
        state["b"][:] = rng.random(low.n_rows)
        st2 = {v: a.copy() for v, a in state.items()}
        execute_schedule(fl.schedule, [k1, k2], state)
        execute_schedule_planned(fl.schedule, [k1, k2], st2)
        assert np.allclose(state["z"], st2["z"], atol=1e-12)
