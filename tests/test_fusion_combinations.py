"""Integration tests: every Table 1 combination, every scheduler,
numerically identical to the unfused reference."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.kernels import internal_var
from repro.obs import sanitize_schedule
from repro.runtime import execute_schedule_planned

SCHEDULERS = ("ico", "joint-wavefront", "joint-lbc", "joint-dagp")


def output_vars(kernels):
    out = set()
    for k in kernels:
        out.update(v for v in k.write_vars if not internal_var(v))
    return out


def reference_of(kernels, state):
    ref = {v: a.copy() for v, a in state.items()}
    for k in kernels:
        k.run_reference(ref)
    return ref


@pytest.mark.parametrize("cid", sorted(COMBINATIONS))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_fused_execution_matches_reference(cid, scheduler, lap2d_nd):
    kernels, state = build_combination(cid, lap2d_nd, seed=cid)
    ref = reference_of(kernels, state)
    fl = fuse(kernels, 6, scheduler=scheduler)
    fl.execute(state)
    for var in output_vars(kernels):
        assert np.allclose(state[var], ref[var], atol=1e-9), (cid, scheduler, var)


@pytest.mark.parametrize("cid", sorted(COMBINATIONS))
def test_threaded_execution_matches_reference(cid, band_small):
    """Running the w-partitions of each s-partition on concurrent
    threads cannot race: the sanitizer finds every dependence ordered
    under both executor models' happens-before. The plan executor's
    result matches the reference."""
    kernels, state = build_combination(cid, band_small, seed=cid)
    ref = reference_of(kernels, state)
    fl = fuse(kernels, 4)
    for executor in ("iter", "plan"):
        rep = sanitize_schedule(fl.schedule, kernels, executor=executor)
        assert rep.clean, (cid, rep.summary())
    execute_schedule_planned(fl.schedule, kernels, state)
    for var in output_vars(kernels):
        assert np.allclose(state[var], ref[var], atol=1e-9), (cid, var)


@pytest.mark.parametrize("cid", sorted(COMBINATIONS))
def test_schedule_validates(cid, rand_spd_nd):
    kernels, _ = build_combination(cid, rand_spd_nd, seed=1)
    fl = fuse(kernels, 8)
    fl.validate()  # raises on violation


def test_fuse_rejects_single_loop(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    with pytest.raises(ValueError, match="at least two"):
        fuse(kernels[:1], 4)


def test_fuse_rejects_unknown_scheduler(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    with pytest.raises(ValueError, match="unknown scheduler"):
        fuse(kernels, 4, scheduler="magic")


def test_reuse_ratio_override_changes_packing(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    assert fuse(kernels, 4, reuse_ratio=0.1).schedule.packing == "separated"
    assert fuse(kernels, 4, reuse_ratio=1.9).schedule.packing == "interleaved"


def test_inspector_seconds_recorded(lap2d_nd):
    kernels, _ = build_combination(3, lap2d_nd)
    fl = fuse(kernels, 4)
    assert fl.inspector_seconds > 0


def test_simulate_returns_report(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    fl = fuse(kernels, 4)
    rep = fl.simulate()
    assert rep.seconds > 0
    assert rep.n_barriers == fl.schedule.n_spartitions
    assert fl.flop_count > 0


def test_state_allocation_covers_all_vars(lap2d_nd):
    kernels, _ = build_combination(4, lap2d_nd)
    fl = fuse(kernels, 4)
    st = fl.allocate_state()
    for k in kernels:
        for var, size in k.var_sizes().items():
            assert st[var].shape == (size,)


def test_conflicting_var_sizes_rejected(lap2d_nd, band_small):
    from repro.kernels import SpMVCSR
    from repro.runtime import allocate_state

    k1 = SpMVCSR(lap2d_nd, y_var="t")
    k2 = SpMVCSR(band_small, x_var="t")  # t sized n_rows vs n_cols mismatch
    with pytest.raises(ValueError, match="conflicting"):
        allocate_state([k1, k2])


def test_combination_metadata():
    assert len(COMBINATIONS) == 6
    for cid, combo in COMBINATIONS.items():
        assert combo.id == cid
        assert combo.dependence in ("CD-CD", "Par-CD", "CD-Par")
