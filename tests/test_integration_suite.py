"""Heavy cross-cutting integration tests: the whole pipeline on the tiny
suite, scheduler determinism, and persistence of every scheduler's
output."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.kernels import internal_var
from repro.schedule import load_schedule, save_schedule
from repro.sparse import apply_ordering, benchmark_suite


@pytest.fixture(scope="module")
def tiny_suite():
    return [
        (m.name, apply_ordering(m.matrix, "nd")[0])
        for m in benchmark_suite("tiny")
    ]


def output_vars(kernels):
    out = set()
    for k in kernels:
        out.update(v for v in k.write_vars if not internal_var(v))
    return out


def test_every_combo_on_every_tiny_matrix(tiny_suite):
    """Full inspector + ICO + executor + reference, 6 combos x 5 matrices."""
    for name, a in tiny_suite:
        for cid in COMBINATIONS:
            kernels, state = build_combination(cid, a, seed=cid)
            fl = fuse(kernels, 4)  # validate=True checks the oracle
            ref = {v: arr.copy() for v, arr in state.items()}
            for k in kernels:
                k.run_reference(ref)
            fl.execute(state)
            for var in output_vars(kernels):
                assert np.allclose(state[var], ref[var], atol=1e-9), (
                    name,
                    cid,
                    var,
                )


def test_schedulers_deterministic(lap2d_nd):
    """Same inputs -> identical schedules (no hidden randomness)."""
    kernels, _ = build_combination(1, lap2d_nd)
    for scheduler in ("ico", "joint-lbc", "joint-dagp", "joint-hdagg"):
        a = fuse(kernels, 6, scheduler=scheduler, validate=False).schedule
        b = fuse(kernels, 6, scheduler=scheduler, validate=False).schedule
        assert a.n_spartitions == b.n_spartitions, scheduler
        for wa, wb in zip(a.s_partitions, b.s_partitions):
            assert len(wa) == len(wb)
            for va, vb in zip(wa, wb):
                assert np.array_equal(va, vb), scheduler


@pytest.mark.parametrize(
    "scheduler", ["ico", "joint-wavefront", "joint-lbc", "joint-dagp", "joint-hdagg"]
)
def test_every_scheduler_output_persists(tmp_path, scheduler, lap2d_nd):
    kernels, state = build_combination(3, lap2d_nd, seed=7)
    fl = fuse(kernels, 4, scheduler=scheduler)
    p = tmp_path / f"{scheduler}.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    st1 = {v: a.copy() for v, a in state.items()}
    st2 = {v: a.copy() for v, a in state.items()}
    from repro.runtime import execute_schedule

    execute_schedule(fl.schedule, kernels, st1)
    execute_schedule(back, kernels, st2)
    for var in st1:
        assert np.array_equal(st1[var], st2[var]), (scheduler, var)


def test_simulated_ordering_stable_across_runs(lap3d_nd):
    """The Fig. 5 comparison must be deterministic end to end."""
    from repro.baselines import compare_implementations
    from repro.runtime import MachineConfig

    kernels, _ = build_combination(4, lap3d_nd)
    cfg = MachineConfig(n_threads=8)
    r1 = compare_implementations(kernels, 8, cfg)
    r2 = compare_implementations(kernels, 8, cfg)
    for name in r1:
        assert r1[name].executor_seconds == r2[name].executor_seconds, name
