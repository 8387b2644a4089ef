"""Compiled plans persisted in the schedule cache.

A plan stored by one process is loaded by the next instead of compiled;
it executes bitwise-identically to a freshly compiled plan. Every damaged
or illegal entry fails closed: the lookup misses, the plan is compiled
again and the entry overwritten. The plan key covers what the plan reads
and the schedule key does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.fusion.fused import inspect_loops
from repro.kernels import SpMVCSR, SpTRSVCSR
from repro.obs import recording
from repro.runtime import allocate_state, compile_plan, execute_schedule_planned, plan_for
from repro.runtime.plan import PLAN_STORE_KEY
from repro.schedule import FusedSchedule, serialize
from repro.schedule import schedule as schedule_module
from repro.schedule.cache import ScheduleCache, plan_key, schedule_key
from repro.solvers import build_gs_chain
from repro.solvers.gauss_seidel import gs_split
from repro.sparse import CSRMatrix, apply_ordering, laplacian_2d, laplacian_3d

from .test_kernels_dataflow import all_kernels

REPO = Path(__file__).resolve().parent.parent
N_THREADS = 8
WORKLOADS = [f"combo{c}" for c in sorted(COMBINATIONS)] + ["gs-chain"]


def _matrix():
    a, _ = apply_ordering(laplacian_3d(6), "nd")
    return a


def _workload(name, a):
    """Fresh ``(kernels, state)`` for one workload, deterministic inputs."""
    if name != "gs-chain":
        combo = int(name.removeprefix("combo"))
        return build_combination(combo, a, seed=combo)
    kernels, x_in, _ = build_gs_chain(a, 2)
    low, e = gs_split(a)
    state = allocate_state(kernels)
    state["Lx"][:] = low.data
    state["Ex"][:] = e.data
    rng = np.random.default_rng(9)
    state["b"][:] = rng.random(a.n_rows)
    state[x_in][:] = rng.random(a.n_rows)
    return kernels, state


def _fuse_and_run(name, a, cache_dir, **plan_kwargs):
    """fuse + planned run with a fresh cache object on *cache_dir*."""
    kernels, state = _workload(name, a)
    cache = ScheduleCache(directory=cache_dir)
    fused = fuse(kernels, N_THREADS, cache=cache)
    execute_schedule_planned(fused.schedule, fused.kernels, state, **plan_kwargs)
    return fused, state, cache


def _compiled_run(name, a):
    """The same workload on a plan compiled outside any cache."""
    kernels, state = _workload(name, a)
    fused = fuse(kernels, N_THREADS)
    plan = compile_plan(fused.schedule, fused.kernels)
    execute_schedule_planned(fused.schedule, fused.kernels, state, plan=plan)
    return state


def _bitwise_equal(got, want):
    return set(got) == set(want) and all(
        np.array_equal(got[v], want[v]) for v in want
    )


def child_run(cache_dir, out):
    """Run every workload against *cache_dir* in this (fresh) process;
    write the states to *out* (``.npz``) and print the counters."""
    a = _matrix()
    states = {}
    plan_hits = 0
    with recording() as rec:
        for name in WORKLOADS:
            _, state, cache = _fuse_and_run(name, a, cache_dir)
            plan_hits += cache.stats["plan_disk_hits"]
            states.update({f"{name}/{v}": x for v, x in state.items()})
    np.savez(out, **states)
    print(json.dumps({"counters": rec.counters, "plan_disk_hits": plan_hits}))


# -- (a) a fresh process loads instead of compiling ------------------------
def test_fresh_process_loads_every_plan(tmp_path):
    a = _matrix()
    cache_dir = tmp_path / "cache"
    for name in WORKLOADS:
        _fuse_and_run(name, a, cache_dir)
    assert len(list(cache_dir.glob("plan-*.bin"))) == len(WORKLOADS)

    out = tmp_path / "states.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from tests.test_plan_store import child_run; "
            "child_run(sys.argv[1], sys.argv[2])",
            str(cache_dir),
            str(out),
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    counters = report["counters"]
    assert counters.get("plan.cache_misses", 0) == 0
    assert "plan.compile_seconds" not in counters
    assert counters["plan.store_hits"] == len(WORKLOADS)
    assert report["plan_disk_hits"] == len(WORKLOADS)

    with np.load(out) as got:
        for name in WORKLOADS:
            want = _compiled_run(name, a)
            for var, ref in want.items():
                assert np.array_equal(got[f"{name}/{var}"], ref), (name, var)


# -- (b) damaged or illegal entries recompile and overwrite ----------------
def _plan_file(cache_dir):
    (path,) = cache_dir.glob("plan-*.bin")
    return path


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x40
    path.write_bytes(bytes(data))


def _rewrite(path, edit):
    """Re-save the entry, checksum intact, with ``edit(header, arrays)``."""
    key = path.stem.removeprefix("plan-")
    header, arrays = serialize.load_arrays(path, expect_fingerprint=key)
    edit(header, arrays)
    serialize.save_arrays(path, header, list(arrays), fingerprint=key)


def _wrong_plan_format(path):
    _rewrite(path, lambda header, arrays: header.update(plan_format=-1))


def _wrong_container_version(path, monkeypatch):
    def edit(header, arrays):
        monkeypatch.setattr(serialize, "_ARRAYS_VERSION", serialize._ARRAYS_VERSION + 1)

    _rewrite(path, edit)
    monkeypatch.undo()


def _consumer_first(path):
    # combo 3 is SpTRSV -> SpMV: SpMV reads every x the solve writes, so
    # running an SpMV step first breaks F edges (its own DAG is empty)
    def edit(header, arrays):
        steps = header["steps"]
        (i,) = [i for i, step in enumerate(steps) if step[1] == 1][:1]
        steps.insert(0, steps.pop(i))

    _rewrite(path, edit)


def _reversed_steps(path):
    # every step moved, each keeping its phase: an illegal order whose
    # phases still describe the legal one
    _rewrite(path, lambda header, arrays: header["steps"].reverse())


def _reversed_phases(path):
    # the legal order, but phases that decrease along the step list
    def edit(header, arrays):
        steps = header["steps"]
        for step, s in zip(steps, [step[2] for step in steps][::-1]):
            step[2] = s

    _rewrite(path, edit)


@pytest.mark.parametrize("damage", ["reversed-steps", "reversed-phases"])
def test_plans_whose_phases_decrease_recompile(damage, tmp_path):
    a = laplacian_2d(12)
    _fuse_and_run("combo1", a, tmp_path, min_batch=1)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    (_reversed_steps if damage == "reversed-steps" else _reversed_phases)(path)
    assert path.read_bytes() != good

    with recording() as rec:
        fused, state, cache = _fuse_and_run("combo1", a, tmp_path, min_batch=1)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert path.read_bytes() == good  # overwritten with the compiled plan
    phases = [st.s for st in plan_for(fused.schedule, fused.kernels, min_batch=1).steps]
    assert phases == sorted(phases)


def _swapped_dependent_steps(path):
    # two consecutive steps of one loop (levels L and L + 1) trade their
    # kind, iterations and precomputation but keep their phases, so the
    # phases still never decrease: only the edge check sees that level
    # L + 1 now runs before the level it depends on
    def edit(header, arrays):
        steps = header["steps"]
        i = next(i for i in range(len(steps) - 1) if steps[i][1] == steps[i + 1][1])
        a, b = steps[i], steps[i + 1]
        a[0], b[0] = b[0], a[0]
        a[3:], b[3:] = b[3:], a[3:]

    _rewrite(path, edit)


def test_swapped_dependent_steps_recompile_on_one_edge_build(tmp_path, monkeypatch):
    # fuse(validate=True) and the plan store's order check (and the
    # recompile after its miss) share one build of the dependence edges
    a = laplacian_2d(12)
    _fuse_and_run("combo1", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    _swapped_dependent_steps(path)
    assert path.read_bytes() != good

    builds = []
    build = schedule_module.dependence_edge_sets
    for module in list(sys.modules.values()):
        if getattr(module, "dependence_edge_sets", None) is build:
            monkeypatch.setattr(
                module,
                "dependence_edge_sets",
                lambda *args: builds.append(1) or build(*args),
            )
    with recording() as rec:
        fused, state, cache = _fuse_and_run("combo1", a, tmp_path)
    assert len(builds) == 1
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert _bitwise_equal(state, _compiled_run("combo1", a))
    assert path.read_bytes() == good  # overwritten with the compiled plan

    builds.clear()
    with recording() as rec:
        _fuse_and_run("combo1", a, tmp_path)
    assert len(builds) == 1
    assert rec.counter("plan.store_hits") == 1
    assert rec.counter("plan.cache_misses") == 0


@pytest.mark.parametrize(
    "damage",
    ["truncated", "flipped-byte", "plan-format", "container-version", "f-order"],
)
def test_bad_entries_recompile_and_overwrite(damage, tmp_path, monkeypatch):
    a = _matrix()
    _fuse_and_run("combo3", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    if damage == "truncated":
        _truncate(path)
    elif damage == "flipped-byte":
        _flip_byte(path)
    elif damage == "plan-format":
        _wrong_plan_format(path)
    elif damage == "container-version":
        _wrong_container_version(path, monkeypatch)
    else:
        _consumer_first(path)
    assert path.read_bytes() != good

    with recording() as rec:
        _, state, cache = _fuse_and_run("combo3", a, tmp_path)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert _bitwise_equal(state, _compiled_run("combo3", a))
    assert path.read_bytes() == good  # overwritten with the compiled plan

    with recording() as rec:
        _, state, _ = _fuse_and_run("combo3", a, tmp_path)
    assert rec.counter("plan.store_hits") == 1
    assert rec.counter("plan.cache_misses") == 0
    assert _bitwise_equal(state, _compiled_run("combo3", a))


def test_array_file_round_trip_and_rejections(tmp_path):
    arrays = [np.arange(4), np.ones(3, dtype=bool)]
    path = serialize.save_arrays(tmp_path / "x.bin", {"k": 1}, arrays, fingerprint="f")
    header, got = serialize.load_arrays(path, expect_fingerprint="f")
    assert header == {"k": 1}
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, arrays))
    assert not got[0].flags.writeable
    with pytest.raises(serialize.ScheduleFormatError, match="fingerprint"):
        serialize.load_arrays(path, expect_fingerprint="g")
    with pytest.raises(TypeError):
        serialize.save_arrays(path, {}, [np.array([None])], fingerprint="f")


# -- (c) what the plan key covers ------------------------------------------
def _spmv_trsv(shift):
    """SpMV ``y = A x`` then ``L z = y``; ``A`` has one entry per row, in
    column ``(i + shift) % n``, so only its pattern differs by *shift*."""
    low = _matrix().lower_triangle()
    n = low.n_rows
    a = CSRMatrix(n, n, np.arange(n + 1), (np.arange(n) + shift) % n, np.ones(n))
    return [SpMVCSR(a, y_var="y"), SpTRSVCSR(low, b_var="y", x_var="z")]


def test_plan_key_covers_kernel_patterns_the_schedule_key_does_not():
    first, second = _spmv_trsv(0), _spmv_trsv(1)
    keys = []
    for kernels in (first, second):
        dags, inter, reuse = inspect_loops(kernels)
        keys.append(schedule_key(dags, inter, "ico", N_THREADS, reuse, {}))
    assert keys[0] == keys[1]  # F is diagonal either way
    sched = fuse(first, N_THREADS).schedule
    assert plan_key(sched, first, 4) != plan_key(sched, second, 4)
    # ... and the store keeps the two apart: no stale gather indices
    cache = ScheduleCache()
    for kernels in (first, second):
        fresh = sched.copy()
        fresh.meta[PLAN_STORE_KEY] = cache
        with recording() as rec:
            plan = plan_for(fresh, kernels)
        assert rec.counter("plan.store_misses") == 1
        spmv = [st for st in plan.steps if st.loop == 0 and st.kind == "level"]
        assert spmv
        for st in spmv:
            assert np.array_equal(st.precomp["cols"], kernels[0].a.indices[st.iters])


def test_mutated_copy_and_other_min_batch_miss(tmp_path):
    a = _matrix()
    fused, _, cache = _fuse_and_run("combo1", a, tmp_path)
    sched, kernels = fused.schedule, fused.kernels
    base = plan_key(sched, kernels, 4)
    assert plan_key(sched.copy(), kernels, 4) == base  # content, not identity
    assert plan_key(sched, kernels, 2) != base

    mutated = sched.copy()
    assert PLAN_STORE_KEY not in mutated.meta  # copy() unbinds the store
    w = next(w for wlist in mutated.s_partitions for w in wlist if w.shape[0] > 1)
    w[[0, 1]] = w[[1, 0]]
    assert plan_key(mutated, kernels, 4) != base
    mutated.meta[PLAN_STORE_KEY] = cache
    with recording() as rec:
        plan_for(mutated, kernels)
        plan_for(sched, kernels, min_batch=2)
        plan_for(sched, kernels)  # compiled by _fuse_and_run: memo hit
    assert rec.counter("plan.store_misses") == 2
    assert rec.counter("plan.cache_misses") == 2
    assert rec.counter("plan.cache_hits") == 1


def test_store_inactive_without_a_cache(lap3d_nd):
    kernels, _ = build_combination(1, lap3d_nd)
    fused = fuse(kernels, N_THREADS)
    assert PLAN_STORE_KEY not in fused.schedule.meta
    with recording() as rec:
        plan_for(fused.schedule, kernels)
    assert rec.counter("plan.store_misses") == 0
    assert rec.counter("plan.cache_misses") == 1


# -- (d) every shipped kernel's precomp round-trips ------------------------
def _trees_equal(x, y):
    if isinstance(x, np.ndarray):
        return (
            isinstance(y, np.ndarray)
            and x.dtype == y.dtype
            and np.array_equal(x, y)
        )
    if isinstance(x, dict):
        return (
            isinstance(y, dict)
            and list(x) == list(y)
            and all(_trees_equal(x[k], y[k]) for k in x)
        )
    if isinstance(x, list):
        return (
            isinstance(y, list)
            and len(x) == len(y)
            and all(_trees_equal(u, v) for u, v in zip(x, y))
        )
    return x is None and y is None


@pytest.mark.parametrize("index", range(11))
def test_every_kernel_precomp_round_trips(index, lap2d_nd, tmp_path):
    kernel = all_kernels(lap2d_nd)[index]
    n = kernel.n_iterations
    sched = FusedSchedule((n,), [[np.arange(n, dtype=np.int64)]])
    sched.meta[PLAN_STORE_KEY] = ScheduleCache(directory=tmp_path)
    compiled = plan_for(sched, [kernel], min_batch=1)
    assert compiled.n_level_steps > 0

    fresh = sched.copy()
    fresh.meta[PLAN_STORE_KEY] = ScheduleCache(directory=tmp_path)
    with recording() as rec:
        loaded = plan_for(fresh, [kernel], min_batch=1)
    assert rec.counter("plan.store_hits") == 1, type(kernel).__name__
    assert len(loaded.steps) == len(compiled.steps)
    for got, want in zip(loaded.steps, compiled.steps):
        assert (got.kind, got.loop, got.s) == (want.kind, want.loop, want.s)
        assert _trees_equal(got.iters, want.iters)
        assert _trees_equal(got.precomp, want.precomp), type(kernel).__name__
    for field in ("n_level_steps", "n_scalar_iterations", "n_batched_iterations"):
        assert getattr(loaded, field) == getattr(compiled, field)
