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


def _fuse_and_run(name, a, cache_dir):
    """fuse + planned run with a fresh cache object on *cache_dir*."""
    kernels, state = _workload(name, a)
    cache = ScheduleCache(directory=cache_dir)
    fused = fuse(kernels, N_THREADS, cache=cache)
    execute_schedule_planned(fused.schedule, fused.kernels, state)
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
        (i,) = [i for i, step in enumerate(steps) if step[0] == 1][:1]
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
        for step, s in zip(steps, [step[1] for step in steps][::-1]):
            step[1] = s

    _rewrite(path, edit)


@pytest.mark.parametrize("damage", ["reversed-steps", "reversed-phases"])
def test_plans_whose_phases_decrease_recompile(damage, tmp_path):
    a = laplacian_2d(12)
    _fuse_and_run("combo1", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    (_reversed_steps if damage == "reversed-steps" else _reversed_phases)(path)
    assert path.read_bytes() != good

    with recording() as rec:
        fused, state, cache = _fuse_and_run("combo1", a, tmp_path)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert path.read_bytes() == good  # overwritten with the compiled plan
    phases = [st.s for st in plan_for(fused.schedule, fused.kernels).steps]
    assert phases == sorted(phases)


def _swapped_dependent_steps(path):
    # two consecutive steps of one loop (levels L and L + 1) trade their
    # iterations and precomputation but keep their phases, so the phases
    # still never decrease: only the edge check sees that level L + 1 now
    # runs before the level it depends on
    def edit(header, arrays):
        steps = header["steps"]
        i = next(i for i in range(len(steps) - 1) if steps[i][0] == steps[i + 1][0])
        a, b = steps[i], steps[i + 1]
        a[2:], b[2:] = b[2:], a[2:]

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


def _format_2(header, arrays):
    # the layout before format 3: a kind before every step
    header["plan_format"] = 2
    for step in header["steps"]:
        step.insert(0, "scalar" if arrays[step[2]].shape[0] == 1 else "level")


def _precomputed_single_step(header, arrays):
    # a one-iteration step carrying the precomputation of a level step
    # of its loop
    steps = header["steps"]
    single = next(st for st in steps if arrays[st[2]].shape[0] == 1)
    single[3] = next(st[3] for st in steps if st[0] == single[0] and st[3])


def _level_step_without_precomp(header, arrays):
    next(st for st in header["steps"] if st[3] is not None)[3] = None


@pytest.mark.parametrize(
    "damage",
    [_format_2, _precomputed_single_step, _level_step_without_precomp],
    ids=["format-2", "precomputed-single-step", "bare-level-step"],
)
def test_records_breaking_the_step_rule_recompile(damage, tmp_path):
    # a record holds a precomputation for exactly its steps of two or
    # more iterations; the natural-order Laplacian's first and last
    # levels hold one row each, so combo 4 has one-iteration steps, and
    # neither of its kernels holds row blocks for _row_blocks_hold to see
    a = laplacian_2d(12)
    _fuse_and_run("combo4", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    _rewrite(path, damage)
    assert path.read_bytes() != good

    with recording() as rec:
        _, state, cache = _fuse_and_run("combo4", a, tmp_path)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert _bitwise_equal(state, _compiled_run("combo4", a))
    assert path.read_bytes() == good  # overwritten with the compiled plan


def _damage_row_block(damage, header, arrays):
    """Damage the largest row block of the record in one way the compiled
    product would not notice: it checks no bounds."""
    steps = [st for st in header["steps"] if st[3] is not None and "ptr" in st[3]]
    block = max((st[3] for st in steps), key=lambda b: arrays[b["cols"]].shape[0])
    ptr, cols = arrays[block["ptr"]], arrays[block["cols"]]
    assert ptr.shape[0] >= 3 and cols.shape[0] >= 2
    if damage == "col-past-x":
        cols[cols.shape[0] // 2] = 10**6
    elif damage == "negative-col":
        cols[0] = -1
    elif damage == "ptr-decreases":
        ptr[1] = ptr[2] + 1
    elif damage == "ptr-end":
        ptr[-1] += 1
    elif damage == "short-gather":
        arrays[block["gather"]] = arrays[block["gather"]][:-1]
    else:  # "int32-cols"
        arrays[block["cols"]] = cols.astype(np.int32)


def _checked_row_block_matvec(monkeypatch):
    """Make every row-block product (:func:`repro.kernels.base.run_rows`)
    assert the bounds the compiled routine leaves unchecked."""
    from repro.kernels import base

    product = base.row_block_matvec

    def checked(ptr, cols, vals, x, out):
        assert ptr[0] == 0 and ptr.shape[0] == out.shape[0] + 1
        assert np.all(np.diff(ptr) >= 0) and ptr[-1] == cols.shape[0]
        assert vals.shape[0] == cols.shape[0] and ptr.dtype == cols.dtype
        assert cols.shape[0] == 0 or 0 <= cols.min() <= cols.max() < x.shape[0]
        return product(ptr, cols, vals, x, out)

    monkeypatch.setattr(base, "row_block_matvec", checked)


@pytest.mark.parametrize(
    "damage",
    [
        "col-past-x",
        "negative-col",
        "ptr-decreases",
        "ptr-end",
        "short-gather",
        "int32-cols",
    ],
)
def test_out_of_bounds_row_blocks_recompile_unexecuted(damage, tmp_path, monkeypatch):
    # a record re-saved through put_plan, checksum and fingerprint intact,
    # whose row block would make the compiled product read stray memory;
    # combo 3's SpTRSV-CSR steps hold row blocks (a row program's record
    # holds none: the joint-record tests below damage those)
    a = _matrix()
    _fuse_and_run("combo3", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    key = path.stem.removeprefix("plan-")
    header, arrays = serialize.load_arrays(path, expect_fingerprint=key)
    arrays = [np.array(x) for x in arrays]
    _damage_row_block(damage, header, arrays)
    ScheduleCache(directory=tmp_path).put_plan(key, header, arrays)
    assert path.read_bytes() != good

    _checked_row_block_matvec(monkeypatch)
    with recording() as rec:
        _, state, cache = _fuse_and_run("combo3", a, tmp_path)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert _bitwise_equal(state, _compiled_run("combo3", a))
    assert path.read_bytes() == good  # overwritten with the compiled plan


def _merge_dispatches(header, arrays):
    # dispatches d and d + 1 become one, d + 1 being the first dispatch
    # that depends on d, with every later phase renumbered: the phases
    # stay 0, 1, 2, ... and only the edge check sees the joined rows
    steps = header["steps"]
    d = steps[0][1]
    for step in steps:
        if step[1] > d:
            step[1] -= 1


def _iteration_past_its_loop(header, arrays):
    step = header["steps"][-1]
    iters = np.array(arrays[step[2]])
    iters[-1] = 10**6
    arrays[step[2]] = iters


def _program_array(header, arrays, name):
    """The stored row program's array *name*, made writable in place."""
    index = header["rows"]["arrays"][("rhs", "ends", "cols", "gather", "diag", "out").index(name)]
    arrays[index] = np.array(arrays[index])
    return arrays[index]


def _column_past_buffer(header, arrays):
    cols = _program_array(header, arrays, "cols")
    cols[cols.shape[0] // 2] = 10**6


def _negative_coefficient(header, arrays):
    _program_array(header, arrays, "gather")[0] = -1


def _ends_decrease(header, arrays):
    ends = _program_array(header, arrays, "ends")
    ends[1] = ends[2] + 1


def _missing_vertex(header, arrays):
    step = next(st for st in header["steps"] if arrays[st[2]].shape[0] > 1)
    arrays[step[2]] = arrays[step[2]][:-1]


def _kernel_steps_record(header, arrays):
    # the steps of a row program claimed as kernel steps: level steps
    # without a precomputation
    header["joint"] = False


@pytest.mark.parametrize(
    "damage",
    [
        _merge_dispatches,
        _column_past_buffer,
        _negative_coefficient,
        _ends_decrease,
        _iteration_past_its_loop,
        _missing_vertex,
        _kernel_steps_record,
    ],
    ids=[
        "edge-inside-dispatch",
        "column-past-buffer",
        "negative-coefficient",
        "ends-decrease",
        "iteration-past-loop",
        "missing-vertex",
        "not-joint",
    ],
)
def test_damaged_joint_records_recompile_unexecuted(damage, tmp_path, monkeypatch):
    # the Gauss-Seidel chain compiles to a row program; its record holds
    # the dispatches' steps and the program's row arrays
    a = _matrix()
    _fuse_and_run("gs-chain", a, tmp_path)
    path = _plan_file(tmp_path)
    good = path.read_bytes()
    key = path.stem.removeprefix("plan-")
    header, arrays = serialize.load_arrays(path, expect_fingerprint=key)
    assert header["joint"] is True
    assert all(step[3] is None for step in header["steps"])
    arrays = list(arrays)
    damage(header, arrays)
    ScheduleCache(directory=tmp_path).put_plan(key, header, arrays)
    assert path.read_bytes() != good

    _checked_row_block_matvec(monkeypatch)
    with recording() as rec:
        _, state, cache = _fuse_and_run("gs-chain", a, tmp_path)
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
    assert cache.stats["plan_misses"] == 1 and cache.stats["plan_hits"] == 0
    assert _bitwise_equal(state, _compiled_run("gs-chain", a))
    assert path.read_bytes() == good  # overwritten with the compiled plan


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
    assert plan_key(sched, first) != plan_key(sched, second)
    # ... and the store keeps the two apart: no stale gather indices
    cache = ScheduleCache()
    for kernels in (first, second):
        fresh = sched.copy()
        fresh.meta[PLAN_STORE_KEY] = cache
        with recording() as rec:
            plan = plan_for(fresh, kernels)
        assert rec.counter("plan.store_misses") == 1
        # a row program: each dispatch's SpMV rows come first, one
        # column each, as offsets into the buffer's slice of x
        x_at = plan.rows.layout[kernels[0].x_var][0]
        n_checked = 0
        for d, (_, _, cols, _, _, _) in enumerate(plan.rows.steps):
            spmv = [st for st in plan.steps if st.s == d and st.loop == 0]
            for st in spmv:
                want = kernels[0].a.indices[st.iters] + x_at
                assert np.array_equal(cols[: st.iters.shape[0]], want)
                n_checked += st.iters.shape[0]
        assert n_checked == kernels[0].n_iterations


def test_mutated_copy_misses(tmp_path):
    a = _matrix()
    fused, _, cache = _fuse_and_run("combo1", a, tmp_path)
    sched, kernels = fused.schedule, fused.kernels
    base = plan_key(sched, kernels)
    assert plan_key(sched.copy(), kernels) == base  # content, not identity

    mutated = sched.copy()
    assert PLAN_STORE_KEY not in mutated.meta  # copy() unbinds the store
    w = next(w for wlist in mutated.s_partitions for w in wlist if w.shape[0] > 1)
    w[[0, 1]] = w[[1, 0]]
    assert plan_key(mutated, kernels) != base
    mutated.meta[PLAN_STORE_KEY] = cache
    with recording() as rec:
        plan_for(mutated, kernels)
        plan_for(sched, kernels)  # compiled by _fuse_and_run: memo hit
    assert rec.counter("plan.store_misses") == 1
    assert rec.counter("plan.cache_misses") == 1
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
    compiled = plan_for(sched, [kernel])
    assert compiled.n_level_steps > 0

    fresh = sched.copy()
    fresh.meta[PLAN_STORE_KEY] = ScheduleCache(directory=tmp_path)
    with recording() as rec:
        loaded = plan_for(fresh, [kernel])
    assert rec.counter("plan.store_hits") == 1, type(kernel).__name__
    assert len(loaded.steps) == len(compiled.steps)
    for got, want in zip(loaded.steps, compiled.steps):
        assert (got.loop, got.s) == (want.loop, want.s)
        assert _trees_equal(got.iters, want.iters)
        assert _trees_equal(got.precomp, want.precomp), type(kernel).__name__
    for field in ("n_level_steps", "n_scalar_iterations", "n_batched_iterations"):
        assert getattr(loaded, field) == getattr(compiled, field)
