"""Schedule persistence tests (save/load + pattern fingerprints)."""

import json
import zlib

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.schedule import (
    ScheduleFormatError,
    load_schedule,
    pattern_fingerprint,
    save_schedule,
    validate_schedule,
)


@pytest.fixture
def fused(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    return fuse(kernels, 6), kernels


def schedules_equal(a, b) -> bool:
    if a.loop_counts != b.loop_counts or a.n_spartitions != b.n_spartitions:
        return False
    for wa, wb in zip(a.s_partitions, b.s_partitions):
        if len(wa) != len(wb):
            return False
        for va, vb in zip(wa, wb):
            if not np.array_equal(va, vb):
                return False
    return True


def test_roundtrip(tmp_path, fused):
    fl, kernels = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    assert schedules_equal(fl.schedule, back)
    assert back.packing == fl.schedule.packing
    validate_schedule(back, fl.dags, fl.inter)


def test_meta_preserved(tmp_path, fused):
    fl, _ = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    assert back.meta["scheduler"] == "ico"


def test_fingerprint_accept_and_reject(tmp_path, lap2d_nd, band_small):
    kernels, _ = build_combination(1, lap2d_nd)
    fl = fuse(kernels, 4)
    fp = pattern_fingerprint(lap2d_nd.lower_triangle())
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule, fingerprint=fp)
    # same pattern -> accepted
    back = load_schedule(p, expect_fingerprint=fp)
    assert schedules_equal(fl.schedule, back)
    # different pattern -> rejected
    other = pattern_fingerprint(band_small.lower_triangle())
    with pytest.raises(ScheduleFormatError, match="pattern changed"):
        load_schedule(p, expect_fingerprint=other)


def test_fingerprint_ignores_values(lap2d_nd):
    a = lap2d_nd
    b = a.copy()
    b.data[:] *= 2.0
    assert pattern_fingerprint(a) == pattern_fingerprint(b)


def test_fingerprint_sensitive_to_structure(lap2d_nd, band_small):
    assert pattern_fingerprint(lap2d_nd) != pattern_fingerprint(band_small)


def test_fingerprint_accepts_dags(lap2d_nd):
    from repro.graph import DAG

    g = DAG.from_lower_triangular(lap2d_nd.lower_triangle())
    fp1 = pattern_fingerprint(g)
    fp2 = pattern_fingerprint(DAG.from_lower_triangular(lap2d_nd.lower_triangle()))
    assert fp1 == fp2


def test_empty_schedule_roundtrip(tmp_path):
    from repro.schedule import FusedSchedule

    empty = FusedSchedule((0,), [])
    p = tmp_path / "empty.npz"
    save_schedule(p, empty)
    back = load_schedule(p)
    assert back.loop_counts == (0,)
    assert back.n_spartitions == 0


def test_corrupt_file_rejected(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, nonsense=np.arange(3))
    with pytest.raises((ScheduleFormatError, KeyError)):
        load_schedule(p)


def test_execution_after_reload(tmp_path, fused, lap2d_nd):
    """A reloaded schedule must drive the executor identically."""
    fl, kernels = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    kernels2, state = build_combination(1, lap2d_nd, seed=9)
    st1 = {k: v.copy() for k, v in state.items()}
    st2 = {k: v.copy() for k, v in state.items()}
    from repro.runtime import execute_schedule

    execute_schedule(fl.schedule, kernels2, st1)
    execute_schedule(back, kernels2, st2)
    for var in st1:
        assert np.array_equal(st1[var], st2[var]), var


# -- the schedule cache's on-disk record fails closed ----------------------
def _stored(tmp_path, lap2d_nd):
    """Fuse combo 1 into a fresh disk cache; ``(fused, path, bytes)``."""
    from repro.schedule.cache import ScheduleCache

    kernels, _ = build_combination(1, lap2d_nd)
    fl = fuse(kernels, 6, cache=ScheduleCache(directory=tmp_path))
    assert fl.meta["cache"] == "miss"
    (path,) = tmp_path.glob("sched-*.bin")
    return fl, path, path.read_bytes()


def _refuse(tmp_path, lap2d_nd):
    """Fuse combo 1 again through a fresh cache object on *tmp_path*."""
    from repro.schedule.cache import ScheduleCache

    kernels, _ = build_combination(1, lap2d_nd)
    cache = ScheduleCache(directory=tmp_path)
    return fuse(kernels, 6, cache=cache), cache


def _edit_table(path, edit):
    """Re-write *path* with ``edit(meta)`` applied to its array-file head,
    checksum recomputed, so only the edit can make it fail."""
    from repro.schedule import serialize

    data = path.read_bytes()
    prefix = serialize._ARRAYS_PREFIX
    magic, head_len, _ = prefix.unpack_from(data)
    meta = json.loads(data[prefix.size : prefix.size + head_len])
    edit(meta)
    head = json.dumps(meta, separators=(",", ":")).encode()
    head += b" " * (-len(head) % 8)
    body = head + data[prefix.size + head_len :]
    path.write_bytes(prefix.pack(magic, len(head), zlib.crc32(body)) + body)


def _misalign(meta):
    entry = meta["arrays"][1]  # w_offsets, int64
    entry[1] += 4


@pytest.mark.parametrize(
    "damage",
    ["truncated", "flipped-byte", "fingerprint", "misaligned", "legacy-npz"],
)
def test_damaged_schedule_entry_recomputes_and_overwrites(damage, tmp_path, lap2d_nd):
    fl, path, good = _stored(tmp_path, lap2d_nd)
    if damage == "truncated":
        path.write_bytes(good[: len(good) // 2])
    elif damage == "flipped-byte":
        data = bytearray(good)
        data[-3] ^= 0x10
        path.write_bytes(bytes(data))
    elif damage == "fingerprint":
        save_schedule(path, fl.schedule, fingerprint="0" * 64)
    elif damage == "misaligned":
        _edit_table(path, _misalign)
    else:  # a schedule left by the zip-based store: never looked at
        legacy = path.with_suffix(".npz")
        np.savez_compressed(legacy, vertices=np.arange(3))
        path.unlink()
    assert not path.exists() or path.read_bytes() != good

    again, cache = _refuse(tmp_path, lap2d_nd)
    assert again.meta["cache"] == "miss" and cache.stats["disk_hits"] == 0
    assert schedules_equal(again.schedule, fl.schedule)
    assert path.read_bytes() == good  # recomputed and overwritten

    third, cache = _refuse(tmp_path, lap2d_nd)
    assert third.meta["cache"] == "hit" and cache.stats["disk_hits"] == 1


def test_misaligned_array_is_rejected(tmp_path):
    from repro.schedule import serialize

    path = serialize.save_arrays(
        tmp_path / "x.bin", {}, [np.arange(3), np.arange(4)], fingerprint="f"
    )
    _edit_table(path, _misalign)
    with pytest.raises(ScheduleFormatError, match="misaligned"):
        serialize.load_arrays(path, expect_fingerprint="f")


def test_reloaded_schedule_is_exact_and_read_only(tmp_path, fused):
    fl, _ = fused
    path = save_schedule(tmp_path / "sched.bin", fl.schedule, fingerprint="f")
    back = load_schedule(path, expect_fingerprint="f")
    assert schedules_equal(fl.schedule, back)
    assert back.loop_counts == fl.schedule.loop_counts
    pairs = [
        (w, v)
        for ws, vs in zip(fl.schedule.s_partitions, back.s_partitions)
        for w, v in zip(ws, vs)
    ]
    assert all(w.dtype == v.dtype for w, v in pairs)
    assert not any(v.flags.writeable for _, v in pairs)
    assert all(v.flags.writeable for wlist in back.copy().s_partitions for v in wlist)
    assert back.meta["fingerprint"] == "f"


def test_disk_hit_copies_the_vertex_arrays_once(tmp_path, lap2d_nd, monkeypatch):
    from repro.schedule import FusedSchedule

    _stored(tmp_path, lap2d_nd)
    copies = []
    original = FusedSchedule.copy
    monkeypatch.setattr(
        FusedSchedule, "copy", lambda self: copies.append(self) or original(self)
    )
    again, cache = _refuse(tmp_path, lap2d_nd)
    assert cache.stats["disk_hits"] == 1 and len(copies) == 1
    assert all(v.flags.writeable for wlist in again.schedule.s_partitions for v in wlist)


def test_loaded_plan_arrays_are_read_only(tmp_path, lap2d_nd):
    from repro.runtime import plan_for
    from repro.schedule.cache import ScheduleCache

    kernels, _ = build_combination(1, lap2d_nd)
    plan_for(fuse(kernels, 6, cache=ScheduleCache(directory=tmp_path)).schedule, kernels)
    kernels, _ = build_combination(1, lap2d_nd)
    cache = ScheduleCache(directory=tmp_path)
    plan = plan_for(fuse(kernels, 6, cache=cache).schedule, kernels)
    assert cache.stats["plan_disk_hits"] == 1
    leaves = [st.iters for st in plan.steps] + [
        x for st in plan.steps if isinstance(st.precomp, dict)
        for x in st.precomp.values() if isinstance(x, np.ndarray)
    ]
    assert leaves and not any(x.flags.writeable for x in leaves)
