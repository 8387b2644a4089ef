"""Schedule-cache keys are stable across changes to how maps are built.

The inspector's access maps feed ``F``, and ``F`` feeds the schedule
key. A refactor of the map builders that changed a single index, its
order or its dtype would silently orphan every on-disk cache entry.
The keys below were captured for Table 1 combinations 1-6 on the
nested-dissection ordered ``lap3d:6`` matrix (the ``lap3d_nd``
fixture) at the current ``KEY_SCHEMA``; they must only change together
with a deliberate ``KEY_SCHEMA`` bump.
"""

import pytest

from repro import build_combination, fuse
from repro.fusion.fused import inspect_loops
from repro.schedule.cache import KEY_SCHEMA, ScheduleCache, schedule_key

from .test_schedule_serialize import schedules_equal

N_THREADS = 8

PINNED_KEYS = {
    1: "2969cb41d6f4bfbbb0a1d414b3242c7d37c7b7058a1a29f73318ce99e6208f36",
    2: "7f8de10c6e1d69b8750d95249df8822c88d1906032f6ffb844c623ce845e5701",
    3: "00d46ed2ab16fb52e2ef7b27fc523bc643da3ea681416be90d800acdae763999",
    4: "1a4fa2cb677df700ec38bde11e0e74f74e6271c0d3fcf8ff4fd52bdde5cfe435",
    5: "33c80123ad7ffca5c3d242d9c943e219c72de295732f417129d06f2dd75d603e",
    6: "6e750062d0a8099bd116c52887313478580e2bcba7e8136c6266f4928d47c843",
}


def test_pinned_keys_belong_to_the_current_schema():
    assert KEY_SCHEMA == 2


@pytest.mark.parametrize("combo", sorted(PINNED_KEYS))
def test_schedule_key_unchanged(combo, lap3d_nd):
    kernels, _ = build_combination(combo, lap3d_nd)
    dags, inter, reuse = inspect_loops(kernels)
    key = schedule_key(dags, inter, "ico", N_THREADS, reuse, {})
    assert key == PINNED_KEYS[combo]


@pytest.mark.parametrize("combo", sorted(PINNED_KEYS))
def test_disk_cache_hits_from_a_fresh_cache(combo, lap3d_nd, tmp_path):
    kernels, _ = build_combination(combo, lap3d_nd)
    first = fuse(kernels, N_THREADS, cache=ScheduleCache(directory=tmp_path))
    assert first.meta["cache"] == "miss"
    # fuse persisted the schedule under exactly the pinned key
    assert (tmp_path / f"sched-{PINNED_KEYS[combo]}.bin").is_file()

    kernels, _ = build_combination(combo, lap3d_nd)  # no memoized maps
    fresh = ScheduleCache(directory=tmp_path)
    second = fuse(kernels, N_THREADS, cache=fresh)
    assert second.meta["cache"] == "hit" and fresh.disk_hits == 1
    assert schedules_equal(first.schedule, second.schedule)
