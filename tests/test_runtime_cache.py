"""Cache-model unit tests: stack distances, the line-aligned address
layout, two-level pricing, and exactness of cache-fidelity simulation
against the per-access oracle replay in :mod:`tests.cache_oracle`."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fuse
from repro.analytics import profile_locality
from repro.fusion import build_combination
from repro.runtime import CacheConfig, MachineConfig, SimulatedMachine, stack_distances
from repro.runtime.cache import DRAM, L1, LLC, cache_levels, line_layout

from .cache_oracle import OracleThreadCache

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def lru_hits(keys, capacity):
    """Per-access hit verdicts of a *capacity*-line LRU over *keys*."""
    d = stack_distances(np.asarray(keys, dtype=np.int64))
    return (d >= 0) & (d < capacity)


def brute_distances(keys):
    out, last = [], {}
    for t, k in enumerate(keys):
        out.append(len(set(keys[last[k] + 1 : t])) if k in last else -1)
        last[k] = t
    return out


class TestStackDistances:
    def test_known_stream(self):
        d = stack_distances(np.array([5, 7, 5, 5, 9, 7, 5]))
        assert d.tolist() == [-1, -1, 1, 0, -1, 2, 2]

    def test_empty_and_single(self):
        assert stack_distances(np.array([], dtype=np.int64)).shape == (0,)
        assert stack_distances(np.array([3])).tolist() == [-1]
        assert stack_distances(np.array([3, 3, 3])).tolist() == [-1, 0, 0]

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=300))
    def test_matches_brute_force(self, keys):
        assert stack_distances(np.array(keys, dtype=np.int64)).tolist() == (
            brute_distances(keys)
        )


class TestLRU:
    def test_hit_after_insert(self):
        assert lru_hits([1, 1], 4).tolist() == [False, True]

    def test_eviction_order(self):
        # 3 evicts 1; re-touching 1 misses (and evicts 2), so 2 misses too
        assert not lru_hits([1, 2, 3, 1, 2], 2).any()

    def test_touch_refreshes_recency(self):
        hits = lru_hits([1, 2, 1, 3, 1, 2], 2)  # 1 MRU, so 3 evicts 2
        assert hits[4] and not hits[5]

    def test_clear(self):
        # separate streams start cold: the same line misses in each
        levels, _ = cache_levels(
            np.array([1, 1]), np.array([0, 1]), np.array([0, 1]), CacheConfig()
        )
        assert levels.tolist() == [DRAM, DRAM]


class TestAddressSpace:
    def test_disjoint_bases(self):
        bases = line_layout({"y": 50, "x": 100}, 8)
        assert bases == {"x": 0, "y": 13}  # name order, line-aligned
        assert bases["x"] + 99 // 8 < bases["y"]  # no shared line


class TestThreadCache:
    """One thread's L1 + LLC slice; each argument of ``price`` is one
    coalescing load of element indices at base 0."""

    def config(self, **kw):
        base = dict(
            line_elems=8, l1_lines=2, llc_lines=8, lat_l1=1.0, lat_llc=10.0, lat_mem=100.0
        )
        base.update(kw)
        return CacheConfig(**base)

    def levels(self, cfg, *loads):
        lines = np.concatenate([np.asarray(ld) // cfg.line_elems for ld in loads])
        calls = np.repeat(np.arange(len(loads)), [len(ld) for ld in loads])
        return cache_levels(lines, np.zeros_like(lines), calls, cfg)[0], calls

    def price(self, cfg, *loads):
        """Cycles of each load."""
        levels, calls = self.levels(cfg, *loads)
        return np.bincount(calls, weights=cfg.latencies[levels]).tolist()

    def test_cold_miss_costs_memory_latency(self):
        assert self.price(self.config(), [0]) == [100.0]

    def test_same_line_hits(self):
        # same 8-wide line
        assert self.price(self.config(), [0], [1, 2, 3])[-1] == 3.0

    def test_unit_stride_is_cheap(self):
        """Streaming 64 elements touches 8 lines: 8 misses + 56 L1 hits."""
        assert self.price(self.config(), np.arange(64)) == [8 * 100.0 + 56 * 1.0]

    def test_random_stride_is_expensive(self):
        # one element per line
        assert self.price(self.config(), np.arange(0, 64 * 8, 8)) == [64 * 100.0]

    def test_llc_backstop(self):
        cfg = self.config(l1_lines=1, llc_lines=64)
        # line 0 -> L1+LLC; line 1 evicts line 0 from L1; line 0 hits LLC
        assert self.price(cfg, [0], [8], [0])[-1] == 10.0

    def test_stats_accounting(self):
        levels, _ = self.levels(self.config(), np.arange(16))
        counts = np.bincount(levels, minlength=3)
        assert counts.sum() == 16
        assert counts.tolist() == [14, 0, 2]

    def test_temporal_reuse_rewarded(self):
        """Re-reading recently touched data is cheaper than new data —
        the effect interleaved packing exploits."""
        a, b = self.price(self.config(l1_lines=64), np.arange(32), np.arange(32))
        assert b < a

    def test_coalescing_needs_no_capacity(self):
        # a repeat inside one load is an L1 hit even with no L1 at all,
        # and it never reaches the LLC
        cfg = self.config(l1_lines=0, llc_lines=1)
        levels, _ = self.levels(cfg, [0, 1], [2])
        assert levels.tolist() == [DRAM, L1, LLC]


# ----------------------------------------------------------------------
# simulate(fidelity="cache") against the per-access oracle walk
# ----------------------------------------------------------------------
def oracle_memory(schedule, kernels, cfg):
    """Walk *schedule* iteration by iteration through per-thread oracle
    caches (``reads_of`` then ``writes_of`` per variable, as a thread
    executes). Returns ``(hit_cycles, miss_cycles, stats, n_cold)``,
    ``n_cold`` being the distinct (thread, line) pairs touched."""
    cc = cfg.cache
    sizes = {}
    for k in kernels:
        for var, size in k.var_sizes().items():
            sizes[var] = max(size, sizes.get(var, 0))
    bases = line_layout(sizes, cc.line_elems)
    caches = [OracleThreadCache(cc) for _ in range(cfg.n_threads)]
    seen = [set() for _ in range(cfg.n_threads)]
    lat = cc.latencies
    hit = np.zeros((schedule.n_spartitions, cfg.n_threads))
    miss = np.zeros_like(hit)
    counts = np.zeros(3)
    for s, wlist in enumerate(schedule.s_partitions):
        for w, verts in enumerate(wlist):
            th = w % cfg.n_threads
            for v in verts.tolist():
                k = int(np.searchsorted(schedule.offsets, v, side="right")) - 1
                kern, i = kernels[k], v - int(schedule.offsets[k])
                loads = [(var, kern.reads_of(var, i)) for var in kern.read_vars]
                loads += [(var, kern.writes_of(var, i)) for var in kern.write_vars]
                for var, idx in loads:
                    lines = (bases[var] + idx // cc.line_elems).tolist()
                    seen[th].update(lines)
                    for level in caches[th].load(lines):
                        counts[level] += 1
                        table = miss if level == DRAM else hit
                        table[s, th] += lat[level]
    stats = {
        "accesses": counts.sum(),
        "l1_hits": counts[L1],
        "llc_hits": counts[LLC],
        "misses": counts[DRAM],
        "cycles": float(counts @ lat),
    }
    return hit, miss, stats, sum(len(x) for x in seen)


# latencies are dyadic so that every sum is exact in float64
TINY = dict(l1_lines=4, llc_lines=12, lat_l1=0.5, lat_llc=13.25, lat_mem=70.75)


@pytest.fixture(scope="module")
def fused_combos(lap2d_nd):
    out = {}
    for cid in (1, 3, 4, 5):
        kernels, _ = build_combination(cid, lap2d_nd, seed=cid)
        out[cid] = (fuse(kernels, 8).schedule, kernels)
    return out


@pytest.mark.parametrize("cache", ["default", "tiny"])
@pytest.mark.parametrize("n_threads", [1, 3, 8])
@pytest.mark.parametrize("cid", [1, 3, 4, 5])
def test_simulate_cache_matches_oracle(fused_combos, cid, n_threads, cache):
    """Exact equality on an 8-thread schedule, with thread wrap-around
    for 1 and 3 threads and LLC evictions under the tiny hierarchy."""
    schedule, kernels = fused_combos[cid]
    cc = CacheConfig(**TINY) if cache == "tiny" else CacheConfig()
    cfg = MachineConfig(n_threads, cache=cc)
    rep = SimulatedMachine(cfg).simulate(schedule, kernels, fidelity="cache")
    hit, miss, stats, n_cold = oracle_memory(schedule, kernels, cfg)
    assert np.array_equal(rep.memory_hit_cycles, hit)
    assert np.array_equal(rep.memory_miss_cycles, miss)
    assert rep.cache_stats == stats
    if cache == "tiny":
        assert stats["misses"] > n_cold  # capacity misses: the LLC evicted
        assert stats["llc_hits"] > 0


@pytest.mark.parametrize("cid", [1, 3, 4, 6])
def test_machine_and_profiler_share_one_layout(band_small, cid):
    """With variable sizes off the line grid, the machine's stream
    touches exactly the profiler's distinct lines: on one thread with an
    LLC larger than the footprint, every DRAM access is a first touch.
    The profiler's access count and L1 hits are the machine's, and its
    tables are bincounts of the machine's replay."""
    kernels, _ = build_combination(cid, band_small, seed=cid)
    assert any(n % 8 for k in kernels for n in k.var_sizes().values())
    schedule = fuse(kernels, 4).schedule
    cfg = MachineConfig(1, cache=CacheConfig(l1_lines=16, llc_lines=1 << 30))
    rep = SimulatedMachine(cfg).simulate(schedule, kernels, fidelity="cache")
    loc = profile_locality(
        schedule, kernels, cfg, counterfactual=False, estimated_reuse=0.0
    )
    stats = rep.cache_stats
    assert stats["misses"] == loc.distinct_lines
    assert loc.n_accesses == stats["accesses"]
    assert round(loc.hit_rate * loc.n_accesses) == stats["l1_hits"]
    rp = rep.replay
    sp = schedule.assignment()[0][rp.gid]
    hits = np.bincount(sp[rp.level == L1], minlength=schedule.n_spartitions)
    assert [s.n_accesses for s in loc.s_partitions] == np.bincount(
        sp, minlength=schedule.n_spartitions
    ).tolist()
    assert [round(s.hit_rate * s.n_accesses) for s in loc.s_partitions] == (
        hits.tolist()
    )
