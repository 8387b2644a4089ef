"""Pattern-keyed inspection cache: schedules, compiled plans and solver
set-ups.

The paper's reuse contract is that "the fused schedule can be reused as
long as the sparsity patterns of A and L do not change". Everything the
inspector-executor derives before the first execution is a pure function
of patterns and parameters, so it can be memoized on a content
fingerprint of exactly those inputs. One :class:`ScheduleCache` holds
three entry kinds under one :data:`KEY_SCHEMA`:

* **Schedules** (:func:`schedule_key`). The key covers what the
  schedulers read: DAG ``indptr``/``indices``, InterDep rows, vertex
  weights, loop pairing and every scheduler parameter. A warm hit skips
  LBC window growing and the whole ICO pipeline;
  :func:`repro.fusion.fuse` consults the cache between the inspector's
  DAG construction and the scheduling stage.
* **Compiled plans** (:func:`plan_key`), stored by
  :func:`repro.runtime.plan.plan_for` as kernel-free records: per step its
  loop, phase ``s``, iterations and ``precompute_levels`` arrays, plus
  the plan's header counts (a row program's steps hold their iterations
  only, and the record adds the program's row arrays). A warm hit
  skips plan compile — the intra-DAG ``levels()`` passes, the joint-level
  pass, the step merge and every ``precompute_levels`` call. The key hashes the schedule's *own content*
  (loop counts, s/w sizes, vertex arrays) and every kernel's class,
  variable names and operand pattern. The schedule key is
  not enough: a plan reads kernel patterns the scheduling problem does
  not cover. ``F`` for SpMV→SpTRSV is diagonal whatever ``A`` is, so two
  different ``A`` patterns share a schedule key, but SpMV's gather
  indices come from ``A``. Hashing the schedule's content means an edited
  ``schedule.copy()`` never resolves to the original's plan.
* **Solver set-ups** (:func:`setup_key`), memory only: everything
  :func:`~repro.solvers.pcg_ic0` or :func:`~repro.solvers.gauss_seidel`
  derives from ``A``'s pattern before its first iteration (kernels,
  level schedules, unbound plans, and the index maps that gather ``A``'s
  current values into the solve's value arrays). The key is ``A``'s
  :func:`pattern_fingerprint` plus its shape, the solver and its
  pattern-shaping parameters, so a changed pattern (also one edited in
  place) misses. An entry holds no values a solve reads: each call
  gathers them from its own ``A`` and binds the plan anew. The solvers
  ask :func:`solver_setup`, which looks in the default cache when one is
  installed, and otherwise in :data:`SETUP_TIER`, a bounded memory-only
  cache owned by this module (:func:`setup_cache`);
  :func:`repro.fusion.fuse` never reads that tier.

Schedules and plans have two tiers:

* an in-memory LRU per entry kind, for repeated lookups in one process —
  e.g. the unrolled Gauss-Seidel chunks, which fuse the same pattern
  dozens of times per solve;
* an optional on-disk store (``directory=``), so inspection is paid once
  *across* processes. Schedules (``sched-<key>.bin``) and plans
  (``plan-<key>.bin``) are both stored in :mod:`repro.schedule.serialize`'s
  single-read array file (:func:`~repro.schedule.serialize.save_arrays`),
  so a disk hit is one read and no zip parsing. The key doubles as the
  stored fingerprint, so a stale or corrupted file fails closed (treated
  as a miss, recomputed and overwritten) instead of yielding a result for
  the wrong pattern. A plan record that loads must also pass
  :func:`repro.runtime.plan.plan_for`'s order check before it is used.

Anything outside the keys (matrix *values*, right-hand sides) never
influences a schedule, a plan or a solver set-up: every shipped
``precompute_levels`` builds index arrays from the pattern alone.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..sparse.base import INDEX_DTYPE
from .schedule import FusedSchedule
from .serialize import (
    ScheduleFormatError,
    load_arrays,
    load_schedule,
    pattern_fingerprint,
    save_arrays,
    save_schedule,
)

__all__ = [
    "ScheduleCache",
    "schedule_key",
    "plan_key",
    "setup_key",
    "setup_cache",
    "solver_setup",
    "get_default_cache",
    "set_default_cache",
    "KEY_SCHEMA",
    "PLAN_FORMAT",
    "SETUP_TIER",
]

#: Version of the key derivation itself. Bump whenever the *semantics*
#: behind a key change — what the schedulers read, how packing is
#: decided — so every on-disk entry written under the old scheme fails
#: closed to a cache miss instead of resurrecting a schedule built under
#: different rules. A new file layout needs no bump: a file that does not
#: parse as the current layout is already a miss. (Schema 2:
#: dynamic-sanitizer era; kernels declare commutative updates that the
#: inspector's access maps now expose.)
KEY_SCHEMA = 2

#: Version of the stored plan record: what :mod:`repro.runtime.plan`
#: writes per step and how ``compile_plan`` groups and orders steps. It
#: is hashed into every :func:`plan_key` and checked on load. (Format 2:
#: the linear-row kernels' level steps hold CSR row blocks, and their
#: compiled row sums round differently from format 1's ``reduceat``.
#: Format 3: steps no longer record a kind; a step of one iteration runs
#: scalar and holds no precomputation, every wider step is a level step.
#: Format 4: a plan whose loops are all linear-row kernels is a row
#: program by joint levels, recorded as its dispatches' steps with no
#: precomputation, its row arrays and a ``joint`` flag; the backward
#: solve pulls.)
PLAN_FORMAT = 4


def schedule_key(dags, inter, scheduler, r, reuse_ratio, params=None) -> str:
    """Content fingerprint of one scheduling problem.

    SHA-256 over the DAG and InterDep structure arrays (via
    :func:`pattern_fingerprint`), the per-vertex weights (same pattern
    with different costs partitions differently), the loop pairing, the
    full parameter set ``(scheduler, r, reuse_ratio, params)``, and the
    key-derivation version :data:`KEY_SCHEMA`.
    Floats are hashed via ``repr`` — bit-exact, no rounding surprises.
    """
    h = hashlib.sha256()
    ops = list(dags) + [inter[k] for k in sorted(inter)]
    h.update(pattern_fingerprint(*ops).encode())
    for d in dags:
        h.update(np.ascontiguousarray(d.weights, dtype=np.float64).tobytes())
    spec = {
        "schema": KEY_SCHEMA,
        "loops": [int(d.n) for d in dags],
        "pairs": sorted(inter),
        "scheduler": str(scheduler),
        "r": int(r),
        "reuse": repr(float(reuse_ratio)),
        "params": {k: repr(v) for k, v in sorted((params or {}).items())},
    }
    h.update(json.dumps(spec, sort_keys=True).encode())
    return h.hexdigest()


def plan_key(schedule: FusedSchedule, kernels) -> str | None:
    """Content fingerprint of one plan compilation, or ``None`` when a
    kernel has no sparse operand to fingerprint (such plans are not
    stored).

    SHA-256 over :data:`KEY_SCHEMA`, :data:`PLAN_FORMAT`, the schedule's
    loop counts, s/w sizes and vertex arrays, and per kernel its class,
    read/write variable names (they wire up ``F``) and the
    :func:`pattern_fingerprint` of its matrix (``kernel.a`` or
    ``kernel.low``), from which its intra-DAG and ``precompute_levels``
    arrays derive.
    """
    operands = [_operand(k) for k in kernels]
    if any(op is None for op in operands):
        return None
    h = hashlib.sha256()
    h.update(pattern_fingerprint(*operands).encode())
    parts = [v for wlist in schedule.s_partitions for v in wlist]
    h.update(np.array([v.shape[0] for v in parts], dtype=np.int64).tobytes())
    if parts:
        h.update(np.concatenate(parts).astype(INDEX_DTYPE, copy=False).tobytes())
    spec = {
        "schema": KEY_SCHEMA,
        "plan_format": PLAN_FORMAT,
        "loops": [int(n) for n in schedule.loop_counts],
        "widths": [len(wlist) for wlist in schedule.s_partitions],
        "kernels": [
            [
                f"{type(k).__module__}.{type(k).__qualname__}",
                list(k.read_vars),
                list(k.write_vars),
            ]
            for k in kernels
        ],
    }
    h.update(json.dumps(spec, sort_keys=True).encode())
    return h.hexdigest()


def setup_key(kind: str, a, **params) -> str:
    """Fingerprint of one solver set-up on matrix *a*.

    :func:`pattern_fingerprint` of *a*, prefixed by its shape, the solver
    *kind*, its pattern-shaping *params* (e.g. Gauss-Seidel's ``unroll``),
    :data:`KEY_SCHEMA` and :data:`PLAN_FORMAT`. Values are not hashed: a
    set-up depends on the pattern alone. The entry never leaves memory,
    so the key is a plain string rather than a digest of one.
    """
    spec = ",".join(f"{k}={v!r}" for k, v in sorted(params.items()))
    return (
        f"{kind}[{spec}]:{a.n_rows}x{a.n_cols}:{KEY_SCHEMA}.{PLAN_FORMAT}:"
        f"{pattern_fingerprint(a)}"
    )


def _operand(kernel):
    for attr in ("a", "low"):
        op = getattr(kernel, attr, None)
        if op is not None and hasattr(op, "indptr"):
            return op
    return None


class ScheduleCache:
    """LRU memo of schedules, plan records and solver set-ups, with an
    optional on-disk tier for the first two.

    ``get``/``put`` always copy (:meth:`FusedSchedule.copy`): callers
    mutate schedule ``meta`` (compiled execution plans, scheduler tags),
    and a cached entry must stay pristine. A disk hit keeps the schedule
    as loaded, its vertex arrays read-only views of the one file read,
    so the copy it returns is the only one. ``get_plan``/``put_plan`` hold
    plan records ``(header, arrays)``; loaded arrays are read-only.
    ``hits``/``misses``/``disk_hits`` count schedule lookups only; plan
    lookups count in ``plan_hits``/``plan_misses``/``plan_disk_hits``.
    ``get_setup`` holds solver set-ups in memory only, as they are (no
    copy: nothing mutates a set-up), counted in
    ``setup_hits``/``setup_misses``. *maxsize* bounds each entry kind.
    """

    def __init__(self, maxsize: int = 64, directory=None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: OrderedDict[str, FusedSchedule] = OrderedDict()
        self._plans: OrderedDict[str, tuple] = OrderedDict()
        self._setups: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_disk_hits = 0
        self.setup_hits = 0
        self.setup_misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"sched-{key}.bin"

    def _plan_path(self, key: str) -> Path:
        return self.directory / f"plan-{key}.bin"

    def get(self, key: str) -> FusedSchedule | None:
        """Cached schedule for *key*, or ``None`` (counted as a miss)."""
        sched = self._mem.get(key)
        if sched is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return sched.copy()
        if self.directory is not None:
            try:
                sched = load_schedule(self._path(key), expect_fingerprint=key)
            except (OSError, ScheduleFormatError):
                sched = None
            if sched is not None:
                self._remember(self._mem, key, sched)
                self.hits += 1
                self.disk_hits += 1
                return sched.copy()
        self.misses += 1
        return None

    def put(self, key: str, schedule: FusedSchedule) -> None:
        """Memoize *schedule* under *key* (and persist when on disk)."""
        self._remember(self._mem, key, schedule.copy())
        if self.directory is not None:
            save_schedule(self._path(key), schedule, fingerprint=key)

    def get_plan(self, key: str, bind: Callable[[tuple], Any]) -> Any:
        """``bind(record)`` for the plan record under *key*, or ``None``.

        *bind* turns a ``(header, arrays)`` record into a usable plan, or
        returns ``None`` when the record fails its checks; a rejected
        record is dropped from memory and the lookup counts as a miss,
        exactly like a missing, truncated or corrupted file.
        """
        record = self._plans.get(key)
        from_disk = record is None and self.directory is not None
        if from_disk:
            try:
                record = load_arrays(self._plan_path(key), expect_fingerprint=key)
            except (OSError, ScheduleFormatError):
                record = None
        plan = bind(record) if record is not None else None
        if plan is None:
            self._plans.pop(key, None)
            self.plan_misses += 1
            return None
        self._remember(self._plans, key, record)
        self.plan_hits += 1
        self.plan_disk_hits += from_disk
        return plan

    def put_plan(self, key: str, header: dict, arrays: list[np.ndarray]) -> None:
        """Memoize a plan record under *key* (and persist when on disk,
        replacing any entry there)."""
        self._remember(self._plans, key, (header, arrays))
        if self.directory is not None:
            save_arrays(self._plan_path(key), header, arrays, fingerprint=key)

    def get_setup(self, key: str, build: Callable[[], Any]) -> tuple[Any, bool]:
        """``(entry, hit)``: the solver set-up under *key*, or on a miss
        the one ``build()`` returns, memoized in memory only."""
        entry = self._setups.get(key)
        if entry is not None:
            self._setups.move_to_end(key)
            self.setup_hits += 1
            return entry, True
        self.setup_misses += 1
        entry = build()
        self._remember(self._setups, key, entry)
        return entry, False

    def _remember(self, mem: OrderedDict, key: str, entry) -> None:
        mem[key] = entry
        mem.move_to_end(key)
        while len(mem) > self.maxsize:
            mem.popitem(last=False)

    def clear(self) -> None:
        """Drop the in-memory tiers (on-disk files are left in place)."""
        self._mem.clear()
        self._plans.clear()
        self._setups.clear()

    def __len__(self) -> int:
        return len(self._mem)

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "entries": len(self._mem),
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_disk_hits": self.plan_disk_hits,
            "plan_entries": len(self._plans),
            "setup_hits": self.setup_hits,
            "setup_misses": self.setup_misses,
            "setup_entries": len(self._setups),
        }


_default_cache: ScheduleCache | None = None


def set_default_cache(cache: ScheduleCache | None) -> ScheduleCache | None:
    """Install the process-wide cache :func:`repro.fusion.fuse` consults
    when no explicit ``cache=`` is passed; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def get_default_cache() -> ScheduleCache | None:
    return _default_cache


#: Where the solvers keep their set-ups when no default cache is
#: installed: memory only, and small, since one entry holds a matrix's
#: kernels and plans.
SETUP_TIER = ScheduleCache(maxsize=8)


def setup_cache() -> ScheduleCache:
    """The cache solver set-ups live in: the default cache when one is
    installed (:func:`set_default_cache`), else :data:`SETUP_TIER`."""
    return _default_cache if _default_cache is not None else SETUP_TIER


def solver_setup(kind: str, a, build: Callable[[], Any], **params) -> tuple[Any, bool]:
    """``(entry, hit)``: the set-up of solver *kind* on *a*'s pattern
    from :func:`setup_cache`, built by ``build()`` on a miss."""
    return setup_cache().get_setup(setup_key(kind, a, **params), build)
