"""Schedulers and the fused-schedule type.

* :class:`FusedSchedule` / :func:`validate_schedule` — the schedule
  representation and the single correctness oracle,
* :func:`wavefront_schedule` — level-set baseline,
* :func:`lbc_schedule` — Load-Balanced Level Coarsening (ParSy),
* :func:`dagp_schedule` — DAGP-style acyclic partitioning,
* :func:`hdagg_schedule` — HDagg-style bottom-up aggregation,
* :func:`ico_schedule` — the paper's Iteration Composition and Ordering.
"""

from .cache import (
    KEY_SCHEMA,
    SETUP_TIER,
    ScheduleCache,
    get_default_cache,
    plan_key,
    schedule_key,
    set_default_cache,
    setup_cache,
    setup_key,
    solver_setup,
)
from .dagp import dagp_partition, dagp_schedule
from .hdagg import hdagg_schedule
from .ico import ico_schedule
from .serialize import (
    ScheduleFormatError,
    load_schedule,
    pattern_fingerprint,
    save_schedule,
)
from .lbc import lbc_schedule
from .schedule import (
    FusedSchedule,
    ScheduleError,
    concatenate_schedules,
    validate_schedule,
)
from .wavefront import wavefront_schedule

__all__ = [
    "FusedSchedule",
    "ScheduleError",
    "concatenate_schedules",
    "validate_schedule",
    "wavefront_schedule",
    "lbc_schedule",
    "dagp_schedule",
    "dagp_partition",
    "ico_schedule",
    "hdagg_schedule",
    "ScheduleFormatError",
    "load_schedule",
    "pattern_fingerprint",
    "save_schedule",
    "ScheduleCache",
    "KEY_SCHEMA",
    "schedule_key",
    "plan_key",
    "setup_key",
    "setup_cache",
    "solver_setup",
    "SETUP_TIER",
    "get_default_cache",
    "set_default_cache",
]
