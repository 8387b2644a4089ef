"""Runtime: executors, the simulated machine, the cache model, metrics."""

from .cache import CacheConfig, stack_distances
from .executor import allocate_state, execute_schedule, run_reference
from .machine import MachineConfig, MachineReport, SimulatedMachine
from .plan import (
    ExecutionPlan,
    PlanStep,
    compile_plan,
    execute_schedule_planned,
    plan_for,
)
from .profiling import ScheduleProfile, format_profile, profile_schedule
from .metrics import (
    barrier_reduction,
    fusion_edge_growth,
    gflops,
    ner,
    potential_gain,
)
from .trace import simulated_trace_events

__all__ = [
    "CacheConfig",
    "stack_distances",
    "allocate_state",
    "execute_schedule",
    "execute_schedule_planned",
    "ExecutionPlan",
    "PlanStep",
    "compile_plan",
    "plan_for",
    "run_reference",
    "MachineConfig",
    "MachineReport",
    "SimulatedMachine",
    "gflops",
    "potential_gain",
    "ner",
    "fusion_edge_growth",
    "barrier_reduction",
    "ScheduleProfile",
    "profile_schedule",
    "format_profile",
    "simulated_trace_events",
]
