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
    average_memory_latency,
    barrier_reduction,
    fusion_edge_growth,
    gflops,
    ner,
    potential_gain,
)
from .threaded import ThreadedExecutor
from .trace import export_chrome_trace, simulated_trace_events

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
    "ThreadedExecutor",
    "gflops",
    "potential_gain",
    "average_memory_latency",
    "ner",
    "fusion_edge_growth",
    "barrier_reduction",
    "ScheduleProfile",
    "profile_schedule",
    "format_profile",
    "export_chrome_trace",
    "simulated_trace_events",
]
