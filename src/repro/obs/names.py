"""Canonical dotted metric names — the one counter-name registry.

Every counter the pipeline emits is declared here once, as a module
constant plus a ``REGISTRY`` entry carrying its unit and meaning.
Emission sites import the constants instead of re-typing strings, so a
renamed metric is a one-file change and a typo is an ``AttributeError``
instead of a silently-forked counter. ``docs/observability.md``'s
counter table is generated from the same registry semantics (name,
unit, description).

Naming scheme: ``<subsystem>.<metric>`` where the subsystem matches the
span prefix of the emitting stage (``inspector.*``, ``ico.*``,
``lbc.*``, ``plan.*``, ``executor.*``, ``cache.*``, ``gs.*``, ``solver.*``).
Simulated-machine attribution counters use the ``executor.sim_*``
prefix to mark that they are model cycles, not wall clock.
"""

from __future__ import annotations

__all__ = ["REGISTRY", "all_names", "describe"]

# -- inspector ---------------------------------------------------------
INSPECTOR_SECONDS = "inspector.seconds"
INSPECTOR_CACHE_HITS = "inspector.cache_hits"
INSPECTOR_CACHE_MISSES = "inspector.cache_misses"
INSPECTOR_VERTICES = "inspector.vertices"
INSPECTOR_INTRA_EDGES = "inspector.intra_edges"
INSPECTOR_INTER_EDGES = "inspector.inter_edges"
INSPECTOR_JOIN_EDGES = "inspector.join_edges"
INSPECTOR_SHARED_DAG_ANALYSES = "inspector.shared_dag_analyses"

# -- schedulers --------------------------------------------------------
ICO_VERTICES = "ico.vertices"
ICO_MERGED_SPARTITIONS = "ico.merged_spartitions"
ICO_SPARTITIONS = "ico.spartitions"
ICO_PREAMBLE_VERTICES = "ico.preamble_vertices"
ICO_SLACK_POOLED = "ico.slack_pooled"
LBC_LEVELS = "lbc.levels"
LBC_SPARTITIONS = "lbc.spartitions"

# -- compiled plans ----------------------------------------------------
PLAN_COMPILE_SECONDS = "plan.compile_seconds"
PLAN_LEVEL_STEPS = "plan.level_steps"
PLAN_CACHE_HITS = "plan.cache_hits"
PLAN_CACHE_MISSES = "plan.cache_misses"
PLAN_STORE_HITS = "plan.store_hits"
PLAN_STORE_MISSES = "plan.store_misses"
PLAN_STEPS_MERGED = "plan.steps_merged"
PLAN_BOUND_STEPS = "plan.bound_steps"

# -- executors (wall clock) -------------------------------------------
EXECUTOR_ITERATIONS = "executor.iterations"
EXECUTOR_BATCHED_ITERATIONS = "executor.batched_iterations"
EXECUTOR_SCALAR_ITERATIONS = "executor.scalar_iterations"
EXECUTOR_LEVEL_COUNT = "executor.level_count"

# -- simulated machine attribution (model cycles, not wall clock) -----
EXECUTOR_SIM_COMPUTE_CYCLES = "executor.sim_compute_cycles"
EXECUTOR_SIM_MEMORY_CYCLES = "executor.sim_memory_cycles"
EXECUTOR_SIM_WAIT_CYCLES = "executor.sim_wait_cycles"
EXECUTOR_SIM_BARRIER_CYCLES = "executor.sim_barrier_cycles"
EXECUTOR_SIM_MAKESPAN_CYCLES = "executor.sim_makespan_cycles"

# -- cache simulator ---------------------------------------------------
CACHE_ACCESSES = "cache.accesses"
CACHE_L1_HITS = "cache.l1_hits"
CACHE_LLC_HITS = "cache.llc_hits"
CACHE_MISSES = "cache.misses"

# -- dynamic dependence sanitizer --------------------------------------
SANITIZE_ACCESSES = "sanitize.accesses"
SANITIZE_PAIRS = "sanitize.pairs"
SANITIZE_VIOLATIONS = "sanitize.violations"
SANITIZE_SECONDS = "sanitize.seconds"

# -- measured-locality profiler ----------------------------------------
LOCALITY_ACCESSES = "locality.accesses"
LOCALITY_DISTINCT_LINES = "locality.distinct_lines"
LOCALITY_MEASURED_REUSE = "locality.measured_reuse"
LOCALITY_ESTIMATED_REUSE = "locality.estimated_reuse"
LOCALITY_MEAN_REUSE_DISTANCE = "locality.mean_reuse_distance"
LOCALITY_HIT_RATE = "locality.hit_rate"
LOCALITY_COUNTERFACTUAL_HIT_RATE = "locality.counterfactual_hit_rate"
LOCALITY_PACKING_GAP = "locality.packing_gap"
LOCALITY_FALSE_SHARED_LINES = "locality.false_shared_lines"
LOCALITY_SECONDS = "locality.seconds"

# -- solvers -----------------------------------------------------------
GS_CHUNKS = "gs.chunks"
SOLVER_SETUP_HITS = "solver.setup_hits"
SOLVER_SETUP_MISSES = "solver.setup_misses"

#: name -> (unit, description). The unit is what a consumer may sum or
#: average; "1" marks dimensionless counts.
REGISTRY: dict[str, tuple[str, str]] = {
    INSPECTOR_SECONDS: ("s", "wall-clock inspection cost (Fig. 7 numerator)"),
    INSPECTOR_CACHE_HITS: ("1", "pattern-keyed schedule-cache hits"),
    INSPECTOR_CACHE_MISSES: ("1", "pattern-keyed schedule-cache misses"),
    INSPECTOR_VERTICES: ("1", "iterations across all fused loops"),
    INSPECTOR_INTRA_EDGES: ("1", "intra-DAG dependence edges"),
    INSPECTOR_INTER_EDGES: ("1", "inter-kernel (F-matrix) edges"),
    INSPECTOR_JOIN_EDGES: ("1", "edges produced by one inter-DAG join"),
    INSPECTOR_SHARED_DAG_ANALYSES: (
        "1",
        "loops whose intra-DAG analyses an earlier same-pattern loop's DAG computes",
    ),
    ICO_VERTICES: ("1", "vertices entering ICO"),
    ICO_MERGED_SPARTITIONS: ("1", "s-partitions removed by ICO merging"),
    ICO_SPARTITIONS: ("1", "s-partitions in the final ICO schedule"),
    ICO_PREAMBLE_VERTICES: ("1", "vertices forced into the ICO preamble"),
    ICO_SLACK_POOLED: ("1", "vertices moved by slack re-balancing"),
    LBC_LEVELS: ("1", "wavefront levels seen by LBC"),
    LBC_SPARTITIONS: ("1", "s-partitions produced by LBC"),
    PLAN_COMPILE_SECONDS: ("s", "wall-clock spent compiling execution plans"),
    PLAN_LEVEL_STEPS: ("1", "level-batched steps in compiled plans"),
    PLAN_CACHE_HITS: ("1", "memoized-plan hits on schedule.meta"),
    PLAN_CACHE_MISSES: ("1", "plan compilations (cache misses)"),
    PLAN_STORE_HITS: ("1", "plans loaded from the schedule cache's plan store"),
    PLAN_STORE_MISSES: ("1", "plan-store lookups that fell through to compile"),
    PLAN_STEPS_MERGED: (
        "1",
        "(s-partition, loop, level) groups folded into a step of another "
        "(joint levels in a row program)",
    ),
    PLAN_BOUND_STEPS: (
        "1",
        "level steps (row-program dispatches) given their read-only operand "
        "values by ExecutionPlan.bind",
    ),
    EXECUTOR_ITERATIONS: ("1", "iterations executed (any executor)"),
    EXECUTOR_BATCHED_ITERATIONS: ("1", "iterations run by plan level steps"),
    EXECUTOR_SCALAR_ITERATIONS: ("1", "iterations run by one-iteration plan steps"),
    EXECUTOR_LEVEL_COUNT: ("1", "level steps executed by the plan executor"),
    EXECUTOR_SIM_COMPUTE_CYCLES: ("cycles", "simulated compute (ALU) cycles"),
    EXECUTOR_SIM_MEMORY_CYCLES: ("cycles", "simulated memory-stall cycles"),
    EXECUTOR_SIM_WAIT_CYCLES: ("cycles", "simulated idle-at-barrier cycles"),
    EXECUTOR_SIM_BARRIER_CYCLES: ("cycles", "simulated barrier-cost cycles"),
    EXECUTOR_SIM_MAKESPAN_CYCLES: ("cycles", "simulated makespan (critical path)"),
    CACHE_ACCESSES: ("1", "element accesses priced by the LRU cache model"),
    CACHE_L1_HITS: ("1", "simulated L1 hits"),
    CACHE_LLC_HITS: ("1", "simulated LLC hits"),
    CACHE_MISSES: ("1", "simulated DRAM accesses"),
    SANITIZE_ACCESSES: ("1", "element accesses replayed by the sanitizer"),
    SANITIZE_PAIRS: ("1", "conflicting access pairs checked for ordering"),
    SANITIZE_VIOLATIONS: ("1", "dependence violations found by the sanitizer"),
    SANITIZE_SECONDS: ("s", "wall-clock spent in the dependence sanitizer"),
    LOCALITY_ACCESSES: ("1", "cache-line accesses in the machine's per-thread replay"),
    LOCALITY_DISTINCT_LINES: ("lines", "distinct cache lines touched"),
    LOCALITY_MEASURED_REUSE: ("ratio", "reuse ratio measured from the access stream"),
    LOCALITY_ESTIMATED_REUSE: ("ratio", "inspector's size-estimated reuse ratio"),
    LOCALITY_MEAN_REUSE_DISTANCE: ("lines", "mean L1 stack distance of reused lines"),
    LOCALITY_HIT_RATE: ("ratio", "L1 hit rate of the chosen packing"),
    LOCALITY_COUNTERFACTUAL_HIT_RATE: ("ratio", "L1 hit rate of the other packing"),
    LOCALITY_PACKING_GAP: ("ratio", "chosen-minus-counterfactual hit-rate gap"),
    LOCALITY_FALSE_SHARED_LINES: ("lines", "lines written by >=2 w-partitions in one s-partition"),
    LOCALITY_SECONDS: ("s", "wall-clock spent in the locality profiler"),
    GS_CHUNKS: ("1", "fused Gauss-Seidel chunks scheduled"),
    SOLVER_SETUP_HITS: ("1", "solver calls that reused their pattern's cached set-up"),
    SOLVER_SETUP_MISSES: ("1", "solver calls that built their pattern's set-up"),
}


def all_names() -> tuple[str, ...]:
    """Every registered metric name, sorted."""
    return tuple(sorted(REGISTRY))


def describe(name: str) -> str:
    """Human description of *name* (empty string when unregistered)."""
    return REGISTRY.get(name, ("", ""))[1]
