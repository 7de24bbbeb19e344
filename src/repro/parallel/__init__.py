"""Parallel STKDE strategies (Sections 4-5) and their substrate.

Importing this package registers the parallel algorithms:
``pb-sym-dr``, ``pb-sym-dd``, ``pb-sym-pd``, ``pb-sym-pd-sched``,
``pb-sym-pd-rep``.
"""

from .color import block_task_graph
from .dd import pb_sym_dd
from .dr import pb_sym_dr
from .executors import (
    BACKENDS,
    ExecTask,
    MemoryBudgetExceeded,
    Phase,
    StrategySpec,
    check_memory_budget,
    run_phases,
    run_serial,
    run_strategy,
    run_threaded,
)
from .partition import BlockDecomposition, PointBinning
from .pd import pb_sym_pd, pb_sym_pd_sched
from .rep import pb_sym_pd_rep, plan_replication
from .schedule import (
    BandwidthModel,
    ScheduleResult,
    TaskGraph,
    barrier_schedule,
    critical_path,
    grahams_bound,
    list_schedule,
    saturated_makespan,
)

__all__ = [
    "BACKENDS",
    "BandwidthModel",
    "BlockDecomposition",
    "ExecTask",
    "MemoryBudgetExceeded",
    "Phase",
    "PointBinning",
    "ScheduleResult",
    "StrategySpec",
    "TaskGraph",
    "barrier_schedule",
    "block_task_graph",
    "check_memory_budget",
    "critical_path",
    "grahams_bound",
    "list_schedule",
    "pb_sym_dd",
    "pb_sym_dr",
    "pb_sym_pd",
    "pb_sym_pd_rep",
    "pb_sym_pd_sched",
    "plan_replication",
    "run_phases",
    "run_serial",
    "run_strategy",
    "run_threaded",
    "saturated_makespan",
]
