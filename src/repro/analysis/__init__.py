"""Analysis layer: validation, figure metrics, and the Section 6.5 model."""

from .metrics import (
    ImbalanceStats,
    dd_work_overhead,
    load_imbalance,
    pd_critical_path_ratio,
    phase_breakdown,
    replication_stats,
    speedup,
    warm_baseline,
)
from .model import CostModel, MachineModel, Prediction, select_strategy
from .validate import (
    ComparisonReport,
    assert_equivalent,
    check_density,
    compare_volumes,
)

__all__ = [
    "ComparisonReport",
    "CostModel",
    "ImbalanceStats",
    "MachineModel",
    "Prediction",
    "assert_equivalent",
    "check_density",
    "compare_volumes",
    "dd_work_overhead",
    "load_imbalance",
    "pd_critical_path_ratio",
    "phase_breakdown",
    "replication_stats",
    "select_strategy",
    "speedup",
    "warm_baseline",
]
