"""Analysis metrics behind the paper's figures.

Pure functions computing the quantities the evaluation section plots:
runtime breakdowns (Figure 7), DD overhead (Figure 9), critical-path
ratios (Figure 12), speedups and load-imbalance statistics.  They operate
on :class:`~repro.algorithms.base.STKDEResult` objects or recompute
analytic variants from instance geometry, so benchmarks and notebooks can
use either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..algorithms.base import STKDEResult
from ..core.grid import GridSpec, PointSet
from ..core.stamping import batch_windows
from ..parallel.color import block_task_graph
from ..parallel.partition import BlockDecomposition
from ..parallel.schedule import critical_path

__all__ = [
    "phase_breakdown",
    "speedup",
    "warm_baseline",
    "dd_work_overhead",
    "pd_critical_path_ratio",
    "load_imbalance",
    "replication_stats",
]


def phase_breakdown(result: STKDEResult) -> Dict[str, float]:
    """Fraction of wall time per phase (Figure 7's stacked bars)."""
    total = result.timer.total
    if total <= 0:
        return {}
    return {k: v / total for k, v in result.timer.seconds.items()}


def speedup(baseline_seconds: float, result: STKDEResult) -> float:
    """Parallel speedup against a measured sequential baseline.

    Uses the result's parallel makespan (``meta["makespan"]``) when
    present — simulated results report virtual time there — otherwise the
    measured wall time.
    """
    t = result.meta.get("makespan", result.elapsed)
    if t <= 0:
        raise ValueError("result has no positive runtime")
    return baseline_seconds / t


_WARM_REPEATS = 5  # timed calls after the warm-up; the median is taken


def warm_baseline(run: Callable[[], STKDEResult]) -> Tuple[float, STKDEResult]:
    """The sequential baseline a :func:`speedup` divides by, timed warm.

    Calls ``run`` once and discards the result: a process's first call
    pays one-off costs (BLAS thread-pool start, the allocator's first page
    faults, lazy imports) that no timed strategy pays again.  Then calls
    it five more times and returns the median ``elapsed`` of those calls,
    with the last call's result for its phase breakdown (no earlier
    result, nor its volume, is kept).
    """
    run()
    seconds = []
    for _ in range(_WARM_REPEATS):
        result = run()
        seconds.append(result.elapsed)
    return float(np.median(seconds)), result


def dd_work_overhead(
    points: PointSet, grid: GridSpec, decomposition: Tuple[int, int, int]
) -> Dict[str, float]:
    """Analytic DD overhead for a decomposition (Figure 9's driver).

    Returns the point replication factor and the invariant-recomputation
    overhead: the ratio of per-subdomain invariant work (each replica
    re-tabulates its clipped disk and bar) to the unsplit invariant work.
    """
    A = min(decomposition[0], grid.Gx)
    B = min(decomposition[1], grid.Gy)
    C = min(decomposition[2], grid.Gt)
    dec = BlockDecomposition(grid, A, B, C)
    binning = dec.bin_points_replicated(points)
    disk_cells = bar_cells = 0
    for bid in binning.occupied():
        # The block's replicas, clipped to its window as DD stamps them.
        X0, X1, Y0, Y1, T0, T1 = batch_windows(
            grid, points.coords[binning.points_in(bid)],
            dec.block_window(*dec.block_coords(int(bid))),
        )
        disk_cells += int(((X1 - X0) * (Y1 - Y0)).sum())
        bar_cells += int((T1 - T0).sum())
    X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, points.coords)
    base_disk = int(((X1 - X0) * (Y1 - Y0)).sum())
    base_bar = int((T1 - T0).sum())
    return {
        "replication_factor": binning.replication_factor(points.n),
        "invariant_overhead": (disk_cells + bar_cells) / max(1, base_disk + base_bar),
        "occupied_blocks": float(len(binning.occupied())),
    }


def pd_critical_path_ratio(
    points: PointSet,
    grid: GridSpec,
    decomposition: Tuple[int, int, int],
    scheduler: str = "parity",
) -> float:
    """Analytic ``T_infty / T_1`` of the PD dependency DAG (Figure 12).

    Task weights are the per-block point counts — processing time is
    proportional to points (the paper's weighting).
    """
    dec = BlockDecomposition.adjusted_for_pd(grid, *decomposition)
    counts = dec.bin_points_owner(points).counts()
    loads = {int(b): float(counts[b]) for b in np.flatnonzero(counts)}
    graph, _ = block_task_graph(dec, loads, scheduler)
    if not loads:
        return 0.0
    tinf, _ = critical_path(graph)
    return tinf / graph.total_weight


@dataclass(frozen=True)
class ImbalanceStats:
    """Distribution statistics of per-task load."""

    max: float
    mean: float
    cv: float  # coefficient of variation

    @property
    def imbalance(self) -> float:
        """``max / mean`` — 1.0 is perfectly balanced."""
        return self.max / self.mean if self.mean > 0 else 1.0


def load_imbalance(loads: Sequence[float]) -> ImbalanceStats:
    """Imbalance statistics over per-task loads (ignores empty tasks)."""
    arr = np.asarray([l for l in loads if l > 0], dtype=np.float64)
    if arr.size == 0:
        return ImbalanceStats(0.0, 0.0, 0.0)
    return ImbalanceStats(
        float(arr.max()), float(arr.mean()),
        float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0,
    )


def replication_stats(result: STKDEResult) -> Dict[str, float]:
    """Summary of a PB-SYM-PD-REP run's replication decisions."""
    reps: Dict[int, int] = result.meta.get("replicas", {})
    if not reps:
        return {"blocks": 0.0, "replicated": 0.0, "max": 1.0, "mean": 1.0}
    vals = list(reps.values())
    return {
        "blocks": float(len(vals)),
        "replicated": float(sum(1 for r in vals if r > 1)),
        "max": float(max(vals)),
        "mean": float(sum(vals)) / len(vals),
    }
