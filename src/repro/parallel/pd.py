"""PB-SYM-PD and PB-SYM-PD-SCHED: point decomposition (Section 5).

PD achieves work-efficient parallelism: each point is stamped exactly once
(full, unclipped cylinder) into the *shared* volume, and safety comes from
scheduling — two subdomains may run concurrently only if no pair of their
points' cylinders can overlap, i.e. only if the blocks are not neighbours
in the 27-point stencil (blocks being at least twice the bandwidth wide,
Figure 5).

Two schedulers:

* ``scheduler="parity"`` (**PB-SYM-PD**, Algorithm 6): the fixed 8-colour
  ``(a%2, b%2, c%2)`` classes executed one after another with barriers —
  eight OpenMP parallel-for constructs.  Over-constrained: a heavy block
  serialises its whole colour class (Figure 11's plateaus).

* ``scheduler="sched"`` (**PB-SYM-PD-SCHED**): load-aware greedy colouring
  (heaviest block first) orienting the stencil into a dependency DAG that
  a Graham list scheduler executes with heaviest-first priority — OpenMP
  4.0 task dependencies.  Shorter critical path, no barriers (Figures 12
  and 13).

Both produce exactly the PB-SYM volume (work-efficient; no replication
overhead), unlike DR/DD.  The ``bin`` phase builds one
:class:`~repro.core.stamping.StampPlan` of the whole batch, grouped by
owner block: voxels, windows, crowded bins and the cohort sort are
computed once, and each block task stamps only its own group's GEMM
chunks and cohort slabs — the same additions, to the bit, as stamping
the block's points on their own.  A group writes only inside its block's
halo, so the colouring keeps concurrent tasks apart as before.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms.base import STKDEResult, register_algorithm
from ..core.grid import GridSpec, PointSet, Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.stamping import StampPlan
from .color import block_task_graph
from .executors import StrategySpec, run_strategy
from .partition import BlockDecomposition
from .schedule import BandwidthModel, TaskGraph, critical_path, grahams_bound

__all__ = ["pb_sym_pd", "pb_sym_pd_sched"]


def _point_decomposition(
    points: PointSet,
    grid: GridSpec,
    scheduler: str,
    name: str,
    *,
    decomposition: Tuple[int, int, int],
    P: int,
    backend: str,
    kernel: KernelPair,
    counter: WorkCounter,
    timer: PhaseTimer,
    bandwidth: Optional[BandwidthModel],
) -> STKDEResult:
    """PD and PD-SCHED: one spec, differing only by ``scheduler``."""
    # PD's safety constraint: blocks at least twice the bandwidth (the
    # paper adjusts undersized decompositions the same way, Figure 11).
    dec = BlockDecomposition.adjusted_for_pd(grid, *decomposition)

    with timer.phase("bin"):
        plan = StampPlan(grid, points.coords, groups=dec.owners(points))
        loads: Dict[int, float] = {
            int(b): float(plan.counts[b]) for b in np.flatnonzero(plan.counts)
        }

    with timer.phase("color"):
        graph, classes = block_task_graph(dec, loads, scheduler)

    # One task per occupied block, *unclipped*, into the shared volume.
    # The colour DAG always orders the tasks (it is what keeps neighbouring
    # blocks apart and what fixes the serial order); parity additionally
    # runs it class by class behind barriers.
    blocks = graph.labels  # task index order
    spec = StrategySpec(
        grid, kernel, grid.normalization(points.n),
        blocks=[[(bid, None)] for bid in blocks], plan=plan,
        weights=[loads[bid] for bid in blocks], graph=graph,
        classes=classes if scheduler == "parity" else None,
        planning=("bin", "color"),
    )
    vol, meta, tasks, counters = run_strategy(
        spec, P, backend, timer, counter, bandwidth)

    # Critical-path diagnostics (Figure 12) from measured task times.
    T1 = sum(t.measured for t in tasks)
    Tinf, _ = critical_path(
        TaskGraph([t.measured for t in tasks], graph.succs, graph.preds))
    return STKDEResult(Volume(vol, grid), name, timer, counter, meta={
        **meta,
        "scheduler": scheduler,
        "decomposition": dec.shape,
        "requested_decomposition": tuple(decomposition),
        "n_colors": len(classes),
        "occupied_blocks": len(blocks),
        "T1": T1,
        "Tinf": Tinf,
        "critical_path_ratio": (Tinf / T1) if T1 > 0 else 0.0,
        "graham_bound": grahams_bound(T1, Tinf, P) if T1 > 0 else 0.0,
        "task_madds": [c.madds for c in counters],
    })


@register_algorithm("pb-sym-pd", parallel=True)
def pb_sym_pd(
    points: PointSet,
    grid: GridSpec,
    *,
    decomposition: Tuple[int, int, int] = (8, 8, 8),
    P: int = 4,
    backend: str = "simulated",
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    bandwidth: Optional[BandwidthModel] = None,
) -> STKDEResult:
    """Point-decomposition STKDE with the 8-colour parity wavefront
    (PB-SYM-PD, Algorithm 6)."""
    return _point_decomposition(
        points, grid, "parity", "pb-sym-pd",
        decomposition=decomposition, P=P, backend=backend, kernel=kernel,
        counter=counter, timer=timer, bandwidth=bandwidth,
    )


@register_algorithm("pb-sym-pd-sched", parallel=True)
def pb_sym_pd_sched(
    points: PointSet,
    grid: GridSpec,
    *,
    decomposition: Tuple[int, int, int] = (8, 8, 8),
    P: int = 4,
    backend: str = "simulated",
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    bandwidth: Optional[BandwidthModel] = None,
) -> STKDEResult:
    """Point-decomposition STKDE with load-aware colouring and task-graph
    scheduling (PB-SYM-PD-SCHED, Section 5.2)."""
    return _point_decomposition(
        points, grid, "sched", "pb-sym-pd-sched",
        decomposition=decomposition, P=P, backend=backend, kernel=kernel,
        counter=counter, timer=timer, bandwidth=bandwidth,
    )
