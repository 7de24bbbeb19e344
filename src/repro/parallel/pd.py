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
from .executors import ExecTask, Phase, run_phases, zero_fill_phase
from .partition import BlockDecomposition
from .schedule import BandwidthModel, TaskGraph, critical_path, grahams_bound

__all__ = ["pb_sym_pd", "pb_sym_pd_sched", "run_point_decomposition"]


def run_point_decomposition(
    points: PointSet,
    grid: GridSpec,
    *,
    decomposition: Tuple[int, int, int],
    P: int,
    backend: str,
    scheduler: str,
    kernel: KernelPair,
    counter: WorkCounter,
    timer: PhaseTimer,
    bandwidth: Optional[BandwidthModel],
    algorithm_name: str,
) -> STKDEResult:
    """Shared engine for PD and PD-SCHED (see module docstring).

    Called by the two registered entries, so it takes their prologue's
    results: a resolved kernel, a counter and a timer.
    """
    # PD's safety constraint: blocks at least twice the bandwidth (the
    # paper adjusts undersized decompositions the same way, Figure 11).
    dec = BlockDecomposition.adjusted_for_pd(grid, *decomposition)
    norm = grid.normalization(points.n)

    with timer.phase("bin"):
        plan = StampPlan(grid, points.coords, groups=dec.owners(points))
        loads: Dict[int, float] = {
            int(b): float(plan.counts[b]) for b in np.flatnonzero(plan.counts)
        }

    with timer.phase("color"):
        graph, coloring = block_task_graph(dec, loads, scheduler)

    # --- init phase (slab-parallel zeroing of the one shared volume).
    out, init = zero_fill_phase(grid.shape, P, counter)

    # --- compute tasks: one per occupied block, *unclipped* stamping.
    blocks_sorted = graph.labels  # task index order
    task_counters = [WorkCounter() for _ in blocks_sorted]

    def make_block_task(k: int, bid: int):
        def fn() -> None:
            plan.stamp(out[0], kernel, norm, task_counters[k], group=bid)
            task_counters[k].points_processed += int(plan.counts[bid])

        return fn

    comp_tasks = [
        ExecTask(
            make_block_task(k, bid),
            weight_hint=loads[bid],
            label=("block", bid),
        )
        for k, bid in enumerate(blocks_sorted)
    ]

    # The colour DAG always orders the tasks (it is what keeps neighbouring
    # blocks apart and what fixes the serial order); parity additionally
    # runs it class by class behind barriers.
    classes = None
    if scheduler == "parity":
        task = {bid: k for k, bid in enumerate(blocks_sorted)}
        classes = [[task[bid] for bid in cls] for cls in coloring.classes()]
    phase_ms = run_phases(
        [init, Phase("compute", comp_tasks, graph=graph, classes=classes)],
        P, backend, timer, bandwidth,
    )
    makespan = timer.seconds["bin"] + timer.seconds["color"] + sum(phase_ms.values())

    for c in task_counters:
        counter.merge(c)

    # Critical-path diagnostics (Figure 12) from measured task times.
    measured_graph = TaskGraph(
        [t.measured for t in comp_tasks], graph.succs, graph.preds
    )
    T1 = measured_graph.total_weight
    Tinf, _ = critical_path(measured_graph)

    return STKDEResult(
        Volume(out[0], grid),
        algorithm_name,
        timer,
        counter,
        meta={
            "P": P,
            "backend": backend,
            "scheduler": scheduler,
            "decomposition": dec.shape,
            "requested_decomposition": tuple(decomposition),
            "makespan": makespan,
            "phase_makespans": phase_ms,
            "n_colors": coloring.n_colors,
            "occupied_blocks": len(blocks_sorted),
            "T1": T1,
            "Tinf": Tinf,
            "critical_path_ratio": (Tinf / T1) if T1 > 0 else 0.0,
            "graham_bound": grahams_bound(T1, Tinf, P) if T1 > 0 else 0.0,
            "task_madds": [c.madds for c in task_counters],
        },
    )


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
    return run_point_decomposition(
        points, grid,
        decomposition=decomposition, P=P, backend=backend, scheduler="parity",
        kernel=kernel, counter=counter, timer=timer, bandwidth=bandwidth,
        algorithm_name="pb-sym-pd",
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
    return run_point_decomposition(
        points, grid,
        decomposition=decomposition, P=P, backend=backend, scheduler="sched",
        kernel=kernel, counter=counter, timer=timer, bandwidth=bandwidth,
        algorithm_name="pb-sym-pd-sched",
    )
