"""PB-SYM-PD-REP: critical-path replication / moldable tasks (Section 5.2).

PD-SCHED's parallelism is still capped by Graham's bound: a chain of heavy
neighbouring subdomains forces ``T_P >= T_infty``.  PB-SYM-PD-REP attacks
``T_infty`` directly: subdomains on the critical path are made **moldable**
— their points are split across ``r`` replica tasks that stamp into
*private halo buffers*, merged by a reduction task.  Replication buys
parallelism inside a block at the price of extra volume initialisation and
reduction (the DR trade-off, but paid *only where the critical path needs
it*).

The driving loop follows the paper: *"as long as the critical path is
longer than* ``T1 / (2P)`` *, the tasks on the path are replicated an
additional time and the critical path is recomputed."*  The plan is a
function of the inputs alone: costs are counted in work units — a task
weighs its points times the cells of one stamp, a replica costs ``2 x
halo_volume`` streamed voxels (zero-fill + reduction) at the nominal
voxel-to-cell rate — so the same call always replicates the same blocks.

Memory behaviour reproduces Figure 14: with a coarse decomposition the
"blocks" are nearly the whole domain, replication degenerates to DR, and
large instances exceed the memory budget (Flu-Hr dies at small
decompositions).

Note on naming: the paper's text calls this algorithm PB-SYM-PD-REP while
Figure 15's legend calls it PB-SYM-PD-SCHED-REP (it builds on the SCHED
colouring); we register it as ``"pb-sym-pd-rep"``.

The ``plan`` phase ends with one :class:`~repro.core.stamping.StampPlan`
of the batch, one group per block or replica: a block's points cut into
its ``r`` chunks, each replica clipped to the block's halo and stamped
into its buffer behind a ``vol_origin``, an unreplicated block stamped
unclipped into the volume — the same additions, to the bit, as stamping
each chunk on its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.base import STKDEResult, register_algorithm
from ..core.grid import GridSpec, PointSet, Volume, VoxelWindow
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.invariants import stamp_cells
from ..core.kernels import KernelPair
from ..core.stamping import StampPlan
from .color import block_task_graph
from .executors import StrategySpec, check_memory_budget, run_strategy
from .partition import BlockDecomposition
from .schedule import BandwidthModel, TaskGraph, critical_path

__all__ = ["pb_sym_pd_rep", "plan_replication"]

#: Hard cap on replication-refinement iterations (each iteration increments
#: every critical-path task once; progress stalls long before this).
_MAX_REP_ITERATIONS = 64

#: Cost of one streamed voxel (a zero-fill write or a reduction add) in
#: units of one stamped cell: ``c_mem / c_cell`` of ``MachineModel.nominal()``.
_VOXEL_PER_CELL = 0.5


def plan_replication(
    weights: List[float],
    overheads: List[float],
    succs: List[List[int]],
    preds: List[List[int]],
    P: int,
    max_replicas: List[int],
) -> Tuple[List[int], float, float]:
    """Choose per-task replication factors by critical-path refinement.

    ``weights[v]`` is task v's estimated cost, ``overheads[v]`` the *extra*
    cost each replica adds (halo init + reduce share), ``max_replicas[v]``
    the point count (a task cannot split finer than one point per
    replica).  Implements the paper's loop: while the critical path
    exceeds ``T1 / (2P)``, replicate every task on it once more.

    Returns ``(replicas, Tinf_before, Tinf_after)`` where the effective
    weight of a task with ``r`` replicas is ``w/r + overhead`` (its
    replicas run in parallel; the reduction is folded into the overhead).
    """
    n = len(weights)
    if not (len(overheads) == len(succs) == len(preds) == len(max_replicas) == n):
        raise ValueError("mismatched plan inputs")
    T1 = sum(weights)
    replicas = [1] * n

    def eff(v: int) -> float:
        r = replicas[v]
        return weights[v] / r + (overheads[v] if r > 1 else 0.0)

    def current_cp() -> Tuple[float, List[int]]:
        g = TaskGraph([eff(v) for v in range(n)], succs, preds)
        return critical_path(g)

    tinf0, _ = current_cp()
    tinf = tinf0
    threshold = T1 / (2 * P) if P > 0 else 0.0
    for _ in range(_MAX_REP_ITERATIONS):
        if tinf <= threshold:
            break
        length, path = current_cp()
        progressed = False
        for v in path:
            if replicas[v] < max_replicas[v]:
                # Only replicate if splitting further actually shrinks the
                # effective weight (overhead can make it a net loss).
                r_new = replicas[v] + 1
                new_eff = weights[v] / r_new + overheads[v]
                if new_eff < eff(v):
                    replicas[v] = r_new
                    progressed = True
        if not progressed:
            break
        tinf, _ = current_cp()
    return replicas, tinf0, tinf


@register_algorithm("pb-sym-pd-rep", parallel=True)
def pb_sym_pd_rep(
    points: PointSet,
    grid: GridSpec,
    *,
    decomposition: Tuple[int, int, int] = (8, 8, 8),
    P: int = 4,
    backend: str = "simulated",
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    memory_budget_bytes: Optional[int] = None,
    bandwidth: Optional[BandwidthModel] = None,
) -> STKDEResult:
    """Point decomposition with critical-path replication (PB-SYM-PD-REP)."""
    dec = BlockDecomposition.adjusted_for_pd(grid, *decomposition)

    with timer.phase("bin"):
        binning = dec.bin_points_owner(points)
        loads: Dict[int, float] = {
            int(b): float(len(binning.points_in(b))) for b in binning.occupied()
        }

    with timer.phase("plan"):
        base_graph, _ = block_task_graph(dec, loads, "sched")
        blocks_sorted = base_graph.labels

        cells_per_stamp = stamp_cells(grid)
        weights = [loads[bid] * cells_per_stamp for bid in blocks_sorted]
        halos = [dec.halo_window(*dec.block_coords(bid)) for bid in blocks_sorted]
        overheads = [2.0 * h.volume * _VOXEL_PER_CELL for h in halos]
        max_reps = [max(1, int(loads[bid])) for bid in blocks_sorted]
        replicas, tinf_before, tinf_after = plan_replication(
            weights, overheads, base_graph.succs, base_graph.preds, P, max_reps
        )

        # Memory: every replicated block holds r private halo buffers.
        extra_bytes = sum(
            replicas[k] * halos[k].volume * 8
            for k in range(len(blocks_sorted)) if replicas[k] > 1
        )
        check_memory_budget(
            grid.grid_bytes + extra_bytes,
            memory_budget_bytes,
            f"PB-SYM-PD-REP {dec.shape} with P={P}",
        )

        # One group per block or replica, in task order: a block's points
        # (in input order) cut into ``r`` chunks, a replica's clipped to
        # its block's halo and stamped into a private buffer over it.
        groups = np.empty(points.n, dtype=np.int64)
        clips: List[Optional[VoxelWindow]] = []
        blocks = []
        for k, bid in enumerate(blocks_sorted):
            block = binning.points_in(bid)
            r = replicas[k]
            window = halos[k] if r > 1 else None
            blocks.append([(len(clips) + j, window) for j in range(r)])
            for j in range(r):
                chunk = block[(block.size * j) // r : (block.size * (j + 1)) // r]
                groups[chunk] = len(clips)
                clips.append(window)
        plan = StampPlan(grid, points.coords, groups=groups, clip=clips)

    spec = StrategySpec(
        grid, kernel, grid.normalization(points.n), blocks=blocks, plan=plan,
        weights=weights, overheads=overheads, graph=base_graph,
        planning=("bin", "plan"),
    )
    vol, meta, _, _ = run_strategy(spec, P, backend, timer, counter, bandwidth)
    return STKDEResult(Volume(vol, grid), "pb-sym-pd-rep", timer, counter, meta={
        **meta,
        "decomposition": dec.shape,
        "requested_decomposition": tuple(decomposition),
        "replicas": dict(zip(blocks_sorted, replicas)),
        "blocks_replicated": sum(1 for r in replicas if r > 1),
        "max_replication": max(replicas) if replicas else 1,
        "tinf_planned_before": tinf_before,
        "tinf_planned_after": tinf_after,
        "extra_bytes": extra_bytes,
        "occupied_blocks": len(blocks_sorted),
    })
