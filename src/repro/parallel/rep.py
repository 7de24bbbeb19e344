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
from ..core.grid import GridSpec, PointSet, Volume, VoxelWindow, zeroed_volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.invariants import stamp_cells
from ..core.kernels import KernelPair
from ..core.stamping import StampPlan
from .color import block_task_graph
from .executors import ExecTask, Phase, check_memory_budget, run_phases, zero_fill_phase
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
    norm = grid.normalization(points.n)

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
        # its block's halo.
        groups = np.empty(points.n, dtype=np.int64)
        clips: List[Optional[VoxelWindow]] = []
        for k, bid in enumerate(blocks_sorted):
            block = binning.points_in(bid)
            r = replicas[k]
            for j in range(r):
                chunk = block[(block.size * j) // r : (block.size * (j + 1)) // r]
                groups[chunk] = len(clips)
                clips.append(halos[k] if r > 1 else None)
        plan = StampPlan(grid, points.coords, groups=groups, clip=clips)

    # ------------------------------------------------------------------
    # Build the expanded task list + graph: the block and replica tasks
    # stamp the plan's groups in the order they were cut.
    # ------------------------------------------------------------------
    out, init = zero_fill_phase(grid.shape, P, counter)

    tasks: List[ExecTask] = []
    succs: List[List[int]] = []
    preds: List[List[int]] = []
    entry_nodes: Dict[int, List[int]] = {}  # base task -> expanded entries
    exit_node: Dict[int, int] = {}  # base task -> expanded exit
    task_counters: List[WorkCounter] = []

    def add_task(t: ExecTask) -> int:
        tasks.append(t)
        succs.append([])
        preds.append([])
        task_counters.append(WorkCounter())
        return len(tasks) - 1

    g = 0  # the plan group of the next block or replica
    for k, bid in enumerate(blocks_sorted):
        r = replicas[k]
        if r == 1:
            tid = add_task(ExecTask(lambda: None, weight_hint=weights[k],
                                    label=("block", bid)))

            def direct_fn(g=g, tid=tid):
                plan.stamp(out[0], kernel, norm, task_counters[tid], group=g)
                task_counters[tid].points_processed += int(plan.counts[g])

            tasks[tid].fn = direct_fn
            entry_nodes[k] = [tid]
            exit_node[k] = tid
            g += 1
        else:
            halo = halos[k]
            buffers: List[Optional[np.ndarray]] = [None] * r
            rep_ids = []
            for j in range(r):
                tid = add_task(
                    ExecTask(
                        lambda: None,
                        weight_hint=weights[k] / r + overheads[k],
                        label=("replica", bid, j),
                    )
                )

                def rep_fn(g=g, j=j, halo=halo, tid=tid, buffers=buffers):
                    buf = zeroed_volume(halo.shape)
                    task_counters[tid].init_writes += buf.size
                    plan.stamp(
                        buf, kernel, norm, task_counters[tid], group=g,
                        vol_origin=(halo.x0, halo.y0, halo.t0),
                    )
                    task_counters[tid].points_processed += int(plan.counts[g])
                    buffers[j] = buf

                tasks[tid].fn = rep_fn
                rep_ids.append(tid)
                g += 1

            red_id = add_task(
                ExecTask(
                    lambda: None,
                    weight_hint=overheads[k],
                    label=("reduce", bid),
                )
            )

            def red_fn(halo=halo, buffers=buffers, red_id=red_id, r=r):
                target = out[0][halo.slices()]
                for j in range(r):
                    target += buffers[j]  # type: ignore[operator]
                    buffers[j] = None  # free replica memory promptly
                task_counters[red_id].reduce_adds += r * target.size

            tasks[red_id].fn = red_fn
            for tid in rep_ids:
                succs[tid].append(red_id)
                preds[red_id].append(tid)
            entry_nodes[k] = rep_ids
            exit_node[k] = red_id

    # Wire base-graph dependencies through entry/exit nodes.
    for k in range(len(blocks_sorted)):
        for s in base_graph.succs[k]:
            src = exit_node[k]
            for dst in entry_nodes[s]:
                succs[src].append(dst)
                preds[dst].append(src)

    graph = TaskGraph([t.weight_hint for t in tasks], succs, preds,
                      labels=[t.label for t in tasks])

    phase_ms = run_phases(
        [init, Phase("compute", tasks, graph=graph)], P, backend, timer, bandwidth
    )
    makespan = timer.seconds["bin"] + timer.seconds["plan"] + sum(phase_ms.values())

    for c in task_counters:
        counter.merge(c)

    n_replicated = sum(1 for r in replicas if r > 1)
    return STKDEResult(
        Volume(out[0], grid),
        "pb-sym-pd-rep",
        timer,
        counter,
        meta={
            "P": P,
            "backend": backend,
            "decomposition": dec.shape,
            "requested_decomposition": tuple(decomposition),
            "makespan": makespan,
            "phase_makespans": phase_ms,
            "replicas": dict(zip(blocks_sorted, replicas)),
            "blocks_replicated": n_replicated,
            "max_replication": max(replicas) if replicas else 1,
            "tinf_planned_before": tinf_before,
            "tinf_planned_after": tinf_after,
            "extra_bytes": extra_bytes,
            "occupied_blocks": len(blocks_sorted),
        },
    )
