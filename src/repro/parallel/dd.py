"""PB-SYM-DD: domain decomposition (Section 4.2, Algorithm 5).

The volume is carved into ``A x B x C`` subdomains; each point is attached
to *every* subdomain its cylinder intersects; subdomains are then processed
completely independently, each stamping its points clipped to its own
window.  No races (each subdomain writes only its own voxels), no volume
replication — but two structural costs the paper measures:

* **replicated work** (Figure 9): a cylinder split across subdomains
  recomputes its invariants in every part — clip a cylinder temporally and
  both halves tabulate the full spatial disk (Figure 4).  The overhead
  emerges here naturally from stamping every replica clipped to its
  subdomain, and ``meta["replication_factor"]`` reports the average
  subdomains per point;

* **load imbalance** (Figure 10): clustered points concentrate work in few
  subdomains; since a subdomain is a single task, imbalance directly caps
  speedup, and refining the decomposition to fix it inflates the
  replication overhead — the tension Section 4.2 describes.

The ``bin`` phase builds one :class:`~repro.core.stamping.StampPlan` of
the replicated rows, grouped by block, each group clipped to its block's
window: voxels, clipped windows, crowded bins and the cohort sort are
computed once, and each subdomain task stamps only its own group — the
same additions, to the bit, as stamping the block's points on their own.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..algorithms.base import STKDEResult, register_algorithm
from ..core.grid import GridSpec, PointSet, Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.stamping import StampPlan
from .executors import StrategySpec, run_strategy
from .partition import BlockDecomposition
from .schedule import BandwidthModel

__all__ = ["pb_sym_dd"]


@register_algorithm("pb-sym-dd", parallel=True)
def pb_sym_dd(
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
    """Domain-decomposition parallel STKDE (PB-SYM-DD).

    ``decomposition`` is the requested ``(A, B, C)`` subdomain grid; block
    counts exceeding the voxel extent are clamped (a 64-way split of a
    38-voxel axis is meaningless).  ``meta`` reports the realised
    decomposition, the point replication factor, the parallel makespan,
    and per-task ``task_seconds`` (measured) and ``task_madds`` (the
    deterministic load each subdomain task carried).
    """
    A = min(decomposition[0], grid.Gx)
    B = min(decomposition[1], grid.Gy)
    C = min(decomposition[2], grid.Gt)
    dec = BlockDecomposition(grid, A, B, C)

    # --- binning phase (serial, measured): Algorithm 5's first loop, and
    # the one plan of the replicated rows, each block's clipped to it.
    with timer.phase("bin"):
        binning = dec.bin_points_replicated(points)
        plan = StampPlan(
            grid, points.coords[binning.order],
            groups=np.repeat(np.arange(dec.n_blocks), binning.counts()),
            clip=[dec.block_window(*dec.block_coords(b))
                  for b in range(dec.n_blocks)],
        )
        occupied = binning.occupied()

    # One independent task per occupied subdomain, into the shared volume.
    spec = StrategySpec(
        grid, kernel, grid.normalization(points.n),
        blocks=[[(int(b), None)] for b in occupied], plan=plan,
        weights=plan.counts[occupied].astype(float).tolist(), planning=("bin",),
    )
    vol, meta, tasks, counters = run_strategy(
        spec, P, backend, timer, counter, bandwidth)
    meta["phase_makespans"] = {"bin": timer.seconds["bin"],
                               **meta["phase_makespans"]}
    return STKDEResult(Volume(vol, grid), "pb-sym-dd", timer, counter, meta={
        **meta,
        "decomposition": dec.shape,
        "replication_factor": binning.replication_factor(points.n),
        "occupied_blocks": len(occupied),
        "task_seconds": [t.measured for t in tasks],
        "task_madds": [c.madds for c in counters],
    })
