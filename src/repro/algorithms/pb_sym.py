"""PB-SYM: the dual-invariant point-based algorithm (Algorithm 3).

Per point, PB-SYM tabulates the spatial disk ``Ks`` *and* the temporal bar
``Kt`` once, then accumulates their outer product over the cylinder —
``(2Hs+1)^2`` spatial and ``(2Ht+1)`` temporal kernel evaluations instead of
``(2Hs+1)^2 (2Ht+1)`` of each, leaving pure multiply-adds in the inner
loops.  Same ``Theta(Gx*Gy*Gt + n*Hs^2*Ht)`` complexity as PB, but a flop
count lower by roughly the ~40-flops-per-voxel factor the paper cites —
Table 3 reports up to 6.97x over PB.

Every parallel strategy (DR, DD, PD, PD-SCHED, PD-REP) stamps through the
same batched engine, :mod:`repro.core.stamping`, which supports an
optional *clip window*: that is how PB-SYM-DD restricts a point's
contribution to one subdomain.  When a cylinder is clipped, the invariants
are tabulated over the clipped extents — so a temporally-split cylinder
recomputes its full disk in every subdomain that holds a slice of it,
reproducing the replication overhead of Figure 4 without any
special-casing.

Stamping engine
---------------
PB-SYM stamps its batch with one :func:`repro.core.stamping.stamp_batch`
call (``mode="sym"``): points in crowded space-time bins are reduced bin
by bin as one ``disk.T @ bar`` matrix product; the rest are grouped into
stamp-shape cohorts whose disks and bars are tabulated in single
vectorised NumPy calls and whose outer products are scatter-accumulated
per cohort slab.  Masks and kernel expressions match the historical
per-point loop; the order in which contributions are added into a voxel
does not (BLAS order within a bin, slab order within a cohort), so
volumes agree with the loop to fp round-off — pinned at ``rtol=1e-12`` —
rather than bit for bit.  The loop is preserved verbatim as
:func:`stamp_points_sym_loop` — the reference the equivalence suite and
``benchmarks/bench_stamping_engine.py`` compare against; the one-point
:func:`stamp_point_sym` is the per-point reference of the stamping tests.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from ..core.grid import GridSpec, PointSet, Volume, VoxelWindow
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.invariants import bar_table, disk_table
from ..core.kernels import KernelPair
from ..core.regions import RegionBuffer, plan_stamp_shards
from ..core.stamping import batch_windows, stamp_batch
from .base import STKDEResult, register_algorithm

__all__ = [
    "pb_sym",
    "stamp_point_sym",
    "stamp_points_sym_loop",
]


def stamp_point_sym(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    x: float,
    y: float,
    t: float,
    norm: float,
    counter: WorkCounter,
    clip: Optional[VoxelWindow] = None,
    vol_origin: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Accumulate one point's cylinder as ``disk (x) bar``.

    Parameters
    ----------
    vol:
        Target array.  Either a full ``(Gx, Gy, Gt)`` volume or a subarray
        whose voxel ``(0, 0, 0)`` corresponds to ``vol_origin`` in grid
        coordinates (used by subdomain-local and replicated buffers).
    clip:
        Optional window to intersect the cylinder with (PB-SYM-DD's
        subdomain restriction).  ``None`` stamps the full clipped-to-grid
        cylinder.
    """
    win = grid.point_window(x, y, t)
    if clip is not None:
        win = win.intersect(clip)
    if win.empty:
        return
    disk = disk_table(
        grid, kernel, x, y, (win.x0, win.x1), (win.y0, win.y1), norm, counter
    )
    bar = bar_table(grid, kernel, t, (win.t0, win.t1), counter)
    ox, oy, ot = vol_origin
    target = vol[
        win.x0 - ox : win.x1 - ox,
        win.y0 - oy : win.y1 - oy,
        win.t0 - ot : win.t1 - ot,
    ]
    # The inner loops of Algorithm 3: pure multiply-accumulate.
    target += disk[:, :, None] * bar[None, None, :]
    counter.madds += disk.size * bar.size


def stamp_points_sym_loop(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    coords: np.ndarray,
    norm: float,
    counter: WorkCounter,
    clip: Optional[VoxelWindow] = None,
    vol_origin: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Legacy per-point PB-SYM stamping loop (reference implementation).

    Kept verbatim from before the batched engine: window bounds for the
    batch are vectorised up front, then a Python-level loop tabulates each
    point's invariants and accumulates its outer product.  Used by the
    engine equivalence tests and by ``benchmarks/bench_stamping_engine.py``
    as the old-hot-path baseline; production callers go through
    :func:`repro.core.stamping.stamp_batch`.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n == 0:
        return
    X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords, clip)
    ox, oy, ot = vol_origin
    xs, ys, ts = coords[:, 0], coords[:, 1], coords[:, 2]
    for i in range(n):
        x0, x1 = X0[i], X1[i]
        y0, y1 = Y0[i], Y1[i]
        t0, t1 = T0[i], T1[i]
        if x0 >= x1 or y0 >= y1 or t0 >= t1:
            continue
        disk = disk_table(
            grid, kernel, xs[i], ys[i], (x0, x1), (y0, y1), norm, counter
        )
        bar = bar_table(grid, kernel, ts[i], (t0, t1), counter)
        target = vol[x0 - ox : x1 - ox, y0 - oy : y1 - oy, t0 - ot : t1 - ot]
        target += disk[:, :, None] * bar[None, None, :]
        counter.madds += disk.size * bar.size


@register_algorithm("pb-sym")
def pb_sym(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    P: "int | str" = 1,
    backend: str = "serial",
    memory_budget_bytes: Optional[int] = None,
) -> STKDEResult:
    """Point-based STKDE exploiting both invariants (Algorithm 3).

    With ``P > 1`` and ``backend="threads"`` PB-SYM runs PB-SYM-DR's
    zero / stamp / reduce steps at bounding-box granularity (see
    :func:`_run_threaded`): one output volume plus the shards' joint
    bounding boxes, a fraction of the ``P + 1`` full volumes of DR,
    checked against ``memory_budget_bytes`` from the *planned* buffer
    sizes before anything is allocated.  ``P="auto"`` shards by the
    machine's CPU count.  The default remains the serial engine, so
    PB-SYM stays the sequential reference of the paper's Table 3.
    """
    if backend not in ("serial", "threads"):
        raise ValueError(
            f"pb-sym backend must be 'serial' or 'threads', got {backend!r}"
        )
    norm = grid.normalization(points.n)
    meta = {}
    if P > 1 and backend == "threads":
        vol, meta = _run_threaded(
            points.coords, grid, kernel, norm, counter, timer, P,
            memory_budget_bytes,
        )
    else:
        with timer.phase("init"):
            vol = grid.allocate()
            counter.init_writes += vol.size
        with timer.phase("compute"):
            stamp_batch(vol, grid, kernel, points.coords, norm, counter)
    counter.points_processed += points.n
    return STKDEResult(Volume(vol, grid), "pb-sym", timer, counter, meta=meta)


def _run_threaded(coords, grid, kernel, norm, counter, timer, P, memory_budget_bytes):
    """PB-SYM on ``P`` threads: PB-SYM-DR's three phases, run by
    :func:`~repro.parallel.executors.run_phases`, with bounding-box
    buffers in place of DR's full private volumes.

    After a serial ``plan`` step (the shards, timed into ``makespan``),
    ``init`` zero-fills the output volume slab by slab; ``compute`` has
    one task per :func:`~repro.core.regions.plan_stamp_shards` shard, each
    stamping into its own :class:`~repro.core.regions.RegionBuffer` (so
    concurrent stamps never race; its zeroing is charged to
    ``init_writes`` and ``shard_bbox_cells``); ``reduce`` has ``P`` tasks,
    each adding every buffer's part inside one t-slab of the volume
    (``reduce_adds``).  The t-slabs are disjoint, so no two reducers write
    the same voxel.  Returns the volume and the result's ``meta``.
    """
    from ..parallel.executors import (
        ExecTask,
        Phase,
        check_memory_budget,
        run_phases,
        slab_slices,
        zero_fill_phase,
    )

    with timer.phase("plan"):
        plan = plan_stamp_shards(grid, coords, P)
    check_memory_budget(
        grid.grid_bytes + plan.buffer_bytes, memory_budget_bytes,
        f"threaded PB-SYM with {plan.n_shards} bbox shards",
    )
    out, init = zero_fill_phase(grid.shape, P, counter)
    n = plan.n_shards
    buffers: List[RegionBuffer] = [None] * n  # type: ignore[list-item]
    slabs = slab_slices(grid.Gt, P)
    counters = [WorkCounter() for _ in range(n + P)]

    def stamp(p: int) -> None:
        buf = RegionBuffer(plan.windows[p])
        counters[p].init_writes += buf.cells
        counters[p].shard_bbox_cells += buf.cells
        buf.stamp(grid, kernel, coords[plan.shards[p]], norm, counters[p])
        buffers[p] = buf

    def reduce(r: int) -> None:
        sl = slabs[r]
        for buf in buffers:
            w = buf.window
            lo, hi = max(w.t0, sl.start), min(w.t1, sl.stop)
            if lo < hi:
                target = out[0][w.x0 : w.x1, w.y0 : w.y1, lo:hi]
                target += buf.data[:, :, lo - w.t0 : hi - w.t0]
                counters[n + r].reduce_adds += target.size

    def step(name: str, fn, count: int, bound: str) -> Phase:
        tasks = [ExecTask(partial(fn, p), label=(name, p)) for p in range(count)]
        return Phase(name, tasks, bound)

    phase_ms = run_phases(
        [init, step("compute", stamp, n, "compute"),
         step("reduce", reduce, P, "memory")],
        P, "threads", timer,
    )
    for c in counters:
        counter.merge(c)
    return out[0], {
        "P": P, "backend": "threads",
        "makespan": timer.seconds["plan"] + sum(phase_ms.values()),
        "phase_makespans": phase_ms,
    }
