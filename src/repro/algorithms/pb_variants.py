"""Single-invariant point-based variants PB-DISK and PB-BAR (Section 3.2).

The contribution of a point factorises into a spatial disk ``Ks`` and a
temporal bar ``Kt`` (Figure 3).  The paper's three variants reuse these
invariants to different degrees:

* **PB-DISK** tabulates the (expensive) spatial kernel once per point and
  still evaluates the temporal kernel at every voxel of the cylinder.
  Large win, growing with the temporal bandwidth — PB re-evaluates the
  whole disk ``2Ht+1`` times.
* **PB-BAR** tabulates the (cheap) temporal kernel once per point and still
  evaluates the spatial kernel at every voxel.  Modest win, as Table 3
  shows.
* **PB-SYM** (see :mod:`repro.algorithms.pb_sym`) tabulates both and only
  multiply-adds inside the cylinder.

All three produce exactly the same density volume as PB.

Stamping engine: both drivers route through
:func:`repro.core.stamping.stamp_batch` (``mode="disk"`` / ``mode="bar"``)
on the ``numpy-ref`` backend (named: see :mod:`repro.core.backends`), which
reproduces each variant's cost profile over whole shape cohorts at once;
the per-point ``stamp_point_*`` functions remain as the scalar references
the engine is tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.grid import GridSpec, PointSet, Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.invariants import bar_table, disk_table
from ..core.kernels import KernelPair
from ..core.stamping import stamp_batch
from .base import STKDEResult, register_algorithm

__all__ = ["pb_disk", "pb_bar", "stamp_point_disk", "stamp_point_bar"]


def stamp_point_disk(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    x: float,
    y: float,
    t: float,
    norm: float,
    counter: WorkCounter,
) -> None:
    """PB-DISK stamp: disk tabulated once, ``k_t`` evaluated per voxel."""
    win = grid.point_window(x, y, t)
    if win.empty:
        return
    disk = disk_table(
        grid, kernel, x, y, (win.x0, win.x1), (win.y0, win.y1), norm, counter
    )
    dt = grid.t_centers(win.t0, win.t1) - t
    shape = win.shape
    DT = np.broadcast_to(dt[None, None, :], shape)
    inside_t = np.abs(DT) <= grid.ht
    kt = kernel.temporal(DT / grid.ht)  # evaluated on the full cylinder
    vol[win.slices()] += disk[:, :, None] * np.where(inside_t, kt, 0.0)
    counter.temporal_evals += DT.size
    counter.distance_tests += DT.size
    counter.madds += DT.size


def stamp_point_bar(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    x: float,
    y: float,
    t: float,
    norm: float,
    counter: WorkCounter,
) -> None:
    """PB-BAR stamp: bar tabulated once, ``k_s`` evaluated per voxel."""
    win = grid.point_window(x, y, t)
    if win.empty:
        return
    bar = bar_table(grid, kernel, t, (win.t0, win.t1), counter)
    dx = grid.x_centers(win.x0, win.x1) - x
    dy = grid.y_centers(win.y0, win.y1) - y
    shape = win.shape
    DX = np.broadcast_to(dx[:, None, None], shape)
    DY = np.broadcast_to(dy[None, :, None], shape)
    inside_s = (DX * DX + DY * DY) < grid.hs * grid.hs
    ks = kernel.spatial(DX / grid.hs, DY / grid.hs)  # per-voxel evaluation
    vol[win.slices()] += np.where(inside_s, ks * norm, 0.0) * bar[None, None, :]
    counter.spatial_evals += DX.size
    counter.distance_tests += DX.size
    counter.madds += DX.size


@register_algorithm("pb-disk")
def pb_disk(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
) -> STKDEResult:
    """Point-based STKDE reusing the spatial invariant only (PB-DISK)."""
    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size
    norm = grid.normalization(points.n)
    with timer.phase("compute"):
        stamp_batch(vol, grid, kernel, points.coords, norm, counter,
                    mode="disk", compute="numpy-ref")
    counter.points_processed += points.n
    return STKDEResult(Volume(vol, grid), "pb-disk", timer, counter)


@register_algorithm("pb-bar")
def pb_bar(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
) -> STKDEResult:
    """Point-based STKDE reusing the temporal invariant only (PB-BAR)."""
    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size
    norm = grid.normalization(points.n)
    with timer.phase("compute"):
        stamp_batch(vol, grid, kernel, points.coords, norm, counter,
                    mode="bar", compute="numpy-ref")
    counter.points_processed += points.n
    return STKDEResult(Volume(vol, grid), "pb-bar", timer, counter)
