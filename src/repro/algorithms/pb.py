"""Point-based algorithm PB (Algorithm 2, Section 3.1).

PB inverts the loop structure of VB: *for every point*, visit only the
voxels of its density cylinder (a ``(2Hs+1) x (2Hs+1) x (2Ht+1)`` window
clipped to the grid) and accumulate the kernel product.  Complexity drops
to ``Theta(Gx*Gy*Gt + n*Hs^2*Ht)`` — the first term is the volume
initialisation, the second the cylinder stamping; either can dominate
(Figure 7).

PB evaluates **both** kernels at **every voxel of the cylinder**: no reuse
of the spatial/temporal invariants.  That is the ~40-flops-per-voxel cost
Section 3.2 sets out to remove, and the baseline against which Table 3's
``PB-SYM`` speedup column is computed.

Stamping engine: the driver routes through
:func:`repro.core.stamping.stamp_batch` with ``mode="pb"`` on the
``numpy-ref`` backend (named: see :mod:`repro.core.backends`), which
evaluates the same per-voxel kernel products over whole shape cohorts at
once; the per-point :func:`stamp_point_pb` remains the scalar reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.grid import GridSpec, PointSet, Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.stamping import stamp_batch
from .base import STKDEResult, register_algorithm

__all__ = ["pb", "stamp_point_pb"]


def stamp_point_pb(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    x: float,
    y: float,
    t: float,
    norm: float,
    counter: WorkCounter,
) -> None:
    """Accumulate one point's cylinder, evaluating both kernels per voxel."""
    win = grid.point_window(x, y, t)
    if win.empty:
        return
    dx = grid.x_centers(win.x0, win.x1) - x
    dy = grid.y_centers(win.y0, win.y1) - y
    dt = grid.t_centers(win.t0, win.t1) - t
    shape = win.shape
    # Broadcast every offset to the full cylinder so the kernels are
    # genuinely evaluated per voxel (PB's defining cost profile).
    DX = np.broadcast_to(dx[:, None, None], shape)
    DY = np.broadcast_to(dy[None, :, None], shape)
    DT = np.broadcast_to(dt[None, None, :], shape)
    inside = ((DX * DX + DY * DY) < grid.hs * grid.hs) & (np.abs(DT) <= grid.ht)
    ks = kernel.spatial(DX / grid.hs, DY / grid.hs)
    kt = kernel.temporal(DT / grid.ht)
    vol[win.slices()] += np.where(inside, ks * kt * norm, 0.0)
    counter.distance_tests += DX.size
    counter.spatial_evals += DX.size
    counter.temporal_evals += DX.size
    # Charged from the window shape (mask included), matching the engine's
    # O(1) accounting rule — instrumentation never reduces the mask.
    counter.madds += DX.size


@register_algorithm("pb")
def pb(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
) -> STKDEResult:
    """Point-based STKDE without invariant reuse (Algorithm 2)."""
    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size
    norm = grid.normalization(points.n)
    with timer.phase("compute"):
        stamp_batch(vol, grid, kernel, points.coords, norm, counter, mode="pb",
                    compute="numpy-ref")
    counter.points_processed += points.n
    return STKDEResult(Volume(vol, grid), "pb", timer, counter)
