"""Computation of the PB-SYM invariants: spatial disks and temporal bars.

Section 3.2 of the paper observes that a point's contribution to its density
cylinder factorises into

* a **temporally invariant** spatial table ``Ks[X][Y]`` (a disk), and
* a **spatially invariant** temporal table ``Kt[T]`` (a bar),

so the full cylinder is the outer product ``Ks ⊗ Kt`` (Figure 3).  This
module computes those tables for a point over an arbitrary clipped index
range — the clipping generality is what PB-SYM-DD needs, since a subdomain
may contain only part of a cylinder yet the whole disk (or bar) must be
recomputed locally, which is exactly the overhead Figure 4 illustrates and
Figure 9 measures.

The normalisation ``1/(n hs^2 ht)`` is folded into the disk (as in
Algorithm 3 of the paper) so accumulating ``disk[...,None] * bar`` adds the
finished contribution.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .grid import GridSpec
from .instrument import WorkCounter, null_counter
from .kernels import KernelPair

__all__ = ["disk_table", "bar_table", "stamp_extent", "stamp_cells"]


def disk_table(
    grid: GridSpec,
    kernel: KernelPair,
    x: float,
    y: float,
    x_range: Tuple[int, int],
    y_range: Tuple[int, int],
    norm: float,
    counter: Optional[WorkCounter] = None,
) -> np.ndarray:
    """Spatial invariant ``Ks`` of a point over voxel rows/cols ranges.

    Parameters
    ----------
    x, y:
        Point coordinates in domain space.
    x_range, y_range:
        Half-open voxel index ranges ``[x0, x1)`` / ``[y0, y1)`` over which
        to tabulate (already clipped by the caller).
    norm:
        Multiplicative prefactor folded into the table, normally
        ``grid.normalization(n)``; DD/DR pass the same global value.

    Returns
    -------
    A ``(x1 - x0, y1 - y0)`` float64 array with
    ``norm * k_s(dx/hs, dy/hs)`` where the voxel-center distance is below
    ``hs`` and ``0.0`` elsewhere (the paper's strict ``d < hs`` test).
    """
    counter = counter if counter is not None else null_counter()
    x0, x1 = x_range
    y0, y1 = y_range
    dx = grid.x_centers(x0, x1) - x
    dy = grid.y_centers(y0, y1) - y
    # The inside test is written in domain units, `dx^2 + dy^2 < hs^2`, in
    # *exactly* this form in every algorithm of the package so that boundary
    # voxels are classified identically everywhere (fp-equal masks).
    d2 = dx[:, None] ** 2 + dy[None, :] ** 2
    inside = d2 < grid.hs * grid.hs
    # Evaluate on the full rectangle, then zero outside the disk: this is
    # what Algorithm 3 does (the kernel value is computed cell by cell with
    # an if/else writing 0 outside).  Radial kernels reuse d2 directly.
    if kernel.spatial_radial is not None:
        table = kernel.spatial_radial(d2 * (1.0 / (grid.hs * grid.hs)))
    else:
        u = dx[:, None] / grid.hs
        v = dy[None, :] / grid.hs
        table = kernel.spatial(
            np.broadcast_to(u, inside.shape), np.broadcast_to(v, inside.shape)
        )
    table *= norm
    table *= inside  # bool multiply zeroes the exterior without a temp
    counter.spatial_evals += table.size
    counter.distance_tests += table.size
    return table


def bar_table(
    grid: GridSpec,
    kernel: KernelPair,
    t: float,
    t_range: Tuple[int, int],
    counter: Optional[WorkCounter] = None,
) -> np.ndarray:
    """Temporal invariant ``Kt`` of a point over a voxel time range.

    Returns a ``(t1 - t0,)`` float64 array with ``k_t(dt/ht)`` where
    ``|dt| <= ht`` (the paper's inclusive temporal test) and ``0.0``
    elsewhere.
    """
    counter = counter if counter is not None else null_counter()
    t0, t1 = t_range
    dt = grid.t_centers(t0, t1) - t
    w = dt / grid.ht
    # Inclusive temporal test `|dt| <= ht`, in domain units, matching the
    # paper's Algorithm 1 condition and every other algorithm here.
    inside = np.abs(dt) <= grid.ht
    table = kernel.temporal(w)
    table *= inside
    counter.temporal_evals += table.size
    counter.distance_tests += table.size
    return table


def stamp_extent(grid: GridSpec) -> Tuple[int, int]:
    """Full (unclipped) stamp sizes ``(2*Hs + 1, 2*Ht + 1)``.

    Used by the cost model: an interior point evaluates a
    ``(2Hs+1)^2`` disk and a ``(2Ht+1)`` bar, and accumulates
    ``(2Hs+1)^2 * (2Ht+1)`` multiply-adds.
    """
    return (2 * grid.Hs + 1, 2 * grid.Ht + 1)


def stamp_cells(grid: GridSpec) -> int:
    """Cells one interior stamp touches: disk evaluation, bar evaluation
    and the cylinder's multiply-adds — the per-point work unit of the
    cost model and of PD-REP's task weights."""
    disk, bar = stamp_extent(grid)
    return disk * disk + bar + disk * disk * bar
