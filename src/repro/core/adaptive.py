"""Adaptive-bandwidth STKDE — the conclusion's future-work feature.

The paper closes with: *"we would like to investigate how these methods
apply to a bandwidth that adapts to the density of population of the
area"*.  This module implements the classic two-pass adaptive estimator
(Silverman 1986, §5.3 — the paper's own kernel-density reference) in
space-time form:

1. a **pilot pass** evaluates a fixed-bandwidth PB-SYM estimate at the
   *event locations* themselves;
2. per-event scale factors ``lambda_i = (pilot_i / g)^(-alpha)`` (``g`` the
   geometric mean of the pilot values, ``alpha`` the sensitivity, 0.5 by
   convention) widen the bandwidth where events are sparse and narrow it
   in dense cores;
3. the final pass stamps each event with *its own* cylinder
   ``(hs * lambda_i, ht * lambda_i)``, still via the PB-SYM disk (x) bar
   factorisation — the symmetry the paper exploits is per-point, so it
   survives per-point bandwidths unchanged.

Each event's contribution is normalised by ``1/(n hs_i^2 ht_i)``, so the
estimator remains a probability density (interior mass ~= 1).

Parallelisation note: per-point bandwidths break PB-SYM-PD's *uniform*
block-size constraint — the decomposition must satisfy ``2 * max_i(hs_i)``
— which is exactly the interaction the paper flags as future work.
:func:`adaptive_pd_block_constraint` computes that bound; the sequential
estimator below is registered as ``"pb-sym-adaptive"``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..algorithms.base import STKDEResult, register_algorithm
from ..algorithms.pb_sym import pb_sym
from .grid import GridSpec, PointSet, Volume
from .instrument import PhaseTimer, WorkCounter
from .kernels import KernelPair

__all__ = ["adaptive_pb_sym", "pilot_at_points", "adaptive_pd_block_constraint"]

#: Scale factors are clipped to this range: unbounded widening would let a
#: single isolated point smear over the whole domain (and allocate a
#: window of the full grid).
LAMBDA_RANGE = (0.25, 4.0)


def pilot_at_points(
    points: PointSet,
    grid: GridSpec,
    kernel: KernelPair,
    counter: WorkCounter,
) -> np.ndarray:
    """Fixed-bandwidth pilot density evaluated at the event voxels."""
    pilot = pb_sym(points, grid, kernel=kernel, counter=counter)
    vox = grid.voxels_of(points.coords)
    return pilot.data[vox[:, 0], vox[:, 1], vox[:, 2]]


def _lambda_factors(pilot_values: np.ndarray, alpha: float) -> np.ndarray:
    """Silverman's local scale factors, clipped to :data:`LAMBDA_RANGE`."""
    floor = max(pilot_values.max() * 1e-12, 1e-300)
    vals = np.maximum(pilot_values, floor)
    g = np.exp(np.mean(np.log(vals)))
    lam = (vals / g) ** (-alpha)
    return np.clip(lam, *LAMBDA_RANGE)


def adaptive_pd_block_constraint(grid: GridSpec, lambdas: np.ndarray) -> Tuple[int, int]:
    """Minimum PD block edges (voxels) under per-point bandwidths.

    Point decomposition stays safe iff blocks exceed twice the *largest*
    realised bandwidth; returns ``(min_spatial_edge, min_temporal_edge)``.
    """
    lam_max = float(lambdas.max())
    Hs_max = int(np.ceil(lam_max * grid.hs / grid.domain.sres))
    Ht_max = int(np.ceil(lam_max * grid.ht / grid.domain.tres))
    return 2 * Hs_max + 1, 2 * Ht_max + 1


@register_algorithm("pb-sym-adaptive")
def adaptive_pb_sym(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    alpha: float = 0.5,
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
) -> STKDEResult:
    """Two-pass adaptive-bandwidth STKDE (``alpha=0`` reduces to PB-SYM).

    ``meta["lambdas"]`` carries the per-event scale factors and
    ``meta["pd_min_block"]`` the PD block-size bound they imply.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be within [0, 1], got {alpha}")

    with timer.phase("pilot"):
        pilot_vals = pilot_at_points(points, grid, kernel, counter)
        lambdas = (
            _lambda_factors(pilot_vals, alpha)
            if alpha > 0.0
            else np.ones(points.n)
        )

    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size

    d = grid.domain
    hs2ht = None  # per-point below
    with timer.phase("compute"):
        for i, (x, y, t) in enumerate(points):
            lam = float(lambdas[i])
            hs_i = grid.hs * lam
            ht_i = grid.ht * lam
            Hs_i = int(np.ceil(hs_i / d.sres))
            Ht_i = int(np.ceil(ht_i / d.tres))
            Xi, Yi, Ti = grid.voxel_of(x, y, t)
            x0, x1 = max(0, Xi - Hs_i), min(grid.Gx, Xi + Hs_i + 1)
            y0, y1 = max(0, Yi - Hs_i), min(grid.Gy, Yi + Hs_i + 1)
            t0, t1 = max(0, Ti - Ht_i), min(grid.Gt, Ti + Ht_i + 1)
            if x0 >= x1 or y0 >= y1 or t0 >= t1:
                continue
            norm_i = 1.0 / (points.n * hs_i * hs_i * ht_i)
            dx = grid.x_centers(x0, x1) - x
            dy = grid.y_centers(y0, y1) - y
            d2 = dx[:, None] ** 2 + dy[None, :] ** 2
            inside = d2 < hs_i * hs_i
            if kernel.spatial_radial is not None:
                disk = kernel.spatial_radial(d2 * (1.0 / (hs_i * hs_i)))
            else:
                u = dx[:, None] / hs_i
                v = dy[None, :] / hs_i
                disk = kernel.spatial(
                    np.broadcast_to(u, inside.shape),
                    np.broadcast_to(v, inside.shape),
                )
            disk = disk * norm_i
            disk *= inside
            dt = grid.t_centers(t0, t1) - t
            bar = kernel.temporal(dt / ht_i)
            bar *= np.abs(dt) <= ht_i
            vol[x0:x1, y0:y1, t0:t1] += disk[:, :, None] * bar[None, None, :]
            counter.spatial_evals += disk.size
            counter.temporal_evals += bar.size
            counter.madds += disk.size * bar.size
        counter.points_processed += points.n

    return STKDEResult(
        Volume(vol, grid),
        "pb-sym-adaptive",
        timer,
        counter,
        meta={
            "alpha": alpha,
            "lambdas": lambdas,
            "lambda_range": (float(lambdas.min()), float(lambdas.max())),
            "pd_min_block": adaptive_pd_block_constraint(grid, lambdas),
        },
    )
