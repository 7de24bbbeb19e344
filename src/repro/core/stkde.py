"""High-level STKDE estimator facade — the library's front door.

Wraps algorithm selection, domain inference, and execution behind one
object::

    from repro import STKDE, PointSet

    est = STKDE(hs=750.0, ht=7.0, sres=100.0, tres=1.0)
    result = est.estimate(points)          # auto-picks an algorithm
    volume = result.volume                 # (Gx, Gy, Gt) density + geometry

``algorithm="auto"`` consults the Section 6.5 cost model: sequential
PB-SYM for small work, otherwise the predicted-fastest parallel strategy
under the machine's memory budget.  Any registered algorithm name can be
forced explicitly.  Either way :meth:`STKDE.bind` is the one place that
binds the run options onto the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..algorithms.base import STKDEResult, get_algorithm, parallel_algorithms
from .grid import DomainSpec, GridSpec, PointSet, check_bandwidths
from .instrument import PhaseTimer, WorkCounter
from .kernels import KernelPair, get_kernel

__all__ = ["STKDE", "infer_domain"]


def infer_domain(
    points: PointSet,
    *,
    sres: float,
    tres: float,
    hs: float,
    ht: float,
    pad_bandwidth: bool = True,
) -> DomainSpec:
    """Bounding-box domain for a point set.

    Pads by one bandwidth on every side (unless ``pad_bandwidth=False``)
    so no density cylinder is clipped by an artificial boundary.
    """
    if points.n == 0:
        raise ValueError("cannot infer a domain from zero points")
    pad_s = hs if pad_bandwidth else 0.0
    pad_t = ht if pad_bandwidth else 0.0
    x0 = float(points.xs.min()) - pad_s
    y0 = float(points.ys.min()) - pad_s
    t0 = float(points.ts.min()) - pad_t
    gx = float(points.xs.max()) + pad_s - x0
    gy = float(points.ys.max()) + pad_s - y0
    gt = float(points.ts.max()) + pad_t - t0
    # Degenerate extents (all points on a line/instant) still need >= one
    # voxel of domain.
    gx = max(gx, sres)
    gy = max(gy, sres)
    gt = max(gt, tres)
    return DomainSpec(gx=gx, gy=gy, gt=gt, sres=sres, tres=tres, x0=x0, y0=y0, t0=t0)


@dataclass
class STKDE:
    """Space-time kernel density estimator.

    Parameters
    ----------
    hs, ht:
        Spatial / temporal bandwidths in domain units.
    sres, tres:
        Grid resolutions (used when the domain is inferred; ignored when
        an explicit :class:`DomainSpec` is passed to :meth:`estimate`).
    kernel:
        Kernel pair name (``"epanechnikov"`` default) or a
        :class:`KernelPair`.
    algorithm:
        Registered algorithm name, or ``"auto"`` to let the cost model
        choose among the registered parallel strategies (it picks a
        strategy and a decomposition, never a backend).
    P, backend, decomposition:
        Parallel execution parameters, bound by :meth:`bind`.  Real
        threads run only where ``backend="threads"`` is written here.
        ``P="auto"`` resolves to the machine's CPU count at construction,
        so the threaded paths shard by what the hardware offers instead
        of silently running single-shard.
    memory_budget_bytes:
        Optional memory ceiling for strategy selection and execution.
    """

    hs: float
    ht: float
    sres: float = 1.0
    tres: float = 1.0
    kernel: str | KernelPair = "epanechnikov"
    algorithm: str = "auto"
    P: "int | str" = 1
    backend: str = "simulated"
    decomposition: Optional[Tuple[int, int, int]] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        check_bandwidths(self.hs, self.ht)
        if self.sres <= 0 or self.tres <= 0:
            raise ValueError("resolutions must be positive")
        get_kernel(self.kernel)  # fail fast on unknown kernels
        from ..parallel.executors import resolve_shard_count

        self.P = resolve_shard_count(self.P)

    # ------------------------------------------------------------------
    def grid_for(self, points: PointSet, domain: Optional[DomainSpec] = None) -> GridSpec:
        """The grid this estimator would use for the given points."""
        dom = domain or infer_domain(
            points, sres=self.sres, tres=self.tres, hs=self.hs, ht=self.ht
        )
        return GridSpec(dom, hs=self.hs, ht=self.ht)

    def bind(self, name: str, decomposition: Optional[Tuple[int, int, int]]) -> dict:
        """The run options algorithm ``name`` is called with: each of the
        :data:`~repro.algorithms.base.RUN_OPTIONS` its signature names that
        is set (``decomposition``: the user's, or the model's pick).  A
        sequential algorithm takes them only on real threads (``P > 1``,
        ``backend="threads"``: PB-SYM's threaded path)."""
        fn = get_algorithm(name)  # raises on unknown
        threaded = self.P > 1 and self.backend == "threads"
        if not threaded and name not in parallel_algorithms():
            return {}
        given = dict(P=self.P, backend=self.backend, decomposition=decomposition,
                     memory_budget_bytes=self.memory_budget_bytes)
        return {o: given[o] for o in fn.run_options if given[o] is not None}

    def _choose_algorithm(
        self, points: PointSet, grid: GridSpec
    ) -> Tuple[str, Optional[Tuple[int, int, int]]]:
        """The algorithm to run and the decomposition to bind."""
        if self.algorithm != "auto":
            return self.algorithm, self.decomposition
        if self.P <= 1:
            return "pb-sym", None
        from ..analysis.model import select_strategy

        best, _ = select_strategy(
            grid, points, self.P, memory_budget_bytes=self.memory_budget_bytes
        )
        return best.algorithm, best.decomposition

    def estimate(
        self,
        points: PointSet | np.ndarray,
        domain: Optional[DomainSpec] = None,
        *,
        counter: Optional[WorkCounter] = None,
        timer: Optional[PhaseTimer] = None,
    ) -> STKDEResult:
        """Compute the density volume for a point set.

        ``points`` may be a :class:`PointSet` or a raw ``(n, 3)`` array of
        ``(x, y, t)`` rows.  Without an explicit ``domain`` the bounding
        box (padded by one bandwidth) is used.
        """
        pts = points if isinstance(points, PointSet) else PointSet(points)
        grid = self.grid_for(pts, domain)
        name, decomposition = self._choose_algorithm(pts, grid)
        result = get_algorithm(name)(
            pts, grid, kernel=self.kernel, counter=counter, timer=timer,
            **self.bind(name, decomposition),
        )
        result.meta.setdefault("selected_by", "user" if self.algorithm != "auto" else "model")
        return result
