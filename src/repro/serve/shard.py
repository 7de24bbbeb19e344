"""What a shard is, and how the domain is cut into them.

A :class:`Shard` holds one disjoint subset of the events — a static
``(coords, weights)`` snapshot behind a
:class:`~repro.core.index.BucketIndex` built on first use, or a live
:class:`~repro.core.window.Window` over an index of its own — and gives
the two answers the serving tier is built from: kernel sums at points and
a stamped voxel region.  Both take the prefactor ``norm`` as
an *argument*: the engine folds it into a region's stamps and derives the
sampler's floor from it, so scaling afterwards would change bits.  A
:class:`~repro.serve.service.DensityService` hosts one shard in process
and passes its ``1 / (W hs^2 ht)``; a worker process
(:mod:`repro.serve.worker`) hosts one and passes ``1.0``, and its
coordinator scales the gathered sum.  That coordinator keeps its own copy
of each worker's rows (:class:`~repro.serve.supervisor.ShardLog`) and
reads every gauge there, so a worker's mutations reply nothing.

A :class:`ShardPlan` partitions the space-time domain into ``P`` disjoint
x-slabs (cuts from :func:`repro.core.regions.plan_serving_shards`, balanced
on the event column histogram).  Every event is **owned by exactly one
shard** — the one whose x-interval contains it — so the per-shard kernel
sums are over disjoint event subsets and *add up to the global estimator
exactly* (the only fp effect is re-association of the outer sum, orders of
magnitude below the ``rtol=1e-12`` equivalence bar).

The **halo rule** lives on the query side, not the data side: the kernels
have finite support, so a query at ``x`` draws density only from events in
``[x - hs, x + hs]``.  :meth:`ShardPlan.scatter_spans` therefore widens
each query by one spatial bandwidth before mapping it onto the cut array —
the contacted span ``[lo, hi]`` covers every shard whose owned interval
intersects the query's support ball, and no event is ever shipped or
replicated across a cut.  A query that lands well inside a shard contacts
only its home shard; one within ``hs`` of a cut contacts both neighbours
and the coordinator sums their partials.

Ownership is computed with ``searchsorted`` against cut positions that lie
on voxel-column boundaries, so both sides of a process boundary (the
coordinator scattering and a worker filtering) reach the same verdict
under identical float arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ..core.grid import GridSpec, VoxelWindow
from ..core.index import BucketIndex
from ..core.instrument import WorkCounter
from ..core.kernels import KernelPair, get_kernel
from ..core.regions import plan_serving_shards
from ..core.window import Window, slab_split
from .engine import RegionResult, approx_sum, direct_region, direct_sum

__all__ = ["Shard", "ShardPlan", "plan_shards"]


class Shard:
    """One shard's events, their bucket index, and the answers over them.

    Built from picklable facts only (``kernel`` may be a name), so a
    worker can construct it after ``spawn``.  ``window`` hands in a live
    :class:`~repro.core.window.Window` over a
    :class:`~repro.core.index.BucketIndex` the caller keeps feeding (a
    live estimator's); without one the shard serves whatever
    :meth:`load_static` gave it, or becomes live on its first
    :meth:`add` / :meth:`remove` / :meth:`slide`, over an index of its
    own.  A live window's index *is* the shard's index.
    """

    def __init__(
        self,
        grid: GridSpec,
        kernel: str | KernelPair,
        *,
        counter: Optional[WorkCounter] = None,
        window: Optional[Window] = None,
    ) -> None:
        self.grid = grid
        self.kernel = get_kernel(kernel)
        self.counter = counter if counter is not None else WorkCounter()
        self.window = window
        self.weights: Optional[np.ndarray] = None
        self._coords = np.empty((0, 3))  # the static snapshot
        self._index: Optional[BucketIndex] = None  # the snapshot's

    # -- state ------------------------------------------------------------
    def load_static(
        self, coords: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> None:
        """Serve this snapshot (replacing whatever was held)."""
        self._coords = np.ascontiguousarray(coords, dtype=np.float64)
        self.weights = (
            None if weights is None
            else np.ascontiguousarray(weights, dtype=np.float64)
        )
        self._index = None

    def rows(self) -> np.ndarray:
        """Current event rows: the snapshot, or the live window gathered
        from its index (a copy, in the index's row order)."""
        return self._coords if self.window is None else self.window.store.live_rows()

    def index(self) -> BucketIndex:
        """The bucket index over the current events: a live window's
        own, or the snapshot's, built on first use."""
        if self.window is not None:
            return self.window.store
        if self._index is None:
            self._index = BucketIndex(
                self.grid, self._coords, self.weights, counter=self.counter
            )
        return self._index

    def index_stats(self) -> Optional[dict]:
        """The index's gauges (``None`` while a snapshot's is unbuilt)."""
        if self.window is None and self._index is None:
            return None
        return self.index().stats()

    @property
    def events(self) -> int:
        """Number of events held (a running count for a live window)."""
        return self.window.n if self.window is not None else len(self._coords)

    def weight(self) -> float:
        """This shard's share of the estimator's total weight ``W``."""
        if self.weights is not None:
            return float(self.weights.sum())
        return float(self.events)

    def stats(self) -> dict:
        """Size and this shard's work counter, as one picklable dict."""
        return {
            "events": self.events,
            "weight": self.weight(),
            "work": self.counter.as_dict(),
        }

    # -- mutations --------------------------------------------------------
    def _mutate(self, op, *args):
        """Apply window op ``op`` — becoming live first, over an index of
        the shard's own — then the index's upkeep."""
        if self.window is None:
            # One counter per shard: the window's index gauges show up in
            # :meth:`stats`'s ``work``.
            self.window = Window(BucketIndex(self.grid),
                                 partial(slab_split, self.grid), self.counter)
            self._coords, self.weights, self._index = np.empty((0, 3)), None, None
        out = op(self.window, *args)
        self.window.store.maintain(self.counter)
        return out

    def add(self, rows: np.ndarray) -> None:
        self._mutate(Window.add, rows)

    def remove(self, rows: np.ndarray) -> None:
        self._mutate(Window.remove, rows)

    def slide(self, rows: np.ndarray, t_horizon: float) -> int:
        """Add ``rows``, retire events before ``t_horizon``; the count retired."""
        return self._mutate(Window.slide, rows, t_horizon)

    # -- answers ----------------------------------------------------------
    def points(
        self,
        queries: np.ndarray,
        norm: float,
        eps: Optional[float] = None,
        seed: int = 0,
    ) -> np.ndarray:
        """``norm`` times the kernel sums at ``queries`` over this shard's
        events: exact, or importance-sampled within ``eps`` when given.
        Partial Hansen–Hurwitz estimates over disjoint event subsets add
        like exact partials, so a coordinator's gather stays unbiased."""
        if eps is None:
            return direct_sum(
                self.index(), queries, self.kernel, norm, self.counter
            )
        return approx_sum(
            self.index(), queries, self.kernel, norm, self.counter,
            eps=float(eps), seed=seed,
        )

    def region(self, window: VoxelWindow, norm: float) -> RegionResult:
        """This shard's events stamped, ``norm`` folded in, over ``window``."""
        return direct_region(
            self.grid, self.kernel, self.rows(), window, norm, self.counter,
            weights=self.weights,
        )


@dataclass(frozen=True)
class ShardPlan:
    """Disjoint x-slab ownership plan for ``n_shards`` serving workers.

    ``cuts`` holds the ``n_shards - 1`` interior cut positions in domain x
    coordinates (nondecreasing).  Shard ``i`` owns the half-open interval
    ``[cuts[i-1], cuts[i])`` (with the domain edges closing the first and
    last shard), matching ``np.searchsorted(cuts, x, side="right")``.
    """

    grid: GridSpec
    cuts: np.ndarray
    halo: float = field(default=0.0)

    def __post_init__(self) -> None:
        cuts = np.ascontiguousarray(np.asarray(self.cuts, dtype=np.float64))
        if cuts.ndim != 1:
            raise ValueError(f"cuts must be 1-D, got shape {cuts.shape}")
        if cuts.size and np.any(np.diff(cuts) < 0):
            raise ValueError("cuts must be nondecreasing")
        object.__setattr__(self, "cuts", cuts)
        halo = float(self.halo) if self.halo else float(self.grid.hs)
        object.__setattr__(self, "halo", halo)

    @property
    def n_shards(self) -> int:
        """Number of shards (cut count plus one)."""
        return self.cuts.size + 1

    # ------------------------------------------------------------------
    # Event ownership (disjoint)
    # ------------------------------------------------------------------
    def owner_of(self, xs: np.ndarray) -> np.ndarray:
        """Owning shard id for each event x coordinate (``(n,) -> (n,)``)."""
        xs = np.asarray(xs, dtype=np.float64)
        return np.searchsorted(self.cuts, xs, side="right")

    def partition(self, coords: np.ndarray) -> list:
        """Row-index arrays splitting ``coords`` by owning shard.

        Returns ``n_shards`` ``int64`` arrays; their concatenation is a
        permutation of ``arange(len(coords))`` (every row owned exactly
        once).  Preserves input row order within each shard.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape[0] == 0:
            return [np.empty(0, np.int64) for _ in range(self.n_shards)]
        owner = self.owner_of(coords[:, 0])
        return [
            np.flatnonzero(owner == s).astype(np.int64)
            for s in range(self.n_shards)
        ]

    # ------------------------------------------------------------------
    # Query scatter (halo-widened)
    # ------------------------------------------------------------------
    def scatter_spans(self, xs: np.ndarray):
        """Per-query contacted shard spans ``(lo, hi)``, both inclusive.

        A query at ``x`` must hear from every shard owning events in
        ``[x - halo, x + halo]``; because ownership intervals are sorted
        that set is the contiguous span ``searchsorted(cuts, x - halo,
        "right") .. searchsorted(cuts, x + halo, "right")``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        lo = np.searchsorted(self.cuts, xs - self.halo, side="right")
        hi = np.searchsorted(self.cuts, xs + self.halo, side="right")
        return lo, hi

    def shards_for_window(self, window: VoxelWindow) -> np.ndarray:
        """Shard ids owning events that can reach ``window``'s voxels.

        Widens the window's domain-x extent by one halo (voxel centers
        are what get stamped, but the window edge bound with the halo
        already covers every reaching event).
        """
        d = self.grid.domain
        x_lo = d.x0 + window.x0 * d.sres - self.halo
        x_hi = d.x0 + window.x1 * d.sres + self.halo
        lo = int(np.searchsorted(self.cuts, x_lo, side="right"))
        hi = int(np.searchsorted(self.cuts, x_hi, side="right"))
        return np.arange(lo, hi + 1, dtype=np.int64)


def plan_shards(
    grid: GridSpec, coords: np.ndarray, n_shards: int
) -> ShardPlan:
    """Build a :class:`ShardPlan` with event-balanced cuts.

    Thin wrapper over :func:`repro.core.regions.plan_serving_shards`; the
    halo defaults to one spatial bandwidth, the kernel support.
    """
    cuts = plan_serving_shards(grid, np.asarray(coords, dtype=np.float64),
                               n_shards)
    return ShardPlan(grid, cuts)
