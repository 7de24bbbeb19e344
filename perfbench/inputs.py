"""Seeded inputs: the same ``(workload, seed)`` gives the same arrays.

Only NumPy is imported here — the library under test receives the generated
arrays and nothing else.  All grids use ``sres = tres = 1``, so domain
units are voxels.

The cluster *layout* is fixed and only the noise realisation depends on the
seed: the driver compares runs made with different seeds, so the amount of
work (clipped stamps, candidates per query, cohort count) must not move
with it by more than sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

__all__ = ["Spec", "Inputs", "SPECS", "WORKLOADS", "spec_for", "make_inputs"]


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload (see README.md for why each regime exists)."""

    name: str
    shape: Tuple[int, int, int]
    hs: float
    ht: float
    n_events: int          # static snapshot
    window_batches: int    # live window = this many stream batches
    batch_events: int      # events per stream batch
    max_slides: int        # slides that fit before the window leaves the grid
    query_rows: int        # rows per point-query batch
    region: Tuple[int, int, int]   # bulk-lane region extent (voxels)
    clients: int           # closed-loop asyncio clients
    epoch_requests: int    # single-point requests per read epoch

    @property
    def slab(self) -> float:
        """Thickness along t of one stream batch."""
        return (self.shape[2] - 2.0 * self.ht) / (
            self.window_batches + self.max_slides
        )


SPECS: Dict[str, Spec] = {
    # compute/init >> 1 (the paper's Hr-Hb class): stamping kernels.
    "volume_dense": Spec("volume_dense", (128, 128, 96), 12.0, 4.0, 5000,
                         20, 250, 68, 2000, (40, 40, 20), 16, 320),
    # compute/init << 1 (Flu_Hr-Lb class): allocation, zero-fill, reduction.
    "volume_sparse": Spec("volume_sparse", (384, 384, 96), 2.0, 1.0, 20000,
                          20, 1000, 74, 2000, (40, 40, 20), 16, 320),
    # big batches over a static snapshot: index gather + pair kernels.
    "serve_static": Spec("serve_static", (96, 96, 64), 4.0, 3.0, 40000,
                         20, 2000, 38, 3000, (40, 40, 20), 16, 320),
    # single-point traffic over a sliding window: per-request overhead.
    "serve_live": Spec("serve_live", (64, 64, 224), 3.0, 2.0, 20000,
                       20, 1000, 200, 2000, (40, 40, 20), 16, 640),
}
WORKLOADS = tuple(SPECS)

_SMOKE = dict(shape=(24, 24, 24), n_events=400, window_batches=4,
              batch_events=50, max_slides=6, query_rows=64,
              region=(8, 8, 4), clients=4, epoch_requests=16)


def spec_for(name: str, smoke: bool = False) -> Spec:
    spec = SPECS[name]
    if not smoke:
        return spec
    # Bandwidths stay: the regime is the bandwidth-to-grid ratio's sign.
    return replace(spec, hs=min(spec.hs, 4.0), **_SMOKE)


# Fixed cluster layout (fractions of the domain), shared by every seed.
_CENTRES = np.array([
    [0.25, 0.30, 0.20], [0.70, 0.25, 0.35], [0.45, 0.55, 0.50],
    [0.30, 0.75, 0.65], [0.75, 0.70, 0.80], [0.55, 0.35, 0.70],
    [0.20, 0.50, 0.40], [0.65, 0.50, 0.25],
])
_SIGMA = 0.07


def _clustered(rng: np.random.Generator, n: int, extent: np.ndarray,
               dims: int = 3) -> np.ndarray:
    """``n`` points in equal-sized clusters around the fixed centres."""
    which = np.arange(n) % len(_CENTRES)
    pts = (_CENTRES[which, :dims]
           + rng.normal(0.0, _SIGMA, (n, dims))) * extent[:dims]
    return np.clip(pts, 0.01, extent[:dims] - 0.01)


class Inputs:
    """Everything one workload run feeds to the library."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.extent = np.array(spec.shape, dtype=np.float64)
        rng = np.random.default_rng([self.seed, 0])
        self.events = _clustered(rng, spec.n_events, self.extent)
        m = spec.query_rows
        uniform = rng.uniform(0.01, 0.99, (m // 2, 3)) * self.extent
        near = (self.events[rng.integers(0, spec.n_events, m - m // 2)]
                + rng.normal(0.0, 1.0, (m - m // 2, 3)))
        self.queries = np.clip(
            np.vstack([uniform, near]), 0.01, self.extent - 0.01
        )
        # Point pool of the live window: unique voxel centres, t relative
        # to the window's start.  Centres, because the planner may serve a
        # point from the trilinear lookup, which is exact only there;
        # unique, so no two coalesced batches can share a cache digest.
        r = spec.epoch_requests
        span_t = spec.window_batches * spec.slab
        xy = np.vstack([
            rng.uniform(0.01, 0.99, (2 * r, 2)) * self.extent[:2],
            _clustered(rng, 2 * r, self.extent, dims=2),
        ])
        t = rng.uniform(0.0, span_t, (4 * r, 1))
        cells = np.floor(np.hstack([xy, t])[rng.permutation(4 * r)])
        _, first = np.unique(cells, axis=0, return_index=True)
        if first.size < r:
            raise ValueError("live window too small for a unique point pool")
        self._pool = cells[np.sort(first)[:r]] + 0.5

    # -- live stream ----------------------------------------------------
    def window_start(self, k: int) -> float:
        """Horizon after ``k`` slides: everything older has been retired."""
        return self.spec.ht + k * self.spec.slab

    def stream_batch(self, i: int) -> np.ndarray:
        """Stream batch ``i``: clustered in space, uniform in its t-slab."""
        s = self.spec
        rng = np.random.default_rng([self.seed, 1, i])
        xy = _clustered(rng, s.batch_events, self.extent, dims=2)
        t = rng.uniform(self.window_start(i), self.window_start(i + 1),
                        (s.batch_events, 1))
        return np.hstack([xy, t])

    def live_events(self, k: int) -> np.ndarray:
        """Events in the window after ``k`` slides (the oracle's view)."""
        w = self.spec.window_batches
        return np.vstack([self.stream_batch(i) for i in range(k, k + w)])

    def point_pool(self, k: int) -> np.ndarray:
        """The epoch's single-point requests, moved with the window and
        re-snapped to voxel centres (one common shift keeps them unique)."""
        pool = self._pool.copy()
        pool[:, 2] = np.floor(pool[:, 2] + self.window_start(k)) + 0.5
        return pool

    def region_window(self, k: int = 0) -> Tuple[int, int, int, int, int, int]:
        """Bulk-lane voxel window, centred in x/y, riding the live window."""
        gx, gy, gt = self.spec.shape
        wx, wy, wt = self.spec.region
        x0, y0 = (gx - wx) // 2, (gy - wy) // 2
        t0 = min(int(self.window_start(k)), gt - wt)
        return (x0, x0 + wx, y0, y0 + wy, t0, t0 + wt)

    # -- point-query batches -----------------------------------------------
    def query_batch(self, k: int) -> np.ndarray:
        """Batch ``k``: the base rows rolled by ``k``.

        Same multiset of rows (identical kernel work, one oracle answer
        set) but a different byte string, so no two batches share a
        result-cache digest.  Base row ``j`` sits at ``(j + k) % m``.
        """
        return np.roll(self.queries, k % self.spec.query_rows, axis=0)

    def centre_batch(self, k: int) -> np.ndarray:
        """Batch ``k`` snapped to voxel centres, where the trilinear
        lookup returns the stamped voxel value exactly."""
        return np.floor(self.query_batch(k)) + 0.5


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    return Inputs(spec_for(workload, smoke), seed)
