"""Unified region-accumulation engine: every bounded write into a volume.

The stamping engine (:mod:`repro.core.stamping`) owns the point-stamp
write path; this module owns the bounded writes around it, so the
voxel-based tiles, PB-SYM's threaded shards and the incremental estimator
share one machinery:

``accumulate_voxel_tile``
    The VB/VB-DEC tile path: a (voxel-chunk x point-block) tile evaluated
    through the compute backend's ``masked_kernel_product`` (one
    inside-mask + spatial + temporal evaluation over broadcastable offset
    arrays — the same primitive behind the stamping engine's ``mode="pb"``
    tables and the query tiers, so masks and work accounting stay in
    lock-step), summed over the point axis, and scattered onto the flat
    volume.

``RegionBuffer``
    A private accumulation buffer covering only a bounding-box window of
    the grid.  PB-SYM's ``backend="threads"`` stamps each shard into one
    instead of a full private volume, as PB-SYM-DR does: a shard of
    clustered points touches a fraction of the grid, so its buffer (and
    the reduction traffic to merge it) shrinks to that fraction.  The
    incremental estimator keeps its live window as the same buffers, one
    per unit: sliding-window retirement drops a buffer instead of
    re-tabulating kernels.

``plan_stamp_shards``
    Balanced shard planning for those threaded shards.  Points are
    ordered by stamp-window origin before sharding so each shard's
    bounding box is a compact slab rather than the whole grid — the
    difference between ``P`` full volumes and a few percent of one.

Everything here preserves the engine's numerical contract: identical
masks and expression order to the legacy per-point / per-tile paths, with
equivalence pinned at ``rtol=1e-12`` by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .backends import ComputeBackend, get_backend
from .grid import GridSpec, VoxelWindow, zeroed_volume
from .instrument import WorkCounter, null_counter
from .kernels import KernelPair
from .stamping import batch_windows, stamp_batch

__all__ = [
    "accumulate_voxel_tile",
    "accumulate_voxel_tile_batch",
    "batch_bbox",
    "RegionBuffer",
    "ShardPlan",
    "plan_stamp_shards",
    "plan_serving_shards",
    "auto_slab_voxels",
    "plan_time_slabs",
]


def accumulate_voxel_tile(
    out_flat: np.ndarray,
    vox_index: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    ct: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pt: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    norm: float,
    counter: Optional[WorkCounter] = None,
    compute: "ComputeBackend | str | None" = None,
) -> None:
    """Accumulate one (voxel-chunk x point-block) tile onto a flat volume.

    The engine's voxel-based write path, shared by VB and VB-DEC:
    ``cx/cy/ct`` are the chunk's voxel-center coordinates, ``px/py/pt`` the
    point block, ``vox_index`` the chunk's positions in ``out_flat`` — a
    volume's :func:`~repro.core.grid.flat_view`, whose voxels
    :meth:`~repro.core.grid.GridSpec.voxels_at` names.  The kernel
    products are evaluated on the full tile and
    masked (preserving the Theta(voxels * points) operation profile of
    Algorithm 1), summed over the point axis, and scattered in one indexed
    add.  Each call is one tile batch (``counter.tile_batches``).
    ``compute`` names the pair-evaluation backend (``None``: the default);
    VB and VB-DEC pass ``"numpy-ref"``, bit-identical to the pre-seam path.
    """
    counter = counter if counter is not None else null_counter()
    backend = get_backend(compute)
    dx = cx[:, None] - px[None, :]
    dy = cy[:, None] - py[None, :]
    dt = ct[:, None] - pt[None, :]
    contrib = backend.masked_kernel_product(
        grid, kernel, dx, dy, dt, counter
    ).sum(axis=1)
    out_flat[vox_index] += contrib * norm
    counter.tile_batches += 1


def accumulate_voxel_tile_batch(
    out_flat: np.ndarray,
    vox_index: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    ct: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pt: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    norm: float,
    counter: Optional[WorkCounter] = None,
    compute: "ComputeBackend | str | None" = None,
) -> None:
    """Accumulate a cohort of same-shape voxel tiles in one dispatch.

    The batched form of :func:`accumulate_voxel_tile`: ``vox_index`` /
    ``cx`` / ``cy`` / ``ct`` are ``(B, V)`` stacks of ``B`` tiles' voxel
    indices and center coordinates, ``px/py/pt`` the ``(B, K)`` stacks of
    their candidate point blocks.  One ``(B, V, K)`` tabulation through
    the backend's ``masked_kernel_product`` replaces ``B`` separate
    dispatches —
    within each tile the point axis keeps its order and length, so the
    per-voxel pairwise sums reduce exactly as the unbatched path's.  The
    tiles' flat voxel indices must be pairwise disjoint across the batch
    (VB-DEC blocks are, by construction), making the scatter a plain
    indexed add.  Each call is one tile batch (``counter.tile_batches``).
    """
    counter = counter if counter is not None else null_counter()
    backend = get_backend(compute)
    dx = cx[:, :, None] - px[:, None, :]
    dy = cy[:, :, None] - py[:, None, :]
    dt = ct[:, :, None] - pt[:, None, :]
    contrib = backend.masked_kernel_product(
        grid, kernel, dx, dy, dt, counter
    ).sum(axis=2)
    out_flat[vox_index.ravel()] += contrib.ravel() * norm
    counter.tile_batches += 1


def batch_bbox(
    grid: GridSpec,
    coords: np.ndarray,
    clip: Optional[VoxelWindow] = None,
) -> Optional[VoxelWindow]:
    """Joint bounding window of a batch's clipped stamps, or ``None``.

    The smallest axis-aligned box containing every live (non-empty) stamp
    window of the batch — the region a :class:`RegionBuffer` must cover to
    absorb the whole batch.  ``None`` when no stamp survives clipping.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return None
    X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords, clip)
    live = (X1 > X0) & (Y1 > Y0) & (T1 > T0)
    if not live.any():
        return None
    return VoxelWindow(
        int(X0[live].min()), int(X1[live].max()),
        int(Y0[live].min()), int(Y1[live].max()),
        int(T0[live].min()), int(T1[live].max()),
    )


class RegionBuffer:
    """A private accumulation buffer covering one bounding-box window.

    Replaces full-grid private volumes wherever a writer only touches a
    bounded region: PB-SYM's threaded shards and the incremental
    estimator's unit caches.  The buffer's voxel ``(0, 0, 0)`` sits at
    ``window``'s origin in grid coordinates; :meth:`stamp` routes through
    the batched stamping engine with the matching ``vol_origin``.
    ``data`` is indexed ``[x, y, t]`` and stored t-outermost, like every
    volume (:func:`~repro.core.grid.empty_volume`), so the buffer adds
    into its window of a volume one contiguous ``(wx, wy)`` plane per t.
    """

    __slots__ = ("window", "data")

    def __init__(self, window: VoxelWindow) -> None:
        if window.empty:
            raise ValueError(f"cannot buffer an empty window: {window}")
        self.window = window
        # Zeroed and faulted in here, like GridSpec.allocate, so buffer
        # zeroing shows up in timings the way the paper measures.
        self.data = zeroed_volume(window.shape)

    @property
    def cells(self) -> int:
        """Number of voxels the buffer covers."""
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def origin(self) -> Tuple[int, int, int]:
        """Grid coordinates of the buffer's voxel ``(0, 0, 0)``."""
        return (self.window.x0, self.window.y0, self.window.t0)

    def stamp(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        coords: np.ndarray,
        norm: float,
        counter: Optional[WorkCounter] = None,
        *,
        mode: str = "sym",
        clip: Optional[VoxelWindow] = None,
        weights: Optional[np.ndarray] = None,
        compute: "ComputeBackend | str | None" = None,
    ) -> None:
        """Stamp a point batch into the buffer through the engine.

        Stamps are clipped to the buffer's window (intersected with any
        caller ``clip``); windows already inside the buffer are unchanged,
        so the accumulated values are bit-identical to stamping the same
        points into a full volume.  ``weights`` scales each point's
        kernel product (the engine's weighted stamp mode); ``compute``
        selects the pair-evaluation backend.
        """
        clip_w = self.window if clip is None else self.window.intersect(clip)
        stamp_batch(
            self.data, grid, kernel, coords, norm, counter,
            mode=mode, clip=clip_w, vol_origin=self.origin, weights=weights,
            compute=compute,
        )

    def add_into(self, vol: np.ndarray) -> int:
        """Accumulate the buffer into its window of a full volume; returns
        the cells touched."""
        w = self.window
        target = vol[w.x0 : w.x1, w.y0 : w.y1, w.t0 : w.t1]
        target += self.data
        return target.size


@dataclass
class ShardPlan:
    """Balanced shard assignment plus the bounding box of each shard.

    ``shards[p]`` are point indices (into the planned batch) and
    ``windows[p]`` the joint bounding window of their clipped stamps — the
    exact buffer PB-SYM's threaded shard ``p`` allocates.
    """

    shards: List[np.ndarray]
    windows: List[VoxelWindow]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def buffer_cells(self) -> int:
        """Total cells across all shard buffers (they are live together)."""
        return sum(w.volume for w in self.windows)

    @property
    def buffer_bytes(self) -> int:
        """Total float64 bytes of the shard buffers."""
        return self.buffer_cells * 8


def _balanced_bounds(cells: np.ndarray, n_shards: int) -> np.ndarray:
    """Cut positions of near-equal cumulative cell count (``n_shards + 1``)."""
    cum = np.cumsum(cells, dtype=np.float64)
    total = float(cum[-1]) if cum.size else 0.0
    if total <= 0.0:
        return np.linspace(0, cells.size, n_shards + 1).astype(np.int64)
    targets = total * np.arange(1, n_shards) / n_shards
    return np.concatenate(
        ([0], np.searchsorted(cum, targets), [cells.size])
    ).astype(np.int64)


def plan_stamp_shards(
    grid: GridSpec,
    coords: np.ndarray,
    n_shards: int,
    clip: Optional[VoxelWindow] = None,
) -> ShardPlan:
    """Split a point batch into bbox-compact shards of near-equal work.

    Live (unclipped-to-empty) points are ordered by stamp-window origin
    (x, then y, then t) so that contiguous shards cover compact slab-like
    bounding boxes, then cut into ``n_shards`` spans balanced on stamped
    cell count — boundary-clipped (cheap) and interior (full-stamp) points
    balance, exactly as the previous full-volume sharding did, but each
    shard now knows the only region of the grid it can write.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return ShardPlan([], [])
    X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords, clip)
    wx = np.maximum(X1 - X0, 0)
    wy = np.maximum(Y1 - Y0, 0)
    wt = np.maximum(T1 - T0, 0)
    cells = wx * wy * wt
    live = np.nonzero(cells > 0)[0]
    if live.size == 0:
        return ShardPlan([], [])
    order = live[np.lexsort((T0[live], Y0[live], X0[live]))]
    bounds = _balanced_bounds(cells[order], n_shards)
    shards: List[np.ndarray] = []
    windows: List[VoxelWindow] = []
    for p in range(n_shards):
        if bounds[p + 1] <= bounds[p]:
            continue
        sel = order[int(bounds[p]) : int(bounds[p + 1])]
        shards.append(sel)
        windows.append(
            VoxelWindow(
                int(X0[sel].min()), int(X1[sel].max()),
                int(Y0[sel].min()), int(Y1[sel].max()),
                int(T0[sel].min()), int(T1[sel].max()),
            )
        )
    return ShardPlan(shards, windows)


def plan_serving_shards(
    grid: GridSpec,
    coords: np.ndarray,
    n_shards: int,
) -> np.ndarray:
    """Balanced domain-space x-cuts for shard-owning serving workers.

    Partitions the space-time domain into ``n_shards`` disjoint x-slabs
    (each covering the full y/t extent — serving shards must survive
    window slides, which expire along t, so the cut axis is spatial).
    Cuts are balanced on event count per voxel column — the same
    cumulative-balance rule :func:`plan_stamp_shards` and
    :func:`plan_time_slabs` use, applied to the column histogram — and
    land on voxel-column boundaries, so ownership is deterministic under
    the float arithmetic both sides of a process boundary perform.

    The **halo rule** that makes the partition serve exact queries: the
    kernel support is one bandwidth (``hs`` spatially), so a query at
    ``x`` can only draw density from events in ``[x - hs, x + hs]`` —
    every shard whose owned interval intersects that ball must contribute
    its partial sum, and summing those partials over *disjoint* event
    subsets reproduces the global estimator exactly.  Cuts therefore
    carry no event replication; the halo lives on the query-scatter side
    (see :class:`repro.serve.shard.ShardPlan`).

    Returns the ``n_shards - 1`` interior cut positions in domain x
    coordinates (nondecreasing; a duplicated cut means one shard owns an
    empty interval, which is valid — it simply never receives events).
    Empty ``coords`` fall back to uniform cuts.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    d = grid.domain
    if n_shards == 1:
        return np.empty(0, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return d.x0 + d.gx * np.arange(1, n_shards) / n_shards
    col = np.clip(
        np.floor((coords[:, 0] - d.x0) / d.sres).astype(np.int64),
        0, grid.Gx - 1,
    )
    hist = np.bincount(col, minlength=grid.Gx).astype(np.float64)
    bounds = _balanced_bounds(hist, n_shards)
    return d.x0 + bounds[1:-1].astype(np.float64) * d.sres


def auto_slab_voxels(grid: GridSpec) -> int:
    """Default retirement-slab thickness along t, in voxels.

    Two stamp extents (``2 * (2 Ht + 1)``): adjacent slab buffers overlap
    by at most one stamp extent along t, so this thickness caps the cache
    memory overhead of slabbing at ~50% of the un-slabbed buffer while
    keeping the straddle slab (the only part of a batch a window slide
    ever restamps) a small fraction of the batch.  Thinner slabs buy finer
    retirement granularity at more overlap; docs/PERFORMANCE.md
    ("Retirement-slab thickness") has the measured trade.
    """
    return 2 * (2 * grid.Ht + 1)


def plan_time_slabs(
    grid: GridSpec,
    coords: np.ndarray,
    slab_voxels: Optional[int] = None,
    max_slabs: int = 16,
    clip: Optional[VoxelWindow] = None,
) -> List[np.ndarray]:
    """Partition a batch into t-ordered slabs of near-equal stamp work.

    The retirement-granularity planner of the incremental estimator:
    points are ordered by stamp-window origin along t and cut into spans
    balanced on stamped cell count (the same balancing rule as
    :func:`plan_stamp_shards`, applied along t instead of x), with the
    span count chosen so each slab is about ``slab_voxels`` thick
    (default :func:`auto_slab_voxels`).  A sliding window's horizon then
    expires whole leading slabs — each dropped with its
    :class:`RegionBuffer`, zero kernel evaluations — and cuts through
    at most one *straddle* slab whose survivors need restamping.

    Returns index arrays partitioning ``[0, n)`` (every input point lands
    in exactly one slab, including points whose stamps clip to nothing —
    their windows are degenerate but they still need retirement
    tracking).  A single-element list means slabbing is not worth it for
    this batch's t-extent.
    """
    if max_slabs < 1:
        raise ValueError("max_slabs must be >= 1")
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n == 0:
        return []
    if slab_voxels is None:
        slab_voxels = auto_slab_voxels(grid)
    if slab_voxels < 1:
        raise ValueError("slab_voxels must be >= 1")
    X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords, clip)
    wx = np.maximum(X1 - X0, 0)
    wy = np.maximum(Y1 - Y0, 0)
    wt = np.maximum(T1 - T0, 0)
    cells = wx * wy * wt
    live = cells > 0
    if not live.any():
        return [np.arange(n, dtype=np.int64)]
    t_span = int(T1[live].max() - T0[live].min())
    n_slabs = min(max(1, -(-t_span // slab_voxels)), max_slabs, n)
    if n_slabs == 1:
        return [np.arange(n, dtype=np.int64)]
    order = np.lexsort((X0, Y0, T0)).astype(np.int64)
    bounds = _balanced_bounds(cells[order], n_slabs)
    # The lexsort only places the cuts; inside a slab the input order is
    # restored so tracked coordinates stay stable for callers.
    return [
        np.sort(order[int(bounds[k]) : int(bounds[k + 1])])
        for k in range(n_slabs)
        if bounds[k + 1] > bounds[k]
    ]
