"""Batched stamping engine: cohort-vectorised point-cylinder accumulation.

The point-based algorithms (PB, PB-DISK, PB-BAR, PB-SYM) all share one hot
path: *for every point, tabulate kernel values over its clipped stamp
window and accumulate them into the density volume*.  Executing that loop
point-by-point at the Python level costs a handful of interpreter-dispatched
NumPy calls per point; for the small stamps of realistic bandwidths the
dispatch dominates the arithmetic, and because the loop re-acquires the GIL
between tiny kernels the ``threads`` backend gets almost no real overlap.

This module replaces the per-point loop with **cohort batching**, following
the amortisation idea of bucketed/batched KDE evaluation (Charikar &
Siminelakis, 2018).  A group's live points form at most two cohorts: the
interior points, whose windows all have the full ``(2Hs+1, 2Hs+1, 2Ht+1)``
extent, and the points whose windows the grid edge or a clip window cut.
A clipped point keeps one table shape — its cohort's widest window per
axis, the full stamp unless every clipped window of the cohort is cut on
that axis — and is cut to its window in the scatter, not in the table:
the paper's domain decomposition likewise copies a point into every block
its cylinder meets at no extra multiply-adds.  One stable sort of the live
points by (clipped or not, window origin) yields both cohorts, already in
origin order — then

1. tabulate each cohort's spatial disks as one ``(m, wx, wy)`` vectorised
   computation and its temporal bars as one ``(m, wt)`` computation,
2. form the per-point contributions (outer products for PB-SYM, per-voxel
   kernel products for the other cost profiles) as one ``(m, wx, wy, wt)``
   array stored t-outermost, like the volume, and
3. scatter-accumulate the contributions into the volume with a single
   unbuffered indexed add per cohort slab (``np.add.at`` over the target's
   flat view, at each cell's voxel, each stamp's cells in the target's
   memory order: t, then x, then y; a clipped stamp's cells outside its
   window dropped first) — no bounding box, no partial volume, never
   per-point or per-shape dispatch; the scatter costs what the tabulated
   cells cost, however far apart the stamps lie.

PB-SYM (``mode="sym"``) first takes a shortcut the other profiles cannot:
a point's cylinder *is* ``disk (x) bar``, so the cylinders of ``m`` nearby
points add up to one matrix product.  Each group's live points are binned
on a space-time lattice anchored at the group's own lowest live voxel
(the paper's Section 5 point decomposition, used here for locality
instead of parallelism); every *crowded* bin — one whose stamps cover a
good fraction of its box, see :func:`_crowded_runs` —
tabulates its disks ``(m, BX, BY)`` and bars ``(m, BT)`` once in the box
frame and reduces them with a single ``bar.T @ disk.reshape(m, -1)``
followed by one slice-add of the ``(BT, BX, BY)`` partial — t-outermost,
like the volume it is added to: no 4-D contribution array, no flat
index array.  Points in bins
that are not crowded, and the per-voxel baseline modes, take the cohort
route above unchanged; a batch with no crowded bin leaves the shortcut
after one ``bincount`` of bin keys.  Exact partial sums over disjoint
point subsets recombine exactly (the subset-sum argument of parallel
Bayesian KDE, PAPERS.md), so per-bin partials add up to the same density.

Numerical contract: every route evaluates the same kernel and mask
expressions per cell as the legacy per-point path (same ``d^2 < hs^2`` /
``|dt| <= ht`` masks, same voxel-centre offsets; a cell of a bin's box
outside a point's own window lies outside that point's kernel support
and tabulates to zero).  What differs is the order of the additions into
a voxel.  The cohort route is **bit-identical to sequential stamping
within a slab**: the indexed add performs exactly the additions of one
slice-add per stamp, in ascending order of the slab's (origin-sorted)
points (a stamp adds to each of its cells once, so the order of its
cells is immaterial), so only the cohort/slab grouping reorders
anything.  Crowded bins
accumulate in **BLAS order**: the GEMM sums a bin's points in whatever
blocking the library chooses, bin partials are added bin by bin, and the
normalisation (and any weight) is folded into the bar rather than the
disk.  Each is a reassociation of the same non-cancelling sum, so engine
and legacy volumes agree to ~1e-15 relative — the equivalence suite pins
the bound at ``rtol=1e-12`` for every registered kernel, every route, and
a brute-force kernel sum.  Results are deterministic for a given batch,
grid and BLAS build, but not bit-identical across different batchings of
the same points.  Work counters report the identical logical operation
counts as the per-point path (clipped-window sums on every route), plus
two batching statistics (``stamp_batches``, ``stamp_cohorts`` — the
latter counts tabulation groups: cohorts plus GEMM chunks) that feed the
Section 6.5 cost model.

The geometry of a batch — voxels, clipped windows, the crowded bins and
the cohort order — is a :class:`StampPlan`, built once and stamped group
by group: bins and cohorts are keyed by group first, and each group has
its own clip window, so the block and replica tasks of DD, PD, PD-SCHED
and PD-REP (:mod:`repro.parallel`) each run only their own group's slice
of one plan, with exactly the additions and counts of stamping that
group's points alone.  :func:`stamp_batch` is the plan of one group.

Threads gain nothing on the cohort route: its scatter is one ``np.add.at``
per slab, which does not overlap across threads (two threads each running
it took longer than one thread running both, docs/PERFORMANCE.md); the
GEMM route's matrix products and slice-adds do.  What PB-SYM's
``backend="threads"`` and the threaded strategies gain is therefore a
measured quantity (``parallel.threads_p2_speedup`` in the perfbench
ledger), not a property of this module.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .backends import ComputeBackend, get_backend
from .grid import GridSpec, VoxelWindow
from .instrument import WorkCounter, null_counter
from .kernels import KernelPair

__all__ = ["StampPlan", "stamp_batch", "batch_windows", "STAMP_MODES"]

#: Cost profiles the engine reproduces, one per point-based algorithm:
#: ``"sym"`` tabulates disk and bar and multiply-adds their outer product
#: (PB-SYM); ``"pb"`` evaluates both kernels at every cylinder voxel (PB);
#: ``"disk"`` tabulates the disk and evaluates ``k_t`` per voxel (PB-DISK);
#: ``"bar"`` tabulates the bar and evaluates ``k_s`` per voxel (PB-BAR).
STAMP_MODES = ("sym", "pb", "disk", "bar")

#: Cap on contribution cells materialised per cohort slab (~4 MB of f8,
#: plus as many flat indices).  Kept L3-sized on purpose: cohorts are
#: sorted by window origin before slabbing, so a slab's tables, indices
#: and the region of the target it writes stay cache-resident.
_SLAB_CELLS = 1 << 19

#: Crowding cover of the per-bin GEMM rule: a bin whose clipped stamp
#: cells add up to at least this fraction of its box (bin + halo) is
#: reduced over the box with one matrix product instead of cell by cell.
_CROWD_COVER = 0.125

#: Least stamp cells a bin must hold to be crowded, whatever its box:
#: below this the bin's fixed dispatch (a dozen NumPy calls) costs more
#: than the scatter it would replace.  Measured (docs/PERFORMANCE.md,
#: "Per-group lattice and crowd floor"): at 2**12 one ``hs=12, ht=4``
#: stamp (5 625 cells) is a bin of its own, and a one-point GEMM costs
#: less than that stamp as a cohort of its own; at 2**11 the densest bins
#: of ``hs=2, ht=1`` clusters crowd, and the GEMM does not pay there.
_MIN_BIN_CELLS = 1 << 12

#: Cap on disk-table cells per GEMM chunk (512 KB of f8): the table and
#: the temporaries of its kernel evaluation stay cache-resident, and the
#: allocator recycles one chunk-sized block instead of growing the heap.
_GEMM_CELLS = 1 << 16


def batch_windows(
    grid: GridSpec,
    coords: np.ndarray,
    clip: Optional[VoxelWindow] = None,
) -> Tuple[np.ndarray, ...]:
    """Clipped stamp-window bounds for a batch of points, vectorised.

    Returns six ``(n,)`` int64 arrays ``X0, X1, Y0, Y1, T0, T1`` — the
    half-open voxel ranges of each point's density cylinder intersected
    with the grid and the optional ``clip`` window.  Empty windows come out
    with ``lo >= hi`` and are skipped by the engine.
    """
    bounds = None if clip is None else _limits(grid, [clip])
    return _windows_of(grid, grid.voxels_of(coords), bounds)


def _limits(
    grid: GridSpec, clip: Sequence[Optional[VoxelWindow]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(m, 3)`` lower and upper voxel limits of ``m`` windows, each
    intersected with the grid; ``None`` is the whole grid."""
    wins = [grid.full_window() if w is None else w for w in clip]
    lo = np.maximum([(w.x0, w.y0, w.t0) for w in wins], 0).reshape(-1, 3)
    hi = np.minimum([(w.x1, w.y1, w.t1) for w in wins], grid.shape).reshape(-1, 3)
    return lo, hi


def _windows_of(
    grid: GridSpec,
    vox: np.ndarray,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, ...]:
    """:func:`batch_windows` from the points' voxels (shared with binning),
    clipped to ``bounds = (lo, hi)``: ``(1, 3)`` limits for every point,
    or ``(n, 3)``, one row per point."""
    X0 = np.maximum(vox[:, 0] - grid.Hs, 0)
    X1 = np.minimum(vox[:, 0] + grid.Hs + 1, grid.Gx)
    Y0 = np.maximum(vox[:, 1] - grid.Hs, 0)
    Y1 = np.minimum(vox[:, 1] + grid.Hs + 1, grid.Gy)
    T0 = np.maximum(vox[:, 2] - grid.Ht, 0)
    T1 = np.minimum(vox[:, 2] + grid.Ht + 1, grid.Gt)
    if bounds is not None:
        lo, hi = bounds
        np.maximum(X0, lo[..., 0], out=X0)
        np.minimum(X1, hi[..., 0], out=X1)
        np.maximum(Y0, lo[..., 1], out=Y0)
        np.minimum(Y1, hi[..., 1], out=Y1)
        np.maximum(T0, lo[..., 2], out=T0)
        np.minimum(T1, hi[..., 2], out=T1)
    return X0, X1, Y0, Y1, T0, T1


def _axis_offsets(origin: float, res: float, lo: np.ndarray, width: int,
                  pos: np.ndarray) -> np.ndarray:
    """``(m, width)`` voxel-center offsets ``center - point`` along one axis.

    Reproduces the exact fp operation order of the legacy path
    (``GridSpec.x_centers`` then ``- x``): ``origin + (index + 0.5) * res``
    evaluated per cell, then the point coordinate subtracted.
    """
    idx = lo[:, None] + np.arange(width)[None, :]
    centers = origin + (idx + 0.5) * res
    return centers - pos[:, None]


def _scatter_slab(
    vol: np.ndarray,
    contrib: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    t0: np.ndarray,
    vol_origin: Tuple[int, int, int],
    window: Optional[Tuple[np.ndarray, ...]] = None,
) -> None:
    """Accumulate a cohort slab's contribution cylinders into ``vol``.

    ``contrib`` is indexed ``[i, x, y, t]`` and stored t-outermost, the
    layout :meth:`~repro.core.backends.base.ComputeBackend.cohort_tables`
    returns, stamp ``i``'s table at voxel ``(x0, y0, t0)[i]``.  One
    unbuffered indexed add over the target's flat memory: stamp ``i``'s
    cell ``c`` lands at ``home[i] + cell[c]``, with ``home`` the table's
    origin and ``cell`` the cohort shape's offsets, both in ``vol``'s own
    element strides and ``cell`` in the tables' memory order (t, then x,
    then y) — the volume layout's own, so consecutive adds walk each
    ``(x, y)`` plane of a stamp in memory and the values reach
    ``np.add.at`` without a copy.  ``window`` is ``None`` when every
    table is its stamp's whole window, or the six ``(m,)`` limits ``X0,
    X1, Y0, Y1, T0, T1`` of the stamps' clipped windows when the tables
    are larger (the clipped cohort): each stamp's cells outside its
    window are then dropped, by one compress of the indices and values
    with the product of per-axis in-window masks, before the add.  Any
    target whose elements fill one block of memory in some axis order — a
    volume or buffer of the t-outermost layout (:func:`~repro.core.grid.
    empty_volume`), a t-slab of one, a C- or Fortran-order array — is
    added through its memory-order flat view (``ravel(order="K")``).
    ``np.add.at`` walks the pairs in order — stamp by stamp, each stamp's
    cells once — which is the very sequence of additions of one slice-add
    per stamp (of each stamp's part inside its window), so the two are
    bit-identical; the cost follows the cells tabulated, not the box that
    contains them.

    Any other target (a strided slice) has no flat view (``reshape``
    would copy and the adds be lost) and takes :func:`_slice_adds`.  A
    flat index outside ``vol`` would wrap silently where a slice raised,
    so windows that leave the target are rejected first; a clipped
    cohort's tables may hang off the target, but not its windows.
    """
    m, wx, wy, wt = contrib.shape
    ox, oy, ot = vol_origin
    sx, sy, st = vol.shape
    x0, y0, t0 = x0 - ox, y0 - oy, t0 - ot
    X0, X1, Y0, Y1, T0, T1 = (
        (x0, x0 + wx, y0, y0 + wy, t0, t0 + wt) if window is None
        else (w - o for w, o in zip(window, (ox, ox, oy, oy, ot, ot)))
    )
    if (
        X0.min() < 0 or Y0.min() < 0 or T0.min() < 0
        or X1.max() > sx or Y1.max() > sy or T1.max() > st
    ):
        raise ValueError(
            f"stamp windows leave the target: vol of shape {vol.shape} at "
            f"vol_origin={vol_origin} does not contain every clipped window "
            "(pass clip= to restrict the stamps to the target's window)"
        )
    # Memory order: a view exactly when the elements fill one block,
    # else a copy that would swallow the adds.
    mem = vol.ravel(order="K")
    if not np.may_share_memory(mem, vol):
        _slice_adds(vol, contrib, (x0, y0, t0), (X0, X1, Y0, Y1, T0, T1))
        return
    # The fast ufunc.at loop needs a 1-D target, intp indices and float64
    # values; the multi-index form is an order of magnitude slower.
    ex, ey, et = (s // vol.itemsize for s in vol.strides)
    home = x0 * ex + y0 * ey + t0 * et
    # Cells t-outermost, the tables' own memory order: the values go to
    # ``np.add.at`` as the tables' block, without a copy.
    cell = (
        (np.arange(wt) * et)[:, None, None]
        + (np.arange(wx) * ex)[None, :, None]
        + (np.arange(wy) * ey)[None, None, :]
    ).reshape(-1)
    flat = (home[:, None] + cell[None, :]).reshape(-1)
    vals = contrib.transpose(0, 3, 1, 2).reshape(-1)
    if window is not None:
        # Only each stamp's cells inside its window: the product of the
        # per-axis in-window masks (all three axes in one ``(3, m, w)``
        # pass), one compress of indices and values.
        first = np.array([x0, y0, t0])[:, :, None]
        cells = np.arange(max(wx, wy, wt))
        inside = (cells >= np.array([X0, Y0, T0])[:, :, None] - first) & (
            cells < np.array([X1, Y1, T1])[:, :, None] - first
        )
        plane = inside[0, :, :wx, None] & inside[1, :, None, :wy]
        keep = inside[2, :, :wt, None] & plane.reshape(m, 1, wx * wy)
        keep = keep.reshape(-1)
        flat, vals = flat[keep], vals[keep]
    np.add.at(mem, flat, vals)


def _slice_adds(
    vol: np.ndarray,
    contrib: np.ndarray,
    first: Tuple[np.ndarray, ...],
    window: Tuple[np.ndarray, ...],
) -> None:
    """One slice-add per stamp, its table cut to its window:
    :func:`_scatter_slab`'s route for a target with no flat view (table
    origins ``first`` and windows relative to ``vol``)."""
    x0, y0, t0 = first
    X0, X1, Y0, Y1, T0, T1 = window
    for i in range(contrib.shape[0]):
        x, y, t = x0[i], y0[i], t0[i]
        vol[X0[i] : X1[i], Y0[i] : Y1[i], T0[i] : T1[i]] += contrib[
            i, X0[i] - x : X1[i] - x, Y0[i] - y : Y1[i] - y, T0[i] - t : T1[i] - t
        ]


def _charge_windows(
    counter: WorkCounter,
    mode: str,
    wx: np.ndarray,
    wy: np.ndarray,
    wt: np.ndarray,
) -> None:
    """Charge ``mode``'s logical profile for stamps of clipped windows
    ``wx * wy * wt``, one ``(m,)`` extent per axis.

    The counts are the *mode's* cost profile (what the ``numpy-ref``
    tables evaluate), identical across backends and routes: backends that
    factorise the evaluation, the GEMM route's shared frames and the
    cohort route's full-shape tables of clipped stamps charge the same
    logical work, and show their advantage only in seconds.  O(1) per
    stamp, never a mask reduction.
    """
    disk = wx * wy
    disk_cells, bar_cells = int(disk.sum()), int(wt.sum())
    cells = int((disk * wt).sum())
    if mode == "sym":
        spatial, temporal, tests = disk_cells, bar_cells, disk_cells + bar_cells
    elif mode == "pb":  # one distance test per cell
        spatial = temporal = tests = cells
    elif mode == "disk":
        spatial, temporal, tests = disk_cells, cells, disk_cells + cells
    else:  # "bar"
        spatial, temporal, tests = cells, bar_cells, bar_cells + cells
    counter.spatial_evals += spatial
    counter.temporal_evals += temporal
    counter.distance_tests += tests
    counter.madds += cells


def _bin_edges(grid: GridSpec) -> Tuple[int, int, int]:
    """Bin edge in voxels along x, y, t of the per-bin GEMM route's lattice.

    One bandwidth wide in space, so a bin's box (bin + halo) is three
    stamps across and a few points already cover it; four bandwidths in
    time, so the box's temporal halo (``2 Ht``) is half the bin's own
    extent and the GEMM's ``(bt, bx*by)`` partial — one contiguous
    ``(bx, by)`` plane of the t-outermost volume per row — has enough
    rows to amortise a bin.  Measured on the t-outermost layout
    (docs/PERFORMANCE.md, "Volume layout"): two or eight bandwidths read
    slower, three or six no faster.  The floors keep narrow bandwidths
    from cutting a cluster into bins too small to amortise their dispatch.
    """
    es = max(grid.Hs, 8)
    return es, es, max(4 * grid.Ht, 16)


def _crowded_runs(
    grid: GridSpec,
    vox: np.ndarray,
    windows: Tuple[np.ndarray, ...],
    live: np.ndarray,
    crowd: np.ndarray,
    group: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """PB-SYM's crowded bins: the rows they hold, and where each bin starts.

    Each group's live rows are binned on a :func:`_bin_edges` lattice
    anchored, per axis, at the group's own lowest live voxel, and keyed by
    (group, bin) so that no bin spans two groups.  Wherever a group sits on
    the grid its rows then fill at most ``ceil(extent / edge)`` bins per
    axis: a block of the point decomposition is not cut by a lattice it
    does not line up with.  The anchor is a function of the group's live
    rows alone, so :func:`stamp_batch` on those rows bins them the same
    way.  A bin is *crowded* when its rows' clipped stamp cells add up to
    its group's ``crowd`` (one entry per group, or one for all):
    :data:`_CROWD_COVER` of the box (bin + halo, no larger than the group's
    clipped grid), and at least :data:`_MIN_BIN_CELLS`.  Tabulating every
    point's disk and bar over the whole box then costs less than
    scattering the stamps one cell at a time.

    Returns the crowded rows sorted by (group, bin), ties in input order,
    and the position of each bin's first row among them.  One ``bincount``
    of (group, bin) keys weighs every bin against its group's crowd, so a
    batch with no crowded bin returns before any sort.  Its table holds
    one entry per group and bin of the largest group's extent: a few per
    block for the decomposed strategies' compact groups.
    """
    none = np.zeros(0, dtype=np.int64)
    X0, X1, Y0, Y1, T0, T1 = windows
    edges = _bin_edges(grid)
    if live.size * (2 * grid.Hs + 1) ** 2 * (2 * grid.Ht + 1) < crowd.min():
        return none, none  # too few stamps to crowd even one bin
    if live.size < vox.shape[0]:
        vox = vox[live]
        X0, X1, Y0, Y1, T0, T1 = (w[live] for w in windows)
    cells = (X1 - X0) * (Y1 - Y0) * (T1 - T0)
    # Bins from each group's lowest live voxel, so keys are compact: a
    # batch on a large grid counts over its groups' few bins, not the
    # grid's.  Per axis, on 1-D columns (NumPy's (n, 3) loops are several
    # times slower).
    owner = None if group is None else group[live]
    bins = []
    for axis, edge in enumerate(edges):
        col = vox[:, axis]
        if owner is None:
            anchor = col.min()
        else:
            low = np.full(owner.max() + 1, col.max())
            np.minimum.at(low, owner, col)
            anchor = low[owner]
        bins.append((col - anchor) // edge)
    span = [int(b.max()) + 1 for b in bins]
    size = span[0] * span[1] * span[2]
    # The group is the outer key.
    key = (bins[0] * span[1] + bins[1]) * span[2] + bins[2]
    if owner is not None:
        key += owner * size
    weight = np.bincount(key, weights=cells)
    need = crowd[0] if crowd.size == 1 else crowd[np.arange(weight.size) // size]
    crowded = weight >= need
    if not crowded.any():
        return none, none
    # ``at`` indexes the live-compressed arrays.
    at = np.flatnonzero(crowded[key])
    key = key[at]
    rank = np.argsort(key, kind="stable")
    at, key = at[rank], key[rank]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return live[at], starts


class StampPlan:
    """One batch's stamping geometry, built once and stamped group by group.

    The plan computes every row's voxel, clipped window and liveness once;
    for ``mode="sym"`` the crowded bins of the per-bin GEMM route, keyed by
    (group, lattice bin) (:func:`_crowded_runs`); and the cohort order of
    the live rows those bins leave, with one stable sort by (group,
    clipped or full-shape, origin): at most two cohorts per group.  It
    holds no kernel, weight or target.  :meth:`stamp` runs one group's
    GEMM chunks and cohort slabs into a volume and reads no other group's
    runs, so the block and replica tasks of a decomposed strategy (DD,
    PD, PD-SCHED, PD-REP) share one plan, on any backend.

    ``groups`` is ``None`` (every row in group 0) or an ``(n,)`` array of
    non-negative integer group ids.  ``clip`` is ``None`` (no group
    clipped) or one window per group, ``None`` for a group left unclipped;
    each group's rows are clipped to its window, and its crowded bins are
    judged against its own clipped box.  A group's lattice is anchored at
    its own lowest live voxel, which :func:`stamp_batch` on that group's
    rows alone anchors at too, and ties sort in input order, so stamping a
    group performs exactly the additions — to the bit — of that call, with
    that group's clip, and the same work counts.
    """

    def __init__(
        self,
        grid: GridSpec,
        coords: np.ndarray,
        *,
        mode: str = "sym",
        clip: Optional[Sequence[Optional[VoxelWindow]]] = None,
        groups: Optional[np.ndarray] = None,
    ) -> None:
        if mode not in STAMP_MODES:
            raise ValueError(
                f"unknown stamp mode {mode!r}; expected one of {STAMP_MODES}"
            )
        self.grid = grid
        self.mode = mode
        self.coords = coords = np.asarray(coords, dtype=np.float64)
        n = coords.shape[0]
        if n == 0:
            self.coords = coords = coords.reshape(0, 3)
        group = None
        if groups is not None:
            group = np.asarray(groups)
            if group.shape != (n,) or group.dtype.kind not in "iu" or (
                n and group.min() < 0
            ):
                raise ValueError(
                    f"groups must be ({n},) non-negative integers, got "
                    f"{group.dtype} of shape {group.shape}"
                )
            group = group.astype(np.int64, copy=False)
        #: Rows per group id, live or not (the PD block loads).
        self.counts = np.array([n]) if group is None else np.bincount(
            group, minlength=1 if clip is None else len(clip)
        )
        if clip is not None and len(clip) != self.counts.size:
            raise ValueError(
                f"clip must hold one window (or None) per group: "
                f"{self.counts.size} groups, {len(clip)} windows"
            )
        # Each group's limits: the grid, intersected with its clip window.
        lo, hi = _limits(grid, [None] if clip is None else clip)
        bounds = None
        if clip is not None:
            bounds = (lo, hi) if group is None else (lo[group], hi[group])
        # The crowd of a group's bins: a cover of the box (bin + halo)
        # inside its limits, at least the fixed floor.
        box = np.minimum(
            np.add(_bin_edges(grid), (2 * grid.Hs, 2 * grid.Hs, 2 * grid.Ht)),
            hi - lo,
        ).prod(axis=1)
        crowd = np.maximum(_CROWD_COVER * box, _MIN_BIN_CELLS)
        vox = grid.voxels_of(coords)
        self._windows = X0, X1, Y0, Y1, T0, T1 = _windows_of(grid, vox, bounds)
        self._shapes = wx, wy, wt = X1 - X0, Y1 - Y0, T1 - T0
        live = np.flatnonzero((wx > 0) & (wy > 0) & (wt > 0))

        # GEMM runs, one per crowded bin: rows ``rows[a:b]`` and the
        # bounding box of their windows.
        rows, starts = (
            _crowded_runs(grid, vox, self._windows, live, crowd, group)
            if mode == "sym" and live.size
            else (np.zeros(0, dtype=np.int64),) * 2
        )
        self._gemm_rows = rows
        self._gemm = []
        if rows.size:
            self._gemm = list(zip(
                starts.tolist(),
                np.r_[starts[1:], rows.size].tolist(),
                *(f.reduceat(w[rows], starts).tolist() for w, f in zip(
                    self._windows, (np.minimum, np.maximum) * 3)),
            ))
            left = np.ones(n, dtype=bool)
            left[rows] = False
            live = live[left[live]]

        # Cohort key: clipped or not.  Interior points share the full
        # (2Hs+1, 2Hs+1, 2Ht+1) extent; every point whose window the grid
        # or its group's clip cut joins its group's one clipped cohort,
        # tabulated at that cohort's shape (below) and cut to its window
        # in the scatter.  One stable sort orders every
        # group's cohorts: by group, clipped before full, then window
        # origin in the volume layout's memory order (t, then x, then y),
        # so that consecutive stamps, and the slabs cut from them, write
        # compact, cache-resident regions of the target even when a
        # cohort spans the whole grid; ties keep input order.  The group,
        # if any, is a second sort key.
        full = (wx[live] == 2 * grid.Hs + 1) & (wy[live] == 2 * grid.Hs + 1)
        full &= wt[live] == 2 * grid.Ht + 1
        key = full * grid.n_voxels + grid.flat_index(X0[live], Y0[live], T0[live])
        rank = (
            np.argsort(key, kind="stable") if group is None
            else np.lexsort((key, group[live]))
        )
        self._cohort_rows = order = live[rank]
        full = full[rank]
        change = full[1:] != full[:-1]
        if group is not None:
            change |= group[order[1:]] != group[order[:-1]]
        cuts = np.flatnonzero(np.r_[order.size > 0, change])
        # Every table starts at its row's unclipped stamp origin
        # ``vox - (Hs, Hs, Ht)`` (a full-shape row's window origin) and has
        # the full stamp's shape, except that a clipped cohort's table is,
        # per axis, only as wide as the widest window in it (so a small
        # region's slivers tabulate no more than themselves), each origin
        # moved in as far as that shape needs to cover the row's window.
        half = (grid.Hs, grid.Hs, grid.Ht)
        self._origins = tuple(v - h for v, h in zip(vox.T, half))
        shape = [np.full(cuts.size, 2 * h + 1) for h in half]
        cut = ~full[cuts]
        if cut.any():
            clipped = order[~full]  # cohort by cohort
            lengths = np.diff(np.r_[cuts, order.size])[cut]
            begin = np.r_[0, np.cumsum(lengths)[:-1]]
            for o, hi, w, sh in zip(self._origins, (X1, Y1, T1),
                                    self._shapes, shape):
                sh[cut] = np.maximum.reduceat(w[clipped], begin)
                o[clipped] = np.maximum(
                    o[clipped], hi[clipped] - np.repeat(sh[cut], lengths))
        self._cohorts = list(zip(
            cuts.tolist(), np.r_[cuts[1:], order.size].tolist(),
            full[cuts].tolist(), *(w.tolist() for w in shape),
        ))

        # Each group's runs are contiguous: ``runs[at[g]:at[g + 1]]``.
        self._gemm_at, self._cohort_at = (
            [0, len(runs)] if group is None else np.searchsorted(
                group[first], np.arange(self.counts.size + 1)
            ).tolist()
            for runs, first in ((self._gemm, rows[starts]),
                                (self._cohorts, order[cuts]))
        )

    def stamp(
        self,
        vol: np.ndarray,
        kernel: KernelPair,
        norm: float,
        counter: Optional[WorkCounter] = None,
        *,
        group: int = 0,
        weights: Optional[np.ndarray] = None,
        vol_origin: Tuple[int, int, int] = (0, 0, 0),
        slab_cells: int = _SLAB_CELLS,
        compute: "ComputeBackend | str | None" = None,
    ) -> None:
        """Stamp the rows of one group into ``vol``.

        ``weights`` (if given) are per row of the whole batch, ``(n,)``;
        the other parameters are :func:`stamp_batch`'s.  Writes stay inside
        the bounding box of the clipped windows of the group's own rows.
        """
        backend = get_backend(compute)
        counter = counter if counter is not None else null_counter()
        n = self.coords.shape[0]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError(
                    f"weights must be ({n},) matching coords, got {weights.shape}"
                )
        if not 0 <= group < self.counts.size:
            return
        gemm = self._gemm[self._gemm_at[group] : self._gemm_at[group + 1]]
        cohorts = self._cohorts[self._cohort_at[group] : self._cohort_at[group + 1]]
        if not gemm and not cohorts:
            return  # no live row
        counter.stamp_batches += 1
        if gemm:
            self._stamp_bins(vol, kernel, norm, counter, backend, gemm,
                             weights, vol_origin)

        grid = self.grid
        coords = self.coords
        dom = grid.domain
        for a, b, full, cwx, cwy, cwt in cohorts:
            idx = self._cohort_rows[a:b]
            counter.stamp_cohorts += 1
            step = max(1, slab_cells // (cwx * cwy * cwt))
            for s in range(0, idx.size, step):
                sel = idx[s : s + step]
                x0, y0, t0 = (o[sel] for o in self._origins)
                dx = _axis_offsets(dom.x0, dom.sres, x0, cwx, coords[sel, 0])
                dy = _axis_offsets(dom.y0, dom.sres, y0, cwy, coords[sel, 1])
                dt = _axis_offsets(dom.t0, dom.tres, t0, cwt, coords[sel, 2])
                contrib = backend.cohort_tables(
                    grid, kernel, self.mode, norm, dx, dy, dt, counter
                )
                # Logical work is the windows', which a clipped stamp's
                # table exceeds.
                _charge_windows(counter, self.mode,
                                *(w[sel] for w in self._shapes))
                if weights is not None:
                    contrib *= weights[sel][:, None, None, None]
                window = None if full else tuple(w[sel] for w in self._windows)
                _scatter_slab(vol, contrib, x0, y0, t0, vol_origin, window)

    def _stamp_bins(
        self,
        vol: np.ndarray,
        kernel: KernelPair,
        norm: float,
        counter: WorkCounter,
        backend: ComputeBackend,
        gemm: list,
        weights: Optional[np.ndarray],
        vol_origin: Tuple[int, int, int],
    ) -> None:
        """One group's GEMM route: each crowded bin in chunks of
        :data:`_GEMM_CELLS` disk cells, each chunk one
        ``bar.T @ disk.reshape(m, -1)`` — the sum over its points of
        ``bar (x) disk``, one ``(bx, by)`` plane per t, the volume's memory
        order — added to the bin's box with one slice-add.  Cells of the
        box outside a point's own window are outside its kernel support
        and tabulate to zero."""
        grid = self.grid
        lo = gemm[0][0]
        rows = self._gemm_rows[lo : gemm[-1][1]]
        _charge_windows(counter, "sym", *(w[rows] for w in self._shapes))
        xs, ys, ts = (self.coords[rows, axis] for axis in range(3))
        ws = None if weights is None else weights[rows]
        ox, oy, ot = vol_origin
        for a, b, x0, x1, y0, y1, t0, t1 in gemm:
            bx, by, bt = x1 - x0, y1 - y0, t1 - t0
            target = vol[x0 - ox : x1 - ox, y0 - oy : y1 - oy, t0 - ot : t1 - ot]
            xc = grid.x_centers(x0, x1)
            yc = grid.y_centers(y0, y1)
            tc = grid.t_centers(t0, t1)
            step = max(1, _GEMM_CELLS // (bx * by))
            for s in range(a - lo, b - lo, step):
                e = min(s + step, b - lo)
                counter.stamp_cohorts += 1
                disk, bar = backend.factor_tables(
                    grid, kernel, norm,
                    xc - xs[s:e, None], yc - ys[s:e, None], tc - ts[s:e, None],
                    counter,
                )
                if ws is not None:
                    bar *= ws[s:e, None]
                # (bt, bx*by): t-outermost, the target's own memory order.
                partial = bar.T @ disk.reshape(e - s, bx * by)
                target += partial.reshape(bt, bx, by).transpose(1, 2, 0)


def stamp_batch(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    coords: np.ndarray,
    norm: float,
    counter: Optional[WorkCounter] = None,
    *,
    mode: str = "sym",
    clip: Optional[VoxelWindow] = None,
    vol_origin: Tuple[int, int, int] = (0, 0, 0),
    slab_cells: int = _SLAB_CELLS,
    weights: Optional[np.ndarray] = None,
    compute: "ComputeBackend | str | None" = None,
) -> None:
    """Stamp a batch of points through the cohort-vectorised engine.

    The one-group case of :class:`StampPlan`: one plan of the whole batch,
    stamped once.

    Parameters
    ----------
    vol:
        Target array: a full ``(Gx, Gy, Gt)`` volume or a subarray whose
        voxel ``(0, 0, 0)`` sits at ``vol_origin`` in grid coordinates.
        It must contain every clipped stamp window (``ValueError``
        otherwise — pass ``clip`` with a smaller buffer).  Targets whose
        elements fill one block of memory (any :func:`~repro.core.grid.
        empty_volume` volume or buffer, a t-slab of one, C or Fortran
        order) take the flat indexed add; a strided target is
        accumulated with one slice-add per stamp, to the same bits.
    coords:
        ``(n, 3)`` rows of ``(x, y, t)`` in domain space.
    norm:
        Normalisation prefactor folded into the spatial table (or the
        per-voxel product for ``mode="pb"``), normally
        ``grid.normalization(n)``.
    mode:
        Cost profile to reproduce — one of :data:`STAMP_MODES`.
    clip:
        Optional window restricting every stamp (a region buffer's
        window): the one group's window of :class:`StampPlan`'s ``clip``.
    slab_cells:
        Upper bound on contribution cells materialised at once; cohorts
        larger than this are processed in slabs of consecutive points.
    weights:
        Optional ``(n,)`` per-point weights: each point's kernel product
        is scaled by its weight before the scatter, so a weighted batch
        accumulates ``sum_i w_i * norm * k_s * k_t`` — the weighted
        estimator (callers normalise by total weight instead of ``n``).
        ``None`` keeps the unit-weight paths byte-for-byte unchanged.
    compute:
        Compute backend for the cohort tabulation — a name, a
        :class:`~repro.core.backends.base.ComputeBackend` instance, or
        ``None`` for the default.  The per-bin GEMM route of
        ``mode="sym"`` uses the factor tables every backend shares; the
        cohort route uses the backend's own ``cohort_tables`` (only
        ``numpy-ref``'s pay the per-voxel evaluations ``"pb"`` /
        ``"disk"`` / ``"bar"`` are named for).  Backends that cannot
        evaluate ``kernel`` natively fall back internally to an
        always-available path.
    """
    plan = StampPlan(grid, coords, mode=mode,
                     clip=None if clip is None else [clip])
    plan.stamp(vol, kernel, norm, counter, weights=weights,
               vol_origin=vol_origin, slab_cells=slab_cells, compute=compute)
