"""Batched stamping engine: a batch's point cylinders added into a volume.

Every point-based algorithm (PB, PB-DISK, PB-BAR, PB-SYM), and every
strategy, region and live unit built on them, stamps through this module:
for each point, tabulate its kernel over its clipped stamp window and add
the values into the target.  A :class:`StampPlan` is one batch's geometry,
built once; :meth:`StampPlan.stamp` runs one group of it (a block or
replica task of DD, PD, PD-SCHED, PD-REP); :func:`stamp_batch` is the plan
of one group.

Routes.  ``mode="sym"`` (PB-SYM) bins each group's live points on a
space-time lattice anchored at the group's own lowest live voxel (the
paper's Section 5 point decomposition, used for locality).  A *crowded*
bin (:func:`_crowded_runs`) is reduced by one ``bar.T @ disk`` matrix
product per chunk and added to its box with one slice-add.  Every other
live point, and every point of the per-voxel profiles ``"pb"``, ``"disk"``
and ``"bar"``, takes the cohort route: a group's points form at most two
cohorts (full-shape stamps, and those the grid or a clip cut, tabulated at
the cohort's widest window and cut to their own in the scatter), in window
origin order, tabulated in slabs as one ``(m, wx, wy, wt)`` array each and
added by one unbuffered ``np.add.at`` per slab.

The plan in linear passes.  One ``(3, n)`` pass computes the voxels,
clipped windows and liveness; one ``bincount`` of (group, bin) keys weighs
every bin against its group's crowd; the crowded rows, and the cohort rows
by (group, clipped or full, window origin), are ordered by stable passes
over 16-bit digits, least significant first (NumPy sorts ``uint16`` by
radix): one pass for a key below 2**16, and exactly the permutation of a
stable comparison sort.  An unclipped batch has every row live and skips
the live compress.

Numerical contract.  Every route evaluates the per-point path's kernel and
mask expressions per cell; only the order of the additions into a voxel
differs.  The cohort route is bit-identical to one slice-add per stamp, in
its slab's origin order; GEMM bins add in BLAS order.  Engine and
per-point volumes agree at ``rtol=1e-12`` for every kernel and route
(the equivalence suite), deterministically for one batch, grid and BLAS
build, but not across batchings.  A plan's group stamps exactly the
additions, to the bit, and the work counts of :func:`stamp_batch` on that
group's rows with that group's clip.  Work counters charge the mode's
logical profile over the clipped windows on every route, plus
``stamp_batches`` and ``stamp_cohorts`` (cohorts plus GEMM chunks).

Threads overlap the GEMM route's products and slice-adds, not the cohort
route's ``np.add.at``; what they gain is measured
(``parallel.threads_p2_speedup`` in the perfbench ledger).
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
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    _, win = _geometry(grid, coords, _limits(grid, [clip]))
    return win[0, 0], win[1, 0], win[0, 1], win[1, 1], win[0, 2], win[1, 2]


def _limits(
    grid: GridSpec, clip: Sequence[Optional[VoxelWindow]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(3, m)`` lower and upper voxel limits of ``m`` windows, each
    intersected with the grid; ``None`` is the whole grid."""
    wins = [grid.full_window() if w is None else w for w in clip]
    lo = np.maximum([(w.x0, w.y0, w.t0) for w in wins], 0).reshape(-1, 3)
    hi = np.minimum([(w.x1, w.y1, w.t1) for w in wins], grid.shape).reshape(-1, 3)
    return lo.T, hi.T


def _geometry(
    grid: GridSpec,
    coords: np.ndarray,
    limits: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Unclipped stamp origins and clipped windows of ``(n, 3)`` points.

    One pass over ``(3, n)`` columns, x, y, t: each point's voxel
    (:meth:`GridSpec.voxel_columns`), its stamp's origin ``voxel - (Hs,
    Hs, Ht)``, and its window ``win[0]`` to ``win[1]`` (half-open),
    intersected with ``limits = (lo, hi)``, which lie inside the grid:
    ``(3, 1)`` for every point, or ``(3, n)``, one column per point.
    """
    half = np.array([[grid.Hs], [grid.Hs], [grid.Ht]])
    origin = grid.voxel_columns(coords)
    origin -= half
    win = np.empty((2,) + origin.shape, dtype=np.int64)
    np.add(origin, 2 * half + 1, out=win[1])
    np.maximum(origin, limits[0], out=win[0])
    np.minimum(win[1], limits[1], out=win[1])
    return origin, win


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


def _stable_order(key: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative integer keys
    below ``top``, in stable passes over 16-bit digits, least significant
    first.

    NumPy sorts ``uint16`` and ``uint8`` arrays stably by radix, so each
    pass is linear, and ties keep the order of the pass before: the
    permutation is exactly the stable comparison sort's.  A key below
    2**16 is one pass, below 2**32 two; a last digit below 2**8 is sorted
    as ``uint8``, one byte pass instead of two.
    """
    if key.size < 2:
        return np.arange(key.size)
    order, shift = None, 0
    while shift == 0 or top > 1 << shift:
        digit = key if order is None else key[order]
        if shift:
            digit = digit >> shift
        if top > 1 << (shift + 16):
            digit = digit & 0xFFFF
        digit = digit.astype(np.uint8 if top <= 1 << (shift + 8) else np.uint16)
        step = np.argsort(digit, kind="stable")
        order = step if order is None else order[step]
        shift += 16
    return order


def _crowded_runs(
    grid: GridSpec,
    origin: np.ndarray,
    shapes: np.ndarray,
    crowd: np.ndarray,
    group: Optional[np.ndarray],
    n_groups: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """PB-SYM's crowded bins: the rows they hold, and where each bin starts.

    ``origin`` and ``shapes`` are ``m`` live rows' ``(3, m)`` unclipped
    stamp origins (voxels less ``(Hs, Hs, Ht)``) and clipped window
    extents, ``group`` their ids among ``n_groups`` groups (``None``: one
    group), ``crowd`` each group's crowd (``(n_groups,)``, or ``(1,)`` for
    all).  Each group's rows are binned on a
    :func:`_bin_edges` lattice anchored, per axis, at the group's own
    lowest live voxel, and keyed by (group, bin) so that no bin spans two
    groups.  Wherever a group sits on the grid its rows then fill at most
    ``ceil(extent / edge)`` bins per axis: a block of the point
    decomposition is not cut by a lattice it does not line up with.  The
    anchor is a function of the group's live rows alone, so
    :func:`stamp_batch` on those rows bins them the same way.  A bin is
    *crowded* when its rows' clipped stamp cells add up to its group's
    crowd: :data:`_CROWD_COVER` of the box (bin + halo, no larger than
    the group's clipped grid), and at least :data:`_MIN_BIN_CELLS`.
    Tabulating every point's disk and bar over the whole box then costs
    less than scattering the stamps one cell at a time.

    Returns the crowded rows (positions among the ``m``) sorted by (group,
    bin), ties in input order, the position of each bin's first row among
    them, and the mask of the ``m`` rows left to the cohorts (``None``
    when no bin is crowded).  One ``bincount`` of (group, bin) keys weighs
    every bin against its group's crowd, so a batch with no crowded bin
    returns before any sort; the crowded rows are ordered by
    :func:`_stable_order`, one pass below 2**16 keys.  The table holds one
    entry per group and bin of the largest group's extent: a few per block
    for the decomposed strategies' compact groups.
    """
    none = np.zeros(0, dtype=np.int64)
    m = origin.shape[1]
    if m * (2 * grid.Hs + 1) ** 2 * (2 * grid.Ht + 1) < crowd.min():
        return none, none, None  # too few stamps to crowd even one bin
    cells = shapes[0] * shapes[1] * shapes[2]
    edges = np.array(_bin_edges(grid))[:, None]
    if group is None:
        anchor = origin.min(axis=1, keepdims=True)
    else:
        # Each group's lowest origin per axis: one 1-D ``minimum.at`` over
        # the (axis, group) table (NumPy's fast ``ufunc.at`` loop).
        low = np.full((3, n_groups), max(grid.shape))
        slot = group + np.arange(0, 3 * n_groups, n_groups)[:, None]
        np.minimum.at(low.reshape(-1), slot.reshape(-1), origin.reshape(-1))
        anchor = low[:, group]
    bins = origin - anchor
    bins //= edges
    _, s1, s2 = span = (bins.max(axis=1) + 1).tolist()
    size = span[0] * s1 * s2
    # The group is the outer key.
    key = bins[0] * s1
    key += bins[1]
    key *= s2
    key += bins[2]
    if group is not None:
        key += group * size
    n_keys = size if group is None else n_groups * size
    weight = np.bincount(key, weights=cells, minlength=n_keys)
    crowded = (weight.reshape(-1, size) >= crowd[:, None]).reshape(-1)
    if not crowded.any():
        return none, none, None
    inside = crowded[key]
    at = np.flatnonzero(inside)
    key = key[at]
    order = _stable_order(key, n_keys)
    counts = np.bincount(key, minlength=n_keys)
    starts = np.cumsum(counts) - counts
    return at[order], starts[crowded], ~inside


class StampPlan:
    """One batch's stamping geometry, built once and stamped group by group.

    The plan computes every row's voxel, clipped window and liveness once;
    for ``mode="sym"`` the crowded bins of the per-bin GEMM route, keyed by
    (group, lattice bin) (:func:`_crowded_runs`); and the cohort order of
    the live rows those bins leave, by (group, clipped or full-shape,
    origin): at most two cohorts per group.  It holds no kernel, weight or
    target.  :meth:`stamp` runs one group's GEMM chunks and cohort slabs
    into a volume and reads no other group's runs, so the block and
    replica tasks of a decomposed strategy (DD, PD, PD-SCHED, PD-REP)
    share one plan, on any backend.

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
        n_groups = self.counts.size
        if clip is not None and len(clip) != n_groups:
            raise ValueError(
                f"clip must hold one window (or None) per group: "
                f"{n_groups} groups, {len(clip)} windows"
            )
        # Each group's limits: the grid, intersected with its clip window.
        # The crowd of a group's bins: a cover of the box (bin + halo)
        # inside its limits, at least the fixed floor.
        half = np.array([[grid.Hs], [grid.Hs], [grid.Ht]])
        box = np.add(_bin_edges(grid), 2 * half[:, 0])[:, None]
        lo, hi = _limits(grid, [None] if clip is None else clip)
        crowd = np.maximum(
            _CROWD_COVER * np.minimum(box, hi - lo).prod(axis=0), _MIN_BIN_CELLS)
        limits = (lo, hi) if lo.shape[1] == 1 else (lo[:, group], hi[:, group])
        origin, win = _geometry(grid, coords, limits)
        self._windows = tuple(win[i, axis] for axis in range(3) for i in (0, 1))
        shapes = win[1] - win[0]
        self._shapes = tuple(shapes)
        # Unclipped, every row is live: its voxel lies on the grid, so its
        # window holds that voxel.  ``live is None``: every row.
        live = None
        if clip is not None:
            alive = (shapes > 0).all(axis=0)
            if not alive.all():
                live = np.flatnonzero(alive)

        def of_live(a: np.ndarray) -> np.ndarray:
            # ``take``, not ``a[:, live]``: each axis stays one row.
            return a if live is None else np.take(a, live, axis=-1)

        # GEMM runs, one per crowded bin: rows ``rows[a:b]`` and the
        # bounding box of their windows.
        rows = starts = np.zeros(0, dtype=np.int64)
        if mode == "sym" and n and (live is None or live.size):
            at, starts, rest = _crowded_runs(
                grid, of_live(origin), of_live(shapes), crowd,
                None if group is None else of_live(group), n_groups,
            )
            rows = at if live is None else live[at]
        self._gemm_rows = rows
        self._gemm = []
        if rows.size:
            # A run's box, per axis: its rows' least window start and
            # greatest window end.  The limits are monotone, so these are
            # its rows' extreme stamp origins, limited.
            o = np.take(origin, rows, axis=1)
            bounds = np.empty((3, 2, starts.size), dtype=np.int64)
            lo, hi = bounds[:, 0], bounds[:, 1]
            np.minimum.reduceat(o, starts, axis=1, out=lo)
            np.maximum.reduceat(o, starts, axis=1, out=hi)
            hi += 2 * half + 1
            low, high = limits
            if low.shape[1] > 1:  # one column per row: the runs' own
                low, high = (np.take(a, rows[starts], axis=1) for a in limits)
            np.maximum(lo, low, out=lo)
            np.minimum(hi, high, out=hi)
            self._gemm = list(zip(
                starts.tolist(), starts[1:].tolist() + [rows.size],
                *bounds.reshape(6, -1).tolist(),
            ))
            live = np.flatnonzero(rest) if live is None else live[rest]

        # Cohort key: clipped or not.  Interior points share the full
        # (2Hs+1, 2Hs+1, 2Ht+1) extent; every point whose window the grid
        # or its group's clip cut joins its group's one clipped cohort,
        # tabulated at that cohort's shape (below) and cut to its window
        # in the scatter.  One stable order sorts every group's cohorts:
        # by group, clipped before full, then window origin in the volume
        # layout's memory order (t, then x, then y), so that consecutive
        # stamps, and the slabs cut from them, write compact,
        # cache-resident regions of the target even when a cohort spans
        # the whole grid; ties keep input order.  ``_origins`` are rows of
        # ``origin``: views, so the clipped rows' origins moved in below
        # show through.
        self._origins = tuple(origin)
        self._cohort_rows = kinds = np.zeros(0, dtype=np.int64)
        self._cohorts = []
        if live is None or live.size:  # else every live row is in a bin
            full = (of_live(shapes) == 2 * half + 1).all(axis=0)
            x0, y0, t0 = of_live(win[0])
            kind = full.astype(np.int64)  # (group, clipped or full)
            if group is not None:
                kind += 2 * of_live(group)
            key = kind * grid.n_voxels + (t0 * grid.Gx + x0) * grid.Gy + y0
            order = _stable_order(key, 2 * n_groups * grid.n_voxels)
            if live is not None:
                order = live[order]
            self._cohort_rows = order
            # Cohorts: the kinds present, each one run of ``order``.
            per = np.bincount(kind, minlength=2 * n_groups)
            kinds = np.flatnonzero(per)
            lengths = per[kinds]
            ends = np.cumsum(lengths)
            cuts = ends - lengths
            whole = (kinds & 1).astype(bool)
            # Every table starts at its row's unclipped stamp origin
            # ``vox - (Hs, Hs, Ht)`` (a full-shape row's window origin)
            # and has the full stamp's shape, except that a clipped
            # cohort's table is, per axis, only as wide as the widest
            # window in it (so a small region's slivers tabulate no more
            # than themselves), each origin moved in as far as that shape
            # needs to cover the row's window.
            shape = np.repeat(2 * half + 1, kinds.size, axis=1)
            cut = ~whole
            if cut.any():
                clipped = order[np.repeat(cut, lengths)]  # cohort by cohort
                sizes = lengths[cut]
                shape[:, cut] = np.maximum.reduceat(
                    shapes[:, clipped], np.cumsum(sizes) - sizes, axis=1)
                origin[:, clipped] = np.maximum(
                    origin[:, clipped],
                    win[1][:, clipped] - np.repeat(shape[:, cut], sizes, axis=1))
            self._cohorts = list(zip(
                cuts.tolist(), ends.tolist(), whole.tolist(), *shape.tolist()
            ))

        # Each group's runs are contiguous: ``runs[at[g]:at[g + 1]]``.
        if group is None:
            self._gemm_at = [0, len(self._gemm)]
            self._cohort_at = [0, len(self._cohorts)]
        else:
            ids = np.arange(n_groups + 1)
            self._gemm_at = np.searchsorted(group[rows[starts]], ids).tolist()
            self._cohort_at = np.searchsorted(kinds >> 1, ids).tolist()

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

        ``group`` is a non-negative id; an id past the plan's groups
        holds no row and stamps nothing.  ``weights`` (if given) are per row of
        the whole batch, ``(n,)``; the other parameters are
        :func:`stamp_batch`'s.  Writes stay inside the bounding box of the
        clipped windows of the group's own rows.
        """
        if group < 0:
            raise ValueError(
                f"group must be a non-negative id (rows are in groups 0 to "
                f"{self.counts.size - 1}), got {group}"
            )
        backend = get_backend(compute)
        counter = counter if counter is not None else null_counter()
        n = self.coords.shape[0]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError(
                    f"weights must be ({n},) matching coords, got {weights.shape}"
                )
        if group >= self.counts.size:
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
