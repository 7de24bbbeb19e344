"""Spatial bucket index for direct kernel-sum density queries.

The grid algorithms answer "what is the density *everywhere*" by
materialising a volume; a serving layer must also answer "what is the
density *here, now*" without touching ``Theta(Gx * Gy * Gt)`` memory.
Following the bucketed evaluation idea of hashing-based KDE estimators
(Charikar & Siminelakis), :class:`BucketIndex` partitions the events into
cells of size ``hs x hs x ht`` — exactly one bandwidth per axis — so the
kernel support of any query location is covered by the 3 x 3 x 3 cell
neighbourhood around it:

* a point within ``hs`` of the query along x differs by less than one
  cell width, hence lands in an adjacent cell (same for y and t),
* therefore ``candidates(q)`` has **no false negatives**: every event
  whose kernel reaches ``q`` is returned, and the exact ``d < hs`` /
  ``|dt| <= ht`` masks of the engine discard the rest.

Storage format
--------------
One append-only column store holds every row: the ``(cap, 3)``
column-major coordinates, one float64 sort key per row and an optional
weight per row.  A **segment** is a slice ``[start, start + n)`` of it
whose rows are **sorted by (cell, t)** — the paper's point binning, laid
out the way its tasks read it, and time-ordered inside every bin.  The
key of a row is ``2 * cell + frac``, ``frac`` in ``[0, 1]`` being how far
through its cell the row lies in t: keys of one cell fill ``[2 cell,
2 cell + 1]``, so no rounding can tie two cells (a stable sort of
``column * W + t`` could put the later cell first across a cell edge),
and the segment is one stable sort of that single column.  Rows whose
keys tie — same cell, times closer than the key resolves — keep insertion
order.

Cells contiguous in t are contiguous in the flat cell id, so each of the
nine ``(ix, iy)`` **columns** around a query is one run of the slice,
t-ascending end to end.  A run ``(start, length)`` addresses coordinates
*directly* — ``searchsorted`` on a segment's key slice yields storage
rows, with no permutation in between — and it is cut two ways from the
same column: by cell bounds (:meth:`BucketIndex.candidate_runs`, the
27-cell box the planner counts and the sampler draws from) or by a
query's own time window ``[t - ht, t + ht]``
(:meth:`BucketIndex.window_runs`, what the exact engine evaluates — for
events uniform in t, two thirds of the box).

Incremental segments
--------------------
The index is where :class:`repro.core.incremental.IncrementalSTKDE`
keeps its rows: each of its units is registered as one segment when it
is planned and retired when its membership changes, and a unit's rows
are read back with :meth:`rows`.  :meth:`add_segment` buckets one batch
in O(batch) (sort keys, one stable sort, one gathered write at the end
of the store); :meth:`remove_segment` retires a segment, or one member
of a consolidated segment, without re-bucketing anything.  For a
time-stratified feed (the normal sliding-window shape: each ``add`` is
one or more time slabs) a slide buckets only the arriving batch; a slab
the horizon cuts *through* is split by the estimator (survivors get a
new batch id) and its survivors are bucketed again, so the bound is
O(arriving + straddling slabs), degrading toward O(n) only when every
live batch mixes old and new timestamps.  The ``index_events_bucketed``
work counter records exactly what was bucketed (the CI smoke gates on
it).

Segment merging
---------------
Probe cost is charged per (cell-group x segment), so a long-lived window
fed by tiny batches would accumulate segments without bound.
:meth:`maintain` — which the estimator calls at the end of every
mutation — therefore applies a **merge policy**: when the live segment
count exceeds ``merge_segment_cap``, the oldest segments are coalesced
into one consolidated segment by **one stable sort**: their row ranges
are concatenated in registration order, stably ordered by their
already-computed keys and appended as one gathered copy — no event is
ever re-bucketed, and among tied keys the order is member registration
order, then insertion order, exactly a cold build's.  The consolidated
segment carries a per-row ``owner``, so a later slide that retires one
member compresses that member's rows out of the slice in place (again:
no key recomputed, no sort rerun).  Steady state under any feed
granularity is therefore at most ``merge_segment_cap`` segments.

Reclaiming dead rows
--------------------
Appending is enough because retirement only *counts*: a removed
segment's, a retired member's and a consolidation's superseded rows stay
where they are and add to :attr:`BucketIndex.dead_rows`; nothing is
reused in place, so no row ever has to move to make room.  **One** rule
reclaims them, at the end of :meth:`maintain` and :meth:`remove_segment`:
when ``dead_rows > max(64, n)`` every live segment's slice is copied, in
registration order, into a fresh store of ``max(64, 2 n)`` rows (plain
slice copies — no sort, no gather).  A repack copies ``n`` rows only
after more than ``n`` rows died, so it is amortised O(1) per retired
row, and ``dead_rows <= max(64, n)`` holds after every ``maintain`` and
``remove_segment`` — storage stays within ~2x live plus what was
appended since.

Candidate-count table
---------------------
The planner prices a batch from :attr:`BucketIndex.box_counts`, the
27-cell box sums of the per-cell event counts.  Neither table exists
until the first read asks for it — an estimator that nobody queries
never holds an ``O(cells)`` array.  From then on every mutation updates
the counts of the cells it touches and records their bounding cell-box;
the next read of the box table recomputes only those boxes, dilated by
one cell (a box sum reaches one cell), and builds it whole only when
none exists yet.  A slide thus costs the table O(arriving + retiring
cells), not O(cells).

Queries whose locations fall in the same cell share one candidate
box, and :meth:`candidate_runs` exposes every cell's 27-neighbourhood as
``(start, length)`` runs of storage rows (the approximate engine's
sampling frame).  :meth:`window_runs` hands the exact engine
(:func:`repro.serve.engine.direct_sum`) the same nine columns per
segment cut to each query's time window, which it expands into one flat
pair list per slab with no per-cell Python dispatch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .grid import GridSpec
from .instrument import WorkCounter, null_counter

__all__ = ["BucketIndex"]

#: The 3x3x3 neighbourhood collapses to 9 (x, y) columns per segment —
#: cells contiguous in t are contiguous in the flat cell id, so each column
#: is one run of the segment's sorted slice.
_RUNS_PER_SEGMENT = 9

#: Offsets of those nine columns from the home column, x-major then y.
_COLUMN_DX = np.repeat(np.arange(-1, 2), 3)[:, None]
_COLUMN_DY = np.tile(np.arange(-1, 2), 3)[:, None]

#: A query's time window reaches ``ht + _WINDOW_SLACK * (|t| + ht)`` to
#: both sides, so that what is cut from the keys is a superset of what the
#: engine's mask ``|fl(t - t_event)| <= ht`` passes.  The mask's
#: subtraction rounds: it passes events up to 2**-53 ht beyond ``ht``.
#: Forming the reach and subtracting it from ``t`` round again, by under
#: 2**-52 (|t| + ht) together.  The slack is more than twice their sum.
#: (Cell and fraction are non-decreasing functions of a time, computed by
#: one expression for rows and for window ends, so they add no error.)  A
#: false positive is masked out by the engine; a false negative would be a
#: wrong answer.
_WINDOW_SLACK = 2.0 ** -50

#: Per axis of a 3-D block, the index of every plane but the first and of
#: every plane but the last: adding one into the other shifts by a cell.
_PLANE_SHIFTS = tuple(
    (
        tuple(slice(1, None) if a == axis else slice(None) for a in range(3)),
        tuple(slice(None, -1) if a == axis else slice(None) for a in range(3)),
    )
    for axis in range(3)
)


class _Segment:
    """One segment: rows ``[start, start + n)`` of the store, ascending
    in key (cell, then t).

    A **consolidated** segment (the merge policy's product) additionally
    carries ``members``, mapping each original batch id it answers for
    to a fixed ordinal, and ``owner``, the ``(n,)`` ordinal of the batch
    each row came from (permuted with the rows), so a member can later
    be retired by compressing the slice — never by re-bucketing.
    Ordinals are never renumbered; a retired member just leaves the
    mapping.  ``members is None`` marks a simple (single-batch) segment.
    """

    __slots__ = ("seg_id", "start", "n", "members", "owner")

    def __init__(
        self, seg_id: object, start: int, n: int,
        members: Optional[Dict[object, int]] = None,
        owner: Optional[np.ndarray] = None,
    ) -> None:
        self.seg_id = seg_id
        self.start = start
        self.n = n
        self.members = members
        self.owner = owner


class BucketIndex:
    """Segmented bucket index over events, cells of ``hs x hs x ht``.

    Every segment is a contiguous, (cell, t)-sorted slice of one
    append-only column store; dead rows are reclaimed by one amortised
    repack (see the module docstring).

    Parameters
    ----------
    grid:
        The grid specification supplying the domain box and bandwidths
        (only the *domain* and bandwidths matter — the index never touches
        voxels).
    coords:
        Optional ``(n, 3)`` finite event coordinates in domain space,
        registered as one static segment.  ``None`` starts an empty index
        to be fed through :meth:`add_segment` / :meth:`remove_segment`.
    weights:
        Optional ``(n,)`` finite, non-negative per-event weights, carried
        alongside the coordinates so weighted direct sums gather them in
        the same pass.
    merge_segment_cap:
        Live-segment cap enforced by :meth:`maintain`'s merge policy
        (``None`` disables merging).  Bounds the ``c_qprobe``-charged
        probe cost of long-lived windows fed by tiny batches.
    """

    __slots__ = (
        "grid", "nx", "ny", "nt", "merge_segment_cap",
        "_origin", "_widths",
        "_coords", "_keys", "_weights", "_size", "_dead",
        "_segments", "_cell_counts", "_box_counts", "_stale_boxes",
        "_stale_cells", "_merge_seq",
        "events_bucketed", "events_retired", "segments_merged",
        "rows_compacted",
    )

    def __init__(
        self,
        grid: GridSpec,
        coords: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        counter: Optional[WorkCounter] = None,
        *,
        merge_segment_cap: Optional[int] = 16,
    ) -> None:
        if merge_segment_cap is not None and merge_segment_cap < 2:
            raise ValueError("merge_segment_cap must be >= 2 or None")
        self.grid = grid
        self.merge_segment_cap = merge_segment_cap
        d = grid.domain
        self.nx = max(1, math.ceil(d.gx / grid.hs))
        self.ny = max(1, math.ceil(d.gy / grid.hs))
        self.nt = max(1, math.ceil(d.gt / grid.ht))
        self._origin = (d.x0, d.y0, d.t0)
        self._widths = (grid.hs, grid.hs, grid.ht)
        self._weights: Optional[np.ndarray] = None
        self._allocate(0)
        self._size = 0  # rows used in the store (live + dead)
        self._dead = 0  # retired or superseded rows awaiting a repack
        self._segments: Dict[object, _Segment] = {}
        # Per-cell counts and their 27-box sums, both built by the first
        # read that needs them (``_counts`` / ``box_counts``).
        self._cell_counts: Optional[np.ndarray] = None
        self._box_counts: Optional[np.ndarray] = None
        # Cell boxes whose counts changed since the table was last read,
        # and the cells a patch of them would recompute.
        self._stale_boxes: List[Tuple[slice, slice, slice]] = []
        self._stale_cells = 0
        self._merge_seq = 0
        #: Lifetime upkeep gauges (mirrored into WorkCounter when passed).
        self.events_bucketed = 0
        self.events_retired = 0
        self.segments_merged = 0
        self.rows_compacted = 0
        if coords is not None:
            self.add_segment("static", coords, weights, counter)
        elif weights is not None:
            raise ValueError("weights require coords")

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """The shared ``(size, 3)`` coordinate store: each segment's rows
        in key order, dead rows included (only rows reachable through a
        segment's runs are ever gathered).  Stored column-major:
        ``coords[:, k]`` is contiguous."""
        return self._coords[: self._size]

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Per-row weights aligned with :attr:`coords` (``None`` when no
        segment ever carried weights)."""
        if self._weights is None:
            return None
        return self._weights[: self._size]

    def _allocate(self, cap: int) -> None:
        """Replace the store by uninitialised columns of ``cap`` rows.

        Coordinates are column-major: each of x / y / t is one contiguous
        run, so the engine's candidate gathers are 1-D (an (n, 3) row
        gather costs ~4x three column gathers)."""
        self._coords = np.empty((cap, 3), dtype=np.float64, order="F")
        self._keys = np.empty(cap, dtype=np.float64)
        if self._weights is not None:
            self._weights = np.empty(cap, dtype=np.float64)

    def _columns(self) -> List[np.ndarray]:
        """The store as contiguous 1-D columns: x, y, t, key and — once
        a batch has carried them — weight.  Every row move is one loop
        over these."""
        cols = [*self._coords.T, self._keys]
        return cols if self._weights is None else cols + [self._weights]

    def _reserve(self, m: int) -> int:
        """Claim ``m`` rows at the end of the store (growth by doubling);
        returns their first row.  Growth reallocates the columns."""
        start = self._size
        cap = self._keys.shape[0]
        if start + m > cap:
            old = self._columns()
            self._allocate(max(start + m, 2 * cap, 64))
            for new, prev in zip(self._columns(), old):
                new[:start] = prev[:start]
        self._size += m
        return start

    def _repack_if_due(self, counter: WorkCounter) -> None:
        """The one reclaim rule: once dead rows outnumber live ones, copy
        every live segment's slice into a fresh store.

        Slices are copied whole in registration order (already sorted:
        no sort, no gather), and segments are updated in
        place — :meth:`remove_segment` holds references to them across a
        repack.
        """
        n = self.n
        if self._dead <= max(64, n):
            return
        old = self._columns()
        self._allocate(max(64, 2 * n))
        new = self._columns()
        pos = 0
        for seg in self._segments.values():
            for dst, src in zip(new, old):
                dst[pos : pos + seg.n] = src[seg.start : seg.start + seg.n]
            seg.start = pos
            pos += seg.n
        self._size = n
        self._dead = 0
        self.rows_compacted += n
        counter.index_rows_compacted += n

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of live indexed events."""
        return sum(s.n for s in self._segments.values())

    @property
    def n_cells(self) -> int:
        """Total bucket count ``nx * ny * nt``."""
        return self.nx * self.ny * self.nt

    @property
    def occupied_cells(self) -> int:
        """Number of buckets holding at least one live event."""
        return int(np.count_nonzero(self._counts()))

    @property
    def segment_count(self) -> int:
        """Number of live segments."""
        return len(self._segments)

    @property
    def segment_ids(self) -> Tuple[object, ...]:
        """Registered segment ids, in registration order."""
        return tuple(self._segments)

    @property
    def dead_rows(self) -> int:
        """Retired or superseded store rows awaiting the next repack; at
        most ``max(64, n)`` after every :meth:`maintain` and
        :meth:`remove_segment`."""
        return self._dead

    @property
    def merged_segments(self) -> int:
        """Number of live consolidated (multi-batch) segments."""
        return sum(1 for s in self._segments.values() if s.members is not None)

    @property
    def nbytes(self) -> int:
        """Index overhead beyond the raw coordinates (per-row sort keys,
        consolidated segments' owners, per-cell counts)."""
        owners = sum(
            s.owner.nbytes for s in self._segments.values()
            if s.owner is not None
        )
        counts = 0 if self._cell_counts is None else self._cell_counts.nbytes
        return self._size * 8 + owners + counts

    # ------------------------------------------------------------------
    # Segment maintenance
    # ------------------------------------------------------------------
    def _count_cells(self, cells: np.ndarray, sign: int) -> None:
        """Add ``sign`` per row of ``cells`` (flat ids) to the per-cell
        counts, once a read has built them — O(rows), only the touched
        cells are written — and, when a box table exists, record the
        touched cells' bounding cell-box for :attr:`box_counts` to patch.

        Once the recorded patches would recompute as many cells as the
        table holds, the table is dropped instead and the next read
        builds it whole: a grid-wide batch degenerates to the full build,
        and a table nobody reads any more stops collecting patches.
        """
        if cells.size == 0 or self._cell_counts is None:
            return
        np.add.at(self._cell_counts, cells, sign)
        if self._box_counts is None:
            return
        shape = (self.nx, self.ny, self.nt)
        # The box table's entries within one cell of the touched box.
        box = tuple(
            slice(max(int(c.min()) - 1, 0), min(int(c.max()) + 2, size))
            for c, size in zip(np.unravel_index(cells, shape), shape)
        )
        self._stale_boxes.append(box)
        self._stale_cells += math.prod(b.stop - b.start for b in box)
        if self._stale_cells >= self.n_cells:
            self._box_counts = None

    def add_segment(
        self,
        seg_id: object,
        coords: np.ndarray,
        weights: Optional[np.ndarray] = None,
        counter: Optional[WorkCounter] = None,
    ) -> None:
        """Register one event batch as a segment — O(batch).

        The only operation that *buckets* events (computes sort keys and
        sorts them); everything else the index does is bookkeeping over
        already-bucketed segments, which is what makes a window slide
        O(arriving batch) instead of O(live events).  A duplicate id, a
        bad shape or a non-finite value (or a negative weight) raises
        ``ValueError`` with the index unchanged.
        """
        if seg_id in self._segments:
            raise ValueError(f"segment {seg_id!r} already registered")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"expected (n, 3) coordinates, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("point coordinates must be finite")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (coords.shape[0],):
                raise ValueError("weights must be (n,) matching coords")
            if not np.isfinite(weights).all() or (weights < 0).any():
                raise ValueError("weights must be finite and non-negative")
        counter = counter if counter is not None else null_counter()
        m = coords.shape[0]
        cell, frac = self._bucket(coords)
        if weights is not None and self._weights is None:
            # First weighted batch: every earlier row has unit weight.
            self._weights = np.ones(self._keys.shape[0], dtype=np.float64)
        start = self._reserve(m)
        rows = slice(start, start + m)
        self._coords[rows] = coords
        self._keys[rows] = 2.0 * cell + frac
        if self._weights is not None:
            self._weights[rows] = weights if weights is not None else 1.0
        # Sort the slice by key, one contiguous column at a time (a 1-D
        # gather within the column; a row gather of the (m, 3) input is
        # ~3x dearer).  Stable, so insertion order survives among tied
        # keys: deterministic candidate (and hence accumulation) order.
        by_key = np.argsort(self._keys[rows], kind="stable")
        for col in self._columns():
            col[rows] = col[rows][by_key]
        self._segments[seg_id] = _Segment(seg_id, start, m)
        self._count_cells(cell, +1)
        self.events_bucketed += m
        counter.index_events_bucketed += m

    def _holder(self, batch_id: object) -> _Segment:
        """The segment answering for ``batch_id``: its own, or the
        consolidated segment it is a member of (``KeyError``: neither)."""
        seg = self._segments.get(batch_id)
        if seg is not None:
            return seg
        for seg in self._segments.values():
            if seg.members is not None and batch_id in seg.members:
                return seg
        raise KeyError(f"unknown segment {batch_id!r}")

    def rows(self, batch_id: object) -> np.ndarray:
        """``(k, 3)`` coordinates of one registered batch — a segment, or
        one member of a consolidated segment — in key order (a view of
        the store for a segment, a copy for a member)."""
        seg = self._holder(batch_id)
        rows = self._coords[seg.start : seg.start + seg.n]
        if seg.seg_id == batch_id:
            return rows
        return rows[seg.owner == seg.members[batch_id]]

    def live_rows(self) -> np.ndarray:
        """``(n, 3)`` coordinates of every live row, segment by segment
        (copy)."""
        return np.concatenate([
            self._coords[s.start : s.start + s.n]
            for s in self._segments.values()
        ] + [np.empty((0, 3))])

    def remove_segment(
        self, seg_id: object, counter: Optional[WorkCounter] = None
    ) -> None:
        """Retire one registered batch — bookkeeping, no re-bucketing.

        A segment is dropped and its rows are counted dead where they
        lie.  A member of a consolidated segment is compressed out of the
        segment's slice in place — survivors keep their key order, so no
        key is recomputed and no sort rerun — and the vacated tail is
        counted dead; the segment goes with its last member.  Then the
        repack rule runs.  An unknown id raises ``KeyError``.
        """
        counter = counter if counter is not None else null_counter()
        seg = self._holder(seg_id)
        rows = slice(seg.start, seg.start + seg.n)
        if seg.seg_id == seg_id:
            self._segments.pop(seg_id)
            self._count_cells(self._row_cells(rows), -1)
            retired = seg.n
        else:
            keep = seg.owner != seg.members.pop(seg_id)
            kept = int(np.count_nonzero(keep))
            self._count_cells(self._row_cells(rows)[~keep], -1)
            for col in self._columns():
                col[seg.start : seg.start + kept] = col[rows][keep]
            seg.owner = seg.owner[keep]
            retired, seg.n = seg.n - kept, kept
            if not seg.members:
                self._segments.pop(seg.seg_id)
        self._dead += retired
        self.events_retired += retired
        counter.index_events_retired += retired
        self._repack_if_due(counter)

    def maintain(self, counter: Optional[WorkCounter] = None) -> None:
        """The upkeep that ends every mutation of a live window: the
        merge policy (segment count back under
        :attr:`merge_segment_cap`, the oldest segments consolidated, zero
        re-bucketing), then the repack rule (``dead_rows <= max(64, n)``
        on return)."""
        counter = counter if counter is not None else null_counter()
        cap = self.merge_segment_cap
        if cap is not None and self.segment_count > cap:
            target = max(2, cap // 2)
            self.consolidate_segments(
                list(self._segments)[: self.segment_count - target + 1],
                counter,
            )
        self._repack_if_due(counter)

    def consolidate_segments(
        self, ids: List[object], counter: Optional[WorkCounter] = None
    ) -> None:
        """Coalesce segments into one consolidated segment.

        One stable sort: the segments' row ranges are concatenated in
        the order given (registration order from :meth:`maintain`), stably
        ordered by their already-computed keys and appended as one
        gathered copy, each row's ``owner`` permuted along — no key is
        recomputed, no event re-bucketed.  Tie order among equal keys is
        member registration order, then insertion order, exactly what a
        cold index built from the same batches would produce.  The
        superseded rows are counted dead (the next :meth:`maintain` or
        :meth:`remove_segment` repacks when due).  :meth:`maintain`'s
        merge policy calls this; it is public so operators can consolidate
        explicitly.  ``ids`` must be registered and distinct
        (``ValueError``, index unchanged).
        """
        counter = counter if counter is not None else null_counter()
        ids = list(ids)
        if len(set(ids)) != len(ids) or any(
            i not in self._segments for i in ids
        ):
            raise ValueError(
                f"consolidate_segments needs distinct registered ids, got {ids!r}"
            )
        segs = [self._segments[i] for i in ids]
        members: Dict[object, int] = {}
        src_parts = [np.empty(0, dtype=np.int64)]
        owner_parts = [np.empty(0, dtype=np.int64)]
        for s in segs:
            src_parts.append(np.arange(s.start, s.start + s.n, dtype=np.int64))
            if s.members is None:
                owner_parts.append(np.full(s.n, len(members), dtype=np.int64))
                members[s.seg_id] = len(members)
            else:
                renumber = np.zeros(
                    max(s.members.values(), default=-1) + 1, dtype=np.int64
                )
                for mid, k in s.members.items():
                    renumber[k] = members[mid] = len(members)
                owner_parts.append(renumber[s.owner])
        src = np.concatenate(src_parts)
        by_key = np.argsort(self._keys[src], kind="stable")
        src = src[by_key]
        # Reserve before taking views (growth reallocates), copy, and
        # only then count the superseded rows dead.
        dest = self._reserve(src.size)
        for col in self._columns():
            col[dest : dest + src.size] = col[src]
        self._dead += src.size
        for i in ids:
            self._segments.pop(i)
        seg_id = ("merged", self._merge_seq)
        self._merge_seq += 1
        seg = _Segment(
            seg_id, dest, int(src.size), members,
            np.concatenate(owner_parts)[by_key],
        )
        # Oldest-first dict order, like a cold build over the same batches.
        self._segments = {seg_id: seg, **self._segments}
        self.segments_merged += len(ids)
        counter.index_segments_merged += len(ids)
        # Cell counts are unchanged (same live events), so the planner's
        # box-sum table needs no patch for a merge.

    def stats(self) -> Dict[str, int]:
        """Gauges for serving observability (``repro query --stats``)."""
        return {
            "segments": self.segment_count,
            "merged_segments": self.merged_segments,
            "events": self.n,
            "dead_rows": self._dead,
            "events_bucketed": self.events_bucketed,
            "events_retired": self.events_retired,
            "segments_merged": self.segments_merged,
            "rows_compacted": self.rows_compacted,
            "occupied_cells": self.occupied_cells,
            "nbytes": self.nbytes,
        }

    # ------------------------------------------------------------------
    # Cell geometry and candidate walks
    # ------------------------------------------------------------------
    def _axis_cells(
        self, values: np.ndarray, axis: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cell index of coordinates along one axis, and the continuous
        cell coordinate it is the floor of — clamped *in float* to ``[0,
        n]``, then cast: a coordinate beyond the int64 range of cells (any
        finite value is accepted) lands in the border cell on its side
        instead of being cast to an arbitrary one.  Both are
        non-decreasing in the coordinate.  One axis at a time: a
        contiguous 1-D loop per operation (broadcasting over a trailing
        axis of 3 is ~4x dearer at 40 000 rows)."""
        n = (self.nx, self.ny, self.nt)[axis]
        u = (values - self._origin[axis]) / self._widths[axis]
        np.maximum(u, 0.0, out=u)
        np.minimum(u, n, out=u)
        return np.minimum(u.astype(np.int64), n - 1), u

    def _bucket(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flat cell id of ``(m, 3)`` locations and how far through its
        cell each lies in t, in ``[0, 1]`` (0 for everything before the
        cell grid, 1 for everything after): the two halves of a sort
        key."""
        ix, _ = self._axis_cells(coords[:, 0], 0)
        iy, _ = self._axis_cells(coords[:, 1], 1)
        it, ut = self._axis_cells(coords[:, 2], 2)
        return (ix * self.ny + iy) * self.nt + it, ut - it

    def _row_cells(self, rows: slice) -> np.ndarray:
        """Flat cell ids of store rows, read back from their keys."""
        return (self._keys[rows] * 0.5).astype(np.int64)

    def cell_coords(self, queries: np.ndarray) -> np.ndarray:
        """``(m, 3)`` integer cell coordinates of query locations (clamped)."""
        q = np.asarray(queries, dtype=np.float64)
        return np.stack(
            [self._axis_cells(q[:, axis], axis)[0] for axis in range(3)],
            axis=1,
        )

    def flat_cells(self, cell_coords: np.ndarray) -> np.ndarray:
        """Flat cell ids of ``(m, 3)`` integer cell coordinates."""
        cc = cell_coords
        return (cc[:, 0] * self.ny + cc[:, 1]) * self.nt + cc[:, 2]

    def cell_of(self, queries: np.ndarray) -> np.ndarray:
        """Flat cell id of each query location."""
        return self.flat_cells(self.cell_coords(queries))

    def candidate_runs(
        self, cell_coords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate runs of each cell's 27-neighbourhood, vectorised.

        ``cell_coords`` is ``(G, 3)`` integer cells; the return is two
        ``(G, 9 * segments)`` int64 arrays ``(starts, lengths)``: run ``r``
        of cell ``g`` covers store rows ``[starts[g, r], starts[g, r] +
        lengths[g, r])`` of :attr:`coords`.  Runs are ordered segment-major,
        then x, then y, and a run's rows ascend in t.  Cells contiguous
        in t are contiguous in the flat id, so one ``(ix, iy)`` column of
        the neighbourhood is a single run; columns outside the cell grid
        have length 0.  The approximate engine's bounds and sampling
        frame; exact reads walk :meth:`window_runs`.

        The table of all ``18 * G`` run bounds is built once and each
        segment answers it with a single ``searchsorted``.
        """
        cc = np.asarray(cell_coords, dtype=np.int64)
        valid, column = self._neighbour_columns(cc[:, 0], cc[:, 1])
        # Every key of cell c lies in [2 c, 2 c + 1].
        return self._cut_runs(valid, 2.0 * np.stack([
            column + np.maximum(cc[:, 2] - 1, 0),
            column + np.minimum(cc[:, 2] + 2, self.nt),
        ]))

    def window_runs(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's candidate runs, cut to its own time window.

        ``queries`` is ``(m, 3)`` finite locations; the return has
        :meth:`candidate_runs`' layout with one row per *query*: run ``r``
        of query ``i`` is the part of that neighbour column whose events
        lie within ``[t_i - ht, t_i + ht]``, widened by
        :data:`_WINDOW_SLACK` and read off the segment's keys — so it
        holds every event the engine's ``|dt| <= ht`` mask passes, and
        nothing else of the column but what the slack or a tied key lets
        in (times before or after the cell grid all tie with its first or
        last instant).  A subset of the home cell's
        :meth:`candidate_runs` unless an event lies within the slack of
        the box.  Within a query the rows are ordered segment-major, then
        x, then y, then t.  Needles ascend when the queries are sorted by
        home cell.
        """
        q = np.asarray(queries, dtype=np.float64)
        t = q[:, 2]
        reach = self.grid.ht + _WINDOW_SLACK * (np.abs(t) + self.grid.ht)
        it, ut = self._axis_cells(np.stack([t - reach, t + reach]), 2)
        valid, column = self._neighbour_columns(
            self._axis_cells(q[:, 0], 0)[0], self._axis_cells(q[:, 1], 1)[0]
        )
        # The same expression as a row's key, so window ends and rows
        # compare as their times do; the upper needle is the next key up,
        # which makes one left-sided search serve both ends.
        needles = 2.0 * (column + it[:, None, :]) + (ut - it)[:, None, :]
        np.nextafter(needles[1], np.inf, out=needles[1])
        return self._cut_runs(valid, needles)

    def _neighbour_columns(
        self, cx: np.ndarray, cy: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The nine ``(ix, iy)`` columns around ``G`` home columns, as
        ``(9, G)`` arrays: whether each lies in the cell grid, and the
        flat id of its first cell.  x-major then y; each row ascends with
        sorted cells, the needle order ``searchsorted`` is fast on."""
        ix = cx + _COLUMN_DX
        iy = cy + _COLUMN_DY
        valid = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        return valid, (ix * self.ny + iy) * self.nt

    def _cut_runs(
        self, valid: np.ndarray, needles: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(G, 9 * segments)`` run tables ``(starts, lengths)`` from
        ``(2, 9, G)`` key needles: per segment, one ``searchsorted`` of all
        ``18 * G``."""
        n_runs = _RUNS_PER_SEGMENT * max(1, len(self._segments))
        shape = (valid.shape[1], n_runs)
        starts = np.zeros(shape, dtype=np.int64)
        lengths = np.zeros(shape, dtype=np.int64)
        for k, seg in enumerate(self._segments.values()):
            if seg.n == 0:
                continue
            lo, hi = np.searchsorted(
                self._keys[seg.start : seg.start + seg.n], needles.ravel()
            ).reshape(needles.shape)
            r = slice(k * _RUNS_PER_SEGMENT, (k + 1) * _RUNS_PER_SEGMENT)
            starts[:, r] = np.where(valid, seg.start + lo, 0).T
            lengths[:, r] = np.where(valid, hi - lo, 0).T
        return starts, lengths

    def _counts(self) -> np.ndarray:
        """The ``(n_cells,)`` per-cell event counts, built on first use
        from the live rows' keys and kept current by every mutation
        after that."""
        if self._cell_counts is None:
            self._cell_counts = np.bincount(np.concatenate([
                self._row_cells(slice(s.start, s.start + s.n))
                for s in self._segments.values()
            ] + [np.empty(0, dtype=np.int64)]), minlength=self.n_cells)
        return self._cell_counts

    @staticmethod
    def _box_sums(counts: np.ndarray) -> np.ndarray:
        """3-wide box sums of a 3-D count block (cells outside it count
        as empty): one axis at a time, each plane plus its two
        neighbours."""
        box = counts
        for after, before in _PLANE_SHIFTS:
            sums = box.copy()
            sums[after] += box[before]
            sums[before] += box[after]
            box = sums
        return box

    @property
    def box_counts(self) -> np.ndarray:
        """``(nx, ny, nt)`` candidate-set size of every home cell.

        The 27-neighbourhood box sums of the per-cell counts (maintained
        incrementally).  Built whole — O(cells), with the per-cell counts
        when they do not exist yet either — on the first read;
        after a mutation only the entries within one cell of the cells it
        touched are recomputed (:meth:`_count_cells` recorded where), so
        keeping the table across a window slide costs O(arriving +
        retiring cells).  A batch's candidate counts are then O(m)
        lookups with no candidate gathering.
        """
        counts = self._counts().reshape(self.nx, self.ny, self.nt)
        if self._box_counts is None:
            self._box_counts = self._box_sums(counts)
        else:
            for box in self._stale_boxes:
                # The entries in ``box`` read counts one cell further
                # out; sums at the block's own faces are wrong unless the
                # face is the grid's, and exactly those are cut off again.
                halo = tuple(
                    slice(max(b.start - 1, 0), min(b.stop + 1, size))
                    for b, size in zip(box, counts.shape)
                )
                inner = tuple(
                    slice(b.start - h.start, b.stop - h.start)
                    for b, h in zip(box, halo)
                )
                self._box_counts[box] = self._box_sums(counts[halo])[inner]
        self._stale_boxes.clear()
        self._stale_cells = 0
        return self._box_counts

    def candidate_counts(self, queries: np.ndarray) -> np.ndarray:
        """Exact candidate-set size per query, vectorised (planner input)."""
        return self.box_counts[tuple(self.cell_coords(queries).T)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BucketIndex(n={self.n}, cells={self.nx}x{self.ny}x{self.nt}, "
            f"segments={self.segment_count}, occupied={self.occupied_cells})"
        )
