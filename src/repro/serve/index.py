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

Incremental segments
--------------------
The index is a collection of **per-batch CSR segments** mirroring the
tracked-batch design of :class:`repro.core.incremental.IncrementalSTKDE`:
each segment owns rows of the shared coordinate storage plus one
sorted-cell permutation, built in O(batch) with three vectorised passes.
:meth:`sync` diffs the estimator's live batches against the registered
segments and appends/retires only the delta — the batches whose
*membership* changed.  For a time-stratified feed (the normal
sliding-window shape: each ``add`` is one or more time slabs) a slide
re-buckets only the arriving batch; a slab the horizon cuts *through* is
split by the estimator (survivors get a new batch id) and its survivors
are re-bucketed too, so the true bound is O(arriving + straddling
slabs), degrading toward O(n) only when every live batch mixes old and
new timestamps.  The ``index_events_bucketed`` work counter records
exactly what was re-bucketed (the CI smoke gates on it).

Segment merging
---------------
Probe cost is charged per (cell-group x segment), so a long-lived window
fed by tiny batches would accumulate segments without bound.
:meth:`sync` therefore applies a **merge policy**: when the live segment
count exceeds ``merge_segment_cap``, the oldest segments are coalesced
into one consolidated CSR segment — rows are *copied* member-major and
their already-computed cells merge-sorted, no event is ever re-bucketed.
The consolidated segment remembers its members, so a later slide that
retires one member filters that member's rows out of the run table in
one vectorised pass (again: no cell recomputed, no sort rerun).  Steady
state under any feed granularity is therefore at most
``merge_segment_cap`` segments.

Amortised compaction
--------------------
Retired rows are left dead in the storage (``remove_segment`` is pure
bookkeeping) and tracked as a free list of gaps.  ``add_segment`` reuses
gaps directly, and :meth:`sync` pays the remaining **compaction debt**
off the serving path: trailing gaps are truncated and high segments are
relocated into low gaps until the debt falls under
:attr:`dead_row_budget` — work proportional to the rows retired since
the last sync, never an O(live) sweep inside a ``remove_segment`` on the
query path.  A segment too large for any single gap is relocated in
**split spans** (member-boundary splits for consolidated segments,
arbitrary splits otherwise), so a fragmented tail no longer cliffs into
a full compaction; the O(live) compact survives only as a rare safety
valve (a member larger than every gap, or heavy retirement with no
syncs), so memory stays bounded under any retirement pattern.

Queries whose locations fall in the same cell share one candidate
neighbourhood, and :meth:`candidate_runs` exposes every cell's
27-neighbourhood as ``(start, length)`` runs into one flat permutation
array (:attr:`order_store`) — the layout the ragged engine
(:func:`repro.serve.engine.direct_sum`) flattens into one CSR of
candidate rows per batch, with no per-cell Python dispatch.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.grid import GridSpec
from ..core.instrument import WorkCounter, null_counter

__all__ = ["BucketIndex"]

#: The 3x3x3 neighbourhood collapses to 9 (x, y) rows per segment — cells
#: contiguous in t are contiguous in the flat cell id, so each row is one
#: run of the segment's sorted-cell array.
_RUNS_PER_SEGMENT = 9


class _Segment:
    """One segment's CSR bucket data: storage rows plus a cell-sorted view.

    ``start`` is the first row of the segment in the index's coordinate
    storage (a segment's live rows are ascending and, between partial
    retirements, contiguous), ``cells_sorted`` the ascending flat cell
    ids of its events, ``order_base`` the segment's span inside the
    shared :attr:`BucketIndex.order_store` permutation (global row
    indices sorted by cell), and ``row_hi`` one past the segment's
    highest storage row (the storage high-water mark used by trailing-gap
    truncation).

    A **consolidated** segment (the merge policy's product) additionally
    carries ``members``: ``[member_id, rel_start, n_rows]`` triples
    recording which original batch owns which member-major sub-range of
    the segment's rows, so a member can later be retired by filtering —
    never by re-bucketing.  ``members is None`` marks a simple
    (single-batch) segment.
    """

    __slots__ = (
        "seg_id", "start", "n", "cells_sorted", "order_base", "row_hi",
        "members",
    )

    def __init__(
        self, seg_id: object, start: int, n: int,
        cells_sorted: np.ndarray, order_base: int,
        members: Optional[List[List]] = None,
    ) -> None:
        self.seg_id = seg_id
        self.start = start
        self.n = n
        self.cells_sorted = cells_sorted
        self.order_base = order_base
        self.row_hi = start + n
        self.members = members

    def member_ids(self) -> Tuple[object, ...]:
        """Original batch ids this segment answers for."""
        if self.members is None:
            return (self.seg_id,)
        return tuple(m[0] for m in self.members)


class BucketIndex:
    """Segmented CSR bucket index over events, cells of ``hs x hs x ht``.

    Parameters
    ----------
    grid:
        The grid specification supplying the domain box and bandwidths
        (only the *domain* and bandwidths matter — the index never touches
        voxels).
    coords:
        Optional ``(n, 3)`` event coordinates in domain space, registered
        as one static segment.  ``None`` starts an empty index to be fed
        through :meth:`add_segment` / :meth:`sync`.
    weights:
        Optional ``(n,)`` per-event weights, carried alongside the
        coordinates so weighted direct sums gather them in the same pass.
    merge_segment_cap:
        Live-segment cap enforced by :meth:`sync`'s merge policy
        (``None`` disables merging).  Bounds the ``c_qprobe``-charged
        probe cost of long-lived windows fed by tiny batches;
        :meth:`repro.analysis.model.CostModel.predict_merge` prices the
        trade.
    """

    __slots__ = (
        "grid", "nx", "ny", "nt", "merge_segment_cap",
        "_coords", "_weights", "_order", "_size", "_dead", "_gaps",
        "_segments", "_cell_counts", "_box_counts", "_merge_seq",
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
        # Column-major: each of x / y / t is one contiguous run, so the
        # engine's candidate gathers are 1-D (an (n, 3) row gather costs
        # ~4x three column gathers) while ``coords`` stays an (n, 3) view.
        self._coords = np.empty((0, 3), dtype=np.float64, order="F")
        self._weights: Optional[np.ndarray] = None
        self._order = np.empty(0, dtype=np.int64)
        self._size = 0  # rows used in the storage (live + dead)
        self._dead = 0  # retired rows awaiting reuse / compaction
        self._gaps: List[List[int]] = []  # free list: sorted [start, len]
        self._segments: Dict[object, _Segment] = {}
        self._cell_counts = np.zeros(self.n_cells, dtype=np.int64)
        self._box_counts: Optional[np.ndarray] = None  # lazy 27-box table
        self._merge_seq = 0
        #: Lifetime sync gauges (mirrored into WorkCounter when passed).
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
        """The shared ``(n, 3)`` coordinate storage (may contain retired
        rows; only rows reachable through a segment's runs are ever
        gathered).  Stored column-major: ``coords[:, k]`` is contiguous."""
        return self._coords[: self._size]

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Per-row weights aligned with :attr:`coords` (``None`` when no
        segment ever carried weights)."""
        if self._weights is None:
            return None
        return self._weights[: self._size]

    @property
    def order_store(self) -> np.ndarray:
        """The flat cell-sorted permutation all segment runs index into."""
        return self._order

    def _grow_rows(self, extra: int) -> None:
        need = self._size + extra
        cap = self._coords.shape[0]
        if need > cap:
            new_cap = max(need, 2 * cap, 64)
            grown = np.empty((new_cap, 3), dtype=np.float64, order="F")
            grown[: self._size] = self._coords[: self._size]
            self._coords = grown
            if self._weights is not None:
                gw = np.ones(new_cap, dtype=np.float64)
                gw[: self._size] = self._weights[: self._size]
                self._weights = gw

    def _grow_order(self, extra: int) -> None:
        ocap = self._order.shape[0]
        used = self._order_high
        if used + extra > ocap:
            new_cap = max(used + extra, 2 * ocap, 64)
            grown = np.empty(new_cap, dtype=np.int64)
            grown[:used] = self._order[:used]
            self._order = grown

    @property
    def _order_high(self) -> int:
        """High-water mark of the order store (live segments only; a dead
        span above every live one is reused by the next append)."""
        hi = 0
        for s in self._segments.values():
            hi = max(hi, s.order_base + s.n)
        return hi

    # ------------------------------------------------------------------
    # Row free list (dead rows awaiting reuse or compaction)
    # ------------------------------------------------------------------
    def _add_gap(self, start: int, length: int) -> None:
        """Register a dead row range, coalescing with adjacent gaps."""
        i = bisect.bisect_left([g[0] for g in self._gaps], start)
        if i > 0 and self._gaps[i - 1][0] + self._gaps[i - 1][1] == start:
            g = self._gaps[i - 1]
            g[1] += length
            i -= 1
        else:
            self._gaps.insert(i, [start, length])
            g = self._gaps[i]
        if i + 1 < len(self._gaps) and g[0] + g[1] == self._gaps[i + 1][0]:
            g[1] += self._gaps[i + 1][1]
            self._gaps.pop(i + 1)

    def _free_rows(self, rows_sorted: np.ndarray) -> None:
        """Mark ascending storage rows dead (registered as gap runs)."""
        if rows_sorted.size == 0:
            return
        breaks = np.flatnonzero(np.diff(rows_sorted) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [rows_sorted.size - 1]))
        for s, e in zip(starts, ends):
            self._add_gap(int(rows_sorted[s]), int(e - s + 1))
        self._dead += int(rows_sorted.size)

    def _take_gap(self, length: int, limit: Optional[int] = None) -> Optional[int]:
        """Allocate ``length`` rows from the lowest fitting gap, if any.

        ``limit`` restricts the allocation to end at or below that row —
        the relocation guard ensuring a move lowers the storage
        high-water mark.  The caller owns the ``_dead`` decrement.
        """
        for i, g in enumerate(self._gaps):
            if g[1] >= length and (limit is None or g[0] + length <= limit):
                start = g[0]
                if g[1] == length:
                    self._gaps.pop(i)
                else:
                    g[0] += length
                    g[1] -= length
                return start
        return None

    def _seg_rows(self, seg: _Segment) -> np.ndarray:
        """The segment's live storage rows, ascending."""
        return np.sort(self._order[seg.order_base : seg.order_base + seg.n])

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
        return int(np.count_nonzero(self._cell_counts))

    @property
    def segment_count(self) -> int:
        """Number of live per-batch CSR segments."""
        return len(self._segments)

    @property
    def segment_ids(self) -> Tuple[object, ...]:
        """Registered segment ids, in registration order."""
        return tuple(self._segments)

    @property
    def dead_rows(self) -> int:
        """Retired storage rows awaiting reuse or compaction (the
        compaction debt)."""
        return self._dead

    @property
    def dead_row_budget(self) -> int:
        """Maximum compaction debt :meth:`sync` leaves outstanding.

        One live set's worth of rows: debt is paid down to this level
        each sync (work proportional to what retired since the last
        sync), so storage stays bounded at ~2x live under sustained
        slides.
        """
        return max(64, self.n)

    @property
    def merged_segments(self) -> int:
        """Number of live consolidated (multi-batch) segments."""
        return sum(1 for s in self._segments.values() if s.members is not None)

    @property
    def nbytes(self) -> int:
        """Index overhead beyond the raw coordinates (sorted cells +
        permutation + per-cell counts)."""
        per_seg = sum(s.cells_sorted.nbytes for s in self._segments.values())
        return per_seg + self._order_high * 8 + self._cell_counts.nbytes

    # ------------------------------------------------------------------
    # Segment maintenance
    # ------------------------------------------------------------------
    def add_segment(
        self,
        seg_id: object,
        coords: np.ndarray,
        weights: Optional[np.ndarray] = None,
        counter: Optional[WorkCounter] = None,
    ) -> None:
        """Register one event batch as a CSR segment — O(batch).

        The only operation that *buckets* events (computes cell keys and
        sorts them); everything else the index does is bookkeeping over
        already-bucketed segments, which is what makes a window slide
        O(arriving batch) instead of O(live events).
        """
        if seg_id in self._segments:
            raise ValueError(f"segment {seg_id!r} already registered")
        counter = counter if counter is not None else null_counter()
        coords = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"expected (n, 3) coordinates, got {coords.shape}")
        m = coords.shape[0]
        if weights is not None:
            weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
            if weights.shape != (m,):
                raise ValueError("weights must be (n,) matching coords")
        # Reuse a dead-row gap when one fits (the steady-state sliding
        # window replaces like-sized batches, so storage stops growing);
        # append at the high-water mark otherwise.
        start = self._take_gap(m)
        if start is None:
            self._grow_rows(m)
            start = self._size
            self._size += m
        else:
            self._dead -= m
        self._grow_order(m)
        self._coords[start : start + m] = coords
        if weights is not None and self._weights is None:
            w = np.ones(self._coords.shape[0], dtype=np.float64)
            self._weights = w
        if self._weights is not None:
            self._weights[start : start + m] = (
                weights if weights is not None else 1.0
            )
        cell = self.cell_of(coords) if m else np.empty(0, dtype=np.int64)
        # Stable sort keeps insertion order within a cell: deterministic
        # candidate (and hence accumulation) order for the direct sums.
        local = np.argsort(cell, kind="stable").astype(np.int64)
        order_base = self._order_high
        self._order[order_base : order_base + m] = start + local
        seg = _Segment(seg_id, start, m, cell[local], order_base)
        self._segments[seg_id] = seg
        if m:
            self._cell_counts += np.bincount(cell, minlength=self.n_cells)
        self._box_counts = None
        self.events_bucketed += m
        counter.index_events_bucketed += m

    def remove_segment(
        self, seg_id: object, counter: Optional[WorkCounter] = None
    ) -> None:
        """Retire one segment — pure bookkeeping, no re-bucketing.

        The rows go dead (registered on the gap free list) and stay in
        place; :meth:`sync` pays the compaction debt off the serving
        path.  A 4x safety valve still full-compacts for callers that
        retire heavily without ever syncing, so memory stays bounded.
        """
        counter = counter if counter is not None else null_counter()
        seg = self._segments.pop(seg_id, None)
        if seg is None:
            raise KeyError(f"unknown segment {seg_id!r}")
        if seg.n:
            self._cell_counts -= np.bincount(
                seg.cells_sorted, minlength=self.n_cells
            )
            self._free_rows(self._seg_rows(seg))
        self._box_counts = None
        self.events_retired += seg.n
        counter.index_events_retired += seg.n
        if self._dead > 4 * max(self.n, 64):
            self.rows_compacted += self.n
            counter.index_rows_compacted += self.n
            self._compact()

    def _retire_member(
        self, seg: _Segment, member_id: object, counter: WorkCounter
    ) -> int:
        """Retire one member batch of a consolidated segment.

        Filters the member's rows out of the segment's run table in one
        vectorised pass — the sorted-cell order of the survivors is
        preserved, so no cell is recomputed and no sort rerun; the rows
        go dead like any other retirement.  Returns the rows retired.
        """
        k = next(
            i for i, m in enumerate(seg.members) if m[0] == member_id
        )
        _, rel, nm = seg.members.pop(k)
        lo = seg.start + rel
        hi = lo + nm
        o = self._order[seg.order_base : seg.order_base + seg.n]
        drop = (o >= lo) & (o < hi)
        if nm:
            self._cell_counts -= np.bincount(
                seg.cells_sorted[drop], minlength=self.n_cells
            )
        keep = ~drop
        kept = o[keep]
        self._order[seg.order_base : seg.order_base + kept.size] = kept
        seg.cells_sorted = seg.cells_sorted[keep]
        seg.n = int(kept.size)
        seg.row_hi = int(kept.max()) + 1 if kept.size else seg.start
        self._add_gap(lo, nm)
        self._dead += nm
        self._box_counts = None
        self.events_retired += nm
        counter.index_events_retired += nm
        return nm

    def sync(
        self,
        batches: Sequence[Tuple[object, np.ndarray]],
        counter: Optional[WorkCounter] = None,
    ) -> Tuple[int, int]:
        """Reconcile the index with a source's live ``(batch_id, coords)``.

        Appends segments for unseen batch ids, retires segments (or
        consolidated-segment members) whose id is gone, and leaves
        surviving segments untouched — the O(delta) maintenance contract
        :class:`~repro.serve.service.DensityService` relies on across
        ``slide_window`` versions.  The maintenance that keeps the index
        healthy long-term also runs here, off the query path: the merge
        policy (segment count back under :attr:`merge_segment_cap`,
        zero re-bucketing) and the compaction-debt paydown (dead rows
        back under :attr:`dead_row_budget`, work proportional to what
        retired since the last sync).  Returns
        ``(events_added, events_retired)``.
        """
        counter = counter if counter is not None else null_counter()
        live_ids = {bid for bid, _ in batches}
        added = retired = 0
        for seg_id in list(self._segments):
            seg = self._segments[seg_id]
            if seg.members is None:
                if seg.seg_id not in live_ids:
                    retired += seg.n
                    self.remove_segment(seg_id, counter)
                continue
            for mid in [m[0] for m in seg.members if m[0] not in live_ids]:
                retired += self._retire_member(seg, mid, counter)
            if not seg.members:
                self._segments.pop(seg_id)  # empty shell, rows already dead
        covered = {
            mid for seg in self._segments.values() for mid in seg.member_ids()
        }
        for bid, coords in batches:
            if bid not in covered:
                self.add_segment(bid, coords, counter=counter)
                added += len(coords)
        if (
            self.merge_segment_cap is not None
            and self.segment_count > self.merge_segment_cap
        ):
            target = max(2, self.merge_segment_cap // 2)
            self.consolidate_segments(
                list(self._segments)[: self.segment_count - target + 1],
                counter,
            )
        self._pay_compaction_debt(counter)
        if self._order_high > max(64, 2 * self.n):
            self._rebuild_order_store()
        return added, retired

    def consolidate_segments(
        self, ids: List[object], counter: Optional[WorkCounter] = None
    ) -> None:
        """Coalesce segments into one consolidated CSR segment.

        Rows are copied member-major into one allocation and the members'
        already-sorted cell arrays merge-sorted into a single run table —
        no cell key is recomputed, no event re-bucketed.  Tie order
        within a cell is member registration order, exactly what a cold
        index built from the same batches would produce.  :meth:`sync`'s
        merge policy calls this; it is public so operators (and the
        ``c_qrow`` calibration probe) can consolidate explicitly.
        """
        counter = counter if counter is not None else null_counter()
        segs = [self._segments[i] for i in ids]
        n_total = sum(s.n for s in segs)
        dest = self._take_gap(n_total)
        if dest is None:
            self._grow_rows(n_total)
            dest = self._size
            self._size += n_total
        else:
            self._dead -= n_total
        self._grow_order(n_total)
        members: List[List] = []
        cells_parts: List[np.ndarray] = []
        pos = 0
        for s in segs:
            o = self._order[s.order_base : s.order_base + s.n]
            rows = np.sort(o)
            self._coords[dest + pos : dest + pos + s.n] = self._coords[rows]
            if self._weights is not None:
                self._weights[dest + pos : dest + pos + s.n] = (
                    self._weights[rows]
                )
            # Rows land in ascending-storage (= insertion) order, so the
            # member-major cells come from undoing the cell sort.
            cells_parts.append(s.cells_sorted[np.argsort(o, kind="stable")])
            if s.members is None:
                members.append([s.seg_id, pos, s.n])
            else:
                for mid, rel, nm in s.members:
                    members.append(
                        [mid, pos + int(np.searchsorted(rows, s.start + rel)), nm]
                    )
            self._free_rows(rows)
            pos += s.n
        for i in ids:
            self._segments.pop(i)
        cells = (
            np.concatenate(cells_parts) if cells_parts
            else np.empty(0, dtype=np.int64)
        )
        local = np.argsort(cells, kind="stable").astype(np.int64)
        order_base = self._order_high
        self._order[order_base : order_base + n_total] = dest + local
        seg_id = ("merged", self._merge_seq)
        self._merge_seq += 1
        seg = _Segment(
            seg_id, dest, n_total, cells[local], order_base, members=members
        )
        # Oldest-first dict order, like a cold build over the same batches.
        self._segments = {seg_id: seg, **self._segments}
        self.segments_merged += len(ids)
        counter.index_segments_merged += len(ids)
        # Cell counts are unchanged (same live events), so the planner's
        # box-sum table stays valid across a merge.

    # ------------------------------------------------------------------
    # Compaction debt
    # ------------------------------------------------------------------
    def _relocate_segment(self, seg: _Segment, dest: int) -> None:
        """Move a segment's live rows into ``dest``, squeezing its holes.

        The rows keep their ascending (insertion) order, so the cell-
        sorted permutation is remapped by rank and consolidated-segment
        member offsets stay contiguous.  The vacated rows join the free
        list; the caller owns the consumed gap's ``_dead`` accounting.
        """
        o = self._order[seg.order_base : seg.order_base + seg.n]
        rows = np.sort(o)
        n = seg.n
        self._coords[dest : dest + n] = self._coords[rows]
        if self._weights is not None:
            self._weights[dest : dest + n] = self._weights[rows]
        self._order[seg.order_base : seg.order_base + n] = (
            dest + np.searchsorted(rows, o)
        )
        if seg.members is not None:
            for m in seg.members:
                m[1] = int(np.searchsorted(rows, seg.start + m[1]))
        seg.start = dest
        seg.row_hi = dest + n
        self._free_rows(rows)

    def _relocate_split(self, seg: _Segment, counter: WorkCounter) -> bool:
        """Relocate a segment into *several* gap spans, lowest-first.

        Whole-segment relocation wedges when no single gap fits the
        segment — the fragmented-tail shape that used to force a full
        O(live) compaction.  Splitting sidesteps the wedge: a simple
        segment's rows break at any boundary, a consolidated segment's
        at **member** boundaries (each member's interval must stay
        contiguous for :meth:`_retire_member`'s ``[lo, hi)`` filter and
        :meth:`consolidate_segments`' rank remap), and chunks pack into
        the lowest gaps in ascending order — so rows keep their
        ascending insertion order and the cell-sorted permutation is
        remapped by rank exactly as in :meth:`_relocate_segment`.  Every
        committed plan places all rows strictly below the segment's
        current ``row_hi`` (a gap can never contain the segment's top
        live row), so each move strictly lowers it.  Returns ``False``
        when the gaps below the segment cannot hold it.
        """
        row_hi = seg.row_hi
        spans: List[Tuple[int, int]] = []  # (dest_start, rows_packed)
        if seg.members is None:
            remaining = seg.n
            for g in self._gaps:
                if remaining == 0:
                    break
                take = min(g[1], remaining, row_hi - g[0])
                if take <= 0:
                    continue
                spans.append((g[0], take))
                remaining -= take
            if remaining:
                return False
        else:
            mem = sorted(
                (m for m in seg.members if m[2]), key=lambda m: m[1]
            )
            sizes = [int(m[2]) for m in mem]
            mem_dest: List[int] = []
            k = 0
            for g in self._gaps:
                if k >= len(sizes):
                    break
                room = min(g[1], row_hi - g[0])
                packed = 0
                while k < len(sizes) and sizes[k] <= room - packed:
                    mem_dest.append(g[0] + packed)
                    packed += sizes[k]
                    k += 1
                if packed:
                    spans.append((g[0], packed))
            if k < len(sizes):
                return False
        # Commit: consume the planned span off each gap's low end.
        for dest, cnt in spans:
            i = bisect.bisect_left([g[0] for g in self._gaps], dest)
            g = self._gaps[i]
            if g[1] == cnt:
                self._gaps.pop(i)
            else:
                g[0] += cnt
                g[1] -= cnt
        self._dead -= seg.n
        o = self._order[seg.order_base : seg.order_base + seg.n]
        rows = np.sort(o)
        new_rows = (
            np.concatenate(
                [np.arange(d, d + c, dtype=np.int64) for d, c in spans]
            )
            if spans else np.empty(0, dtype=np.int64)
        )
        self._coords[new_rows] = self._coords[rows]
        if self._weights is not None:
            self._weights[new_rows] = self._weights[rows]
        self._order[seg.order_base : seg.order_base + seg.n] = (
            new_rows[np.searchsorted(rows, o)]
        )
        start = spans[0][0] if spans else seg.start
        if seg.members is not None:
            it = iter(mem_dest)
            for m in mem:
                m[1] = next(it) - start
            for m in seg.members:
                if not m[2]:
                    m[1] = 0
        seg.start = start
        seg.row_hi = (spans[-1][0] + spans[-1][1]) if spans else start
        self._free_rows(rows)
        return True

    def _truncate_tail(self) -> None:
        """Reclaim trailing dead rows by lowering the high-water mark."""
        hi = max((s.row_hi for s in self._segments.values()), default=0)
        if hi >= self._size:
            return
        kept: List[List[int]] = []
        for g in self._gaps:
            if g[0] >= hi:
                self._dead -= g[1]
            elif g[0] + g[1] > hi:
                self._dead -= g[0] + g[1] - hi
                kept.append([g[0], hi - g[0]])
            else:
                kept.append(g)
        self._gaps = kept
        self._size = hi

    def _pay_compaction_debt(self, counter: WorkCounter) -> None:
        """Pay dead rows down to :attr:`dead_row_budget`, incrementally.

        Trailing gaps are truncated for free; then the highest-placed
        segments are relocated into the lowest fitting gaps until the
        debt is under budget.  A segment no single gap can hold is
        **split** across several spans (:meth:`_relocate_split`) —
        member-boundary splits for consolidated segments, arbitrary for
        simple ones — so a fragmented tail under a large consolidated
        segment no longer wedges relocation into the old full-compact
        cliff.  Each relocation strictly lowers the storage high-water
        mark, so the work is proportional to the rows retired since the
        last sync — never a full sweep on the fast path.  A full
        compaction survives only as a last-resort safety valve (e.g. a
        single member larger than every gap below it), so the budget
        bound genuinely holds after every sync.
        """
        self._truncate_tail()
        for _ in range(64):
            if self._dead <= self.dead_row_budget:
                return
            moved = False
            for seg in sorted(
                (s for s in self._segments.values() if s.n),
                key=lambda s: s.row_hi, reverse=True,
            ):
                dest = self._take_gap(seg.n, limit=seg.row_hi - seg.n)
                if dest is not None:
                    self._dead -= seg.n
                    self._relocate_segment(seg, dest)
                    self.rows_compacted += seg.n
                    counter.index_rows_compacted += seg.n
                    moved = True
                    break
                if self._relocate_split(seg, counter):
                    self.rows_compacted += seg.n
                    counter.index_rows_compacted += seg.n
                    moved = True
                    break
            self._truncate_tail()
            if not moved:
                break
        if self._dead > self.dead_row_budget:
            self.rows_compacted += self.n
            counter.index_rows_compacted += self.n
            self._compact()

    def _rebuild_order_store(self) -> None:
        """Densify the order store (row ids unchanged, spans repacked).

        The backstop for permutation-store growth under sustained churn:
        O(live) int64 copies, triggered only when the high-water mark
        doubles the live count.
        """
        live = self.n
        order = np.empty(max(live, 64), dtype=np.int64)
        pos = 0
        for seg in self._segments.values():
            order[pos : pos + seg.n] = (
                self._order[seg.order_base : seg.order_base + seg.n]
            )
            seg.order_base = pos
            pos += seg.n
        self._order = order

    def _compact(self) -> None:
        """Squeeze all dead rows out of the stores — O(live), zero
        bucketing.

        Rows move but keep their ascending (insertion) order per segment,
        so each permutation is remapped by rank — no cell is recomputed,
        no sort rerun, and consolidated-segment member spans survive.
        """
        live = self.n
        coords = np.empty((max(live, 64), 3), dtype=np.float64, order="F")
        weights = (
            np.ones(coords.shape[0], dtype=np.float64)
            if self._weights is not None else None
        )
        order = np.empty(max(live, 64), dtype=np.int64)
        pos = 0
        for seg in self._segments.values():
            o = self._order[seg.order_base : seg.order_base + seg.n]
            rows = np.sort(o)
            coords[pos : pos + seg.n] = self._coords[rows]
            if weights is not None:
                weights[pos : pos + seg.n] = self._weights[rows]
            order[pos : pos + seg.n] = pos + np.searchsorted(rows, o)
            if seg.members is not None:
                for m in seg.members:
                    m[1] = int(np.searchsorted(rows, seg.start + m[1]))
            seg.start = pos
            seg.row_hi = pos + seg.n
            seg.order_base = pos
            pos += seg.n
        self._coords = coords
        self._weights = weights
        self._order = order
        self._size = live
        self._dead = 0
        self._gaps = []

    def stats(self) -> Dict[str, int]:
        """Gauges for serving observability (``repro query --stats``)."""
        return {
            "segments": self.segment_count,
            "merged_segments": self.merged_segments,
            "events": self.n,
            "dead_rows": self._dead,
            "dead_row_budget": self.dead_row_budget,
            "gaps": len(self._gaps),
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
    def cell_coords(self, queries: np.ndarray) -> np.ndarray:
        """``(m, 3)`` integer cell coordinates of query locations (clamped)."""
        q = np.asarray(queries, dtype=np.float64)
        d = self.grid.domain
        out = np.empty((q.shape[0], 3), dtype=np.int64)
        out[:, 0] = (q[:, 0] - d.x0) / self.grid.hs
        out[:, 1] = (q[:, 1] - d.y0) / self.grid.hs
        out[:, 2] = (q[:, 2] - d.t0) / self.grid.ht
        np.clip(out[:, 0], 0, self.nx - 1, out=out[:, 0])
        np.clip(out[:, 1], 0, self.ny - 1, out=out[:, 1])
        np.clip(out[:, 2], 0, self.nt - 1, out=out[:, 2])
        return out

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
        of cell ``g`` covers ``order_store[starts[g, r] :
        starts[g, r] + lengths[g, r]]``.  Runs are ordered segment-major,
        then x, then y; consuming them left-to-right fixes the candidate
        (and hence accumulation) order of every direct sum.  Cells
        contiguous in t are contiguous in the flat id, so one ``(ix, iy)``
        row of the neighbourhood is a single run; rows outside the cell
        grid have length 0.

        The table of all ``18 * G`` run bounds is built once and each
        segment answers it with a single ``searchsorted``.
        """
        cc = np.asarray(cell_coords, dtype=np.int64)
        G = cc.shape[0]
        n_runs = _RUNS_PER_SEGMENT * max(1, len(self._segments))
        starts = np.zeros((G, n_runs), dtype=np.int64)
        lengths = np.zeros((G, n_runs), dtype=np.int64)
        if G == 0 or not self._segments:
            return starts, lengths
        # Neighbour rows (9, G), x-major then y; each row of the bound
        # table ascends with the (sorted) cells, which is the needle order
        # ``searchsorted`` is fast on.
        ix = cc[:, 0] + np.repeat(np.arange(-1, 2), 3)[:, None]
        iy = cc[:, 1] + np.tile(np.arange(-1, 2), 3)[:, None]
        valid = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        row = (ix * self.ny + iy) * self.nt
        bounds = np.stack([
            row + np.maximum(cc[:, 2] - 1, 0),
            row + np.minimum(cc[:, 2] + 2, self.nt),
        ])
        for k, seg in enumerate(self._segments.values()):
            if seg.n == 0:
                continue
            lo, hi = np.searchsorted(
                seg.cells_sorted, bounds.ravel()
            ).reshape(bounds.shape)
            r = slice(k * _RUNS_PER_SEGMENT, (k + 1) * _RUNS_PER_SEGMENT)
            starts[:, r] = np.where(valid, seg.order_base + lo, 0).T
            lengths[:, r] = np.where(valid, hi - lo, 0).T
        return starts, lengths

    @property
    def box_counts(self) -> np.ndarray:
        """``(nx, ny, nt)`` candidate-set size of every home cell.

        The 27-neighbourhood box sums of the per-cell counts (maintained
        incrementally), rebuilt lazily after mutations — O(cells) per
        rebuild, then a batch's candidate counts are O(m) lookups with no
        candidate gathering.
        """
        if self._box_counts is None:
            # 3-wide box sums via padded prefix sums, one axis at a time.
            box = self._cell_counts.reshape(self.nx, self.ny, self.nt)
            for axis, size in ((0, self.nx), (1, self.ny), (2, self.nt)):
                cum = np.concatenate(
                    [np.zeros_like(box.take([0], axis=axis)),
                     np.cumsum(box, axis=axis)],
                    axis=axis,
                )
                hi = np.minimum(np.arange(size) + 2, size)
                lo = np.maximum(np.arange(size) - 1, 0)
                box = cum.take(hi, axis=axis) - cum.take(lo, axis=axis)
            self._box_counts = box
        return self._box_counts

    def candidate_counts(self, queries: np.ndarray) -> np.ndarray:
        """Exact candidate-set size per query, vectorised (planner input)."""
        return self.box_counts[tuple(self.cell_coords(queries).T)]

    def group_count(self, queries: np.ndarray) -> int:
        """Number of distinct home cells a query batch occupies.

        The number of candidate neighbourhoods a batch walks — each is
        probed once per segment, which is the unit the cost model's
        ``c_qprobe`` prices.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.shape[0] == 0:
            return 0
        return int(np.unique(self.cell_of(q)).size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BucketIndex(n={self.n}, cells={self.nx}x{self.ny}x{self.nt}, "
            f"segments={self.segment_count}, occupied={self.occupied_cells})"
        )
