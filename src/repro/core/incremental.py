"""Incremental STKDE: add and retire events without recomputation.

The paper's motivation is *interactive* exploration — surveillance feeds
update daily, dashboards slide their time window.  The PB-SYM estimator is
a normalised **sum of per-point stamps**, and a sum over disjoint subsets
of the events can be taken subset by subset.  The live window is therefore
kept as a list of **units** — disjoint event subsets, each one segment of
the estimator's :class:`~repro.core.index.BucketIndex`, with the bounding
box of their stamps and, once a reader has asked for it, their summed
*unnormalised* stamp in a :class:`~repro.core.regions.RegionBuffer` over
that box — and nothing else: no running total, no grid-sized array.  Only
the ``1/n`` normalisation couples events, and it is applied on read.

Example::

    inc = IncrementalSTKDE(grid)
    inc.add(monday_events)
    density = inc.volume()            # estimate over everything so far
    inc.remove(monday_events)         # slide the window
    inc.add(tuesday_events)

``slide_window(new, horizon)`` combines both steps for the common
time-window case.

One live state
--------------
The rows are the state, and they are stored once: in :attr:`index
<IncrementalSTKDE.index>`, one segment per unit, (cell, t)-sorted — the
same index the serving tier answers point queries from.  A unit keeps
only its id, bbox, row count, t-range and sort key; its rows are read
back from the index in key order.  A unit's buffer is a **cache built by
the first read**.  ``add`` plans a batch into units; ``slide_window``
drops the units the horizon passed (their t-ranges say which, without a
scan) and re-plans the one it cuts through from its survivors; ``remove``
re-plans each unit that lost rows from its survivors.  All three are
bookkeeping — register and retire segments, match rows, run the index's
upkeep (:meth:`~repro.core.index.BucketIndex.maintain`), bump
``version`` — and evaluate no kernel: a consumer that answers from the
rows (a service's direct sums, a shard worker) never pays for a stamp.
``volume()`` stamps whichever live units have no buffer yet, each once,
into fresh zeros, through the batched region engine
(:func:`repro.core.stamping.stamp_batch`); a buffer is never written
again and is kept until its unit's membership changes, so it is a pure
function of the unit's rows, and a unit minted and retired between two
reads is never stamped at all.  Nothing is ever subtracted, so there is
no cancellation noise to clamp, and ``volume()`` — the live buffers added
into zeros in an order derived from their content — is a **bit-exact
pure function of the live membership** under every interleaving of the
three: a long-slid window and a cold estimator re-fed the same
``live_batches`` serve ``array_equal`` volumes, and both match a batch
recompute at ``rtol=1e-12``.

t-slab units
------------
A batch is partitioned along t into **retirement slabs**
(:func:`~repro.core.regions.plan_time_slabs`: stamp-origin ordered,
balanced on stamped cell count), one unit each.  A sliding window's
horizon then expires whole leading slabs and cuts through at most one
*straddle* slab, so the kernel work a slide leaves for the next read is
one thin engine batch — the straddle slab's survivors — instead of every
survivor of the batch (``t_slab_voxels=None``: one unit per batch, which
restamps them all; the two agree to ``rtol=1e-12``).  Slab boxes overlap
by one stamp extent along t, so a batch whose slabs would together cover
more than half the grid stays one whole-batch unit.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grid import GridSpec, PointSet, Volume, VoxelWindow, zeros_volume
from .index import BucketIndex
from .instrument import WorkCounter
from .kernels import KernelPair, get_kernel
from .regions import RegionBuffer, batch_bbox, plan_time_slabs

__all__ = ["IncrementalSTKDE", "match_live"]

#: A batch is split into t-slab units only while the slabs' boxes together
#: cover at most this share of the grid; past it the overlap between
#: adjacent slab boxes outweighs thin retirement and the batch stays whole.
_SLAB_GRID_SHARE = 0.5


def _row_keys(coords: np.ndarray) -> np.ndarray:
    """``(n,)`` opaque byte keys for exact (bitwise) row matching."""
    a = np.ascontiguousarray(coords, dtype=np.float64)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).reshape(-1)


def match_live(
    coords: np.ndarray,
    t_ranges: Sequence[Tuple[float, float]],
    rows_of: Callable[[int], np.ndarray],
    n: int,
) -> Dict[int, np.ndarray]:
    """Which live rows a multiset removal of ``coords`` claims.

    The live rows, ``n`` in all, are batches: ``t_ranges[i]`` is batch
    ``i``'s earliest and latest t and ``rows_of(i)`` reads its rows, which
    happens only while rows of ``coords`` are unclaimed and the t-range
    holds one of their times.  Rows are compared bit-exactly (byte view
    of the float triples) and each removed row claims one live
    occurrence, first batches first.  Which instance of duplicated
    identical rows is claimed is immaterial — they are
    indistinguishable.  Returns ``{i: mask}`` for the batches that lose
    rows.  Pure: raises ``ValueError`` when a row finds no live
    occurrence, so the caller mutates only afterwards.
    """
    if len(coords) > n:
        raise ValueError(
            f"cannot remove {len(coords)} events; only {n} present"
        )
    drops: Dict[int, np.ndarray] = {}
    remaining = len(coords)
    if remaining == 0:
        return drops
    uniq, counts = np.unique(_row_keys(coords), return_counts=True)
    lo, hi = coords[:, 2].min(), coords[:, 2].max()
    for i, (t_min, t_max) in enumerate(t_ranges):
        if remaining == 0:
            break
        if t_max < lo or t_min > hi:
            continue
        bk = _row_keys(rows_of(i))
        pos = np.minimum(np.searchsorted(uniq, bk), uniq.size - 1)
        midx = np.flatnonzero((uniq[pos] == bk) & (counts[pos] > 0))
        if midx.size == 0:
            continue
        # Rank the matching rows (usually a handful) within each run of
        # equal keys; the first `counts[key]` of each run are claimed,
        # and later batches see the budget that is left.
        order = midx[np.argsort(bk[midx], kind="stable")]
        sbk = bk[order]
        new_run = np.concatenate(([True], sbk[1:] != sbk[:-1]))
        run_starts = np.flatnonzero(new_run)
        occ = np.arange(sbk.size) - run_starts[np.cumsum(new_run) - 1]
        claimed = order[occ < counts[pos[order]]]
        counts = counts - np.bincount(pos[claimed], minlength=uniq.size)
        remaining -= claimed.size
        drops[i] = np.zeros(bk.size, dtype=bool)
        drops[i][claimed] = True
    if remaining:
        raise ValueError(
            f"cannot remove {remaining} of {len(coords)} events: not "
            f"live (never added, already retired, or removed beyond "
            f"their multiplicity)"
        )
    return drops


@dataclass
class _TrackedBatch:
    """A live unit — one retirement slab — and, once read, its stamp.

    An added batch is tracked as one or more of these (one per t-slab
    when slabbing applies).  The rows are the index segment registered
    under ``batch_id``; the unit keeps what is fixed when it is planned:
    ``bbox``, the bounding box of the rows' stamps, the row count ``n``,
    ``t_range`` (earliest and latest t) and ``order``, the content-derived
    key :meth:`IncrementalSTKDE.volume` sums units by.  ``buffer`` is the
    unit's only stamp, over exactly ``bbox``, ``None`` until the first
    ``volume()`` that needs it.  ``batch_id`` is unique for the life of
    the estimator and changes whenever the unit's *membership* changes
    (partial retirement, removal): a segment is an immutable event set,
    so survivors of a split are a brand-new batch.
    """

    batch_id: int
    bbox: VoxelWindow
    n: int
    t_range: Tuple[float, float]
    order: tuple
    buffer: Optional[RegionBuffer] = None


class IncrementalSTKDE:
    """Exactly-maintained STKDE under event insertion and retirement.

    A list of units; :meth:`volume` is their canonical sum — a bit-exact
    pure function of the live membership, always (module docstring).

    **Memory.**  Construction allocates nothing grid-sized, and neither
    does any mutation: the rows live once, in :attr:`index` (coordinates
    and one sort key per row, at most ~2x live after a repack), whose
    per-cell count table waits for a query to ask for it.  Once read,
    each live unit holds one buffer over
    its stamps' bounding box: a thin box for a t-localised feed, at most
    half a grid in total for a slabbed batch, up to one full volume for a
    domain-wide batch.  There is no aggregate cap: *k* live domain-wide
    batches hold up to *k* volumes after a read.

    **What rebuilding costs.**  A unit that loses rows is re-planned from
    its survivors and loses its buffer; the survivors are stamped by the
    next :meth:`volume`, the price of re-adding them.  Mutations between
    two reads therefore cost nothing beyond their bookkeeping: a
    domain-wide unit cut by every slide, and the units ``remove``
    touches, are each stamped once per *read*, not once per mutation —
    and never, when nobody reads (docs/PERFORMANCE.md, "One live state",
    has the numbers).

    ``t_slab_voxels`` sets the retirement-slab thickness along t:
    ``"auto"`` (default) is :func:`~repro.core.regions.auto_slab_voxels`,
    two stamp extents — any t-partition of a batch is exact, so the
    thickness is purely a cost question, and docs/PERFORMANCE.md
    ("Retirement-slab thickness") has the sweep that settled it.  An
    ``int`` pins the thickness and ``None`` disables slabbing — one unit
    per batch, whose partial retirement restamps every survivor; both
    exist for the reference estimators the tests compare against.  Any
    other value (a float, a bool, another string) raises ``ValueError``
    here, not on the first ``add``.
    """

    def __init__(
        self,
        grid: GridSpec,
        *,
        kernel: str | KernelPair = "epanechnikov",
        counter: Optional[WorkCounter] = None,
        t_slab_voxels: int | str | None = "auto",
    ) -> None:
        if t_slab_voxels not in ("auto", None) and (
            isinstance(t_slab_voxels, bool)
            or not isinstance(t_slab_voxels, numbers.Integral)
            or t_slab_voxels < 1
        ):
            raise ValueError(
                "t_slab_voxels must be an integer >= 1, 'auto', or None, "
                f"got {t_slab_voxels!r}"
            )
        self.t_slab_voxels = t_slab_voxels
        self.grid = grid
        self.kernel = get_kernel(kernel)
        self.counter = counter if counter is not None else WorkCounter()
        #: The live window's rows, one segment per unit; a live service
        #: answers point queries from it.
        self.index = BucketIndex(grid)
        self._n = 0
        self._live: List[_TrackedBatch] = []  # the live units
        self._version = 0
        self._next_batch_id = 0

    @property
    def n(self) -> int:
        """Number of events currently contributing."""
        return self._n

    @property
    def version(self) -> int:
        """Monotonic dataset version, bumped on every mutation.

        ``add``, ``remove``, and ``slide_window`` each advance it, so any
        derived artifact (query caches, materialised volumes) keyed on the
        version is invalidated the moment the live window changes — this is
        the invalidation contract :mod:`repro.serve` relies on.
        """
        return self._version

    @property
    def live_coords(self) -> np.ndarray:
        """``(n, 3)`` coordinates of all currently-live events (copy),
        gathered from :attr:`index` segment by segment — a multiset: the
        row order is the index's, not the order of arrival."""
        return self.index.live_rows()

    @property
    def live_batches(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """Currently-live ``(batch_id, coords)`` pairs, in tracking order,
        each unit's rows in index key order.  Re-fed one ``add`` per pair
        to a cold estimator (slabbing disabled), they rebuild the same
        units: the warm-vs-cold contract of :meth:`volume`."""
        return tuple(
            (tb.batch_id, self.index.rows(tb.batch_id)) for tb in self._live
        )

    @property
    def min_t(self) -> float:
        """Earliest live event time (``inf`` for an empty window), read
        off the units' t-ranges."""
        return min((tb.t_range[0] for tb in self._live), default=np.inf)

    @property
    def units_live(self) -> int:
        """Number of live units."""
        return len(self._live)

    @property
    def units_stamped(self) -> int:
        """Number of live units holding a buffer — the ones some
        :meth:`volume` has read since their membership last changed."""
        return sum(tb.buffer is not None for tb in self._live)

    @property
    def cached_buffer_cells(self) -> int:
        """Cells held in the live units' buffers (memory gauge).

        Counts stamped units only: a unit no :meth:`volume` has read yet
        holds no buffer, so this is 0 until the first read.
        """
        return sum(
            tb.buffer.cells for tb in self._live if tb.buffer is not None
        )

    # ------------------------------------------------------------------
    def _plan_unit(
        self, coords: np.ndarray, bbox: VoxelWindow
    ) -> _TrackedBatch:
        """Mint one unit over ``bbox``: its rows become an index segment,
        its buffer waits for a reader.  The unit's :meth:`volume` order is
        fixed here, from the rows as the index holds them (key order), so
        a cold replay of :attr:`live_batches` computes the same keys."""
        self._next_batch_id += 1
        bid = self._next_batch_id
        self.index.add_segment(bid, coords, counter=self.counter)
        rows = self.index.rows(bid)
        digest = hashlib.blake2b(rows.tobytes(), digest_size=16).digest()
        return _TrackedBatch(
            bid, bbox, len(rows),
            (float(rows[:, 2].min()), float(rows[:, 2].max())),
            (bbox.x0, bbox.x1, bbox.y0, bbox.y1, bbox.t0, bbox.t1,
             len(rows), digest),
        )

    def _stamp_unit(self, tb: _TrackedBatch) -> None:
        """Stamp a unit's rows into a fresh buffer over its bbox."""
        buf = RegionBuffer(tb.bbox)
        self.counter.init_writes += buf.cells
        self.counter.shard_bbox_cells += buf.cells
        buf.stamp(
            self.grid, self.kernel, self.index.rows(tb.batch_id), 1.0,
            self.counter,
        )
        tb.buffer = buf

    def _plan_tracked(self, coords: np.ndarray) -> List[_TrackedBatch]:
        """Plan a batch into units (no kernel work: :meth:`volume` stamps).

        One unit per t-slab while the slabs' boxes together stay within
        ``_SLAB_GRID_SHARE`` of the grid (slab xy-boxes are tighter than
        the joint bbox, so the aggregate is often smaller than it);
        otherwise one unit over the batch's bounding box.  Every path that
        changes a unit's membership comes back through here, so survivors
        are re-planned and carry new ids.
        """
        # Never None: off-domain points clamp to a boundary voxel, so every
        # row of a (non-empty) batch has a stamp window on the grid.
        bbox = batch_bbox(self.grid, coords)
        if self.t_slab_voxels is not None:
            slabs = plan_time_slabs(
                self.grid, coords,
                None if self.t_slab_voxels == "auto" else self.t_slab_voxels,
            )
            if len(slabs) > 1:
                parts = [coords[idx] for idx in slabs]
                boxes = [batch_bbox(self.grid, p) for p in parts]
                total = sum(b.volume for b in boxes)
                if total <= _SLAB_GRID_SHARE * self.grid.n_voxels:
                    return [
                        self._plan_unit(p, b) for p, b in zip(parts, boxes)
                    ]
        return [self._plan_unit(coords, bbox)]

    @staticmethod
    def _coerce_unweighted(points: PointSet | np.ndarray) -> np.ndarray:
        """Event coordinates of an *unweighted* input.

        Weighted :class:`PointSet` s are rejected: every unit sums
        unit-weight stamps, so silently dropping weights would serve a
        different estimator than the caller built.  Raw arrays get
        the checks :class:`PointSet` applies to its own: a 2-D ``(n, 3)``
        shape (``n = 0`` allowed) — no stamp runs inside a mutation to
        trip over a malformed batch, and a wrong-width entry in
        ``live_batches`` would only fail a later reader — and finite
        values, since a NaN or infinite coordinate would be counted as an
        event and cast to an arbitrary voxel.  Called before any state
        changes, so a ``ValueError`` leaves the estimator untouched.
        """
        if isinstance(points, PointSet):
            if points.weights is not None:
                raise ValueError(
                    "IncrementalSTKDE does not track per-event weights; "
                    "serve weighted sets through a static DensityService "
                    "or drop the weights explicitly"
                )
            return points.coords
        coords = np.asarray(points, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(
                f"expected (n, 3) event coordinates, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        return coords

    @staticmethod
    def _coerce_horizon(t_horizon: float) -> float:
        """A slide's ``t_horizon`` as a float; NaN raises ``ValueError``
        (every ``t < nan`` is false: the slide would retire nothing and
        bump the version for it).  ``±inf`` are legal.  Every slide — this
        estimator's, a service's, the sharded coordinator's and its replay
        logs' — checks here, before any state changes.
        """
        t_horizon = float(t_horizon)
        if t_horizon != t_horizon:
            raise ValueError("t_horizon must not be NaN")
        return t_horizon

    def add(self, points: PointSet | np.ndarray) -> None:
        """Insert events: plan them into units, O(batch) bookkeeping.

        No cylinder is stamped here; the next :meth:`volume` pays
        O(batch * stamp) for the units it finds without a buffer.
        Weighted :class:`PointSet` s and malformed arrays are rejected —
        see :meth:`_coerce_unweighted`.
        """
        coords = self._coerce_unweighted(points)
        if coords.size:
            self._insert(coords)
            self._settle()

    def _insert(self, coords: np.ndarray) -> None:
        """Plan a non-empty, checked batch into live units."""
        self._live.extend(self._plan_tracked(coords))
        self.counter.points_processed += len(coords)
        self._n += len(coords)

    def _settle(self) -> None:
        """End a mutation: the index's merge policy and repack rule, then
        a new version."""
        self.index.maintain(self.counter)
        self._version += 1

    def remove(self, points: PointSet | np.ndarray) -> None:
        """Retire live events; each unit that loses rows is re-planned.

        Every row must match a live event bit for bit, with multiplicity
        (one live occurrence per removed row).  Rows that are not live —
        never added, already retired, or removed more often than they
        were added — raise ``ValueError`` before anything changes.  A
        touched unit's survivors are re-planned as new units (new ids, no
        buffer), exactly as if they had just been added.
        """
        coords = self._coerce_unweighted(points)
        if coords.size == 0:
            return
        drops = match_live(
            coords, [tb.t_range for tb in self._live],
            lambda i: self.index.rows(self._live[i].batch_id), self._n,
        )
        kept: List[_TrackedBatch] = []
        for i, tb in enumerate(self._live):
            drop = drops.get(i)
            if drop is None:
                kept.append(tb)
                continue
            survivors = self.index.rows(tb.batch_id)[~drop]
            self.index.remove_segment(tb.batch_id, self.counter)
            if len(survivors):
                kept.extend(self._plan_tracked(survivors))
        self._live = kept
        self._n -= len(coords)
        self._settle()

    def slide_window(self, new_points: PointSet | np.ndarray, t_horizon: float) -> int:
        """Add ``new_points`` and retire all tracked events with
        ``t < t_horizon``.  Returns the number of retired events.

        Fully-expired units are dropped, buffer (if any) and all; only
        the unit the horizon cuts *through* is re-planned from its
        survivors.  The units' t-ranges decide which is which, so only
        the straddle unit's rows are read.  The slide itself evaluates no
        kernel and passes over no volume; the kernel work it leaves for
        the next :meth:`volume` is the arriving batch plus one straddle
        slab, not every survivor of a partially-expired batch.
        """
        # Reject a malformed feed or horizon before anything is retired.
        new_points = self._coerce_unweighted(new_points)
        t_horizon = self._coerce_horizon(t_horizon)
        retired = 0
        kept: List[_TrackedBatch] = []
        for tb in self._live:
            t_min, t_max = tb.t_range
            if t_min >= t_horizon:
                kept.append(tb)
                continue
            survivors = np.empty((0, 3))
            if t_max >= t_horizon:
                rows = self.index.rows(tb.batch_id)
                survivors = rows[rows[:, 2] >= t_horizon]
            self.index.remove_segment(tb.batch_id, self.counter)
            retired += tb.n - len(survivors)
            self.counter.slab_buffers_retired += 1
            if len(survivors):
                self.counter.slab_restamp_points += len(survivors)
                kept.extend(self._plan_tracked(survivors))
        self._live = kept
        self._n -= retired
        if new_points.size:
            self._insert(new_points)
        # A quiet tick (nothing retired, nothing added) changes nothing
        # and must not force version-keyed caches to rebuild.
        if retired or new_points.size:
            self._settle()
        return retired

    def volume(self) -> Volume:
        """The current normalised density volume (copy; O(volume)).

        Stamps every live unit that has no buffer yet (the units minted
        since the last read; none on a repeated read), then adds every
        live unit's buffer into fresh zeros and scales by
        ``1/(n hs^2 ht)``.  The units are summed in a *content-derived*
        order — bbox window, then row count, then a digest of the rows —
        so nothing of tracking order (which depends on the mutation
        history) leaks into the sum.  A cold estimator re-fed
        :attr:`live_batches` (one ``add`` per unit, slabbing disabled so
        each re-stamps whole) therefore composes the identical buffers in
        the identical order: the bit-exact warm-vs-cold contract.
        """
        # Pending stamps first, so their scratch is gone before the
        # output is allocated.
        for tb in self._live:
            if tb.buffer is None:
                self._stamp_unit(tb)
        # Lazily zeroed pages: the buffers' adds are their first touch.
        data = zeros_volume(self.grid.shape)
        for tb in sorted(self._live, key=lambda tb: tb.order):
            tb.buffer.add_into(data)
        if self._n:
            data *= self.grid.normalization(self._n)
        return Volume(data, self.grid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalSTKDE(n={self._n}, grid={self.grid.shape})"
