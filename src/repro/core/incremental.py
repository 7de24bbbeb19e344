"""Incremental STKDE: add and retire events without recomputation.

The paper's motivation is *interactive* exploration — surveillance feeds
update daily, dashboards slide their time window.  The PB-SYM estimator is
a normalised **sum of per-point stamps**, and a sum over disjoint subsets
of the events can be taken subset by subset.  The live window is therefore
a :class:`~repro.core.window.Window` of **units** — disjoint event
subsets, each one segment of the estimator's
:class:`~repro.core.index.BucketIndex` — plus, per unit a reader has
asked for, its summed *unnormalised* stamp in a
:class:`~repro.core.regions.RegionBuffer` over its stamps' bounding box:
no running total, no grid-sized array.  Only the ``1/n`` normalisation
couples events, and it is applied on read.

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
The rows are stored once, in :attr:`index <IncrementalSTKDE.index>`,
(cell, t)-sorted — the same index the serving tier answers point queries
from.  ``add``, ``slide_window`` and ``remove`` are the window's rule
(:mod:`repro.core.window`) followed by the index's upkeep
(:meth:`~repro.core.index.BucketIndex.maintain`) and a new ``version``;
they evaluate no kernel, so a consumer that answers from the rows never
pays for a stamp.  ``volume()`` stamps whichever live units have no
buffer yet, each once, through the batched region engine
(:func:`repro.core.stamping.stamp_batch`); a buffer is never written
again and is freed when its unit retires, so it is a pure function of the
unit's rows, and a unit minted and retired between two reads is never
stamped at all.  Nothing is ever subtracted, and ``volume()`` adds the
live buffers into zeros in an order derived from their content, then
scales only the t-planes they cover (the rest stay untouched zero
pages), so it is a **bit-exact pure function of the live membership**
under every interleaving of the three: a long-slid window and a cold
estimator re-fed the same ``live_batches`` serve ``array_equal``
volumes, and both match a batch recompute at ``rtol=1e-12``.  A unit
whose box is mostly zero (narrow stamps spread over a wide box) is kept
as its nonzero cells and added by one fancy-index add: the same
additions minus the ``+0.0`` ones, so the same bits.

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
from dataclasses import astuple
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from .grid import GridSpec, PointSet, Volume, flat_view, zeros_volume
from .index import BucketIndex
from .instrument import WorkCounter
from .kernels import KernelPair, get_kernel
from .regions import RegionBuffer, batch_bbox
from .window import Window, slab_split

__all__ = ["IncrementalSTKDE"]

#: A stamped unit with at most this share of its buffer's cells nonzero
#: is held as those cells: composing it costs a gather-scatter per entry
#: instead of a pass over every cell, and the two break even near here
#: (docs/PERFORMANCE.md, "Sparse units", has the sweep).
_SPARSE_SHARE = 0.25


class _SparseUnit:
    """A stamped unit held as its buffer's nonzero cells: their sorted
    positions in a grid volume's :func:`~repro.core.grid.flat_view` and
    their values.  :meth:`add_into` gives every voxel the additions the
    buffer's would, minus the ``+0.0`` ones; ``x + 0.0 == x`` bit for bit
    for every ``x`` but ``-0.0``, which a sum started from ``+0.0`` never
    reaches, so it composes the same bits."""

    __slots__ = ("window", "idx", "vals")

    def __init__(
        self, grid: GridSpec, buf: RegionBuffer, nonzero: np.ndarray
    ) -> None:
        """``nonzero``: ``flat_view(buf.data) != 0``."""
        w = self.window = buf.window
        flat = flat_view(buf.data)
        pos = np.flatnonzero(nonzero)
        wx, wy, wt = w.shape
        T, X, Y = np.unravel_index(pos, (wt, wx, wy))
        self.idx = grid.flat_index(X + w.x0, Y + w.y0, T + w.t0)
        self.vals = flat[pos]

    @property
    def cells(self) -> int:
        """Number of values held."""
        return self.vals.size

    def add_into(self, vol: np.ndarray) -> None:
        flat_view(vol)[self.idx] += self.vals


class IncrementalSTKDE:
    """Exactly-maintained STKDE under event insertion and retirement.

    A list of units; :meth:`volume` is their canonical sum — a bit-exact
    pure function of the live membership, always (module docstring).

    **Memory.**  Construction allocates nothing grid-sized, and neither
    does any mutation: the rows live once, in :attr:`index` (coordinates
    and one sort key per row, at most ~2x live after a repack), whose
    per-cell count table waits for a query to ask for it.  Once read,
    each live unit holds its summed stamp over its stamps' bounding box:
    a thin box for a t-localised feed, at most half a grid in total for
    a slabbed batch, up to one full volume for a domain-wide batch.  A
    unit with at most a quarter of that box nonzero (narrow stamps, the
    paper's low-bandwidth instances) keeps only its nonzero cells, at
    16 bytes each, and frees the box.  There is no aggregate cap: *k*
    live domain-wide batches hold up to *k* volumes after a read.

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
        pinned = None if t_slab_voxels == "auto" else t_slab_voxels
        split = None if t_slab_voxels is None else partial(
            slab_split, grid, slab_voxels=pinned)  # None: one unit per batch
        #: The live units, over :attr:`index`.
        self.window = Window(self.index, split, self.counter)
        # Per stamped unit id: its volume() sum-order key and its buffer,
        # or, for a mostly-zero one, its nonzero cells.
        self._stamped: Dict[
            int, Tuple[tuple, RegionBuffer | _SparseUnit]] = {}
        self._version = 0

    @property
    def n(self) -> int:
        """Number of events currently contributing."""
        return self.window.n

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
        """Currently-live ``(unit id, coords)`` pairs, in tracking order,
        each unit's rows in index key order.  Re-fed one ``add`` per pair
        to a cold estimator (slabbing disabled), they rebuild the same
        units: the warm-vs-cold contract of :meth:`volume`."""
        return self.window.batches()

    @property
    def min_t(self) -> float:
        """Earliest live event time (``inf`` for an empty window)."""
        return self.window.min_t

    @property
    def units_live(self) -> int:
        """Number of live units."""
        return len(self.window.units)

    @property
    def units_stamped(self) -> int:
        """Number of live units holding a buffer — the ones some
        :meth:`volume` has read since their membership last changed."""
        return len(self._stamped)

    @property
    def cached_buffer_cells(self) -> int:
        """Values the live units hold: the cells of their dense buffers
        plus the entries of the sparse ones (memory gauge; 0 until the
        first read).  ``counter.shard_bbox_cells`` counts the
        bounding-box cells stamped."""
        return sum(buf.cells for _, buf in self._stamped.values())

    # ------------------------------------------------------------------
    def _stamp(self, uid: int) -> None:
        """Stamp a unit's rows into a fresh buffer over their bounding
        box, keep it (or, if mostly zero, its nonzero cells), and key it
        for :meth:`volume` by bbox, row count and a digest of the rows as
        the index holds them (key order), so a cold replay of
        :attr:`live_batches` computes the same keys."""
        rows = self.index.rows(uid)
        # Never None: off-domain points clamp to a boundary voxel, so
        # every row has a stamp window on the grid.
        bbox = batch_bbox(self.grid, rows)
        buf = RegionBuffer(bbox)
        self.counter.init_writes += buf.cells
        self.counter.shard_bbox_cells += buf.cells
        buf.stamp(self.grid, self.kernel, rows, 1.0, self.counter)
        # Through a mask: count_nonzero and flatnonzero read float64
        # cells several times slower than bools, and every unit pays this.
        nonzero = flat_view(buf.data) != 0.0
        held = buf
        if np.count_nonzero(nonzero) <= _SPARSE_SHARE * buf.cells:
            held = _SparseUnit(self.grid, buf, nonzero)
        digest = hashlib.blake2b(rows.tobytes(), digest_size=16).digest()
        self._stamped[uid] = ((astuple(bbox), len(rows), digest), held)

    def _settle(self) -> None:
        """End a mutation: the index's merge policy and repack rule, the
        retired units' buffers freed, then a new version."""
        self.index.maintain(self.counter)
        live = {u.id for u in self.window.units}
        self._stamped = {k: v for k, v in self._stamped.items() if k in live}
        self._version += 1

    def add(self, points: PointSet | np.ndarray) -> None:
        """Insert events: plan them into units, O(batch) bookkeeping.

        No cylinder is stamped here; the next :meth:`volume` pays
        O(batch * stamp) for the units it finds without a buffer.
        Weighted :class:`PointSet` s and malformed arrays raise
        ``ValueError`` (:func:`~repro.core.window.coerce_unweighted`).
        """
        if self.window.add(points):
            self._settle()

    def remove(self, points: PointSet | np.ndarray) -> None:
        """Retire live events; each unit that loses rows is re-planned.

        Every row must match a live event bit for bit, with multiplicity
        (one live occurrence per removed row).  Rows that are not live —
        never added, already retired, or removed more often than they
        were added — raise ``ValueError`` before anything changes.  A
        touched unit's survivors are re-planned as new units (new ids, no
        buffer), exactly as if they had just been added.
        """
        if self.window.remove(points):
            self._settle()

    def slide_window(self, new_points: PointSet | np.ndarray, t_horizon: float) -> int:
        """Add ``new_points`` and retire all tracked events with
        ``t < t_horizon``.  Returns the number of retired events.

        Fully-expired units are dropped, buffer (if any) and all; only
        the unit the horizon cuts *through* is re-planned from its
        survivors, and only its rows are read.  The kernel work the slide
        leaves for the next :meth:`volume` is the arriving batch plus one
        straddle slab, not every survivor of a partially-expired batch.
        """
        before, n = self.window.units, self.window.n
        retired = self.window.slide(new_points, t_horizon)
        cut = [u for u in before if u.t_lo < float(t_horizon)]
        self.counter.slab_buffers_retired += len(cut)
        self.counter.slab_restamp_points += sum(u.n for u in cut) - retired
        # A quiet tick (nothing retired, nothing added) changes nothing
        # and must not force version-keyed caches to rebuild.
        if retired or self.window.n != n:
            self._settle()
        return retired

    def volume(self) -> Volume:
        """The current normalised density volume (copy; O(volume)).

        Stamps every live unit that has no buffer yet (the units minted
        since the last read; none on a repeated read), then adds every
        live unit's buffer — or a sparse unit's nonzero cells — into
        fresh zeros and scales by
        ``1/(n hs^2 ht)`` only the t-planes some buffer wrote; the rest
        are exact zeros either way and stay unfaulted zero pages.  The
        units are summed in a *content-derived* order — bbox window, then
        row count, then a digest of the rows — so nothing of tracking
        order (which depends on the mutation history) leaks into the sum.
        A cold estimator re-fed :attr:`live_batches` (one ``add`` per
        unit, slabbing disabled so each re-stamps whole) therefore
        composes the identical buffers in the identical order: the
        bit-exact warm-vs-cold contract.
        """
        # Pending stamps first, so their scratch is gone before the
        # output is allocated.
        for u in self.window.units:
            if u.id not in self._stamped:
                self._stamp(u.id)
        # Lazily zeroed pages: the buffers' adds are their first touch.
        data = zeros_volume(self.grid.shape)
        wrote = np.zeros(self.grid.shape[2], dtype=bool)
        for _, held in sorted(
            (self._stamped[u.id] for u in self.window.units),
            key=lambda s: s[0],
        ):
            held.add_into(data)
            wrote[held.window.t0 : held.window.t1] = True
        # Scale each run of written t-planes once.
        edges = np.flatnonzero(np.diff(wrote, prepend=False, append=False))
        if len(edges):
            norm = self.grid.normalization(self.n)
            for t0, t1 in edges.reshape(-1, 2):
                data[:, :, t0:t1] *= norm
        return Volume(data, self.grid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalSTKDE(n={self.n}, grid={self.grid.shape})"
