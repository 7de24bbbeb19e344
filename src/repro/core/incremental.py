"""Incremental STKDE: add and retire events without recomputation.

The paper's motivation is *interactive* exploration — surveillance feeds
update daily, dashboards slide their time window.  The PB-SYM estimator is
a normalised **sum of per-point stamps**, so it supports exact incremental
maintenance: adding an event stamps its cylinder, retiring one stamps the
negative.  Only the ``1/n`` normalisation couples events; this class keeps
the volume *unnormalised* internally and applies ``1/(n hs^2 ht)`` on
read, making add/remove O(stamp) instead of O(volume).

Example::

    inc = IncrementalSTKDE(grid)
    inc.add(monday_events)
    density = inc.volume()            # estimate over everything so far
    inc.remove(monday_events)         # slide the window
    inc.add(tuesday_events)

``slide_window(new, horizon)`` combines both steps for the common
time-window case.  Equivalence with batch recomputation is exact (tested
to fp tolerance), which is the property that makes this safe to deploy.

Region-engine rebuild
---------------------
All stamping goes through the batched region engine
(:func:`repro.core.stamping.stamp_batch`), one engine batch per add /
remove.  On top of that, each tracked batch whose stamps fit affordably
in bounding boxes caches its materialised contribution in
:class:`~repro.core.regions.RegionBuffer` s: the summed cohort tables the
engine produced at ``add`` time.  Retiring a batch later reuses those
caches instead of re-tabulating kernels.

t-slabbed retirement caches
---------------------------
A batch is partitioned along t into **retirement slabs**
(:func:`~repro.core.regions.plan_time_slabs`: stamp-origin ordered,
balanced on stamped cell count, about two stamp extents thick by
default), each tracked independently with its own cached buffer.  A
sliding window's horizon then expires whole leading slabs and cuts
through at most one *straddle* slab, so a ``slide_window`` costs:

* **full slab retirement** — subtract the cached box (O(bbox), zero
  kernel evaluations), one per expired slab;
* **straddle restamp** — subtract the straddle slab's box and restamp
  only *its* survivors into a fresh cache — one thin engine batch,
  instead of re-tabulating kernels for every survivor of the batch.

This makes steady-state slides O(expired delta): the pre-slab behaviour
(restamp all survivors of a partially-expired batch) is recovered with
``t_slab_voxels=None``, and the two are equivalent to ``rtol=1e-12``.
Batches too spread out to cache affordably (slab boxes larger than
``cache_fraction`` of the grid in aggregate) fall back to plain engine
stamping with negative-norm removal, so memory stays bounded for global
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .grid import GridSpec, PointSet, Volume
from .instrument import WorkCounter
from .kernels import KernelPair, get_kernel
from .regions import RegionBuffer, auto_slab_voxels, batch_bbox, plan_time_slabs
from .stamping import stamp_batch

__all__ = ["IncrementalSTKDE"]


def _row_keys(coords: np.ndarray) -> np.ndarray:
    """``(n,)`` opaque byte keys for exact (bitwise) row matching."""
    a = np.ascontiguousarray(coords, dtype=np.float64)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).reshape(-1)


@dataclass
class _TrackedBatch:
    """A live tracking unit — one retirement slab — and its cached stamp.

    An added batch is tracked as one or more of these (one per t-slab
    when slabbing applies).  ``batch_id`` is unique for the life of the
    estimator and changes whenever the unit's *membership* changes
    (partial retirement, untracking): downstream consumers keyed on it —
    the serving layer's per-batch index segments — treat an id as an
    immutable event set, so survivors of a split are a brand-new batch.
    """

    batch_id: int
    coords: np.ndarray
    buffer: Optional[RegionBuffer]


class IncrementalSTKDE:
    """Exactly-maintained STKDE under event insertion and retirement.

    ``cache_fraction`` bounds the per-batch region cache: a batch is
    cached only when its stamps' bounding box covers at most that fraction
    of the grid (sliding-window time slabs are thin along t and qualify;
    a domain-wide backfill batch does not, and is simply engine-stamped).
    ``cache_fraction=0.0`` disables caching entirely.

    ``memory_budget_bytes`` additionally caps the *aggregate* footprint
    (accumulator + all cached buffers), like every other replicating path:
    a batch whose cache would push past the budget is stamped uncached —
    correctness is unaffected, only its later retirement falls back to
    negative restamping.  ``None`` leaves the aggregate unbounded.

    ``t_slab_voxels`` sets the retirement-slab thickness along t:
    ``"auto"`` (default) chooses per batch through the cost model
    (:meth:`repro.analysis.model.CostModel.choose_slab_voxels` prices the
    expired-buffer-overlap vs straddle-restamp trade from the batch's
    measured extent — the ``BENCH_regions.json`` thickness sweep spans
    2.5x to 6.3x over fixed choices), ``"geometric"`` pins the
    bandwidth-derived :func:`~repro.core.regions.auto_slab_voxels`
    heuristic, an ``int`` pins the thickness (benchmark sweeps), and
    ``None`` disables slabbing — one monolithic cache per batch, the
    pre-slab behaviour whose partial retirement restamps every survivor.
    ``max_slabs`` caps the tracked units a single ``add`` can mint.
    ``machine`` supplies calibrated unit costs for the adaptive choice
    (defaults to the uncalibrated :class:`MachineModel` constants, which
    keeps the choice deterministic and probe-free).
    """

    def __init__(
        self,
        grid: GridSpec,
        *,
        kernel: str | KernelPair = "epanechnikov",
        counter: Optional[WorkCounter] = None,
        cache_fraction: float = 0.5,
        memory_budget_bytes: Optional[int] = None,
        t_slab_voxels: int | str | None = "auto",
        max_slabs: int = 16,
        machine=None,
        compute: Optional[str] = None,
    ) -> None:
        if cache_fraction < 0.0:
            raise ValueError("cache_fraction must be >= 0")
        if t_slab_voxels == "geometric":
            t_slab_voxels = auto_slab_voxels(grid)
        if isinstance(t_slab_voxels, str):
            if t_slab_voxels != "auto":
                raise ValueError(
                    "t_slab_voxels must be >= 1, 'auto', 'geometric', or None"
                )
        elif t_slab_voxels is not None and t_slab_voxels < 1:
            raise ValueError(
                "t_slab_voxels must be >= 1, 'auto', 'geometric', or None"
            )
        if max_slabs < 1:
            raise ValueError("max_slabs must be >= 1")
        self.t_slab_voxels = t_slab_voxels
        self._machine = machine
        #: Compute backend for every stamp this estimator issues
        #: (:mod:`repro.core.backends`); ``None`` keeps the reference
        #: backend, so defaults stay bit-identical.
        self.compute = compute
        self._slab_model = None  # lazily-built CostModel for 'auto'
        self.max_slabs = int(max_slabs)
        self.grid = grid
        self.kernel = get_kernel(kernel)
        self.counter = counter if counter is not None else WorkCounter()
        self.cache_fraction = float(cache_fraction)
        self.memory_budget_bytes = memory_budget_bytes
        # Unnormalised accumulator: sum of k_s * k_t stamps.
        self._acc = grid.allocate()
        self.counter.init_writes += self._acc.size
        self._n = 0
        self._live: List[_TrackedBatch] = []  # event batches currently included
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
        derived artifact (query caches, serving indexes) keyed on the
        version is invalidated the moment the live window changes — this is
        the invalidation contract :mod:`repro.serve` relies on.
        """
        return self._version

    @property
    def live_coords(self) -> np.ndarray:
        """``(n, 3)`` coordinates of all currently-live events (copy).

        The concatenation of the tracked batches; what a serving layer
        indexes to answer direct kernel-sum queries against the current
        window without materialising a volume.
        """
        if not self._live:
            return np.empty((0, 3), dtype=np.float64)
        return np.vstack([tb.coords for tb in self._live])

    @property
    def live_batches(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """Currently-live ``(batch_id, coords)`` pairs, in tracking order.

        The incremental-index hook: each pair is an immutable event set
        (ids change when membership does), so a consumer holding per-batch
        derived state — :meth:`repro.serve.index.BucketIndex.sync` — can
        reconcile by id and touch only the batches that actually changed.
        """
        return tuple((tb.batch_id, tb.coords) for tb in self._live)

    @property
    def cached_buffer_cells(self) -> int:
        """Cells currently held in per-batch region caches (memory gauge)."""
        return sum(b.buffer.cells for b in self._live if b.buffer is not None)

    # ------------------------------------------------------------------
    def _cache_affordable(self, bbox_cells: int) -> bool:
        if bbox_cells > self.cache_fraction * self.grid.n_voxels:
            return False
        if self.memory_budget_bytes is None:
            return True
        footprint = (
            self._acc.nbytes + (self.cached_buffer_cells + bbox_cells) * 8
        )
        return footprint <= self.memory_budget_bytes

    def _new_batch_id(self) -> int:
        self._next_batch_id += 1
        return self._next_batch_id

    def _stamp_cached(self, coords: np.ndarray, bbox) -> _TrackedBatch:
        """Stamp one tracking unit into a fresh cached region buffer."""
        buf = RegionBuffer(bbox)
        self.counter.init_writes += buf.cells
        self.counter.shard_bbox_cells += buf.cells
        buf.stamp(
            self.grid, self.kernel, coords, 1.0, self.counter,
            compute=self.compute,
        )
        self.counter.reduce_adds += buf.add_into(self._acc)
        return _TrackedBatch(self._new_batch_id(), coords, buf)

    def _stamp_uncached(self, coords: np.ndarray) -> _TrackedBatch:
        stamp_batch(
            self._acc, self.grid, self.kernel, coords, 1.0, self.counter,
            compute=self.compute,
        )
        return _TrackedBatch(self._new_batch_id(), coords, None)

    def _stamp_tracked(self, coords: np.ndarray) -> List[_TrackedBatch]:
        """Stamp a batch through the region engine, caching when affordable.

        Partitions the batch into t-slabs and caches one
        :class:`RegionBuffer` per slab when the batch's *aggregate* slab
        footprint is affordable (``cache_fraction`` bounds the whole
        batch, exactly as it bounded the monolithic box — slab xy-boxes
        are tighter, so the aggregate is often smaller than the joint
        bbox); falls back to one monolithic cache when only the single
        bounding box fits, and to plain (uncached) engine stamping
        otherwise.
        """
        bbox = batch_bbox(self.grid, coords)
        if bbox is None:
            return [self._stamp_uncached(coords)]
        if self.t_slab_voxels is not None:
            slabs = plan_time_slabs(
                self.grid, coords,
                self._resolve_slab_voxels(coords, bbox), self.max_slabs
            )
            if len(slabs) > 1:
                parts = [coords[idx] for idx in slabs]
                boxes = [batch_bbox(self.grid, p) for p in parts]
                total = sum(b.volume for b in boxes if b is not None)
                if self._cache_affordable(total):
                    return [
                        self._stamp_cached(p, b) if b is not None
                        else self._stamp_uncached(p)
                        for p, b in zip(parts, boxes)
                    ]
        if self._cache_affordable(bbox.volume):
            return [self._stamp_cached(coords, bbox)]
        return [self._stamp_uncached(coords)]

    def _resolve_slab_voxels(self, coords: np.ndarray, bbox) -> int:
        """Per-batch retirement-slab thickness for the ``"auto"`` mode.

        Prices the thickness ladder through
        :meth:`~repro.analysis.model.CostModel.choose_slab_voxels` on the
        batch's measured bbox and t-extent instead of taking the
        geometric :func:`auto_slab_voxels` — the thickness sweep in
        ``BENCH_regions.json`` shows the fixed heuristic leaving most of
        the slab win on the table.  Pinned ints pass through untouched.
        The model import is local and lazy: only this opt-in planning
        path reaches from core up into analysis, and only with
        deterministic (nominal or caller-supplied) machine constants —
        no calibration probe ever runs inside ``add``.
        """
        if self.t_slab_voxels != "auto":
            return self.t_slab_voxels
        d = self.grid.domain
        span = int((coords[:, 2].max() - coords[:, 2].min()) / d.tres) + 1
        geo = auto_slab_voxels(self.grid)
        if span <= geo:
            # The whole batch fits in one geometric slab: slabbing thinner
            # cannot beat retiring the batch's own cache wholesale, and the
            # single-slab path preserves insertion order in live_coords.
            return geo
        if self._slab_model is None:
            from ..analysis.model import CostModel, MachineModel

            machine = (
                self._machine if self._machine is not None
                else MachineModel.nominal()
            )
            self._slab_model = CostModel(
                self.grid, PointSet(np.empty((0, 3))), machine
            )
        return self._slab_model.choose_slab_voxels(
            coords.shape[0], bbox.volume, span, max_slabs=self.max_slabs
        )

    @staticmethod
    def _coerce_unweighted(points: PointSet | np.ndarray) -> np.ndarray:
        """Event coordinates of an *unweighted* input.

        Weighted :class:`PointSet` s are rejected: the unnormalised
        accumulator sums unit stamps, so silently dropping weights would
        serve a different estimator than the caller built.  Raw arrays get
        the finiteness check :class:`PointSet` applies to its own: a NaN
        or infinite coordinate would be counted as an event and cast to
        an arbitrary voxel.
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
        if not np.all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        return coords

    def add(self, points: PointSet | np.ndarray) -> None:
        """Insert events (stamps their cylinders; O(batch * stamp)).

        Weighted :class:`PointSet` s are rejected — see
        :meth:`_coerce_unweighted`.
        """
        coords = self._coerce_unweighted(points)
        if coords.size == 0:
            return
        batch = np.array(coords, dtype=np.float64)
        self._live.extend(self._stamp_tracked(batch))
        self.counter.points_processed += len(batch)
        self._n += len(batch)
        self._version += 1

    def remove(self, points: PointSet | np.ndarray) -> None:
        """Retire events by stamping their negative contribution.

        Removed rows that match tracked events (bit-identical
        coordinates) are also dropped from the live tracking, so
        :attr:`live_coords` stays consistent and a later
        :meth:`slide_window` cannot double-retire them; a batch that
        loses members forfeits its cached region stamp (the cache would
        no longer match the survivors).  The caller remains responsible
        for removing only events previously added: unknown rows are
        stamped negative as requested, which yields a density no event
        set generates (it may go negative, which :meth:`volume` clamps
        is *not* — validation stays honest).
        """
        coords = self._coerce_unweighted(points)
        if coords.size == 0:
            return
        if len(coords) > self._n:
            raise ValueError(
                f"cannot remove {len(coords)} events; only {self._n} present"
            )
        stamp_batch(
            self._acc, self.grid, self.kernel, coords, -1.0, self.counter,
            compute=self.compute,
        )
        self._n -= len(coords)
        self._untrack(np.ascontiguousarray(coords, dtype=np.float64))
        self._version += 1

    def _untrack(self, coords: np.ndarray) -> None:
        """Drop removed rows from the tracked batches (vectorised multiset).

        Rows are matched bit-exactly (byte view of the float triples); at
        most one tracked occurrence is dropped per removed row, first
        batches first.  Which instance of duplicated identical rows is
        dropped is immaterial — they are indistinguishable.
        """
        uniq, counts = np.unique(_row_keys(coords), return_counts=True)
        remaining = int(counts.sum())
        kept: List[_TrackedBatch] = []
        for tb in self._live:
            if remaining == 0:
                kept.append(tb)
                continue
            bk = _row_keys(tb.coords)
            pos = np.minimum(np.searchsorted(uniq, bk), uniq.size - 1)
            matches = uniq[pos] == bk
            if not matches.any():
                kept.append(tb)
                continue
            # Rank only the matching rows (usually a handful) within each
            # run of equal keys and drop the first `counts[key]` of each
            # run; decrement the budget for later batches.
            midx = np.flatnonzero(matches)
            order = midx[np.argsort(bk[midx], kind="stable")]
            sbk = bk[order]
            new_run = np.concatenate(([True], sbk[1:] != sbk[:-1]))
            run_starts = np.flatnonzero(new_run)
            occ = np.arange(sbk.size) - run_starts[np.cumsum(new_run) - 1]
            drop_sorted = occ < counts[pos[order]]
            if not drop_sorted.any():
                kept.append(tb)
                continue
            dec = np.bincount(pos[order][drop_sorted], minlength=uniq.size)
            counts = counts - dec
            remaining -= int(dec.sum())
            drop = np.zeros(bk.size, dtype=bool)
            drop[order] = drop_sorted
            survivors = tb.coords[~drop]
            if len(survivors):
                # The cached buffer still holds the departed stamps; the
                # accumulator is already correct (negative stamp above),
                # only the cache is stale — retire it.  Membership changed,
                # so the survivors are a new batch id.
                kept.append(_TrackedBatch(self._new_batch_id(), survivors, None))
        self._live = kept

    def slide_window(self, new_points: PointSet | np.ndarray, t_horizon: float) -> int:
        """Add ``new_points`` and retire all tracked events with
        ``t < t_horizon``.  Returns the number of retired events.

        Retirement reuses each tracked slab's cached region stamp where
        present: fully-expired slabs are subtracted in one box operation
        each (zero kernel evaluations), and only the slab the horizon
        cuts *through* restamps its survivors into a fresh cache — so a
        slide's kernel work is proportional to one straddle slab, not to
        every survivor of a partially-expired batch.
        """
        # Reject a malformed feed before anything is retired.
        new_points = self._coerce_unweighted(new_points)
        retired = 0
        kept_batches: List[_TrackedBatch] = []
        for tb in self._live:
            old_mask = tb.coords[:, 2] < t_horizon
            n_old = int(old_mask.sum())
            if n_old == 0:
                kept_batches.append(tb)
                continue
            retired += n_old
            kept = tb.coords[~old_mask]
            if tb.buffer is not None:
                # Same consistency guard remove() applies on the uncached
                # path: retiring more events than are present means the
                # caller already removed some out-of-band — fail loudly
                # rather than drive _n negative and double-subtract.
                if n_old > self._n:
                    raise ValueError(
                        f"cannot remove {n_old} events; only {self._n} present"
                    )
                # Cache reuse: drop the slab's whole materialised stamp,
                # then restamp only the survivors (none, on full expiry).
                self.counter.reduce_adds += tb.buffer.add_into(
                    self._acc, sign=-1.0
                )
                self.counter.slab_buffers_retired += 1
                self._n -= n_old
                if len(kept):
                    self.counter.slab_restamp_points += len(kept)
                    kept_batches.extend(self._stamp_tracked(kept))
            else:
                # Inline negative stamp (not remove(): this loop manages
                # the tracking itself, so the multiset untrack would be a
                # redundant O(live) scan per batch).
                old = tb.coords[old_mask]
                if len(old) > self._n:
                    raise ValueError(
                        f"cannot remove {len(old)} events; only {self._n} present"
                    )
                stamp_batch(
                    self._acc, self.grid, self.kernel, old, -1.0,
                    self.counter, compute=self.compute,
                )
                self._n -= len(old)
                if len(kept):
                    kept_batches.append(
                        _TrackedBatch(self._new_batch_id(), kept, None)
                    )
        self._live = kept_batches
        self.add(new_points)
        # add() bumped the version for non-empty feeds; a pure-retirement
        # slide must still invalidate version-keyed consumers — but a
        # quiet tick (nothing retired, nothing added) changes nothing and
        # must not force caches and serving indexes to rebuild.
        if retired:
            self._version += 1
        return retired

    def _canonical_composition(self) -> Optional[np.ndarray]:
        """The live caches summed in canonical order, or ``None``.

        Each cached :class:`RegionBuffer` is a pure function of its
        unit's coordinates — it was stamped into a fresh zeroed buffer at
        add time and never mutated afterwards — so summing the caches
        into a fresh zero volume in a *content-derived* order makes the
        result a pure function of the live membership, independent of
        the mutation history that produced it.  That is the bit-exact
        warm-vs-cold contract: a long-slid window and a cold estimator
        re-fed the same :attr:`live_batches` (one ``add`` per unit,
        slabbing disabled so each unit re-stamps whole) compose the
        identical buffer multiset in the identical order and produce
        bit-equal volumes.  The order sorts by bbox window then a digest
        of the unit's rows, so no accidental property of tracking order
        (which *does* depend on history) leaks into the sum.

        Only available when every live unit carries a cache and the
        tracked rows account for every contributing event (out-of-band
        ``remove`` of unknown rows leaves negative stamps only the
        accumulator knows about); callers fall back to ``_acc``.
        """
        if not self._live:
            return None
        tracked = 0
        for tb in self._live:
            if tb.buffer is None:
                return None
            tracked += len(tb.coords)
        if tracked != self._n:
            return None

        def key(tb: _TrackedBatch):
            b = tb.buffer.window
            return (b.x0, b.x1, b.y0, b.y1, b.t0, b.t1,
                    len(tb.coords), tb.coords.tobytes())

        data = np.zeros(self.grid.shape)
        for tb in sorted(self._live, key=key):
            tb.buffer.add_into(data)
        return data

    def volume(self) -> Volume:
        """The current normalised density volume (copy; O(volume)).

        When every live unit carries a region cache the volume is
        composed from the caches in canonical order
        (:meth:`_canonical_composition`) — bit-exactly reproducible from
        the live membership alone, no matter how many slides produced
        it.  Otherwise it reads the running accumulator (fp-equivalent,
        not bit-canonical: subtraction order follows history).

        Only the accumulator is clamped at zero: the clamp removes the
        cancellation noise subtraction leaves, and the composition adds
        ``+1``-normed stamps into zeros and never subtracts — exactly what
        a cold batch estimate does, unclamped.  Skipping the full-volume
        pass there leaves the output bit-equal for every registered kernel.
        """
        if self._n == 0:
            return Volume(np.zeros(self.grid.shape), self.grid)
        norm = self.grid.normalization(self._n)
        data = self._canonical_composition()
        if data is None:
            data = self._acc * norm
            # Float cancellation from removals can leave tiny negatives
            # (~1e-17); clamp exact-zero level noise only.
            np.maximum(data, 0.0, out=data)
        else:
            data *= norm
        return Volume(data, self.grid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalSTKDE(n={self._n}, grid={self.grid.shape})"
