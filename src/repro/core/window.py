"""The live window: units of events over a row store, one retirement rule.

The estimator is a normalised sum of per-event stamps, and a sum over
disjoint event subsets can be taken subset by subset.  A live window is
therefore a list of **units** — disjoint event subsets, each known by its
id, row count and t-range — whose rows sit in a row store.  One
:class:`Window` class keeps that list for every holder of a live window:

* :class:`~repro.core.incremental.IncrementalSTKDE` over its
  :class:`~repro.core.index.BucketIndex`, in t-slab units
  (:func:`slab_split`);
* a shard worker's :class:`~repro.serve.shard.Shard` over its own index,
  in the same t-slab units, so its index holds its rows in the order the
  estimator's would and its point sums add in that order;
* the coordinator's replay log (:class:`~repro.serve.supervisor.ShardLog`)
  over a :class:`RowDict`, one unit per arrival batch.

The rule they share: ``add`` splits a batch into units; ``slide`` drops
every unit the horizon passed, re-adds the survivors of the one it cuts
through (only that unit's rows are read) and then adds the arrivals;
``remove`` claims rows as a multiset (:func:`match_live`) and re-adds each
touched unit's survivors.  A unit is an immutable event set, so survivors
always become new units with new ids.  Every method checks its input
before anything changes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .grid import GridSpec, PointSet
from .instrument import WorkCounter, null_counter
from .regions import batch_bbox, plan_time_slabs

__all__ = [
    "RowDict", "Unit", "Window", "coerce_horizon", "coerce_unweighted",
    "match_live", "slab_split",
]

#: A batch is split into t-slab units only while the slabs' boxes together
#: cover at most this share of the grid; past it the overlap between
#: adjacent slab boxes outweighs thin retirement and the batch stays whole.
_SLAB_GRID_SHARE = 0.5


def coerce_unweighted(points: PointSet | np.ndarray) -> np.ndarray:
    """Event coordinates of an *unweighted* input.

    Weighted :class:`PointSet` s are rejected: a live window sums
    unit-weight stamps, so silently dropping weights would serve a
    different estimator than the caller built.  Raw arrays get the checks
    :class:`PointSet` applies to its own: a 2-D ``(n, 3)`` shape (``n = 0``
    allowed) and finite values, since a NaN or infinite coordinate would
    be counted as an event and cast to an arbitrary voxel.
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


def coerce_horizon(t_horizon: float) -> float:
    """A slide's ``t_horizon`` as a float; NaN raises ``ValueError``
    (every ``t < nan`` is false: the slide would retire nothing and bump
    the version for it).  ``±inf`` are legal."""
    t_horizon = float(t_horizon)
    if t_horizon != t_horizon:
        raise ValueError("t_horizon must not be NaN")
    return t_horizon


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


def slab_split(
    grid: GridSpec, coords: np.ndarray, slab_voxels: Optional[int] = None
) -> List[np.ndarray]:
    """The t-slab split rule: a batch's retirement slabs
    (:func:`~repro.core.regions.plan_time_slabs`, ``slab_voxels`` thick,
    by default two stamp extents) while their boxes together stay within
    ``_SLAB_GRID_SHARE`` of the grid — slab xy-boxes are tighter than the
    joint bbox, so the aggregate is often smaller than it — otherwise the
    whole batch."""
    slabs = plan_time_slabs(grid, coords, slab_voxels)
    if len(slabs) > 1:
        parts = [coords[idx] for idx in slabs]
        total = sum(batch_bbox(grid, p).volume for p in parts)
        if total <= _SLAB_GRID_SHARE * grid.n_voxels:
            return parts
    return [coords]


class RowDict(dict):
    """The plain row store: unit id → the unit's rows, as given."""

    rows = dict.__getitem__

    def add_segment(self, uid: int, coords: np.ndarray, counter=None) -> None:
        self[uid] = coords

    def remove_segment(self, uid: int, counter=None) -> None:
        del self[uid]


class Unit(NamedTuple):
    """One live unit: its id in the row store, row count and t-range."""

    id: int
    n: int
    t_lo: float
    t_hi: float


class Window:
    """Live units over ``store`` (module docstring), with a running ``n``.

    ``store`` holds the rows (``add_segment`` / ``rows`` /
    ``remove_segment``, as :class:`~repro.core.index.BucketIndex` and
    :class:`RowDict` do); ``split`` cuts an arriving batch — or a unit's
    survivors — into the rows of its units (default: one unit);
    ``counter`` is charged the arrivals and handed to the store.
    """

    def __init__(self, store, split: Optional[Callable] = None,
                 counter: Optional[WorkCounter] = None) -> None:
        self.store = store
        self.split = split if split is not None else (lambda coords: [coords])
        self.counter = counter if counter is not None else null_counter()
        self.units: List[Unit] = []
        self.n = 0
        self._next_id = 0

    @property
    def min_t(self) -> float:
        """Earliest live event time (``inf`` for an empty window)."""
        return min((u.t_lo for u in self.units), default=np.inf)

    def batches(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """``(id, rows)`` of every live unit, in tracking order."""
        return tuple((u.id, self.store.rows(u.id)) for u in self.units)

    def _plan(self, coords: np.ndarray) -> List[Unit]:
        """Register a non-empty batch as new units."""
        units = []
        for part in self.split(coords):
            self._next_id += 1
            self.store.add_segment(self._next_id, part, counter=self.counter)
            t = part[:, 2]
            units.append(Unit(self._next_id, len(part), t.min(), t.max()))
        return units

    def add(self, points: PointSet | np.ndarray) -> int:
        """Insert events; the number inserted."""
        coords = coerce_unweighted(points)
        if len(coords):
            self.units.extend(self._plan(coords))
            self.n += len(coords)
            self.counter.points_processed += len(coords)
        return len(coords)

    def _retain(self, survivors_of) -> int:
        """Keep each unit ``survivors_of(i, unit)`` maps to ``None``;
        replace every other one by its survivors (none: ``()``); the
        number of rows dropped."""
        kept: List[Unit] = []
        dropped = 0
        for i, u in enumerate(self.units):
            survivors = survivors_of(i, u)
            if survivors is None:
                kept.append(u)
                continue
            self.store.remove_segment(u.id, counter=self.counter)
            dropped += u.n - len(survivors)
            if len(survivors):
                kept.extend(self._plan(survivors))
        self.units = kept
        self.n -= dropped
        return dropped

    def slide(self, points: PointSet | np.ndarray, t_horizon: float) -> int:
        """Retire every event with ``t < t_horizon``, then add ``points``;
        the number retired.  Only the rows of a unit the horizon cuts
        through are read."""
        coords = coerce_unweighted(points)
        t_horizon = coerce_horizon(t_horizon)

        def survivors(i: int, u: Unit):
            if u.t_lo >= t_horizon:
                return None
            if u.t_hi < t_horizon:
                return ()
            rows = self.store.rows(u.id)
            return rows[rows[:, 2] >= t_horizon]

        retired = self._retain(survivors)
        self.add(coords)
        return retired

    def claims(self, points: PointSet | np.ndarray) -> Dict[int, np.ndarray]:
        """Per unit index, the rows a ``remove`` of ``points`` would
        delete (pure; raises ``ValueError`` when a row is not live)."""
        return match_live(
            coerce_unweighted(points), [(u.t_lo, u.t_hi) for u in self.units],
            lambda i: self.store.rows(self.units[i].id), self.n,
        )

    def remove(self, points: PointSet | np.ndarray) -> int:
        """Delete events as a multiset — every row must match a live event
        bit for bit, one live occurrence per removed row, or
        ``ValueError`` raises with nothing changed; the number removed."""
        drops = self.claims(points)
        return self._retain(
            lambda i, u: None if i not in drops
            else self.store.rows(u.id)[~drops[i]]
        )
