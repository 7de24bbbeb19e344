"""Shared test-data builders, importable from every test package.

These used to live in ``tests/conftest.py`` and were pulled in with
relative imports (``from ..conftest import make_points``), which only
works when the test modules are imported as a package — under the plain
rootdir invocation (``python -m pytest``) collection died with
``ImportError: attempted relative import with no known parent package``.
Keeping the builders in a regular module (with ``__init__.py`` files
making ``tests`` a real package) lets every test import them absolutely::

    from tests.helpers import make_clustered_points, make_points

``conftest.py`` re-exports both names for backwards compatibility.
"""

from __future__ import annotations

import numpy as np

from repro.core import GridSpec, PointSet
from repro.core.kernels import KernelPair

__all__ = [
    "BOX_KERNEL",
    "CUSTOM_KERNEL",
    "broadcast_d2",
    "brute_force_sum",
    "cell_candidates",
    "make_clustered_points",
    "make_points",
    "reference_candidates",
    "reference_plan",
    "sharded_state",
    "window_candidates",
]

#: A non-radial, asymmetric kernel pair that is NOT in any registry —
#: exercises the ``spatial_radial is None`` fallbacks.
CUSTOM_KERNEL = KernelPair(
    name="custom-nonradial",
    spatial=lambda u, v: (1.0 - 0.5 * u) * (1.0 - 0.25 * v),
    temporal=lambda w: 1.0 - 0.4 * w,
    spatial_radial=None,
)

#: ``k_s`` and ``k_t`` identically 1: a direct sum under it is the
#: (weighted) *count* of events the cylinder mask passes, so one event
#: wrongly cut from a run, or let through the mask, changes the answer by
#: a whole unit.  Epanechnikov is 0 at ``|dt| = ht`` and at ``r = hs`` and
#: cannot see either edge.
BOX_KERNEL = KernelPair(
    name="box",
    spatial=lambda u, v: np.ones(np.broadcast(u, v).shape),
    temporal=lambda w: np.ones(np.shape(w)),
    spatial_radial=lambda r2: np.ones(np.shape(r2)),
)


def broadcast_d2(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The disk tables' squared distances as the broadcast sum
    ``dx**2 + dy**2`` over ``(m, wx)`` and ``(m, wy)`` offsets: the form
    :func:`repro.core.backends.base.disk_d2` computes as a matrix product,
    and its bit oracle."""
    return (dx * dx)[:, :, None] + (dy * dy)[:, None, :]


def make_points(grid: GridSpec, n: int, seed: int = 0) -> PointSet:
    """Uniform random points spanning the whole domain box."""
    rng = np.random.default_rng(seed)
    d = grid.domain
    lo = [d.x0, d.y0, d.t0]
    hi = [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt]
    return PointSet(rng.uniform(lo, hi, size=(n, 3)))


def make_clustered_points(grid: GridSpec, n: int, k: int = 3, seed: int = 0) -> PointSet:
    """Clustered points (mixture of Gaussians), mimicking real datasets."""
    rng = np.random.default_rng(seed)
    d = grid.domain
    lo = np.array([d.x0, d.y0, d.t0])
    span = np.array([d.gx, d.gy, d.gt])
    centers = rng.uniform(lo + 0.2 * span, lo + 0.8 * span, size=(k, 3))
    which = rng.integers(0, k, size=n)
    pts = centers[which] + rng.normal(0, 0.08, size=(n, 3)) * span
    pts = np.clip(pts, lo, lo + span * (1 - 1e-9))
    return PointSet(pts)


def brute_force_sum(grid, kernel, coords, queries, norm=1.0, weights=None):
    """The estimator's definition, O(n * m): every event against every query.

    The one oracle of the exact read paths: no index, no slabs, no
    backend seam — the cylinder mask and ``k_s * k_t`` written out, summed
    pairwise by ``ndarray.sum``.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(queries, dtype=np.float64)
    out = np.zeros(q.shape[0], dtype=np.float64)
    hs, ht = grid.hs, grid.ht
    for lo in range(0, q.shape[0], 128):  # bound the (m, n) temporaries
        qq = q[lo : lo + 128]
        dx = qq[:, None, 0] - coords[None, :, 0]
        dy = qq[:, None, 1] - coords[None, :, 1]
        dt = qq[:, None, 2] - coords[None, :, 2]
        inside = (dx * dx + dy * dy < hs * hs) & (np.abs(dt) <= ht)
        contrib = np.where(
            inside, kernel.spatial(dx / hs, dy / hs) * kernel.temporal(dt / ht),
            0.0,
        )
        if weights is not None:
            contrib = contrib * np.asarray(weights)[None, :]
        out[lo : lo + 128] = contrib.sum(axis=1)
    return norm * out


def multiset(rows):
    """``(n, k)`` rows in lexicographic order: compares two row sets as
    multisets, whatever order each was gathered in."""
    rows = np.asarray(rows)
    return rows[np.lexsort(rows.T[::-1])]


def _expand_runs(starts, lengths):
    """Storage rows of one row of a run table, runs read left to right."""
    chunks = [
        np.arange(s, s + l, dtype=np.int64)
        for s, l in zip(starts[0].tolist(), lengths[0].tolist())
    ]
    return np.concatenate(chunks + [np.empty(0, dtype=np.int64)])


def cell_candidates(index, cx, cy, ct):
    """Candidate storage rows of one home cell, through the production
    :meth:`BucketIndex.candidate_runs`."""
    return _expand_runs(*index.candidate_runs(np.array([[cx, cy, ct]])))


def window_candidates(index, query):
    """Candidate storage rows of one query location, through the
    production :meth:`BucketIndex.window_runs` — the rows
    :func:`repro.serve.engine.direct_sum` pairs it with."""
    return _expand_runs(
        *index.window_runs(np.asarray(query, dtype=np.float64)[None])
    )


def reference_candidates(index, cx, cy, ct):
    """Per-cell reference walk of the 27-neighbourhood (segment-major,
    then x, then y), independent of ``candidate_runs``' bound table and
    of the stored keys: the cells are recomputed from the stored
    coordinates, one scalar ``searchsorted`` pair per in-grid ``(ix, iy)``
    column."""
    t_lo = max(0, ct - 1)
    t_hi = min(index.nt, ct + 2)
    chunks = []
    for seg in index._segments.values():
        cells = index.cell_of(index.coords[seg.start : seg.start + seg.n])
        for ix in range(max(0, cx - 1), min(index.nx, cx + 2)):
            for iy in range(max(0, cy - 1), min(index.ny, cy + 2)):
                row = (ix * index.ny + iy) * index.nt
                lo = int(np.searchsorted(cells, row + t_lo))
                hi = int(np.searchsorted(cells, row + t_hi))
                chunks.append(
                    np.arange(seg.start + lo, seg.start + hi, dtype=np.int64)
                )
    return np.concatenate(chunks + [np.empty(0, dtype=np.int64)])


def reference_plan(grid, coords, *, mode="sym", clip=None, groups=None):
    """The fields of a :class:`~repro.core.stamping.StampPlan`, ordered by
    comparison sorts: the crowded rows by ``np.argsort(kind="stable")`` of
    their (group, bin) key, the cohort rows by ``np.lexsort`` of (group,
    clipped or full, window origin).  Per-axis 1-D columns, the voxels of
    :meth:`GridSpec.voxels_of`; the plan's rules (lattice, crowd, cohort
    shapes) restated from its documentation.  Returns a dict of the
    plan's field names."""
    from repro.core import stamping

    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    n = coords.shape[0]
    group = None if groups is None else np.asarray(groups).astype(np.int64)
    counts = np.array([n]) if group is None else np.bincount(
        group, minlength=1 if clip is None else len(clip))
    half = (grid.Hs, grid.Hs, grid.Ht)
    wins = [grid.full_window() if w is None else w
            for w in ([None] if clip is None else clip)]
    lo = np.maximum([(w.x0, w.y0, w.t0) for w in wins], 0).reshape(-1, 3)
    hi = np.minimum([(w.x1, w.y1, w.t1) for w in wins], grid.shape).reshape(-1, 3)
    box = np.add(stamping._bin_edges(grid), np.multiply(2, half))
    crowd = np.maximum(stamping._CROWD_COVER * np.minimum(box, hi - lo).prod(axis=1),
                       stamping._MIN_BIN_CELLS)
    if clip is not None and group is not None:
        lo, hi = lo[group], hi[group]
    vox = grid.voxels_of(coords)
    origins = tuple(vox[:, a] - half[a] for a in range(3))
    lows = tuple(np.maximum(origins[a], lo[..., a]) for a in range(3))
    highs = tuple(np.minimum(origins[a] + 2 * half[a] + 1, hi[..., a])
                  for a in range(3))
    shapes = tuple(h - l for l, h in zip(lows, highs))
    live = np.flatnonzero((shapes[0] > 0) & (shapes[1] > 0) & (shapes[2] > 0))

    rows = starts = np.zeros(0, dtype=np.int64)
    if mode == "sym" and live.size:
        # Bins from each group's lowest live voxel.
        owner = None if group is None else group[live]
        bins = []
        for a, edge in enumerate(stamping._bin_edges(grid)):
            col = vox[live, a]
            if owner is None:
                anchor = col.min()
            else:
                low = np.full(owner.max() + 1, col.max())
                np.minimum.at(low, owner, col)
                anchor = low[owner]
            bins.append((col - anchor) // edge)
        span = [int(b.max()) + 1 for b in bins]
        size = span[0] * span[1] * span[2]
        key = (bins[0] * span[1] + bins[1]) * span[2] + bins[2]
        if owner is not None:
            key += owner * size
        cells = shapes[0][live] * shapes[1][live] * shapes[2][live]
        weight = np.bincount(key, weights=cells)
        need = crowd[0] if crowd.size == 1 else crowd[np.arange(weight.size) // size]
        crowded = weight >= need
        at = np.flatnonzero(crowded[key])
        rank = np.argsort(key[at], kind="stable")
        rows, key = live[at[rank]], key[at[rank]]
        starts = np.flatnonzero(np.r_[rows.size > 0, key[1:] != key[:-1]])
    gemm = []
    if rows.size:
        bounds = (lows[0], highs[0], lows[1], highs[1], lows[2], highs[2])
        gemm = list(zip(
            starts.tolist(), np.r_[starts[1:], rows.size].tolist(),
            *(f.reduceat(w[rows], starts).tolist()
              for w, f in zip(bounds, (np.minimum, np.maximum) * 3)),
        ))
    left = np.ones(n, dtype=bool)
    left[rows] = False
    live = live[left[live]]

    full = np.ones(live.size, dtype=bool)
    for a in range(3):
        full &= shapes[a][live] == 2 * half[a] + 1
    key = full * grid.n_voxels + grid.flat_index(
        lows[0][live], lows[1][live], lows[2][live])
    rank = (np.argsort(key, kind="stable") if group is None
            else np.lexsort((key, group[live])))
    order = live[rank]
    full = full[rank]
    change = full[1:] != full[:-1]
    if group is not None:
        change |= group[order[1:]] != group[order[:-1]]
    cuts = np.flatnonzero(np.r_[order.size > 0, change])
    ends = np.r_[cuts[1:], order.size].astype(np.int64)
    shape = [np.full(cuts.size, 2 * h + 1) for h in half]
    for c, (a, b) in enumerate(zip(cuts.tolist(), ends.tolist())):
        if full[a]:
            continue
        cohort = order[a:b]
        for axis in range(3):
            shape[axis][c] = shapes[axis][cohort].max()
            origins[axis][cohort] = np.maximum(
                origins[axis][cohort], highs[axis][cohort] - shape[axis][c])
    cohorts = list(zip(cuts.tolist(), ends.tolist(), full[cuts].tolist(),
                       *(s.tolist() for s in shape)))
    first_gemm, first_cohort = rows[starts], order[cuts]
    at_of = (
        (lambda runs, first: [0, len(runs)]) if group is None
        else (lambda runs, first: np.searchsorted(
            group[first], np.arange(counts.size + 1)).tolist())
    )
    return {
        "counts": counts,
        "_gemm_rows": rows,
        "_gemm": gemm,
        "_gemm_at": at_of(gemm, first_gemm),
        "_cohort_rows": order,
        "_cohorts": cohorts,
        "_cohort_at": at_of(cohorts, first_cohort),
        "_origins": origins,
    }


def member_ids(seg):
    """The batch ids an index segment answers for."""
    return (seg.seg_id,) if seg.members is None else tuple(seg.members)


def sync(index, batches, counter=None):
    """Bring ``index`` to exactly ``batches`` (``[(batch_id, coords)]``)
    the way a live estimator's mutation does: retire every registered
    batch that is gone (a segment, or a member of a consolidated one),
    register every new one, then run the merge policy and repack rule.
    Returns ``(events_added, events_retired)``."""
    live = {bid for bid, _ in batches}
    registered = [
        mid for seg in list(index._segments.values())
        for mid in member_ids(seg)
    ]
    retired = index.events_retired
    for bid in registered:
        if bid not in live:
            index.remove_segment(bid, counter)
    added = 0
    for bid, coords in batches:
        if bid not in registered:
            index.add_segment(bid, coords, counter=counter)
            added += len(coords)
    index.maintain(counter)
    return added, index.events_retired - retired


def sharded_state(svc):
    """Everything a rejected mutation must leave alone on a live sharded
    service: the gauges and prefactor read off the replay logs, what each
    worker holds, and the rows in each log."""
    st = svc.stats()
    return (svc.events, svc.version, tuple(st["shard_events"]),
            svc._norm(svc._weight()),
            tuple(w["events"] for w in st["workers"]),
            tuple(st["recovery"]["log_rows"]))
