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
