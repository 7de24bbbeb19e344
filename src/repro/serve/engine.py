"""Vectorised query execution: direct kernel sums and volume lookups.

Two ways to answer a density query, with opposite cost shapes:

``direct-sum``
    Walk the :class:`~repro.core.index.BucketIndex`, gather the 27-cell
    candidate set, and evaluate the estimator *definition* at the query
    location through the compute backend's masked kernel product
    (:mod:`repro.core.backends`) — the same masked ``k_s * k_t``
    tabulation every grid write path uses, so
    a direct sum at a voxel center reproduces the stamped volume's value
    to fp round-off.  O(neighbours) per query, zero grid memory, exact at
    arbitrary (off-grid) coordinates; per-event weights gather alongside
    the candidates.

``volume-lookup``
    Trilinearly sample a materialised volume at the query location.  O(1)
    per query after an O(n * stamp) build, which is what wins for large
    query batches — the planner prices the crossover.

A batch is evaluated as a **ragged gather** over per-query runs: the
index cuts each query's nine neighbour columns per segment to the query's
own time window (:meth:`BucketIndex.window_runs` — only events within
``ht`` of the query in t are ever paired with it), and the queries, sorted
by home cell, are cut into slabs of at most ``_QUERY_SLAB_PAIRS`` (query,
candidate) pairs; each slab is one flat 1-D pair list — three column
gathers, one elementwise masked kernel product, one segment sum.  The
Python-level cost of a batch follows the number of *pairs* (one dispatch
per slab), not the number of cells or of distinct candidate counts, so a
batch over clustered events (where almost every cell has its own count)
costs what a uniform one does.

Slice and region extraction reuse
:class:`~repro.core.regions.RegionBuffer` machinery on the direct path and
**views** (never copies) of the materialised volume on the lookup path.

A third backend trades accuracy for asymptotics: :func:`approx_sum` draws
candidate rows from the index's CSR run table proportionally to a cheap
per-run contribution bound and returns a Hansen–Hurwitz / Horvitz–Thompson
estimate whose sample size grows (variance-driven) until a per-request
relative error budget ``eps`` is met — sublinear in candidate count on
dense neighbourhoods, exact fallback (the same ragged gather) on sparse
ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.backends import ComputeBackend, get_backend
from ..core.grid import GridSpec, VoxelWindow
from ..core.index import BucketIndex
from ..core.instrument import WorkCounter, null_counter
from ..core.kernels import KernelPair
from ..core.regions import RegionBuffer

__all__ = [
    "approx_sum",
    "direct_sum",
    "sample_volume",
    "slab_dispatches",
    "uniform_candidates",
    "direct_region",
    "region_view",
    "slice_window",
    "validate_queries",
    "RegionResult",
]

#: Cap on (query, candidate) pairs evaluated per ragged slab.  A slab is
#: evaluated in its thread's :class:`_SlabScratch`: six rows of this
#: length (three offsets, the weights, the candidate rows and an iota),
#: 0.5 MB each and 3 MB per thread at 2**16, the weight row touched only
#: for weighted indexes.  A 3000-row batch takes 1.2x as long at 2**19
#: (the rows fall out of cache) and 1.4x at 2**12 (the per-slab dispatch
#: shows again).
_QUERY_SLAB_PAIRS = 1 << 16

#: First sampling round of the approximate backend: every query draws this
#: many candidate rows before the variance-driven stop rule is consulted.
#: Queries whose total candidate count is at most this go straight to the
#: exact per-query gather — sampling cannot beat simply reading them all.
_APPROX_MIN_SAMPLE = 64

#: Confidence multiplier of the stop rule: sampling halts once
#: ``z * stderr <= eps * max(estimate, floor)``.  z = 2 targets ~95% of
#: queries landing inside the requested relative budget.
_APPROX_Z = 2.0

#: Safety cap on doubling rounds.  Unreachable in practice: once a query's
#: cumulative sample count would reach its candidate count the exact
#: fallback fires instead, so the loop terminates long before this.
_APPROX_MAX_ROUNDS = 40


def validate_queries(queries: np.ndarray) -> np.ndarray:
    """``queries`` as a float64 ``(m, 3)`` array of finite coordinates.

    The one input check of every point-query entry (engine, services,
    front end): a non-finite coordinate has no home cell, so it is
    rejected here rather than cast to an arbitrary one.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"expected (m, 3) queries, got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("query coordinates must be finite (no NaN or inf)")
    return q


def slab_dispatches(pairs: int) -> int:
    """Ragged slab dispatches a direct sum over ``pairs`` pairs runs.

    The planner's estimate of ``WorkCounter.query_cohorts`` (what
    ``c_qcohort`` prices), from the 27-cell candidate total alone — an
    upper bound on the pairs the engine forms once each run is cut to its
    query's time window.  A query's segment is never split, so the
    engine's slabs run a little under the cap (at most twice this many
    dispatches) or, for a query larger than the cap, over it.
    """
    return max(1, -(-int(pairs) // _QUERY_SLAB_PAIRS))


def uniform_candidates(grid: GridSpec, n_events: int, n_queries: int) -> int:
    """Candidate pairs of ``n_queries`` rows if events were uniform: the
    27-cell (one-bandwidth) neighbourhood's share of the domain, times the
    events.  What a scatter plan or an admission price is made from where
    no index can be walked."""
    d = grid.domain
    vol = d.gx * d.gy * d.gt
    if vol <= 0.0 or n_events == 0:
        return 0
    frac = min(1.0, (27.0 * grid.hs * grid.hs * grid.ht) / vol)
    return int(n_queries * n_events * frac)


def _home_cell_runs(
    index: BucketIndex, q: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct home cells of a batch and their candidate runs (the
    approximate engine's sampling frame).

    Returns ``(ucells, inv, starts, lengths)``: the ``(U, 3)`` distinct
    cell coordinates in ascending flat-id order, each query's row into
    them, and :meth:`BucketIndex.candidate_runs` of those cells.
    """
    cid = index.flat_cells(index.cell_coords(q))
    ucid, inv = np.unique(cid, return_inverse=True)
    ux, rem = np.divmod(ucid, index.ny * index.nt)
    uy, ut = np.divmod(rem, index.nt)
    ucells = np.column_stack([ux, uy, ut])
    starts, lengths = index.candidate_runs(ucells)
    return ucells, inv, starts, lengths


class _SlabScratch(threading.local):
    """One thread's rows for evaluating ragged slabs, reused slab after
    slab and grown on demand (to a power of two) to the largest slab the
    thread has evaluated.

    ``off`` holds the three query-to-candidate offset rows (each gathers
    its coordinate column first), ``weight`` the gathered event weights,
    ``cand`` each pair's store row and ``iota`` ``0, 1, 2, ...``.  Fresh
    slab-sized temporaries, a dozen alive at once, would be mapped and
    faulted in anew on every slab by a process that has never freed a
    larger block (a shard worker); these rows are faulted in once per
    thread.  Per thread, because the front end's executor shares the
    process with its callers.
    """

    size = 0

    def rows(self, n: int) -> Tuple[np.ndarray, ...]:
        """``(dx, dy, dt, weight, cand, iota)``, ``n`` long each."""
        if n > self.size:
            self.size = 1 << (n - 1).bit_length()
            self.off = np.empty((3, self.size))
            self.weight = np.empty(self.size)
            self.cand = np.empty(self.size, dtype=np.int64)
            self.iota = np.arange(self.size, dtype=np.int64)
        off = self.off[:, :n]
        return (off[0], off[1], off[2], self.weight[:n], self.cand[:n],
                self.iota[:n])


_SCRATCH = _SlabScratch()


def _ragged_sums(
    index: BucketIndex,
    q: np.ndarray,
    rows: np.ndarray,
    kernel: KernelPair,
    backend: ComputeBackend,
    counter: WorkCounter,
    slab_pairs: int,
    out: np.ndarray,
) -> None:
    """Raw kernel sums of queries ``rows`` of ``q`` over their candidates,
    into ``out``.

    The queries are sorted by home cell (neighbours gather the same
    store rows) and each gets its own runs from
    :meth:`BucketIndex.window_runs`.  Those with any candidate are cut
    into slabs of at most ``slab_pairs`` pairs (a query's segment is
    never split, so a query with more candidates than that is its own
    slab), and each slab's runs are expanded to a flat pair list in the
    thread's :class:`_SlabScratch`, evaluated elementwise there and
    reduced by :meth:`ComputeBackend.query_segment_sums_in_place`.  A
    query's sum therefore depends only on its own candidates in run order
    — not on the rest of the batch, nor on ``slab_pairs``.  Queries with
    no candidate are left untouched in ``out``.
    """
    rows = rows[np.argsort(index.cell_of(q[rows]), kind="stable")]
    starts, lengths = index.window_runs(q[rows])
    K = lengths.sum(axis=1)
    # ``np.add.reduceat`` returns the element at the start index for an
    # empty segment, so queries without candidates must not reach a slab.
    live = K > 0
    if not live.all():
        rows, K = rows[live], K[live]
        starts, lengths = starts[live], lengths[live]
    if rows.size == 0:
        return
    # The non-empty runs, query after query, and where each query's end.
    held = lengths > 0
    starts, lengths = starts[held], lengths[held]
    run_end = np.cumsum(held.sum(axis=1))

    coords = index.coords
    cols = (coords[:, 0], coords[:, 1], coords[:, 2])
    weights = index.weights
    qcols = (q[rows, 0], q[rows, 1], q[rows, 2])
    cum = np.cumsum(K)
    grid = index.grid
    a = r = 0
    while a < rows.size:
        base = int(cum[a] - K[a])
        b = max(a + 1, int(np.searchsorted(cum, base + slab_pairs, "right")))
        k = K[a:b]
        seg = cum[a:b] - k - base
        r_end = int(run_end[b - 1])
        run_len = lengths[r:r_end]
        dx, dy, dt, weight, cand, iota = _SCRATCH.rows(
            int(cum[b - 1]) - base
        )
        # The runs flattened to store rows.  Each ``np.repeat`` below is
        # the only slab-sized temporary, freed before the next is made:
        # one block the allocator hands back, not a dozen it maps anew.
        # Every index is in range; ``mode="raise"`` would buffer ``out``
        # instead of writing the scratch.
        first = np.cumsum(run_len) - run_len
        np.add(np.repeat(starts[r:r_end] - first, run_len), iota, out=cand)
        for off, qc, col in zip((dx, dy, dt), qcols, cols):
            np.take(col, cand, out=off, mode="clip")
            np.subtract(np.repeat(qc[a:b], k), off, out=off)
        w = None
        if weights is not None:
            w = np.take(weights, cand, out=weight, mode="clip")
        out[rows[a:b]] = backend.query_segment_sums_in_place(
            grid, kernel, dx, dy, dt, w, seg, counter
        )
        counter.query_cohorts += 1
        a, r = b, r_end


def direct_sum(
    index: BucketIndex,
    queries: np.ndarray,
    kernel: KernelPair,
    norm: float,
    counter: Optional[WorkCounter] = None,
    *,
    slab_pairs: int = _QUERY_SLAB_PAIRS,
    compute: "ComputeBackend | str | None" = None,
) -> np.ndarray:
    """Exact STKDE at arbitrary query locations by direct kernel summation.

    ``queries`` is ``(m, 3)`` rows of finite ``(x, y, t)`` in domain
    space; the return is ``(m,)`` densities ``norm * sum_i w_i k_s k_t``
    over the index's events (unit ``w_i`` for unweighted indexes).
    Queries with no candidate cost O(1).

    One ragged gather (:func:`_ragged_sums`): per slab of at most
    ``slab_pairs`` (query, candidate) pairs, three coordinate-column
    gathers, one elementwise masked kernel product and one segment sum.
    A query's candidates are the events of the nine cell columns around
    it that lie in its time window (:meth:`BucketIndex.window_runs`),
    added in the index's run order — segment-major, then x, then y, then
    t (insertion order among rows the sort key ties) — by
    ``np.add.reduceat``; the result agrees with a brute-force sum over
    all events at ``rtol=1e-12`` and is identical for every
    ``slab_pairs``.

    ``compute`` names the pair-evaluation backend
    (:mod:`repro.core.backends`; ``None``: the default).
    """
    counter = counter if counter is not None else null_counter()
    backend = get_backend(compute)
    q = validate_queries(queries)
    m = q.shape[0]
    out = np.zeros(m, dtype=np.float64)
    if m == 0 or index.segment_count == 0:
        return out
    _ragged_sums(
        index, q, np.arange(m), kernel, backend, counter, slab_pairs, out
    )
    out *= norm
    return out


def _approx_run_bounds(
    index: BucketIndex,
    kernel: KernelPair,
    q: np.ndarray,
    ux: np.ndarray,
    uy: np.ndarray,
    ut: np.ndarray,
    inv: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Per-(query, run) importance weights for the bucket sampler.

    Each candidate run covers one ``(ix, iy)`` cell column over the home
    cell's three-deep t-range; its weight is ``run length x kernel upper
    bound at the run's minimum cell distance`` — the "bucket size x kernel
    bound" proxy of the HBE construction.  Boundary cells absorb clamped
    off-domain events (:meth:`BucketIndex.cell_coords` clips), so their box
    extends to infinity on the clipped side; that keeps every event of a
    run inside its box, which is what makes the weights *bounds* and —
    more importantly — strictly positive wherever a contribution can be
    nonzero (the unbiasedness requirement).

    Kernel pairs without a radially-decreasing spatial profile
    (``spatial_radial is None``, e.g. the as-printed transcription kernel
    whose temporal term is not symmetric either) fall back to uniform
    weights inside the geometric support — still unbiased, just with more
    variance; the support test itself is kernel-independent (the same
    ``r < hs``, ``|dt| <= ht`` cylinder every path masks on).
    """
    grid = index.grid
    d = grid.domain
    hs, ht = grid.hs, grid.ht
    R = lengths.shape[1]
    j = np.arange(R, dtype=np.int64) % 9
    dxo = j // 3 - 1
    dyo = j % 3 - 1

    # Run boxes per distinct home cell, (U, R) per axis.  Half-open cell
    # boxes; the sup of a closed interval is a valid bound.
    bx = ux[:, None] + dxo[None, :]
    by = uy[:, None] + dyo[None, :]
    lox = d.x0 + bx * hs
    hix = d.x0 + (bx + 1) * hs
    loy = d.y0 + by * hs
    hiy = d.y0 + (by + 1) * hs
    lox = np.where(bx <= 0, -np.inf, lox)
    hix = np.where(bx >= index.nx - 1, np.inf, hix)
    loy = np.where(by <= 0, -np.inf, loy)
    hiy = np.where(by >= index.ny - 1, np.inf, hiy)
    # The t-extent is shared by all nine runs of a cell (one searchsorted
    # window per (ix, iy) row covers cells [ct-1, ct+2)).
    t_lo = np.maximum(ut - 1, 0)
    t_hi = np.minimum(ut + 2, index.nt)
    lot = np.where(t_lo <= 0, -np.inf, d.t0 + t_lo * ht)[:, None]
    hit = np.where(t_hi >= index.nt, np.inf, d.t0 + t_hi * ht)[:, None]

    # Clamp-to-box distances per query (m, R); inf boxes never produce NaN
    # because lo and hi live in separate arrays.
    qb = inv
    zero = 0.0
    ddx = np.maximum(np.maximum(lox[qb] - q[:, 0][:, None],
                                q[:, 0][:, None] - hix[qb]), zero)
    ddy = np.maximum(np.maximum(loy[qb] - q[:, 1][:, None],
                                q[:, 1][:, None] - hiy[qb]), zero)
    ddt = np.maximum(np.maximum(lot[qb] - q[:, 2][:, None],
                                q[:, 2][:, None] - hit[qb]), zero)
    r2 = (ddx * ddx + ddy * ddy) / (hs * hs)
    w = ddt / ht
    support = (r2 < 1.0) & (w <= 1.0)
    if kernel.spatial_radial is not None:
        proxy = np.where(
            support, kernel.spatial_radial(r2) * kernel.temporal(w), 0.0
        )
    else:
        proxy = support.astype(np.float64)
    return lengths[qb] * proxy


def approx_sum(
    index: BucketIndex,
    queries: np.ndarray,
    kernel: KernelPair,
    norm: float,
    counter: Optional[WorkCounter] = None,
    *,
    eps: float,
    seed: int = 0,
    floor: float = 0.0,
    z: float = _APPROX_Z,
    min_sample: int = _APPROX_MIN_SAMPLE,
    chunk_queries: int = 2048,
    slab_pairs: int = _QUERY_SLAB_PAIRS,
    compute: "ComputeBackend | str | None" = None,
) -> np.ndarray:
    """Approximate STKDE by bucket-level importance sampling over the index.

    Targets a per-query *relative* error budget ``eps``: each query draws
    candidate rows **with replacement** from its CSR runs — run chosen
    proportionally to :func:`_approx_run_bounds`'s ``length x kernel
    bound`` weight, row uniform within the run — and evaluates only the
    sample through the compute backend's ``sampled_contributions``
    (``compute`` as in :func:`direct_sum`).  The
    Hansen–Hurwitz estimator ``(1/s) * sum contrib_j * w_j / p_j`` is
    unbiased for the exact raw sum; the sample size grows by doubling
    rounds until the variance-driven stop rule ``z * stderr <= eps *
    max(estimate, floor)`` holds (``floor`` is in density units and damps
    the budget where the true density is ~0).  Expected cost per query is
    O(runs + 1/eps^2) — sublinear in candidate count on dense
    neighbourhoods.

    Queries whose cumulative sample would reach their candidate count fall
    back to the exact ragged gather (:func:`direct_sum`'s own helper, so
    the answer for that query is bit-identical), so sparse neighbourhoods
    pay at most the exact price and a small-enough candidate set is
    answered *exactly*.

    Deterministic for a fixed ``seed`` (one
    :func:`numpy.random.default_rng` stream consumed in query order).
    ``counter`` accumulates the sampler's ``sample_*`` tallies (rows
    drawn, candidate rows, exact fallbacks, bounds evaluated, and the
    realised relative standard error behind the service's ε gauge).
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    counter = counter if counter is not None else null_counter()
    backend = get_backend(compute)
    q = validate_queries(queries)
    m = q.shape[0]
    out = np.zeros(m, dtype=np.float64)
    if m == 0 or index.segment_count == 0:
        out *= norm
        return out
    grid = index.grid
    coords = index.coords
    cx, cy, ct = coords[:, 0], coords[:, 1], coords[:, 2]
    weights = index.weights
    floor_raw = floor / norm if norm > 0.0 else 0.0
    rng = np.random.default_rng(seed)

    drawn_total = 0
    bounds_total = 0
    cand_total = 0
    exact_total = 0
    rel_se_sum = 0.0

    for c0 in range(0, m, chunk_queries):
        qc = q[c0 : c0 + chunk_queries]
        mc = qc.shape[0]
        ucells, inv, starts, lengths = _home_cell_runs(index, qc)
        bounds = _approx_run_bounds(
            index, kernel, qc, *ucells.T, inv, lengths
        )
        K = lengths[inv].sum(axis=1)
        bounds_total += mc * bounds.shape[1]
        cand_total += int(K.sum())
        B = bounds.sum(axis=1)

        out_c = np.zeros(mc, dtype=np.float64)
        s = np.zeros(mc, dtype=np.float64)
        sum_v = np.zeros(mc, dtype=np.float64)
        sum_v2 = np.zeros(mc, dtype=np.float64)
        active = np.flatnonzero(B > 0.0)  # B == 0: nothing in support
        exact_rows = [np.empty(0, dtype=np.int64)]
        nd = int(min_sample)
        for _ in range(_APPROX_MAX_ROUNDS):
            if active.size == 0:
                break
            # Queries whose next round would sample at least their whole
            # candidate set: read the candidates exactly instead.
            fb = (s[active] + nd) >= K[active]
            if fb.any():
                exact_rows.append(active[fb])
                active = active[~fb]
                if active.size == 0:
                    break
            blk = max(1, slab_pairs // nd)
            for b0 in range(0, active.size, blk):
                rows = active[b0 : b0 + blk]
                bb = bounds[rows]
                cum = np.cumsum(bb, axis=1)
                tot = cum[:, -1]
                cum01 = cum / tot[:, None]
                cum01[:, -1] = 1.0
                base = np.arange(rows.size, dtype=np.float64)[:, None]
                u = rng.random((rows.size, nd))
                # Row-wise weighted draw via one global searchsorted: row
                # i's normalised cumsum is offset into (i, i+1], targets
                # into [i, i+1), so every hit stays inside its own row and
                # zero-weight runs (flat cumsum steps) are never selected.
                g = np.searchsorted(
                    (cum01 + base).ravel(), (u + base).ravel(), side="right"
                )
                ridx = (g % bb.shape[1]).reshape(rows.size, nd)
                LA = lengths[inv[rows]]
                Ls = np.take_along_axis(LA, ridx, axis=1)
                bad = Ls == 0
                if bad.any():
                    # fp round-off in the normalised cumsum can push a
                    # target past the last positive run; remap to it.
                    lastpos = bb.shape[1] - 1 - np.argmax(
                        (bb > 0.0)[:, ::-1], axis=1
                    )
                    ridx = np.where(bad, lastpos[:, None], ridx)
                    Ls = np.take_along_axis(LA, ridx, axis=1)
                Ss = np.take_along_axis(starts[inv[rows]], ridx, axis=1)
                bs = np.take_along_axis(bb, ridx, axis=1)
                off = rng.integers(0, Ls)
                cand = Ss + off
                dx = qc[rows, 0][:, None] - cx[cand]
                dy = qc[rows, 1][:, None] - cy[cand]
                dt = qc[rows, 2][:, None] - ct[cand]

                def moments(contrib: np.ndarray) -> np.ndarray:
                    # v_j = contrib_j * w_j / p_j, p_j = (b_r / B) / L_r.
                    v = contrib * (tot[:, None] * Ls / bs)
                    return np.stack((v.sum(axis=1), (v * v).sum(axis=1)))

                dv, dv2 = backend.reduced_contributions(
                    grid, kernel, dx, dy, dt,
                    weights[cand] if weights is not None else None,
                    counter, moments,
                )
                sum_v[rows] += dv
                sum_v2[rows] += dv2
            s[active] += nd
            drawn_total += active.size * nd
            sA = s[active]
            mean = sum_v[active] / sA
            var = np.maximum(sum_v2[active] / sA - mean * mean, 0.0)
            var *= sA / np.maximum(sA - 1.0, 1.0)
            se = np.sqrt(var / sA)
            scale = np.maximum(mean, floor_raw)
            done = z * se <= eps * scale
            if done.any():
                done_rows = active[done]
                out_c[done_rows] = mean[done]
                dscale = scale[done]
                pos = dscale > 0.0
                rel_se_sum += float((se[done][pos] / dscale[pos]).sum())
                active = active[~done]
            nd *= 2
        # Safety: rounds exhausted (practically unreachable) — go exact.
        exact_rows.append(active)
        exact = np.concatenate(exact_rows)

        _ragged_sums(
            index, qc, exact, kernel, backend, counter, slab_pairs, out_c
        )
        exact_total += exact.size
        out[c0 : c0 + mc] = out_c

    counter.sample_rows_drawn += int(drawn_total)
    counter.sample_candidate_rows += cand_total
    counter.sample_exact_fallbacks += exact_total
    counter.sample_bounds_evaluated += bounds_total
    counter.sample_rel_se_sum += rel_se_sum
    out *= norm
    return out


def sample_volume(
    data: np.ndarray, grid: GridSpec, queries: np.ndarray
) -> np.ndarray:
    """Trilinear sample of a materialised volume at query locations.

    The volume's samples sit at voxel *centers*, so the interpolation
    lattice is offset by half a voxel: a query exactly on a voxel center
    returns that voxel's value bit-exactly.  Queries outside the center
    lattice (the half-voxel boundary fringe and anything off-domain) clamp
    to the nearest cell — a flat extrapolation plateau, which is the
    serving contract for boundary queries.
    """
    q = validate_queries(queries)
    d = grid.domain
    out_shape = q.shape[0]
    gx = (q[:, 0] - d.x0) / d.sres - 0.5
    gy = (q[:, 1] - d.y0) / d.sres - 0.5
    gt = (q[:, 2] - d.t0) / d.tres - 0.5

    def cell_frac(g: np.ndarray, size: int):
        i0 = np.clip(np.floor(g).astype(np.int64), 0, max(size - 2, 0))
        frac = np.clip(g - i0, 0.0, 1.0)
        if size == 1:
            frac = np.zeros_like(frac)
        return i0, frac

    ix, fx = cell_frac(gx, grid.Gx)
    iy, fy = cell_frac(gy, grid.Gy)
    it, ft = cell_frac(gt, grid.Gt)
    x1 = np.minimum(ix + 1, grid.Gx - 1)
    y1 = np.minimum(iy + 1, grid.Gy - 1)
    t1 = np.minimum(it + 1, grid.Gt - 1)

    out = np.zeros(out_shape, dtype=np.float64)
    for xi, wx in ((ix, 1.0 - fx), (x1, fx)):
        for yi, wy in ((iy, 1.0 - fy), (y1, fy)):
            for ti, wt in ((it, 1.0 - ft), (t1, ft)):
                w = wx * wy * wt
                # Skip all-zero corner weights (exact-center queries hit
                # only one corner; saves 7 gathers on the common case).
                if not np.any(w):
                    continue
                out += w * data[xi, yi, ti]
    return out


@dataclass
class RegionResult:
    """A served region (or slice) of density: data plus its grid window.

    ``data`` has ``window.shape`` and is **read-only**: the lookup backend
    hands out a view of the service's materialised volume (zero copy), the
    direct backend the buffer a fresh stamp produced.  Callers that need to
    mutate must copy — which keeps repeat queries cheap and cache entries
    safe to share.
    """

    window: VoxelWindow
    data: np.ndarray
    backend: str

    @property
    def is_view(self) -> bool:
        """Whether ``data`` aliases a larger (materialised-volume) array.

        A direct result is a :class:`~repro.core.regions.RegionBuffer`'s
        t-outermost array, itself a view, but of exactly its own cells.
        """
        base = self.data.base
        return isinstance(base, np.ndarray) and base.size > self.data.size

    def time_slice(self, T: int = 0) -> np.ndarray:
        """The ``(wx, wy)`` spatial slice at window-relative time ``T``."""
        return self.data[:, :, T]


def slice_window(grid: GridSpec, T: int) -> VoxelWindow:
    """The full-extent one-voxel-thick window of time slice ``T``."""
    if not 0 <= T < grid.Gt:
        raise ValueError(f"time slice {T} outside [0, {grid.Gt})")
    return VoxelWindow(0, grid.Gx, 0, grid.Gy, T, T + 1)


def region_view(
    data: np.ndarray, window: VoxelWindow
) -> RegionResult:
    """Serve a region as a read-only view of a materialised volume.

    No copy: the result's ``data`` aliases the volume, which is what makes
    repeat region extracts (and cached slices) O(1) in memory.
    """
    view = data[window.slices()]
    view.flags.writeable = False
    return RegionResult(window, view, "lookup")


def direct_region(
    grid: GridSpec,
    kernel: KernelPair,
    coords: np.ndarray,
    window: VoxelWindow,
    norm: float,
    counter: Optional[WorkCounter] = None,
    weights: Optional[np.ndarray] = None,
    compute: "ComputeBackend | str | None" = None,
) -> RegionResult:
    """Compute a region of density directly from the events.

    Stamps the events into a :class:`~repro.core.regions.RegionBuffer`
    covering only ``window`` (clipped through the batched engine, so
    events whose cylinders miss the window are skipped wholesale).  Exact
    at O(window + reaching stamps) cost, no full volume required: it
    agrees with the same window of a full-grid stamp at ``rtol=1e-12``,
    not bit for bit, since clipping changes how the engine groups and
    sums the stamps.
    ``weights`` routes through the engine's weighted stamp mode,
    ``compute`` names the backend that tabulates the stamps.
    """
    if window.empty:
        raise ValueError(f"cannot serve an empty region: {window}")
    counter = counter if counter is not None else null_counter()
    buf = RegionBuffer(window)
    counter.init_writes += buf.cells
    buf.stamp(
        grid, kernel, np.asarray(coords, dtype=np.float64), norm, counter,
        weights=weights, compute=compute,
    )
    buf.data.flags.writeable = False
    return RegionResult(window, buf.data, "direct")
