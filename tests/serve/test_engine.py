"""Tests for query execution: direct sums, trilinear lookup, regions.

The acceptance-critical property lives here: a direct kernel sum at a
voxel center reproduces the full-grid stamped volume's value at that
voxel to ``rtol=1e-6`` (measured slack is ~1e-12 — both paths share
``masked_kernel_product``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pb_sym import pb_sym
from repro.core import WorkCounter
from repro.core.grid import VoxelWindow
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec
from repro.core.backends import available_backends
from repro.core.kernels import available_kernels, get_kernel
from repro.serve.engine import (
    _QUERY_SLAB_PAIRS,
    direct_region,
    direct_sum,
    region_view,
    sample_volume,
    slab_dispatches,
    slice_window,
)
from repro.core.index import _WINDOW_SLACK, BucketIndex
from tests.helpers import (
    BOX_KERNEL,
    CUSTOM_KERNEL,
    brute_force_sum,
    make_clustered_points,
    make_points,
)

ALL_KERNELS = tuple(available_kernels()) + ("custom",)


def kernel_of(name):
    return CUSTOM_KERNEL if name == "custom" else get_kernel(name)


def voxel_center_queries(grid, stride=3):
    """A lattice of voxel centers and their integer voxel coordinates."""
    X, Y, T = np.meshgrid(
        np.arange(0, grid.Gx, stride),
        np.arange(0, grid.Gy, stride),
        np.arange(0, grid.Gt, stride),
        indexing="ij",
    )
    vox = np.column_stack([X.ravel(), Y.ravel(), T.ravel()])
    q = np.column_stack([
        grid.x_centers()[vox[:, 0]],
        grid.y_centers()[vox[:, 1]],
        grid.t_centers()[vox[:, 2]],
    ])
    return q, vox


class TestDirectSum:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_matches_full_grid_stamp_at_voxel_centers(self, small_grid, kernel):
        pts = make_clustered_points(small_grid, 80, seed=20)
        ref = pb_sym(pts, small_grid, kernel=kernel)
        idx = BucketIndex(small_grid, pts.coords)
        q, vox = voxel_center_queries(small_grid)
        dens = direct_sum(
            idx, q, get_kernel(kernel), small_grid.normalization(pts.n)
        )
        np.testing.assert_allclose(
            dens, ref.data[vox[:, 0], vox[:, 1], vox[:, 2]],
            rtol=1e-6, atol=1e-18,
        )

    def test_off_grid_queries_are_exact(self, small_grid):
        """Arbitrary (non-voxel-center) locations match brute force."""
        pts = make_points(small_grid, 60, seed=21)
        idx = BucketIndex(small_grid, pts.coords)
        kern = get_kernel("epanechnikov")
        rng = np.random.default_rng(22)
        d = small_grid.domain
        q = rng.uniform([d.x0, d.y0, d.t0],
                        [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt], size=(25, 3))
        norm = small_grid.normalization(pts.n)
        dens = direct_sum(idx, q, kern, norm)
        hs, ht = small_grid.hs, small_grid.ht
        for qi, di in zip(q, dens):
            dx = (qi[0] - pts.coords[:, 0]) / hs
            dy = (qi[1] - pts.coords[:, 1]) / hs
            dt = (qi[2] - pts.coords[:, 2]) / ht
            inside = (dx * dx + dy * dy < 1.0) & (np.abs(dt) <= 1.0)
            brute = norm * np.sum(
                kern.spatial(dx, dy)[inside] * kern.temporal(dt)[inside]
            )
            assert di == pytest.approx(brute, rel=1e-9, abs=1e-18)

    def test_weighted_sum(self, small_grid):
        pts = make_points(small_grid, 40, seed=23)
        w = np.linspace(0.2, 3.0, 40)
        idx = BucketIndex(small_grid, pts.coords, w)
        idx_unit = BucketIndex(small_grid, pts.coords)
        kern = get_kernel("epanechnikov")
        q = pts.coords[:10] + 0.1
        # Weighted with unit weights equals the unweighted path.
        np.testing.assert_allclose(
            direct_sum(BucketIndex(small_grid, pts.coords, np.ones(40)),
                       q, kern, 1.0),
            direct_sum(idx_unit, q, kern, 1.0), rtol=1e-14,
        )
        # Doubling every weight doubles the (unnormalised) sum.
        np.testing.assert_allclose(
            direct_sum(BucketIndex(small_grid, pts.coords, 2 * w), q, kern, 1.0),
            2.0 * direct_sum(idx, q, kern, 1.0), rtol=1e-14,
        )

    def test_counts_work(self, small_grid):
        pts = make_points(small_grid, 30, seed=24)
        idx = BucketIndex(small_grid, pts.coords)
        c = WorkCounter()
        direct_sum(idx, pts.coords[:5], get_kernel("epanechnikov"), 1.0, c)
        assert c.spatial_evals > 0 and c.temporal_evals > 0

    def test_empty_and_bad_input(self, small_grid):
        idx = BucketIndex(small_grid, np.empty((0, 3)))
        out = direct_sum(idx, np.array([[1.0, 1.0, 1.0]]),
                         get_kernel("epanechnikov"), 1.0)
        np.testing.assert_array_equal(out, [0.0])
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            direct_sum(idx, np.zeros((3, 2)), get_kernel("epanechnikov"), 1.0)


def layered_index(grid, weighted, seed=70):
    """A lived-in index and the events it holds.

    Six clustered batches as segments; three are consolidated and one of
    those members retired (which repacks the store); a whole segment is
    removed; a late batch is appended; one segment is empty.  Returns ``(index,
    coords, weights)`` with the live events in no particular order.
    """
    rng = np.random.default_rng(seed)
    pts = make_clustered_points(grid, 600, seed=seed).coords
    parts = {i: pts[i::6] for i in range(6)}
    wts = {
        i: rng.uniform(0.25, 4.0, len(p)) if weighted else None
        for i, p in parts.items()
    }
    idx = BucketIndex(grid, merge_segment_cap=None)
    for i, p in parts.items():
        idx.add_segment(i, p, wts[i])
    idx.add_segment("empty", np.empty((0, 3)))
    idx.consolidate_segments([0, 1, 2])
    idx.remove_segment(4)
    idx.remove_segment(1)  # a consolidated member: compressed out
    for gone in (1, 4):
        del parts[gone], wts[gone]
    parts["late"] = make_points(grid, 40, seed=seed + 1).coords
    wts["late"] = rng.uniform(0.25, 4.0, 40) if weighted else None
    idx.add_segment("late", parts["late"], wts["late"])
    assert idx.merged_segments == 1 and idx.segment_count == 5
    coords = np.vstack(list(parts.values()))
    weights = np.concatenate(list(wts.values())) if weighted else None
    return idx, coords, weights


def border_batch(grid, m, seed):
    """Queries over the domain and a bandwidth beyond it on every side
    (off-domain rows clamp into border cells)."""
    rng = np.random.default_rng(seed)
    d = grid.domain
    pad = np.array([grid.hs, grid.hs, grid.ht])
    lo = np.array([d.x0, d.y0, d.t0]) - pad
    hi = np.array([d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt]) + pad
    return rng.uniform(lo, hi, size=(m, 3))


def window_pairs(index, coords, q):
    """Pairs the engine forms per query, from scratch: live events in the
    nine cell columns around the query's home column whose time lies in
    the query's window, widened at both ends by the index's stated slack
    (times before or after the cell grid count as its first or last
    instant, as the cells they are clamped into do)."""
    ec, qc = index.cell_coords(coords), index.cell_coords(q)
    near = (
        (np.abs(ec[None, :, 0] - qc[:, None, 0]) <= 1)
        & (np.abs(ec[None, :, 1] - qc[:, None, 1]) <= 1)
    )
    ht, t0 = index.grid.ht, index.grid.domain.t0
    reach = ht + _WINDOW_SLACK * (np.abs(q[:, 2]) + ht)
    t, lo, hi = (
        np.clip(v, t0, t0 + index.nt * ht)
        for v in (coords[None, :, 2], (q[:, 2] - reach)[:, None],
                  (q[:, 2] + reach)[:, None])
    )
    return (near & (t >= lo) & (t <= hi)).sum(axis=1)


def in_support(grid, coords, q):
    """Pairs inside the kernel's cylinder, per query."""
    return np.rint(brute_force_sum(grid, BOX_KERNEL, coords, q)).astype(int)


def greedy_slabs(index, K, q, slab_pairs):
    """Slab dispatches the engine's cut must produce for per-query pair
    counts ``K``: non-empty queries in home-cell order, filled greedily,
    never splitting a query."""
    K = K[np.argsort(index.cell_of(q), kind="stable")]
    slabs, room = 0, 0
    for k in K[K > 0].tolist():
        if slabs == 0 or k > room:
            slabs, room = slabs + 1, slab_pairs
        room -= k
    return slabs


class TestRaggedEngine:
    """The ragged gather against the estimator's definition.

    Every exact pin is ``rtol=1e-12`` against :func:`brute_force_sum`
    (pairwise ``ndarray.sum`` over all events) — the engine adds each
    query's candidates in run order with ``np.add.reduceat``.
    """

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kname", ALL_KERNELS)
    def test_matches_brute_force(self, small_grid, kname, weighted):
        idx, coords, w = layered_index(small_grid, weighted)
        q = np.vstack([border_batch(small_grid, 200, 71), coords[:50] + 0.05])
        kern = kernel_of(kname)
        norm = small_grid.normalization(len(coords))
        np.testing.assert_allclose(
            direct_sum(idx, q, kern, norm),
            brute_force_sum(small_grid, kern, coords, q, norm, w),
            rtol=1e-12, atol=0.0,
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_slab_chunking_is_exact(self, small_grid, weighted):
        """No slab cap changes a bit: a query's sum depends on its own
        segment only (1 = every query its own slab)."""
        idx, coords, _ = layered_index(small_grid, weighted)
        q = border_batch(small_grid, 200, 78)
        kern = get_kernel("epanechnikov")
        full = direct_sum(idx, q, kern, 1.0)
        for slab_pairs in (1, 64):
            np.testing.assert_array_equal(
                full, direct_sum(idx, q, kern, 1.0, slab_pairs=slab_pairs)
            )

    @pytest.mark.parametrize("kname", ["epanechnikov", "custom"])
    def test_empty_and_huge_neighbourhoods_in_one_batch(self, kname):
        """One 10^4-event cluster probed beside far-away rows with no
        candidates at all; with ``slab_pairs=4096`` the cluster queries
        are each larger than a slab."""
        grid = GridSpec(DomainSpec.from_voxels(40, 40, 40), hs=4.0, ht=4.0)
        rng = np.random.default_rng(90)
        cluster = rng.normal([6.0, 6.0, 6.0], 0.8, size=(10_000, 3))
        idx = BucketIndex(grid, cluster)
        q = np.vstack([
            rng.normal([6.0, 6.0, 6.0], 1.5, size=(6, 3)),
            rng.uniform(25.0, 39.0, size=(20, 3)),  # nothing within 27 cells
        ])[rng.permutation(26)]
        K = idx.candidate_counts(q)
        assert K.max() >= 10_000 and (K == 0).sum() == 20
        kern = kernel_of(kname)
        c = WorkCounter()
        out = direct_sum(idx, q, kern, 1e-4, c)
        np.testing.assert_allclose(
            out, brute_force_sum(grid, kern, cluster, q, 1e-4),
            rtol=1e-12, atol=0.0,
        )
        assert not out[K == 0].any()
        assert c.query_cohorts == 1 == slab_dispatches(K.sum())
        c = WorkCounter()
        np.testing.assert_array_equal(
            out, direct_sum(idx, q, kern, 1e-4, c, slab_pairs=4096)
        )
        assert c.query_cohorts == 6  # one over-sized slab per cluster query

    def test_counters(self, small_grid):
        """Logical work is the pairs formed — each query against the
        events of its nine cell columns inside its (widened) time window,
        counted here from scratch — whatever the slab cap and the
        backend; ``query_cohorts`` is the slab count.  The pairs lie
        between the in-support pairs and the 27-cell box count the
        planner prices."""
        idx, coords, _ = layered_index(small_grid, False)
        q = border_batch(small_grid, 200, 81)
        K = window_pairs(idx, coords, q)
        pairs = int(K.sum())
        assert 0 < pairs < _QUERY_SLAB_PAIRS
        assert (in_support(small_grid, coords, q) <= K).all()
        assert (K <= idx.candidate_counts(q)).all()
        kern = get_kernel("epanechnikov")
        for slab_pairs, slabs in (
            (_QUERY_SLAB_PAIRS, 1),
            (64, greedy_slabs(idx, K, q, 64)),
            (1, int((K > 0).sum())),
        ):
            for backend in available_backends():
                c = WorkCounter()
                direct_sum(idx, q, kern, 1.0, c, slab_pairs=slab_pairs,
                           compute=backend)
                assert (
                    c.madds == c.distance_tests == c.spatial_evals
                    == c.temporal_evals == pairs
                )
                assert c.query_cohorts == slabs
                assert c.backend_dispatches == {backend: slabs}

    def test_pairs_follow_the_time_window_on_uniform_events(self):
        """Uniform events, 24 cells deep in t: a window of ``2 ht`` out of
        a box ``3 ht`` deep leaves two thirds of the box count (more only
        for the queries in the two border layers, whose box is clamped to
        two cells) — at most three quarters over the batch."""
        grid = GridSpec(DomainSpec.from_voxels(24, 24, 48), hs=4.0, ht=2.0)
        coords = make_points(grid, 4000, seed=83).coords
        q = make_points(grid, 300, seed=84).coords
        idx = BucketIndex(grid, coords)
        c = WorkCounter()
        direct_sum(idx, q, get_kernel("epanechnikov"), 1.0, c)
        box = int(idx.candidate_counts(q).sum())
        assert c.distance_tests == int(window_pairs(idx, coords, q).sum())
        assert int(in_support(grid, coords, q).sum()) <= c.distance_tests
        assert c.distance_tests <= 0.75 * box

    def test_co_located_batch_is_one_dispatch(self, small_grid):
        pts = make_clustered_points(small_grid, 120, seed=72)
        idx = BucketIndex(small_grid, pts.coords)
        d = small_grid.domain
        base = np.array([d.x0 + 1.5 * small_grid.hs, d.y0 + 1.5 * small_grid.hs,
                         d.t0 + 1.5 * small_grid.ht])  # inside cell (1, 1, 1)
        jitter = np.random.default_rng(73).uniform(-0.4, 0.4, size=(64, 3))
        q = base + jitter * [small_grid.hs, small_grid.hs, small_grid.ht]
        assert np.unique(idx.cell_of(q)).size == 1
        c = WorkCounter()
        kern = get_kernel("epanechnikov")
        np.testing.assert_allclose(
            direct_sum(idx, q, kern, 1.0, c),
            brute_force_sum(small_grid, kern, pts.coords, q),
            rtol=1e-12, atol=0.0,
        )
        assert c.query_cohorts == 1

    def test_segmented_equals_monolithic(self, small_grid):
        pts = make_clustered_points(small_grid, 150, seed=79)
        idx = BucketIndex(small_grid)
        for i, (s, e) in enumerate([(0, 50), (50, 120), (120, 150)]):
            idx.add_segment(i, pts.coords[s:e])
        q = border_batch(small_grid, 150, 80)
        kern = get_kernel("epanechnikov")
        np.testing.assert_allclose(
            direct_sum(idx, q, kern, 1.0),
            direct_sum(BucketIndex(small_grid, pts.coords), q, kern, 1.0),
            rtol=1e-12, atol=0.0,
        )

    def test_empty_index_and_empty_batch(self, small_grid):
        idx = BucketIndex(small_grid)
        kern = get_kernel("epanechnikov")
        np.testing.assert_array_equal(
            direct_sum(idx, np.array([[1.0, 1.0, 1.0]]), kern, 1.0), [0.0]
        )
        assert direct_sum(idx, np.empty((0, 3)), kern, 1.0).shape == (0,)
        c = WorkCounter()
        idx.add_segment(0, np.array([[1.0, 1.0, 1.0]]))
        far = np.array([[small_grid.domain.gx - 0.5] * 3])
        np.testing.assert_array_equal(direct_sum(idx, far, kern, 1.0, c), [0.0])
        assert c.query_cohorts == 0 and c.madds == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_queries(self, index_and_kernel, bad):
        idx, kern = index_and_kernel
        q = np.array([[1.0, 1.0, 1.0], [2.0, bad, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            direct_sum(idx, q, kern, 1.0)
        with pytest.raises(ValueError, match="finite"):
            sample_volume(np.zeros(idx.grid.shape), idx.grid, q)

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(6, 20)] * 3),
        hs=st.floats(1.0, 5.0),
        ht=st.floats(1.0, 5.0),
        n_events=st.integers(0, 300),
        n_segments=st.integers(1, 4),
        m=st.integers(1, 60),
        weighted=st.booleans(),
        slab_pairs=st.sampled_from([1, 17, _QUERY_SLAB_PAIRS]),
        seed=st.integers(0, 2**31),
    )
    def test_property_matches_brute_force(
        self, shape, hs, ht, n_events, n_segments, m, weighted, slab_pairs, seed
    ):
        grid = GridSpec(DomainSpec.from_voxels(*shape), hs=hs, ht=ht)
        coords = make_clustered_points(grid, n_events, seed=seed).coords
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 5.0, n_events) if weighted else None
        idx = BucketIndex(grid)
        for i in range(n_segments):
            idx.add_segment(
                i, coords[i::n_segments], None if w is None else w[i::n_segments]
            )
        q = border_batch(grid, m, seed + 1)
        kern = get_kernel("quartic")
        np.testing.assert_allclose(
            direct_sum(idx, q, kern, 0.5, slab_pairs=slab_pairs),
            brute_force_sum(grid, kern, coords, q, 0.5, w),
            rtol=1e-12, atol=0.0,
        )


def test_window_slack_covers_the_masks_rounding():
    """Why the window is widened at all: the mask rounds.  With ``t_q`` one
    float above ``ht`` and an event at ``1e-16``, ``t_q - t_e`` exceeds
    ``ht`` by a tenth of an ulp and rounds *to* ``ht`` — the mask passes —
    while the unwidened window end ``fl(t_q - ht)`` is ``1.1e-16``, above
    the event.  Cell 0 of a domain starting at 0 is where the keys
    resolve times that small."""
    grid = GridSpec(DomainSpec.from_voxels(8, 8, 4), hs=2.0, ht=0.7)
    t_q = np.nextafter(grid.ht, 1.0)
    assert t_q - 1e-16 == grid.ht and t_q - grid.ht > 1e-16
    q = np.array([[1.0, 1.0, t_q]])
    events = np.tile([[0.5, 0.5, 1e-16]], (6, 1))
    for history in ("simple", "consolidated-twice"):
        idx = lived_in(history, grid, events, None)
        np.testing.assert_array_equal(
            direct_sum(idx, q, BOX_KERNEL, 1.0), [6.0]
        )


INDEX_HISTORIES = ("simple", "segments", "consolidated-twice", "retired-member")


def lived_in(history, grid, events, weights):
    """An index holding exactly ``events`` after the named history.  The
    ``retired-member`` one also held, and lost, a second copy of them."""
    idx = BucketIndex(grid, merge_segment_cap=None)
    if history == "simple":
        idx.add_segment(0, events, weights)
        return idx
    parts = {
        i: (events[i::6], None if weights is None else weights[i::6])
        for i in range(6)
    }
    for i, (rows, w) in parts.items():
        idx.add_segment(i, rows, w)
    if history == "segments":
        return idx
    if history == "retired-member":
        idx.add_segment("copy", events, weights)
        idx.consolidate_segments([0, "copy", 1])
    else:
        idx.consolidate_segments([0, 1, 2])
    idx.consolidate_segments([("merged", 0), 3])
    if history == "retired-member":
        idx.remove_segment("copy")  # a consolidated member: compressed out
    assert idx.n == len(events) and idx.merged_segments == 1
    return idx


class TestWindowEdge:
    """Where a run ends, seen through a kernel that is 1 all the way to
    the edge (Epanechnikov is 0 at ``|dt| = ht``: a run cut one row short
    changes no answer under it).  Under :data:`BOX_KERNEL` a direct sum
    is the weighted count of the events the mask passes — closed in t,
    ``|dt| <= ht``; strict in space, ``r < hs`` — and the time window the
    runs are cut to must hold every one of them: it is widened by
    ``_WINDOW_SLACK * (|t| + ht)`` at both ends (:mod:`repro.core.index`
    says why that is enough), and what it lets in beyond the mask, the
    mask drops."""

    # Dyadic bandwidths, times far from zero: q.t +- ht, and the next
    # float beyond, subtract from q.t without rounding.
    EXACT = GridSpec(
        DomainSpec(gx=64.0, gy=64.0, gt=16.0, sres=1.0, tres=1.0, t0=64.0),
        hs=4.0, ht=2.0,
    )
    # Nothing representable: cell edges, window ends and the mask all round.
    ROUNDED = GridSpec(
        DomainSpec(gx=10.0, gy=10.0, gt=7.0, sres=0.5, tres=0.35,
                   x0=-3.3, y0=1.7, t0=100.3),
        hs=2.5, ht=0.7,
    )

    @staticmethod
    def ring(grid, q):
        """Events on the edges of ``q``'s cylinder, ``(counted, not)``: at
        exactly ``t +- ht`` and one float inside the radius; one float
        beyond ``t +- ht`` and at exactly ``r == hs``."""
        x, y, t = q
        hs, ht = grid.hs, grid.ht
        counted = [
            (x + 1.0, y, t - ht), (x, y + 1.0, t + ht),
            (np.nextafter(x + hs, x), y, t),
        ]
        dropped = [
            (x + 1.0, y, np.nextafter(t - ht, -np.inf)),
            (x, y + 1.0, np.nextafter(t + ht, np.inf)),
            (x + hs, y, t),
        ]
        return counted, dropped

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("history", INDEX_HISTORIES)
    def test_closed_in_time_strict_in_space(self, history, weighted):
        """Six queries too far apart to see each other's rings — mid-cell,
        on a cell edge, on both ends of the domain and off it on both
        sides: each counts its three edge events and none of the three
        just beyond."""
        grid = self.EXACT
        q = np.array([
            [6.0 + 10.0 * i, 6.0 + 10.0 * i, t]
            for i, t in enumerate([69.0, 70.0, 64.0, 80.0, 61.0, 83.0])
        ])
        rings = [self.ring(grid, row) for row in q]
        events = np.array([e for ring in rings for part in ring for e in part])
        rng = np.random.default_rng(91)
        events = events[rng.permutation(len(events))]
        w = rng.choice([0.5, 1.0, 2.0, 4.0], len(events)) if weighted else None
        idx = lived_in(history, grid, events, w)
        got = direct_sum(idx, q, BOX_KERNEL, 1.0)
        np.testing.assert_allclose(
            got, brute_force_sum(grid, BOX_KERNEL, events, q, weights=w),
            rtol=1e-12, atol=0.0,
        )
        if not weighted:
            np.testing.assert_array_equal(got, 3.0)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("history", INDEX_HISTORIES)
    def test_window_holds_whatever_the_mask_passes(self, history, weighted):
        """The same rings where every subtraction rounds, around queries
        on every t-cell edge, inside cells, and up to three bandwidths off
        the domain on both sides — plus one event on every cell edge of
        every query's column.  Whether ``|fl(dt)| <= ht`` holds for an
        event a float away from the edge is the oracle's to say; the
        engine must say the same."""
        grid = self.ROUNDED
        d = grid.domain
        rng = np.random.default_rng(92)
        edges = d.t0 + grid.ht * np.arange(11)  # 10 t-cells
        t = np.concatenate([
            edges, rng.uniform(d.t0 - 3 * grid.ht, edges[-1] + 3 * grid.ht, 30)
        ])
        q = np.column_stack([
            rng.uniform(d.x0, d.x0 + d.gx, (len(t), 2)), t
        ])
        events = [e for row in q for part in self.ring(grid, row) for e in part]
        events += [(x, y, edge) for x, y, _ in q[::4] for edge in edges]
        events = np.array(events)[rng.permutation(len(events))]
        w = rng.choice([0.5, 1.0, 2.0, 4.0], len(events)) if weighted else None
        idx = lived_in(history, grid, events, w)
        np.testing.assert_allclose(
            direct_sum(idx, q, BOX_KERNEL, 1.0),
            brute_force_sum(grid, BOX_KERNEL, events, q, weights=w),
            rtol=1e-12, atol=0.0,
        )


@pytest.fixture
def index_and_kernel(small_grid):
    pts = make_points(small_grid, 30, seed=24)
    return BucketIndex(small_grid, pts.coords), get_kernel("epanechnikov")


class TestSampleVolume:
    def test_exact_at_voxel_centers(self, small_grid):
        pts = make_clustered_points(small_grid, 70, seed=25)
        ref = pb_sym(pts, small_grid)
        q, vox = voxel_center_queries(small_grid, stride=2)
        out = sample_volume(ref.data, small_grid, q)
        np.testing.assert_array_equal(
            out, ref.data[vox[:, 0], vox[:, 1], vox[:, 2]]
        )

    def test_interpolates_linear_fields_exactly(self, small_grid):
        """Trilinear interpolation reproduces any affine field between
        centers — the standard correctness probe."""
        g = small_grid
        xc, yc, tc = g.x_centers(), g.y_centers(), g.t_centers()
        data = (2.0 * xc[:, None, None] - 0.5 * yc[None, :, None]
                + 3.0 * tc[None, None, :] + 1.0)
        rng = np.random.default_rng(26)
        # Stay inside the center lattice where trilinear is affine-exact.
        q = np.column_stack([
            rng.uniform(xc[0], xc[-1], 30),
            rng.uniform(yc[0], yc[-1], 30),
            rng.uniform(tc[0], tc[-1], 30),
        ])
        out = sample_volume(data, g, q)
        expect = 2.0 * q[:, 0] - 0.5 * q[:, 1] + 3.0 * q[:, 2] + 1.0
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_clamps_outside_domain(self, small_grid):
        data = np.full(small_grid.shape, 7.0)
        far = np.array([[1e6, -1e6, 1e6]])
        np.testing.assert_allclose(
            sample_volume(data, small_grid, far), [7.0]
        )

    def test_single_voxel_axis(self):
        from repro.core import DomainSpec, GridSpec

        g = GridSpec(DomainSpec.from_voxels(4, 4, 1), hs=1.0, ht=2.0)
        data = np.ones(g.shape)
        out = sample_volume(data, g, np.array([[2.0, 2.0, 0.5]]))
        np.testing.assert_allclose(out, [1.0])


class TestRegions:
    def test_direct_region_matches_full_stamp(self, small_grid):
        pts = make_clustered_points(small_grid, 90, seed=27)
        ref = pb_sym(pts, small_grid)
        win = VoxelWindow(2, 9, 3, 11, 4, 12)
        res = direct_region(
            small_grid, get_kernel("epanechnikov"), pts.coords, win,
            small_grid.normalization(pts.n),
        )
        np.testing.assert_allclose(
            res.data, ref.data[win.slices()], rtol=1e-6, atol=1e-18
        )
        assert res.backend == "direct"
        assert res.window == win
        assert not res.data.flags.writeable

    def test_region_view_is_zero_copy(self, small_grid):
        data = np.arange(small_grid.n_voxels, dtype=np.float64).reshape(
            small_grid.shape
        )
        win = VoxelWindow(1, 5, 2, 6, 3, 7)
        res = region_view(data, win)
        assert res.is_view
        assert np.shares_memory(res.data, data)
        assert not res.data.flags.writeable
        np.testing.assert_array_equal(res.data, data[win.slices()])

    def test_slice_window_shape_and_bounds(self, small_grid):
        win = slice_window(small_grid, 3)
        assert win.shape == (small_grid.Gx, small_grid.Gy, 1)
        with pytest.raises(ValueError, match="slice"):
            slice_window(small_grid, small_grid.Gt)
        with pytest.raises(ValueError, match="slice"):
            slice_window(small_grid, -1)

    def test_direct_region_rejects_empty(self, small_grid):
        with pytest.raises(ValueError, match="empty"):
            direct_region(
                small_grid, get_kernel("epanechnikov"),
                np.empty((0, 3)), VoxelWindow(3, 3, 0, 2, 0, 2), 1.0,
            )

    def test_time_slice_accessor(self, small_grid):
        pts = make_points(small_grid, 40, seed=28)
        win = slice_window(small_grid, 5)
        res = direct_region(
            small_grid, get_kernel("epanechnikov"), pts.coords, win,
            small_grid.normalization(pts.n),
        )
        assert res.time_slice().shape == (small_grid.Gx, small_grid.Gy)
