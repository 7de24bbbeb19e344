"""The cohort route's clipped cohort: one table shape, cut in the scatter.

Every stamp whose window the grid edge or a clip cut joins its group's
one clipped cohort: it is tabulated at the cohort's shape from its
unclipped origin, and the scatter drops its cells outside its window.
Each case here is held to a brute-force kernel sum at ``rtol=1e-12`` and
to logical counts equal to the clipped windows' sums, on flat and on
strided targets; a batch nothing clips keeps the one-cohort route bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, VoxelWindow, WorkCounter
from repro.core.backends import get_backend
from repro.core.grid import empty_volume
from repro.core.kernels import get_kernel
import repro.core.stamping as stamping
from repro.core.stamping import STAMP_MODES, StampPlan, batch_windows, stamp_batch

from tests.helpers import brute_force_sum

RTOL = 1e-12
ATOL = 1e-18
NORM = 0.37

#: 5 x 5 x 5 stamps on a grid a few stamps across; no batch here crowds a
#: bin, so every stamp takes the cohort route in every mode.
GRID = GridSpec(DomainSpec.from_voxels(23, 19, 17), hs=2.0, ht=2.0)


def edge_points():
    """Two points off each of the grid's 6 faces, 12 edges and 8 corners
    (0.3 and 1.4 voxels in from every face they hug), plus a few interior
    points."""
    hi = np.array(GRID.shape, dtype=float)
    rows = []
    for d in np.ndindex(3, 3, 3):
        d = np.array(d) - 1
        if not d.any():
            continue
        for depth in (0.3, 1.4):
            rows.append(np.where(d < 0, depth, np.where(d > 0, hi - depth,
                                                        hi / 2 + 0.21)))
    interior = np.random.default_rng(60).uniform(3.5, hi - 3.5, (6, 3))
    return np.vstack([rows, interior])


def weights_for(coords, weighted):
    if not weighted:
        return None
    return np.random.default_rng(61).uniform(0.2, 3.0, len(coords))


def brute_force(coords, weights=None, clip=None):
    """The density at every voxel centre by the estimator's definition;
    only ``clip``'s voxels, and that window's shape, when given."""
    clip = GRID.full_window() if clip is None else clip
    xc, yc, tc = np.meshgrid(GRID.x_centers(clip.x0, clip.x1),
                             GRID.y_centers(clip.y0, clip.y1),
                             GRID.t_centers(clip.t0, clip.t1), indexing="ij")
    q = np.column_stack([xc.ravel(), yc.ravel(), tc.ravel()])
    kern = get_kernel("epanechnikov")
    return brute_force_sum(GRID, kern, coords, q, NORM, weights).reshape(
        clip.shape)


def clipped_counts(coords, mode, clip=None):
    """The logical charges of the clipped windows, ``mode``'s profile."""
    X0, X1, Y0, Y1, T0, T1 = batch_windows(GRID, coords, clip)
    wx, wy, wt = X1 - X0, Y1 - Y0, T1 - T0
    live = (wx > 0) & (wy > 0) & (wt > 0)
    disk = int((wx * wy)[live].sum())
    bar = int(wt[live].sum())
    cells = int((wx * wy * wt)[live].sum())
    spatial, temporal = {"sym": (disk, bar), "pb": (cells, cells),
                         "disk": (disk, cells), "bar": (cells, bar)}[mode]
    return dict(madds=cells, spatial_evals=spatial, temporal_evals=temporal,
                distance_tests=cells if mode == "pb" else spatial + temporal)


def assert_counts(counter, want):
    for key, value in want.items():
        assert getattr(counter, key) == value, key


def strided(shape):
    """A target with no flat view: every other x-plane of a larger array."""
    return np.zeros((2 * shape[0],) + tuple(shape[1:]))[::2]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_every_face_edge_and_corner(self, mode, weighted):
        coords = edge_points()
        w = weights_for(coords, weighted)
        c = WorkCounter()
        vol = GRID.allocate()
        stamp_batch(vol, GRID, get_kernel("epanechnikov"), coords, NORM, c,
                    mode=mode, weights=w)
        np.testing.assert_allclose(vol, brute_force(coords, w),
                                   rtol=RTOL, atol=ATOL)
        assert_counts(c, clipped_counts(coords, mode))
        assert c.stamp_cohorts == 2  # the clipped and the full-shape cohort

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_strided_target_takes_the_same_additions(self, mode, weighted):
        """The per-stamp slice-adds cut each table to its window: the
        same additions in the same order as the flat add."""
        coords = edge_points()
        w = weights_for(coords, weighted)
        kern = get_kernel("epanechnikov")
        flat, slices = GRID.allocate(), strided(GRID.shape)
        c = WorkCounter()
        stamp_batch(flat, GRID, kern, coords, NORM, WorkCounter(),
                    mode=mode, weights=w)
        stamp_batch(slices, GRID, kern, coords, NORM, c, mode=mode, weights=w)
        np.testing.assert_array_equal(slices, flat)
        np.testing.assert_allclose(slices, brute_force(coords, w),
                                   rtol=RTOL, atol=ATOL)
        assert_counts(c, clipped_counts(coords, mode))

    @pytest.mark.parametrize("target", ["buffer", "strided"])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    @pytest.mark.parametrize("clip", [
        VoxelWindow(10, 11, 3, 16, 5, 7),    # one voxel wide in x
        VoxelWindow(4, 7, 8, 9, 0, 17),      # one voxel wide in y
        VoxelWindow(12, 13, 9, 10, 8, 9),    # one voxel
        VoxelWindow(0, 23, 0, 19, 16, 17),   # the last t-plane
    ], ids=["x-sliver", "y-sliver", "voxel", "t-plane"])
    def test_clip_narrower_than_a_stamp(self, clip, mode, target,
                                        monkeypatch):
        """Right values and counts, from tables no wider than the clip:
        a sliver's clipped cohort does not tabulate whole stamps."""
        tables = []
        scatter = stamping._scatter_slab

        def spy(vol, contrib, *args):
            tables.append(contrib.shape[1:])
            scatter(vol, contrib, *args)

        monkeypatch.setattr(stamping, "_scatter_slab", spy)
        rng = np.random.default_rng(62)
        coords = np.vstack([edge_points(),
                            rng.uniform(0, GRID.shape, (40, 3))])
        w = rng.uniform(0.2, 3.0, len(coords))
        vol = (empty_volume(clip.shape) if target == "buffer"
               else strided(clip.shape))
        vol[...] = 0.0
        c = WorkCounter()
        stamp_batch(vol, GRID, get_kernel("epanechnikov"), coords, NORM, c,
                    mode=mode, clip=clip, weights=w,
                    vol_origin=(clip.x0, clip.y0, clip.t0))
        np.testing.assert_allclose(vol, brute_force(coords, w, clip),
                                   rtol=RTOL, atol=ATOL)
        assert_counts(c, clipped_counts(coords, mode, clip))
        assert 1 <= c.stamp_cohorts <= 2
        assert tables and np.all(np.array(tables) <= clip.shape)

    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_slabs_only_cut_the_clipped_cohort(self, mode):
        """One stamp per slab or all in one: the same ordered additions."""
        coords = edge_points()
        kern = get_kernel("quartic")
        vols = []
        for slab_cells in (1, stamping._SLAB_CELLS):
            vol = GRID.allocate()
            stamp_batch(vol, GRID, kern, coords, NORM, WorkCounter(),
                        mode=mode, slab_cells=slab_cells)
            vols.append(vol)
        np.testing.assert_array_equal(*vols)

    def test_windows_leaving_the_target_still_raise(self):
        """The bounds check reads the clipped windows, not the tables."""
        clip = VoxelWindow(0, 5, 0, 5, 0, 5)
        coords = edge_points()
        vol = np.zeros(clip.shape)
        stamp_batch(vol, GRID, get_kernel("epanechnikov"), coords, NORM,
                    WorkCounter(), clip=clip)  # tables hang off, windows fit
        with pytest.raises(ValueError, match="leave the target"):
            stamp_batch(np.zeros(clip.shape), GRID,
                        get_kernel("epanechnikov"), coords, NORM)


class TestPerGroupClips:
    CLIPS = [VoxelWindow(0, 12, 0, 10, 0, 9), None,
             VoxelWindow(11, 12, 2, 17, 3, 14), VoxelWindow(5, 23, 9, 19, 8, 17)]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_each_group_is_its_rows_alone(self, mode, weighted):
        """Every group of one plan: its clipped windows' counts, at most
        two cohorts, the brute-force density inside its window, and the
        very additions of stamping its rows alone with its clip."""
        rng = np.random.default_rng(63)
        coords = np.vstack([edge_points(),
                            rng.uniform(0, GRID.shape, (60, 3))])
        groups = rng.integers(0, len(self.CLIPS), len(coords))
        w = weights_for(coords, weighted)
        plan = StampPlan(GRID, coords, mode=mode, groups=groups,
                         clip=self.CLIPS)
        kern = get_kernel("epanechnikov")
        for g, clip in enumerate(self.CLIPS):
            rows = groups == g
            wg = None if w is None else w[rows]
            c = WorkCounter()
            vol = GRID.allocate()
            plan.stamp(vol, kern, NORM, c, group=g, weights=w)
            alone = GRID.allocate()
            stamp_batch(alone, GRID, kern, coords[rows], NORM, WorkCounter(),
                        mode=mode, clip=clip, weights=wg)
            np.testing.assert_array_equal(vol, alone)
            win = GRID.full_window() if clip is None else clip
            inside = (slice(win.x0, win.x1), slice(win.y0, win.y1),
                      slice(win.t0, win.t1))
            np.testing.assert_allclose(vol[inside],
                                       brute_force(coords[rows], wg, clip),
                                       rtol=RTOL, atol=ATOL)
            assert vol.sum() == pytest.approx(vol[inside].sum(), rel=0)
            assert_counts(c, clipped_counts(coords[rows], mode, clip))
            assert 1 <= c.stamp_cohorts <= 2


class TestUnclippedBatch:
    @staticmethod
    def one_cohort_route(coords, mode, weights, slab_cells):
        """What stamping a batch nothing clips has always done: full-shape
        tables in slabs of window-origin order, one slice-add per stamp."""
        X0, _, Y0, _, T0, _ = batch_windows(GRID, coords)
        order = np.argsort(GRID.flat_index(X0, Y0, T0), kind="stable")
        wx, wt = 2 * GRID.Hs + 1, 2 * GRID.Ht + 1
        step = max(1, slab_cells // (wx * wx * wt))
        vol = np.zeros(GRID.shape)
        for s in range(0, order.size, step):
            sel = order[s : s + step]
            span = np.arange(wx)
            dx = GRID.x_centers()[X0[sel, None] + span] - coords[sel, 0, None]
            dy = GRID.y_centers()[Y0[sel, None] + span] - coords[sel, 1, None]
            dt = (GRID.t_centers()[T0[sel, None] + np.arange(wt)]
                  - coords[sel, 2, None])
            tables = get_backend().cohort_tables(
                GRID, get_kernel("quartic"), mode, NORM, dx, dy, dt,
                WorkCounter())
            if weights is not None:
                tables *= weights[sel][:, None, None, None]
            for i, row in enumerate(sel):
                vol[X0[row] : X0[row] + wx, Y0[row] : Y0[row] + wx,
                    T0[row] : T0[row] + wt] += tables[i]
        return vol

    @pytest.mark.parametrize("slab_cells", [stamping._SLAB_CELLS, 400])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_bit_identical(self, mode, weighted, slab_cells):
        rng = np.random.default_rng(64)
        coords = rng.uniform(2.5, np.array(GRID.shape) - 2.5, (50, 3))
        w = weights_for(coords, weighted)
        c = WorkCounter()
        vol = GRID.allocate()
        stamp_batch(vol, GRID, get_kernel("quartic"), coords, NORM, c,
                    mode=mode, weights=w, slab_cells=slab_cells)
        assert c.stamp_cohorts == 1
        np.testing.assert_array_equal(
            vol, self.one_cohort_route(coords, mode, w, slab_cells))
