"""Equivalence tests for the batched stamping engine.

The engine (:mod:`repro.core.stamping`) replaces the per-point Python loop
with cohort-vectorised tabulation and scatter accumulation.  Its contract
is *algebraic identity* with the legacy path: same masks, same expression
order, contributions accumulated in a deterministic per-slab order — so
engine and loop volumes must agree to fp round-off (``rtol=1e-12``) for
every registered kernel, every cost-profile mode, and every window
geometry the parallel strategies produce (clipped, offset-buffer,
boundary-hugging, degenerate).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pb import stamp_point_pb
from repro.algorithms.pb_sym import stamp_points_sym_loop
from repro.algorithms.pb_variants import stamp_point_bar, stamp_point_disk
from repro.core import DomainSpec, GridSpec, PointSet, VoxelWindow, WorkCounter
from repro.core.backends import (
    DEFAULT_BACKEND,
    ComputeBackend,
    available_backends,
    get_backend,
)
from repro.core.grid import empty_volume
from repro.core.kernels import available_kernels, get_kernel
from repro.core.regions import RegionBuffer
import repro.core.stamping as stamping
from repro.core.stamping import STAMP_MODES, batch_windows, stamp_batch

from tests.helpers import CUSTOM_KERNEL, make_clustered_points, make_points

RTOL = 1e-12
ATOL = 1e-18

#: Per-point legacy stamps for each engine mode ("sym" is the batch loop).
LEGACY_POINT = {"pb": stamp_point_pb, "disk": stamp_point_disk, "bar": stamp_point_bar}


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(20, 18, 22), hs=2.9, ht=2.3)


def legacy_volume(grid, kernel, coords, mode, clip=None, vol_origin=(0, 0, 0)):
    """Reference volume via the historical per-point code paths."""
    vol = np.zeros(grid.shape)
    if mode == "sym":
        stamp_points_sym_loop(
            vol, grid, kernel, coords, 1.0, WorkCounter(),
            clip=clip, vol_origin=vol_origin,
        )
        return vol
    assert clip is None and vol_origin == (0, 0, 0)
    for x, y, t in coords:
        LEGACY_POINT[mode](vol, grid, kernel, x, y, t, 1.0, WorkCounter())
    return vol


def engine_volume(grid, kernel, coords, mode, clip=None, vol_origin=(0, 0, 0)):
    vol = np.zeros(grid.shape)
    stamp_batch(
        vol, grid, kernel, coords, 1.0, WorkCounter(),
        mode=mode, clip=clip, vol_origin=vol_origin,
    )
    return vol


def datasets(grid):
    """The four dataset regimes the ISSUE calls out."""
    d = grid.domain
    hi = np.array([d.gx, d.gy, d.gt])
    return {
        "uniform": make_points(grid, 50, seed=1).coords,
        "clustered": make_clustered_points(grid, 80, seed=2).coords,
        # Boundary-hugging: every point within one voxel of a face, so
        # nearly every stamp is clipped into a residual shape cohort.
        "boundary": np.concatenate([
            make_points(grid, 30, seed=3).coords * [1.0, 1.0, 0.02],
            hi - make_points(grid, 30, seed=4).coords * [0.02, 1.0, 1.0],
        ]),
        # Degenerate: all points in one voxel — a single maximal cohort
        # with total stamp overlap.
        "one-voxel": np.tile([[4.3, 5.1, 6.7]], (40, 1))
        + np.random.default_rng(5).uniform(0, 0.2, size=(40, 3)),
    }


class TestEngineMatchesLegacy:
    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_all_kernels_all_modes_uniform(self, grid, kernel, mode):
        kern = get_kernel(kernel)
        coords = make_points(grid, 60, seed=0).coords
        np.testing.assert_allclose(
            engine_volume(grid, kern, coords, mode),
            legacy_volume(grid, kern, coords, mode),
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("dataset", ["uniform", "clustered", "boundary", "one-voxel"])
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_sym_datasets(self, grid, kernel, dataset):
        kern = get_kernel(kernel)
        coords = datasets(grid)[dataset]
        np.testing.assert_allclose(
            engine_volume(grid, kern, coords, "sym"),
            legacy_volume(grid, kern, coords, "sym"),
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("dataset", ["uniform", "clustered", "boundary", "one-voxel"])
    def test_sym_with_clip_window(self, grid, dataset):
        kern = get_kernel("epanechnikov")
        coords = datasets(grid)[dataset]
        clip = VoxelWindow(3, 14, 2, 13, 4, 18)
        np.testing.assert_allclose(
            engine_volume(grid, kern, coords, "sym", clip=clip),
            legacy_volume(grid, kern, coords, "sym", clip=clip),
            rtol=RTOL, atol=ATOL,
        )

    def test_sym_offset_buffer(self, grid):
        """The REP replica path: clipped stamp into a halo-sized buffer."""
        kern = get_kernel("quartic")
        coords = make_clustered_points(grid, 60, seed=6).coords
        halo = VoxelWindow(2, 15, 3, 16, 5, 19)
        a = np.zeros(halo.shape)
        b = np.zeros(halo.shape)
        origin = (halo.x0, halo.y0, halo.t0)
        stamp_batch(a, grid, kern, coords, 1.0, WorkCounter(),
                    mode="sym", clip=halo, vol_origin=origin)
        stamp_points_sym_loop(b, grid, kern, coords, 1.0, WorkCounter(),
                              clip=halo, vol_origin=origin)
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)

    def test_tiny_slabs_still_exact(self, grid):
        """Forcing many slabs per cohort must not change the density."""
        kern = get_kernel("epanechnikov")
        coords = make_clustered_points(grid, 70, seed=7).coords
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, kern, coords, 1.0, WorkCounter(),
                    mode="sym", slab_cells=64)
        np.testing.assert_allclose(
            vol, legacy_volume(grid, kern, coords, "sym"), rtol=RTOL, atol=ATOL
        )

    def test_bandwidth_larger_than_domain(self):
        grid = GridSpec(DomainSpec.from_voxels(7, 7, 7), hs=25.0, ht=25.0)
        kern = get_kernel("epanechnikov")
        coords = make_points(grid, 12, seed=8).coords
        for mode in STAMP_MODES:
            np.testing.assert_allclose(
                engine_volume(grid, kern, coords, mode),
                legacy_volume(grid, kern, coords, mode),
                rtol=RTOL, atol=ATOL, err_msg=f"mode={mode}",
            )


class TestEngineAccounting:
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_counters_match_legacy(self, grid, mode):
        kern = get_kernel("epanechnikov")
        coords = datasets(grid)["boundary"]
        ce, cl = WorkCounter(), WorkCounter()
        ve = np.zeros(grid.shape)
        stamp_batch(ve, grid, kern, coords, 1.0, ce, mode=mode)
        vl = np.zeros(grid.shape)
        if mode == "sym":
            stamp_points_sym_loop(vl, grid, kern, coords, 1.0, cl)
        else:
            for x, y, t in coords:
                LEGACY_POINT[mode](vl, grid, kern, x, y, t, 1.0, cl)
        assert ce.spatial_evals == cl.spatial_evals
        assert ce.temporal_evals == cl.temporal_evals
        assert ce.distance_tests == cl.distance_tests
        assert ce.madds == cl.madds

    def test_batch_and_cohort_stats(self, grid):
        kern = get_kernel("epanechnikov")
        c = WorkCounter()
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, kern, datasets(grid)["uniform"], 1.0, c)
        assert c.stamp_batches == 1
        assert c.stamp_cohorts >= 1
        c2 = WorkCounter()
        stamp_batch(vol, grid, kern, np.tile([[5.0, 5.0, 5.0]], (9, 1)), 1.0, c2)
        assert c2.stamp_cohorts == 1  # identical windows: one cohort

    def test_empty_and_all_clipped_batches(self, grid):
        kern = get_kernel("epanechnikov")
        c = WorkCounter()
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, kern, np.empty((0, 3)), 1.0, c)
        clip = VoxelWindow(0, 1, 0, 1, 0, 1)
        stamp_batch(vol, grid, kern, np.array([[18.0, 16.0, 20.0]]), 1.0, c,
                    mode="sym", clip=clip)
        assert not vol.any()
        assert c.stamp_batches == 0  # nothing live: no engine dispatch

    def test_rejects_unknown_mode(self, grid):
        with pytest.raises(ValueError, match="unknown stamp mode"):
            stamp_batch(np.zeros(grid.shape), grid, get_kernel("epanechnikov"),
                        np.zeros((1, 3)), 1.0, WorkCounter(), mode="nope")


class TestBatchWindows:
    def test_matches_point_window(self, grid):
        coords = make_points(grid, 40, seed=9).coords
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        for i, (x, y, t) in enumerate(coords):
            w = grid.point_window(x, y, t)
            assert (X0[i], X1[i], Y0[i], Y1[i], T0[i], T1[i]) == (
                w.x0, w.x1, w.y0, w.y1, w.t0, w.t1
            )

    def test_clip_matches_intersection(self, grid):
        coords = make_points(grid, 40, seed=10).coords
        clip = VoxelWindow(4, 12, 3, 11, 6, 15)
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords, clip)
        for i, (x, y, t) in enumerate(coords):
            w = grid.point_window(x, y, t).intersect(clip)
            assert (X0[i], X1[i]) == (w.x0, w.x1)
            assert (Y0[i], Y1[i]) == (w.y0, w.y1)
            assert (T0[i], T1[i]) == (w.t0, w.t1)


class TestWeightedStamping:
    """The engine's weighted mode: per-point kernel products scaled by
    ``w`` before the scatter, opening the volume backends to weighted
    :class:`~repro.core.grid.PointSet`\\ s."""

    def test_unit_weights_bit_identical(self, grid):
        coords = make_clustered_points(grid, 120, seed=20).coords
        kern = get_kernel("epanechnikov")
        plain = np.zeros(grid.shape)
        stamp_batch(plain, grid, kern, coords, 0.37)
        weighted = np.zeros(grid.shape)
        stamp_batch(weighted, grid, kern, coords, 0.37,
                    weights=np.ones(len(coords)))
        np.testing.assert_array_equal(weighted, plain)

    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_weighted_equals_weighted_sum_of_stamps(self, grid, mode):
        rng = np.random.default_rng(21)
        coords = make_points(grid, 30, seed=22).coords
        w = rng.uniform(0.1, 4.0, size=30)
        kern = get_kernel("epanechnikov")
        got = np.zeros(grid.shape)
        stamp_batch(got, grid, kern, coords, 1.0, mode=mode, weights=w)
        expect = np.zeros(grid.shape)
        for i in range(30):
            one = np.zeros(grid.shape)
            stamp_batch(one, grid, kern, coords[i : i + 1], 1.0, mode=mode)
            expect += w[i] * one
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-18)

    def test_weighted_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError, match="weights"):
            stamp_batch(np.zeros(grid.shape), grid,
                        get_kernel("epanechnikov"), np.zeros((3, 3)), 1.0,
                        weights=np.ones(2))


def clumps(centres, per, seed, spread=0.8):
    """``per`` points scattered within ``spread`` voxels of each centre."""
    rng = np.random.default_rng(seed)
    centres = np.atleast_2d(np.asarray(centres, dtype=np.float64))
    return np.concatenate([
        c + rng.uniform(-spread, spread, size=(per, 3)) for c in centres
    ])


def brute_force(grid, kernel, coords, norm):
    """O(voxels x points) kernel sum straight from the definition."""
    xc = grid.x_centers()[:, None, None]
    yc = grid.y_centers()[None, :, None]
    tc = grid.t_centers()[None, None, :]
    vol = np.zeros(grid.shape)
    for x, y, t in coords:
        dx, dy, dt = xc - x, yc - y, tc - t
        inside = (dx * dx + dy * dy < grid.hs ** 2) & (np.abs(dt) <= grid.ht)
        u = np.broadcast_to(dx / grid.hs, inside.shape)
        v = np.broadcast_to(dy / grid.hs, inside.shape)
        k = kernel.spatial(u, v) * kernel.temporal(dt / grid.ht)
        vol += np.where(inside, norm * k, 0.0)
    return vol


class TestCrowdedBinGemm:
    """The per-bin GEMM route of ``mode="sym"``: crowded space-time bins
    are reduced as ``bar.T @ disk`` instead of outer product + scatter."""

    @pytest.fixture
    def wide(self):
        # 8 x 8 x 16-voxel bins, 11 x 11 x 7 stamps: ten stamps crowd a bin.
        return GridSpec(DomainSpec.from_voxels(40, 36, 30), hs=4.6, ht=2.2)

    @pytest.fixture
    def routes(self, monkeypatch):
        """Points sent through each route: ``{"gemm": m, "cohort": m}``."""
        seen = {"gemm": 0, "cohort": 0}
        gemm = ComputeBackend.factor_tables
        default = type(get_backend())  # what a bare stamp_batch runs
        cohort = default.cohort_tables

        def spy_gemm(self, grid, kernel, norm, dx, dy, dt, counter):
            seen["gemm"] += dx.shape[0]
            return gemm(self, grid, kernel, norm, dx, dy, dt, counter)

        def spy_cohort(self, grid, kernel, mode, norm, dx, dy, dt, counter):
            seen["cohort"] += dx.shape[0]
            return cohort(self, grid, kernel, mode, norm, dx, dy, dt, counter)

        monkeypatch.setattr(ComputeBackend, "factor_tables", spy_gemm)
        monkeypatch.setattr(default, "cohort_tables", spy_cohort)
        return seen

    @staticmethod
    def loop_volume(grid, kernel, coords, norm, weights=None, **kw):
        shape = kw.pop("shape", grid.shape)
        vol = np.zeros(shape)
        if weights is None:
            stamp_points_sym_loop(vol, grid, kernel, coords, norm,
                                  WorkCounter(), **kw)
        else:
            for row, w in zip(coords, weights):
                stamp_points_sym_loop(vol, grid, kernel, row[None, :],
                                      norm * w, WorkCounter(), **kw)
        return vol

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kname", list(available_kernels()) + ["custom"])
    def test_matches_loop_every_kernel(self, wide, routes, kname, weighted):
        kern = CUSTOM_KERNEL if kname == "custom" else get_kernel(kname)
        coords = clumps([[12.3, 15.1, 9.7], [27.9, 20.2, 21.4]], 40, seed=30)
        w = (np.random.default_rng(31).uniform(0.2, 3.0, len(coords))
             if weighted else None)
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, 0.37, WorkCounter(), weights=w)
        assert routes["gemm"] > 0
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, 0.37, w),
            rtol=RTOL, atol=ATOL,
        )

    def test_negative_norm_removes_what_was_added(self, wide, routes):
        """``IncrementalSTKDE.remove`` stamps the same rows at ``-norm``."""
        kern = get_kernel("epanechnikov")
        coords = clumps([20.5, 18.5, 12.5], 60, seed=32)
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, -1.0, WorkCounter())
        assert routes["gemm"] == len(coords)
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, -1.0),
            rtol=RTOL, atol=ATOL,
        )
        stamp_batch(vol, wide, kern, coords, 1.0, WorkCounter())
        assert np.abs(vol).max() == 0.0  # same tables, same order: exact

    def test_clip_window(self, wide, routes):
        """A clip cutting through the crowded bin's box on every axis."""
        kern = get_kernel("quartic")
        coords = clumps([[14.2, 13.6, 11.1], [22.8, 19.3, 16.9]], 50, seed=33)
        clip = VoxelWindow(11, 24, 9, 21, 10, 19)
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, 1.0, WorkCounter(), clip=clip)
        assert routes["gemm"] > 0
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, 1.0, clip=clip),
            rtol=RTOL, atol=ATOL,
        )
        outside = np.ones(wide.shape, dtype=bool)
        outside[clip.slices()] = False
        assert not vol[outside].any()

    def test_offset_buffer_smaller_than_grid(self, wide, routes):
        """``RegionBuffer.stamp``: ``vol`` is a window of the grid."""
        kern = get_kernel("epanechnikov")
        coords = clumps([[16.4, 14.9, 12.2], [21.1, 20.6, 17.3]], 50, seed=34)
        win = VoxelWindow(8, 30, 6, 29, 7, 24)
        origin = (win.x0, win.y0, win.t0)
        buf = np.zeros(win.shape)
        stamp_batch(buf, wide, kern, coords, 1.0, WorkCounter(),
                    clip=win, vol_origin=origin)
        assert routes["gemm"] > 0
        np.testing.assert_allclose(
            buf,
            self.loop_volume(wide, kern, coords, 1.0, shape=win.shape,
                             clip=win, vol_origin=origin),
            rtol=RTOL, atol=ATOL,
        )

    def test_bins_on_every_face_edge_and_corner(self, wide, routes):
        kern = get_kernel("epanechnikov")
        d = wide.domain
        ends = [(0.9, mid, g - 0.9)
                for mid, g in zip((20.5, 18.5, 12.5), (d.gx, d.gy, d.gt))]
        centres = [[x, y, t] for x in ends[0] for y in ends[1] for t in ends[2]]
        # Corner stamps are clipped to an eighth: more points to crowd a bin.
        coords = np.clip(
            clumps(centres, 80, seed=35), 0.0,
            np.array([d.gx, d.gy, d.gt]) * (1 - 1e-9),
        )
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, 1.0, WorkCounter())
        assert routes["gemm"] == len(coords)  # all 27 clumps crowd their bins
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, 1.0),
            rtol=RTOL, atol=ATOL,
        )

    def test_mixed_batch_stamps_each_point_once(self, wide, routes):
        kern = get_kernel("epanechnikov")
        crowd = clumps([[12.3, 15.1, 9.7], [28.6, 21.0, 20.5]], 45, seed=36)
        loose = make_points(wide, 30, seed=37).coords
        rng = np.random.default_rng(38)
        coords = rng.permutation(np.concatenate([crowd, loose]))
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, 1.0, WorkCounter())
        assert routes["gemm"] >= len(crowd)
        assert routes["cohort"] > 0
        assert routes["gemm"] + routes["cohort"] == len(coords)
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, 1.0),
            rtol=RTOL, atol=ATOL,
        )

    def test_no_crowded_bin_takes_the_cohort_route_only(self, wide, routes):
        coords = make_points(wide, 60, seed=39).coords
        stamp_batch(np.zeros(wide.shape), wide, get_kernel("epanechnikov"),
                    coords, 1.0, WorkCounter())
        assert routes == {"gemm": 0, "cohort": len(coords)}

    @pytest.mark.parametrize("mode", ["pb", "disk", "bar"])
    def test_per_voxel_modes_never_take_it(self, wide, routes, mode):
        coords = clumps([20.5, 18.5, 12.5], 60, seed=40)
        stamp_batch(np.zeros(wide.shape), wide, get_kernel("epanechnikov"),
                    coords, 1.0, WorkCounter(), mode=mode)
        assert routes["gemm"] == 0

    def test_counters_match_loop_and_backends(self, wide):
        """Logical charges are the clipped-window sums whatever the route."""
        kern = get_kernel("epanechnikov")
        crowd = clumps([[1.2, 15.1, 9.7], [28.6, 34.8, 28.9]], 45, seed=41)
        coords = np.concatenate([crowd, make_points(wide, 30, seed=42).coords])
        loop = WorkCounter()
        stamp_points_sym_loop(np.zeros(wide.shape), wide, kern, coords, 1.0, loop)
        per_backend = {}
        for name in available_backends():
            c = WorkCounter()
            stamp_batch(np.zeros(wide.shape), wide, kern, coords, 1.0, c,
                        compute=name)
            for key in ("madds", "spatial_evals", "temporal_evals",
                        "distance_tests"):
                assert getattr(c, key) == getattr(loop, key), (name, key)
            assert c.stamp_batches == 1
            assert set(c.backend_dispatches) == {name}
            per_backend[name] = (c.stamp_cohorts,
                                 sum(c.backend_dispatches.values()))
        assert len(set(per_backend.values())) == 1

    def test_large_bin_is_chunked(self, wide, routes, monkeypatch):
        """More points than one table chunk holds: several GEMMs, one sum."""
        import repro.core.stamping as stamping

        monkeypatch.setattr(stamping, "_GEMM_CELLS", 1 << 11)
        kern = get_kernel("epanechnikov")
        coords = clumps([20.5, 18.5, 12.5], 70, seed=43)
        c = WorkCounter()
        vol = np.zeros(wide.shape)
        stamp_batch(vol, wide, kern, coords, 1.0, c)
        assert routes["gemm"] == len(coords)
        assert c.stamp_cohorts > 5
        assert c.stamp_cohorts == sum(c.backend_dispatches.values())
        np.testing.assert_allclose(
            vol, self.loop_volume(wide, kern, coords, 1.0),
            rtol=RTOL, atol=ATOL,
        )

    def test_a_lone_wide_stamp_is_a_crowded_bin(self, routes):
        """The crowd floor from above: one interior hs=12, ht=4 stamp
        (25 x 25 x 9 = 5 625 cells, ``volume_dense``'s) is a bin of its
        own, one factor-table dispatch and no cohort table."""
        grid = GridSpec(DomainSpec.from_voxels(64, 64, 32), hs=12.0, ht=4.0)
        assert (2 * grid.Hs + 1) ** 2 * (2 * grid.Ht + 1) == 5625
        kern = get_kernel("epanechnikov")
        coords = np.array([[31.3, 30.6, 15.2]])
        c = WorkCounter()
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, kern, coords, 1.0, c)
        assert routes == {"gemm": 1, "cohort": 0}
        assert c.stamp_cohorts == 1
        assert c.backend_dispatches == {DEFAULT_BACKEND: 1}
        np.testing.assert_allclose(vol, brute_force(grid, kern, coords, 1.0),
                                   rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("seed", [4101, 9801, 123])
    def test_sparse_clusters_crowd_no_bin(self, routes, monkeypatch, seed):
        """The crowd floor from below: ``volume_sparse``'s shape (hs=2,
        ht=1, 384 x 384 x 96, 20 000 events in eight clusters) crowds no
        bin, and its stamps stay two cohorts; a floor of 2**11 would
        crowd its densest bins."""
        grid = GridSpec(DomainSpec.from_voxels(384, 384, 96), hs=2.0, ht=1.0)
        centres = np.array([
            [0.25, 0.30, 0.20], [0.70, 0.25, 0.35], [0.45, 0.55, 0.50],
            [0.30, 0.75, 0.65], [0.75, 0.70, 0.80], [0.55, 0.35, 0.70],
            [0.20, 0.50, 0.40], [0.65, 0.50, 0.25],
        ])
        extent = np.array(grid.shape, dtype=float)
        rng = np.random.default_rng(seed)
        coords = (centres[np.arange(20000) % 8]
                  + rng.normal(0.0, 0.07, (20000, 3))) * extent
        coords = np.clip(coords, 0.01, extent - 0.01)
        c = WorkCounter()
        stamp_batch(np.zeros(grid.shape), grid, get_kernel("epanechnikov"),
                    coords, 1.0, c)
        assert routes["gemm"] == 0
        assert c.stamp_cohorts == 2
        monkeypatch.setattr(stamping, "_MIN_BIN_CELLS", 1 << 11)
        assert len(stamping.StampPlan(grid, coords)._gemm) > 0


def slice_add_scatter(vol, contrib, x0, y0, t0, vol_origin, window=None):
    """The legacy accumulation: one slice-add per stamp, in slab order —
    of a clipped slab's stamps, each table's part inside its window."""
    ox, oy, ot = vol_origin
    _, wx, wy, wt = contrib.shape
    if window is None:
        window = (x0, x0 + wx, y0, y0 + wy, t0, t0 + wt)
    X0, X1, Y0, Y1, T0, T1 = window
    for i in range(contrib.shape[0]):
        vol[
            X0[i] - ox : X1[i] - ox,
            Y0[i] - oy : Y1[i] - oy,
            T0[i] - ot : T1[i] - ot,
        ] += contrib[
            i,
            X0[i] - x0[i] : X1[i] - x0[i],
            Y0[i] - y0[i] : Y1[i] - y0[i],
            T0[i] - t0[i] : T1[i] - t0[i],
        ]


class TestDirectScatter:
    """The cohort route's scatter: one flat ``np.add.at`` per slab, pinned
    bit-for-bit against per-stamp slice-adds over the same tables."""

    #: Every WorkCounter field the engine writes, as the slice-add/bincount
    #: scatter left them on ``batch()`` (tabulation is not the scatter's).
    COUNTERS = {
        "sym": dict(madds=20909, spatial_evals=7123, temporal_evals=881,
                    distance_tests=8004),
        "pb": dict(madds=20909, spatial_evals=20909, temporal_evals=20909,
                   distance_tests=20909),
        "disk": dict(madds=20909, spatial_evals=7123, temporal_evals=20909,
                     distance_tests=28032),
        "bar": dict(madds=20909, spatial_evals=20909, temporal_evals=881,
                    distance_tests=21790),
    }

    @pytest.fixture
    def narrow(self):
        # 5 x 5 x 3 stamps; no bin of these batches is crowded.
        return GridSpec(DomainSpec.from_voxels(48, 40, 24), hs=2.0, ht=1.0)

    @staticmethod
    def batch():
        """300 uniform points, boundary stamps (residual cohorts) included."""
        return np.random.default_rng(50).uniform(0, [48, 40, 24], (300, 3))

    @staticmethod
    def both(monkeypatch, shape, *args, **kw):
        """``(engine, reference)``: same tables, flat add into a volume-
        layout target vs slice-adds into a C-order one."""
        got = empty_volume(shape)
        got.fill(0.0)
        stamp_batch(got, *args, **kw)
        with monkeypatch.context() as m:
            m.setattr(stamping, "_scatter_slab", slice_add_scatter)
            ref = np.zeros(shape)
            stamp_batch(ref, *args, **kw)
        assert ref.any()
        return got, ref

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kname", list(available_kernels()) + ["custom"])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_bit_identical_to_slice_adds(self, narrow, monkeypatch, mode,
                                         kname, weighted):
        kern = CUSTOM_KERNEL if kname == "custom" else get_kernel(kname)
        coords = self.batch()
        w = (np.random.default_rng(51).uniform(0.2, 3.0, len(coords))
             if weighted else None)
        got, ref = self.both(monkeypatch, narrow.shape, narrow, kern, coords,
                             0.37, WorkCounter(), mode=mode, weights=w)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_retirement_clip_and_offset_buffer(self, narrow, monkeypatch, mode):
        """``RegionBuffer.stamp`` at ``norm=-1``: a window of the grid."""
        win = VoxelWindow(5, 31, 4, 29, 3, 17)
        got, ref = self.both(
            monkeypatch, win.shape, narrow, get_kernel("epanechnikov"),
            self.batch(), -1.0, WorkCounter(), mode=mode, clip=win,
            vol_origin=(win.x0, win.y0, win.t0),
        )
        np.testing.assert_array_equal(got, ref)
        assert got.min() < 0.0 and got.max() <= 0.0

    def test_coincident_points_all_accumulate(self, narrow, monkeypatch):
        """Duplicated flat indices: a buffered ``flat[idx] += c`` keeps one."""
        kern = get_kernel("epanechnikov")
        coords = np.tile([[20.3, 17.6, 11.4]], (100, 1))
        got, ref = self.both(monkeypatch, narrow.shape, narrow, kern, coords,
                             1.0, WorkCounter())
        np.testing.assert_array_equal(got, ref)
        one = np.zeros(narrow.shape)
        stamp_batch(one, narrow, kern, coords[:1], 1.0, WorkCounter())
        np.testing.assert_allclose(got, 100.0 * one, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("slab_cells", [stamping._SLAB_CELLS, 700])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_one_sort_keeps_the_per_cohort_order(self, narrow, monkeypatch,
                                                 mode, slab_cells):
        """The single stable sort hands the slabs their stamps in cohort
        order: the clipped cohort, then the full-shape one, each by
        clipped window origin (t, then x, then y), ties in input order —
        here 30 coincident points, told apart by their weights."""
        rng = np.random.default_rng(53)
        spot = [20.3, 17.6, 11.4]
        coords = np.vstack([self.batch(), np.tile([spot], (30, 1))])
        shuffle = rng.permutation(len(coords))
        coords = coords[shuffle]
        w = rng.uniform(0.2, 3.0, len(coords))
        win = VoxelWindow(1, 45, 0, 37, 2, 22)
        slabs = []
        scatter = stamping._scatter_slab

        def spy(vol, contrib, x0, y0, t0, vol_origin, window=None):
            lo = (x0, y0, t0) if window is None else window[0::2]
            slabs.append((np.stack(lo, axis=1), contrib.sum(axis=(1, 2, 3))))
            scatter(vol, contrib, x0, y0, t0, vol_origin, window)

        monkeypatch.setattr(stamping, "_scatter_slab", spy)
        stamp_batch(RegionBuffer(win).data, narrow, get_kernel("quartic"),
                    coords, 1.0, WorkCounter(), mode=mode, clip=win,
                    vol_origin=(win.x0, win.y0, win.t0), weights=w,
                    slab_cells=slab_cells)

        X0, X1, Y0, Y1, T0, T1 = batch_windows(narrow, coords, win)
        wx, wy, wt = X1 - X0, Y1 - Y0, T1 - T0
        live = np.flatnonzero((wx > 0) & (wy > 0) & (wt > 0))
        full = ((wx == 2 * narrow.Hs + 1) & (wy == 2 * narrow.Hs + 1)
                & (wt == 2 * narrow.Ht + 1))[live]
        order = []
        for idx in (live[~full], live[full]):
            assert idx.size
            order.extend(idx[np.lexsort((Y0[idx], X0[idx], T0[idx]))])
        order = np.array(order)
        assert (len(slabs) > 2) if slab_cells == 700 else (len(slabs) == 2)

        origins = np.concatenate([o for o, _ in slabs])
        sums = np.concatenate([s for _, s in slabs])
        np.testing.assert_array_equal(
            origins, np.stack([X0, Y0, T0], axis=1)[order])
        tie = np.flatnonzero(shuffle[order] >= len(self.batch()))
        assert tie.size == 30 and np.all(np.diff(order[tie]) > 0)
        np.testing.assert_allclose(sums[tie] / sums[tie[0]],
                                   w[order[tie]] / w[order[tie[0]]],
                                   rtol=RTOL)

    @pytest.mark.parametrize("m", [185, 200])
    def test_scattered_stamps_either_side_of_the_old_fork(self, monkeypatch, m):
        """Box cover just below and just above 1/8 — where the parent chose
        between per-stamp adds and a ``bincount`` over the bounding box."""
        grid = GridSpec(DomainSpec.from_voxels(64, 64, 32), hs=2.0, ht=1.0)
        kern = get_kernel("epanechnikov")
        rng = np.random.default_rng(52)
        coords = rng.uniform([3, 3, 2], [61, 61, 30], (m, 3))  # all interior
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        box = ((X1.max() - X0.min()) * (Y1.max() - Y0.min())
               * (T1.max() - T0.min()))
        cover = m * 75 / box
        assert (0.115 < cover < 0.125) if m == 185 else (0.125 < cover < 0.135)
        c = WorkCounter()
        got, ref = self.both(monkeypatch, grid.shape, grid, kern, coords,
                             0.5, c)
        assert c.stamp_cohorts == 2  # one full-shape cohort in each run
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_allclose(got, brute_force(grid, kern, coords, 0.5),
                                   rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_one_stamp_slabs_are_bit_identical(self, narrow, mode):
        """Slabs only cut an ordered sequence of additions."""
        kern = get_kernel("quartic")
        vols = []
        for slab_cells in (1, stamping._SLAB_CELLS):
            vol = np.zeros(narrow.shape)
            stamp_batch(vol, narrow, kern, self.batch(), 1.0, WorkCounter(),
                        mode=mode, slab_cells=slab_cells)
            vols.append(vol)
        np.testing.assert_array_equal(*vols)

    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_counters_untouched(self, narrow, mode):
        c = WorkCounter()
        stamp_batch(np.zeros(narrow.shape), narrow, get_kernel("epanechnikov"),
                    self.batch(), 1.0, c, mode=mode)
        for key, value in self.COUNTERS[mode].items():
            assert getattr(c, key) == value, key
        assert c.stamp_batches == 1
        assert c.stamp_cohorts == 2  # the full-shape and the clipped cohort
        assert c.backend_dispatches == {DEFAULT_BACKEND: 2}

    @pytest.mark.parametrize("kname", list(available_kernels()) + ["custom"])
    def test_matches_brute_force(self, narrow, kname):
        kern = CUSTOM_KERNEL if kname == "custom" else get_kernel(kname)
        coords = self.batch()
        norm = narrow.normalization(len(coords))
        vol = np.zeros(narrow.shape)
        stamp_batch(vol, narrow, kern, coords, norm, WorkCounter())
        np.testing.assert_allclose(vol, brute_force(narrow, kern, coords, norm),
                                   rtol=RTOL, atol=ATOL)

    @staticmethod
    def slice_add_calls(monkeypatch):
        """Count the per-stamp fallback's calls (it still runs)."""
        calls = []
        fallback = stamping._slice_adds

        def spy(*args):
            calls.append(1)
            fallback(*args)

        monkeypatch.setattr(stamping, "_slice_adds", spy)
        return calls

    @pytest.mark.parametrize(
        "layout", ["allocate", "region_buffer", "t_slab", "c_order", "fortran"]
    )
    def test_block_targets_take_the_flat_add(self, narrow, monkeypatch, layout):
        """Every target whose elements fill one block of memory — the
        volume layout's volumes and buffers, a t-slab of one, a C- or
        Fortran-order array — is added through its flat view, never the
        per-stamp fallback, and to the same bits."""
        kern = get_kernel("epanechnikov")
        coords = self.batch()
        # The t-slab: stamps clipped to t in [5, 17) of an allocated volume.
        t_slab = layout == "t_slab"
        clip = VoxelWindow(0, narrow.Gx, 0, narrow.Gy, 5, 17) if t_slab else None
        ref = np.zeros(narrow.shape)
        stamp_batch(ref, narrow, kern, coords, 1.0, WorkCounter(), clip=clip)
        calls = self.slice_add_calls(monkeypatch)
        backing = {
            "allocate": narrow.allocate,
            "region_buffer": lambda: RegionBuffer(narrow.full_window()).data,
            "t_slab": narrow.allocate,
            "c_order": lambda: np.zeros(narrow.shape),
            "fortran": lambda: np.zeros(narrow.shape, order="F"),
        }[layout]()
        target = backing[:, :, 5:17] if t_slab else backing
        stamp_batch(target, narrow, kern, coords, 1.0, WorkCounter(), clip=clip,
                    vol_origin=(0, 0, 5) if t_slab else (0, 0, 0))
        assert calls == []
        np.testing.assert_array_equal(backing, ref)

    @pytest.mark.parametrize("layout", ["every_other_t", "reversed_x"])
    def test_strided_target_takes_slice_adds(self, narrow, monkeypatch, layout):
        """The flat view of a strided (or negatively strided) target is a
        copy: the flat adds would be lost, so the per-stamp fallback must
        carry them."""
        kern = get_kernel("epanechnikov")
        coords = self.batch()
        flat = np.zeros(narrow.shape)
        stamp_batch(flat, narrow, kern, coords, 1.0, WorkCounter())
        calls = self.slice_add_calls(monkeypatch)
        if layout == "every_other_t":
            backing = np.zeros((narrow.Gx, narrow.Gy, 2 * narrow.Gt))
            target = backing[:, :, ::2]
        else:
            backing = narrow.allocate()
            target = backing[::-1]  # negative x stride
        stamp_batch(target, narrow, kern, coords, 1.0, WorkCounter())
        assert calls
        np.testing.assert_array_equal(target, flat)
        if layout == "every_other_t":
            assert not backing[:, :, 1::2].any()

    @pytest.mark.parametrize("origin", [(6, 0, 0), (0, 0, 4), (0, 0, 0)])
    def test_window_outside_target_raises(self, narrow, origin):
        """A flat index that leaves the target would wrap silently."""
        buf = np.zeros((narrow.Gx - 6, narrow.Gy, narrow.Gt - 4))
        with pytest.raises(ValueError, match="leave the target"):
            stamp_batch(buf, narrow, get_kernel("epanechnikov"), self.batch(),
                        1.0, WorkCounter(), vol_origin=origin)


@st.composite
def clustered_case(draw):
    grid = GridSpec(
        DomainSpec.from_voxels(
            draw(st.integers(6, 40)), draw(st.integers(6, 40)),
            draw(st.integers(6, 30)),
        ),
        # Half the cases narrow (Hs in {1, 2}, Ht = 1: stamps of 27-75
        # cells that no bin can crowd), half up to the GEMM route's sizes.
        hs=draw(st.one_of(st.floats(0.3, 2.0), st.floats(0.6, 9.0))),
        ht=draw(st.one_of(st.floats(0.3, 1.0), st.floats(0.6, 5.0))),
    )
    span = np.array([grid.Gx, grid.Gy, grid.Gt], dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 3))
    per = draw(st.integers(1, 60))
    sigma = draw(st.floats(0.0, 3.0))
    centres = rng.uniform(0.0, span, size=(k, 3))
    coords = np.repeat(centres, per, axis=0) + rng.normal(0, sigma, (k * per, 3))
    return grid, np.clip(coords, 0.0, span * (1 - 1e-9))


@given(case=clustered_case())
@settings(max_examples=60, deadline=None)
def test_property_sym_engine_matches_brute_force(case):
    """Whatever mix of crowded and loose bins the batch makes, the engine
    returns the kernel sum of the definition."""
    grid, coords = case
    kern = get_kernel("epanechnikov")
    norm = grid.normalization(len(coords))
    vol = np.zeros(grid.shape)
    stamp_batch(vol, grid, kern, coords, norm, WorkCounter())
    expect = brute_force(grid, kern, coords, norm)
    np.testing.assert_allclose(vol, expect, rtol=1e-9,
                               atol=1e-12 * expect.max())
