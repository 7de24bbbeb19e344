"""Tests for the unified region-accumulation engine.

The region engine (:mod:`repro.core.regions`) owns every bounded write
into a density volume: the VB/VB-DEC voxel tiles, the bbox shard buffers
of the threaded stamping path, and the incremental estimator's batch
caches.  Its contract is the same as the stamping engine's: algebraic
identity with the retained legacy paths, pinned at ``rtol=1e-12``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pb_sym import pb_sym
from repro.algorithms.vb import accumulate_tile_legacy, vb, vb_dec
from repro.core import DomainSpec, GridSpec, PointSet, VoxelWindow, WorkCounter
from repro.core.grid import flat_view
from repro.core.kernels import available_kernels, get_kernel
from repro.core.regions import (
    RegionBuffer,
    accumulate_voxel_tile,
    auto_slab_voxels,
    batch_bbox,
    plan_stamp_shards,
    plan_time_slabs,
)
from repro.core.stamping import batch_windows, stamp_batch

from tests.helpers import make_clustered_points, make_points

RTOL = 1e-12
ATOL = 1e-18


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(20, 18, 22), hs=2.9, ht=2.3)


def legacy_vb_volume(grid, kernel, points, voxel_chunk=2048, point_block=512):
    """Reference VB density via the retained legacy tile loop."""
    vol = grid.allocate()
    flat = flat_view(vol)
    norm = grid.normalization(points.n)
    px, py, pt = points.xs, points.ys, points.ts
    for start in range(0, flat.size, voxel_chunk):
        idx = np.arange(start, min(start + voxel_chunk, flat.size))
        X, Y, T = grid.voxels_at(idx)
        cx = grid.domain.x0 + (X + 0.5) * grid.domain.sres
        cy = grid.domain.y0 + (Y + 0.5) * grid.domain.sres
        ct = grid.domain.t0 + (T + 0.5) * grid.domain.tres
        for pstart in range(0, points.n, point_block):
            sl = slice(pstart, min(pstart + point_block, points.n))
            accumulate_tile_legacy(
                flat, idx, cx, cy, ct, px[sl], py[sl], pt[sl],
                grid, kernel, norm, WorkCounter(),
            )
    return vol


class TestVoxelTileViaEngine:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_vb_matches_legacy_tile_loop(self, grid, kernel):
        kern = get_kernel(kernel)
        pts = make_points(grid, 40, seed=0)
        res = vb(pts, grid, kernel=kernel)
        np.testing.assert_allclose(
            res.data, legacy_vb_volume(grid, kern, pts), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_vb_dec_matches_legacy_tile_loop(self, grid, kernel):
        """VB-DEC == VB == the legacy tile loop (same density, fewer tests)."""
        kern = get_kernel(kernel)
        pts = make_clustered_points(grid, 60, seed=1)
        res = vb_dec(pts, grid, kernel=kernel)
        np.testing.assert_allclose(
            res.data, legacy_vb_volume(grid, kern, pts), rtol=RTOL, atol=ATOL
        )

    def test_tile_matches_legacy_bit_for_bit(self, grid):
        """One engine tile on the reference backend — the one VB and
        VB-DEC name — reproduces the legacy tile exactly (same exprs)."""
        kern = get_kernel("quartic")
        pts = make_clustered_points(grid, 50, seed=2)
        idx = np.arange(300, 1500)
        X, Y, T = np.unravel_index(idx, grid.shape)
        cx = grid.domain.x0 + (X + 0.5) * grid.domain.sres
        cy = grid.domain.y0 + (Y + 0.5) * grid.domain.sres
        ct = grid.domain.t0 + (T + 0.5) * grid.domain.tres
        a = np.zeros(grid.n_voxels)
        b = np.zeros(grid.n_voxels)
        ca, cb = WorkCounter(), WorkCounter()
        accumulate_voxel_tile(
            a, idx, cx, cy, ct, pts.xs, pts.ys, pts.ts, grid, kern, 0.37, ca,
            compute="numpy-ref",
        )
        accumulate_tile_legacy(
            b, idx, cx, cy, ct, pts.xs, pts.ys, pts.ts, grid, kern, 0.37, cb
        )
        assert np.array_equal(a, b)

    def test_tile_counters_match_legacy_plus_tile_batch(self, grid):
        kern = get_kernel("epanechnikov")
        pts = make_points(grid, 30, seed=3)
        idx = np.arange(0, 800)
        X, Y, T = np.unravel_index(idx, grid.shape)
        cx = grid.domain.x0 + (X + 0.5) * grid.domain.sres
        cy = grid.domain.y0 + (Y + 0.5) * grid.domain.sres
        ct = grid.domain.t0 + (T + 0.5) * grid.domain.tres
        ca, cb = WorkCounter(), WorkCounter()
        accumulate_voxel_tile(
            np.zeros(grid.n_voxels), idx, cx, cy, ct,
            pts.xs, pts.ys, pts.ts, grid, kern, 1.0, ca,
        )
        accumulate_tile_legacy(
            np.zeros(grid.n_voxels), idx, cx, cy, ct,
            pts.xs, pts.ys, pts.ts, grid, kern, 1.0, cb,
        )
        assert ca.spatial_evals == cb.spatial_evals
        assert ca.temporal_evals == cb.temporal_evals
        assert ca.distance_tests == cb.distance_tests
        assert ca.madds == cb.madds
        assert ca.tile_batches == 1
        assert cb.tile_batches == 0  # the legacy loop predates the counter

    def test_vb_counts_tile_batches(self, grid):
        pts = make_points(grid, 20, seed=4)
        res = vb(pts, grid, voxel_chunk=512, point_block=8)
        expected = -(-grid.n_voxels // 512) * -(-pts.n // 8)
        assert res.counter.tile_batches == expected
        assert vb_dec(pts, grid).counter.tile_batches >= 1


class TestBatchBbox:
    def test_contains_every_stamp_window(self, grid):
        coords = make_clustered_points(grid, 60, seed=5).coords
        bbox = batch_bbox(grid, coords)
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        assert bbox.x0 == X0.min() and bbox.x1 == X1.max()
        assert bbox.y0 == Y0.min() and bbox.y1 == Y1.max()
        assert bbox.t0 == T0.min() and bbox.t1 == T1.max()

    def test_empty_inputs(self, grid):
        assert batch_bbox(grid, np.empty((0, 3))) is None
        # Every stamp clipped away -> no bbox.
        clip = VoxelWindow(0, 1, 0, 1, 0, 1)
        far = np.array([[19.5, 17.5, 21.5]])
        assert batch_bbox(grid, far, clip=clip) is None

    def test_respects_clip(self, grid):
        coords = make_points(grid, 40, seed=6).coords
        clip = VoxelWindow(4, 11, 3, 12, 5, 17)
        bbox = batch_bbox(grid, coords, clip=clip)
        assert bbox.x0 >= clip.x0 and bbox.x1 <= clip.x1
        assert bbox.y0 >= clip.y0 and bbox.y1 <= clip.y1
        assert bbox.t0 >= clip.t0 and bbox.t1 <= clip.t1


class TestRegionBuffer:
    def test_stamp_matches_full_volume_region(self, grid):
        kern = get_kernel("epanechnikov")
        coords = make_clustered_points(grid, 50, seed=7).coords
        bbox = batch_bbox(grid, coords)
        buf = RegionBuffer(bbox)
        buf.stamp(grid, kern, coords, 1.0, WorkCounter())
        full = np.zeros(grid.shape)
        stamp_batch(full, grid, kern, coords, 1.0, WorkCounter())
        assert np.array_equal(buf.data, full[bbox.slices()])
        # The bbox really is a bounding box: no density outside it.
        mask = np.ones(grid.shape, dtype=bool)
        mask[bbox.slices()] = False
        assert not full[mask].any()

    def test_add_into(self, grid):
        buf = RegionBuffer(VoxelWindow(2, 6, 3, 7, 1, 4))
        buf.data[:] = 1.5
        vol = np.zeros(grid.shape)
        touched = buf.add_into(vol)
        assert touched == buf.cells
        assert vol.sum() == pytest.approx(1.5 * buf.cells)
        assert vol[2:6, 3:7, 1:4].min() == 1.5

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            RegionBuffer(VoxelWindow(3, 3, 0, 2, 0, 2))


class TestPlanStampShards:
    def test_partition_covers_live_points_once(self, grid):
        coords = make_clustered_points(grid, 120, seed=8).coords
        plan = plan_stamp_shards(grid, coords, 4)
        all_idx = np.concatenate(plan.shards)
        assert len(np.unique(all_idx)) == len(all_idx) == len(coords)

    def test_windows_contain_their_stamps(self, grid):
        coords = make_points(grid, 80, seed=9).coords
        plan = plan_stamp_shards(grid, coords, 3)
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        for sel, w in zip(plan.shards, plan.windows):
            assert X0[sel].min() >= w.x0 and X1[sel].max() <= w.x1
            assert Y0[sel].min() >= w.y0 and Y1[sel].max() <= w.y1
            assert T0[sel].min() >= w.t0 and T1[sel].max() <= w.t1

    def test_buffers_undercut_full_volumes(self, grid):
        """The memory claim: joint bbox buffers < P private volumes."""
        for maker, seed in ((make_clustered_points, 10), (make_points, 11)):
            coords = maker(grid, 200, seed=seed).coords
            plan = plan_stamp_shards(grid, coords, 4)
            assert plan.buffer_cells < plan.n_shards * grid.n_voxels
            assert plan.buffer_bytes == plan.buffer_cells * 8

    def test_clustered_buffers_much_smaller(self, grid):
        """On tight clusters the bbox win is large, not marginal."""
        rng = np.random.default_rng(12)
        coords = np.concatenate([
            rng.normal([4, 4, 4], 0.4, size=(60, 3)),
            rng.normal([15, 13, 17], 0.4, size=(60, 3)),
        ]).clip(0, [19.9, 17.9, 21.9])
        plan = plan_stamp_shards(grid, coords, 2)
        assert plan.buffer_cells < 0.5 * plan.n_shards * grid.n_voxels

    def test_fully_clipped_batch_gives_empty_plan(self, grid):
        clip = VoxelWindow(0, 1, 0, 1, 0, 1)
        plan = plan_stamp_shards(grid, np.array([[19.0, 17.0, 21.0]]), 2, clip)
        assert plan.n_shards == 0 and plan.buffer_cells == 0

    def test_empty_and_invalid(self, grid):
        assert plan_stamp_shards(grid, np.empty((0, 3)), 4).n_shards == 0
        with pytest.raises(ValueError):
            plan_stamp_shards(grid, np.zeros((1, 3)), 0)

    def test_uniform_cuts_near_balanced(self, grid):
        coords = make_points(grid, 200, seed=31).coords
        plan = plan_stamp_shards(grid, coords, 4)
        sizes = [len(s) for s in plan.shards]
        assert sum(sizes) == 200
        assert max(sizes) - min(sizes) <= 20

    def test_more_shards_than_points(self, grid):
        coords = make_points(grid, 3, seed=13).coords
        plan = plan_stamp_shards(grid, coords, 8)
        assert 1 <= plan.n_shards <= 3
        assert sum(len(s) for s in plan.shards) == 3


class TestThreadedBboxVsSequential:
    """The bbox-shard threads path must reproduce sequential PB-SYM."""

    @pytest.mark.parametrize("maker,seed", [
        (make_points, 14), (make_clustered_points, 15),
    ])
    def test_pb_sym_threads_matches_sequential(self, grid, maker, seed):
        pts = maker(grid, 150, seed=seed)
        serial = pb_sym(pts, grid)
        threaded = pb_sym(pts, grid, P=4, backend="threads")
        np.testing.assert_allclose(
            threaded.data, serial.data, rtol=RTOL, atol=ATOL
        )
        assert threaded.counter.shard_bbox_cells > 0
        assert threaded.counter.shard_bbox_cells < 4 * grid.n_voxels


class TestPlanTimeSlabs:
    """Retirement-slab planning: t-ordered, cell-balanced, partitioning."""

    def test_partitions_every_point_exactly_once(self, grid):
        rng = np.random.default_rng(40)
        coords = make_points(grid, 300, seed=40).coords
        slabs = plan_time_slabs(grid, coords, slab_voxels=4)
        all_idx = np.concatenate(slabs)
        assert len(slabs) > 1
        assert sorted(all_idx.tolist()) == list(range(300))

    def test_slabs_are_time_ordered(self, grid):
        coords = make_points(grid, 240, seed=41).coords
        slabs = plan_time_slabs(grid, coords, slab_voxels=4)
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        highs = [T0[idx].max() for idx in slabs]
        lows = [T0[idx].min() for idx in slabs]
        for k in range(len(slabs) - 1):
            assert highs[k] <= lows[k + 1]

    def test_balanced_on_stamp_cells(self, grid):
        coords = make_points(grid, 400, seed=42).coords
        slabs = plan_time_slabs(grid, coords, slab_voxels=4)
        X0, X1, Y0, Y1, T0, T1 = batch_windows(grid, coords)
        cells = (
            np.maximum(X1 - X0, 0)
            * np.maximum(Y1 - Y0, 0)
            * np.maximum(T1 - T0, 0)
        )
        loads = [cells[idx].sum() for idx in slabs]
        assert max(loads) <= 2.0 * (cells.sum() / len(slabs))

    def test_thin_batch_stays_single_slab(self, grid):
        rng = np.random.default_rng(43)
        coords = np.column_stack([
            rng.uniform(0, grid.domain.gx, 50),
            rng.uniform(0, grid.domain.gy, 50),
            rng.uniform(3.0, 4.0, 50),
        ])
        slabs = plan_time_slabs(grid, coords)
        assert len(slabs) == 1
        np.testing.assert_array_equal(slabs[0], np.arange(50))

    def test_max_slabs_cap_and_validation(self, grid):
        coords = make_points(grid, 100, seed=44).coords
        assert len(plan_time_slabs(grid, coords, 1, max_slabs=3)) <= 3
        with pytest.raises(ValueError, match="max_slabs"):
            plan_time_slabs(grid, coords, 4, max_slabs=0)
        with pytest.raises(ValueError, match="slab_voxels"):
            plan_time_slabs(grid, coords, 0)

    def test_empty_and_off_domain_batches(self, grid):
        assert plan_time_slabs(grid, np.empty((0, 3))) == []
        # Off-domain points clamp to edge voxels (like the engine) and
        # still land in exactly one slab each for retirement tracking.
        far = np.full((4, 3), 1e9)
        slabs = plan_time_slabs(grid, far, slab_voxels=2)
        assert sorted(np.concatenate(slabs).tolist()) == [0, 1, 2, 3]

    def test_auto_thickness_is_two_stamp_extents(self, grid):
        assert auto_slab_voxels(grid) == 2 * (2 * grid.Ht + 1)
