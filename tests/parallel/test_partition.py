"""Tests for block decompositions and point binning."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec, PointSet
from repro.parallel.partition import BlockDecomposition

from tests.helpers import make_clustered_points, make_points


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(40, 36, 50), hs=3.0, ht=2.0)


@pytest.fixture
def dec(grid):
    return BlockDecomposition(grid, 4, 3, 5)


class TestGeometry:
    def test_blocks_tile_grid_exactly(self, grid, dec):
        cover = np.zeros(grid.shape, dtype=int)
        for a, b, c in itertools.product(*map(range, dec.shape)):
            w = dec.block_window(a, b, c)
            cover[w.slices()] += 1
        assert (cover == 1).all()

    def test_block_sizes_differ_by_at_most_one(self, grid):
        dec = BlockDecomposition(grid, 7, 5, 9)
        for bounds, G, k in ((dec.xb, 40, 7), (dec.yb, 36, 5), (dec.tb, 50, 9)):
            sizes = np.diff(bounds)
            assert sizes.sum() == G
            assert sizes.max() - sizes.min() <= 1

    def test_linear_id_round_trip(self, dec):
        for a, b, c in itertools.product(*map(range, dec.shape)):
            assert dec.block_coords(dec.linear_id(a, b, c)) == (a, b, c)

    def test_halo_window_grows_by_bandwidth(self, grid, dec):
        w = dec.block_window(1, 1, 1)
        h = dec.halo_window(1, 1, 1)
        assert h.x0 == w.x0 - grid.Hs and h.x1 == w.x1 + grid.Hs
        assert h.t0 == w.t0 - grid.Ht and h.t1 == w.t1 + grid.Ht

    def test_halo_clipped_at_boundary(self, grid, dec):
        h = dec.halo_window(0, 0, 0)
        assert h.x0 == 0 and h.y0 == 0 and h.t0 == 0

    def test_rejects_more_blocks_than_voxels(self, grid):
        with pytest.raises(ValueError, match="more blocks"):
            BlockDecomposition(grid, 41, 1, 1)

    def test_rejects_nonpositive_counts(self, grid):
        with pytest.raises(ValueError):
            BlockDecomposition(grid, 0, 1, 1)


class TestOwnership:
    def test_every_point_owned_exactly_once(self, grid, dec):
        pts = make_points(grid, 500, seed=1)
        binning = dec.bin_points_owner(pts)
        assert binning.replicas == pts.n
        assert binning.counts().sum() == pts.n

    def test_owner_contains_point_voxel(self, grid, dec):
        pts = make_points(grid, 300, seed=2)
        owners = dec.owners(pts)
        for i, (x, y, t) in enumerate(pts):
            X, Y, T = grid.voxel_of(x, y, t)
            a, b, c = dec.block_coords(int(owners[i]))
            assert dec.block_window(a, b, c).contains_voxel(X, Y, T)

    def test_points_in_blocks_partition_indices(self, grid, dec):
        pts = make_points(grid, 400, seed=3)
        binning = dec.bin_points_owner(pts)
        seen = np.concatenate(
            [binning.points_in(k) for k in range(dec.n_blocks)]
        )
        assert sorted(seen) == list(range(pts.n))

    def test_occupied_blocks_nonempty(self, grid, dec):
        pts = make_clustered_points(grid, 200, seed=4)
        binning = dec.bin_points_owner(pts)
        for bid in binning.occupied():
            assert len(binning.points_in(int(bid))) > 0


class TestReplication:
    def test_replication_covers_window_blocks(self, grid, dec):
        pts = make_points(grid, 150, seed=5)
        binning = dec.bin_points_replicated(pts)
        for i, (x, y, t) in enumerate(pts):
            win = grid.point_window(x, y, t)
            expect = {
                dec.linear_id(a, b, c)
                for a, b, c in itertools.product(*map(range, dec.shape))
                if not dec.block_window(a, b, c).intersect(win).empty
            }
            got = {
                k
                for k in range(dec.n_blocks)
                if i in set(binning.points_in(k).tolist())
            }
            assert got == expect

    def test_replication_factor_at_least_one(self, grid, dec):
        pts = make_points(grid, 100, seed=6)
        binning = dec.bin_points_replicated(pts)
        assert binning.replication_factor(pts.n) >= 1.0

    def test_finer_decomposition_more_replication(self, grid):
        """Figure 9's driver: overdecomposition inflates replication."""
        pts = make_points(grid, 300, seed=7)
        coarse = BlockDecomposition(grid, 2, 2, 2).bin_points_replicated(pts)
        fine = BlockDecomposition(grid, 10, 9, 12).bin_points_replicated(pts)
        assert fine.replication_factor(pts.n) > coarse.replication_factor(pts.n)

    def test_single_block_no_replication(self, grid):
        pts = make_points(grid, 200, seed=8)
        dec1 = BlockDecomposition(grid, 1, 1, 1)
        binning = dec1.bin_points_replicated(pts)
        assert binning.replication_factor(pts.n) == 1.0

    def test_corner_point_clamps_to_corner_blocks(self, grid, dec):
        """A cylinder cut by the grid's low corner reaches block (0, 0, 0)
        and nothing below it."""
        pts = PointSet(np.array([[0.2, 0.2, 0.2]]))
        binning = dec.bin_points_replicated(pts)
        held = [k for k in range(dec.n_blocks) if len(binning.points_in(k))]
        assert held[0] == dec.linear_id(0, 0, 0)
        assert binning.replicas == len(held)


class TestPDConstraint:
    def test_adjustment_enforces_min_block(self, grid):
        dec = BlockDecomposition.adjusted_for_pd(grid, 64, 64, 64)
        for bounds, H in ((dec.xb, grid.Hs), (dec.yb, grid.Hs), (dec.tb, grid.Ht)):
            assert np.diff(bounds).min() >= 2 * H + 1

    def test_adjustment_keeps_valid_requests(self, grid):
        dec = BlockDecomposition.adjusted_for_pd(grid, 2, 2, 2)
        assert dec.shape == (2, 2, 2)

    def test_huge_bandwidth_collapses_to_single_block(self):
        grid = GridSpec(DomainSpec.from_voxels(20, 20, 20), hs=15.0, ht=15.0)
        dec = BlockDecomposition.adjusted_for_pd(grid, 8, 8, 8)
        assert dec.shape == (1, 1, 1)

    def test_same_parity_blocks_never_share_cylinder_voxels(self, grid):
        """The safety property of Figure 5, checked exhaustively."""
        dec = BlockDecomposition.adjusted_for_pd(grid, 64, 64, 64)
        pts = make_points(grid, 200, seed=9)
        binning = dec.bin_points_owner(pts)
        # For each pair of same-parity distinct blocks, point windows of
        # their members must be disjoint.
        windows = {}
        for k in binning.occupied():
            a, b, c = dec.block_coords(int(k))
            idx = binning.points_in(int(k))
            wins = [grid.point_window(*pts.coords[i]) for i in idx]
            windows[(a, b, c)] = wins
        keys = list(windows)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                same_parity = all((u % 2) == (v % 2) for u, v in zip(k1, k2))
                adjacent = all(abs(u - v) <= 1 for u, v in zip(k1, k2))
                if not same_parity or adjacent:
                    continue
                for w1 in windows[k1]:
                    for w2 in windows[k2]:
                        assert w1.intersect(w2).empty


@given(
    A=st.integers(1, 9),
    B=st.integers(1, 9),
    C=st.integers(1, 9),
    gx=st.integers(9, 50),
    gy=st.integers(9, 50),
    gt=st.integers(9, 50),
)
@settings(max_examples=80, deadline=None)
def test_property_blocks_always_tile(A, B, C, gx, gy, gt):
    grid = GridSpec(DomainSpec.from_voxels(gx, gy, gt), hs=2.0, ht=2.0)
    dec = BlockDecomposition(grid, A, B, C)
    total = 0
    for a, b, c in itertools.product(*map(range, dec.shape)):
        total += dec.block_window(a, b, c).volume
    assert total == grid.n_voxels


@given(
    n=st.integers(1, 60),
    A=st.integers(1, 6),
    seed=st.integers(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_property_owner_binning_is_partition(n, A, seed):
    grid = GridSpec(DomainSpec.from_voxels(30, 30, 30), hs=2.5, ht=2.5)
    dec = BlockDecomposition(grid, A, A, A)
    pts = make_points(grid, n, seed=seed)
    binning = dec.bin_points_owner(pts)
    assert binning.counts().sum() == n
    assert binning.replication_factor(n) == 1.0
