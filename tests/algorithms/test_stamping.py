"""Direct tests of the PB-SYM stamping primitives (clip / origin paths).

These are the primitives every parallel strategy builds on: DD passes a
clip window, REP additionally redirects writes into a halo-sized private
buffer via ``vol_origin``.  Their algebra — clipped pieces summing to the
whole — is what makes the parallel volumes exactly equal the sequential
one.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pb_sym import stamp_point_sym
from repro.core import DomainSpec, GridSpec, VoxelWindow, WorkCounter
from repro.core.kernels import get_kernel
from repro.core.stamping import stamp_batch

from tests.helpers import make_points

KERNEL = get_kernel("epanechnikov")


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(24, 22, 26), hs=3.1, ht=2.6)


def full_stamp(grid, coords):
    vol = np.zeros(grid.shape)
    stamp_batch(vol, grid, KERNEL, coords, 1.0, WorkCounter())
    return vol


class TestClipAlgebra:
    def test_clip_pieces_sum_to_whole(self, grid):
        """Stamping through a partition of clip windows reproduces the
        unclipped stamp exactly (the DD invariant)."""
        pts = make_points(grid, 40, seed=1)
        whole = full_stamp(grid, pts.coords)
        pieces = np.zeros(grid.shape)
        cuts = [0, 9, 15, 24]
        for lo, hi in zip(cuts, cuts[1:]):
            clip = VoxelWindow(lo, hi, 0, grid.Gy, 0, grid.Gt)
            stamp_batch(pieces, grid, KERNEL, pts.coords, 1.0,
                        WorkCounter(), clip=clip)
        np.testing.assert_allclose(pieces, whole, rtol=1e-13, atol=1e-18)

    def test_clip_outside_window_is_noop(self, grid):
        vol = np.zeros(grid.shape)
        clip = VoxelWindow(20, 24, 18, 22, 20, 26)
        coords = np.array([[2.0, 2.0, 2.0]])  # window nowhere near clip
        stamp_batch(vol, grid, KERNEL, coords, 1.0, WorkCounter(), clip=clip)
        assert not vol.any()

    def test_clip_never_writes_outside(self, grid):
        vol = np.zeros(grid.shape)
        clip = VoxelWindow(5, 12, 4, 11, 6, 14)
        pts = make_points(grid, 50, seed=2)
        stamp_batch(vol, grid, KERNEL, pts.coords, 1.0, WorkCounter(), clip=clip)
        mask = np.ones(grid.shape, dtype=bool)
        mask[clip.slices()] = False
        assert not vol[mask].any()
        assert vol[clip.slices()].any()


class TestOriginOffset:
    def test_buffer_stamp_matches_volume_region(self, grid):
        """Stamping into an offset buffer (REP's replica path) yields the
        same values as the corresponding region of a full-volume stamp."""
        pts = make_points(grid, 30, seed=3)
        whole = full_stamp(grid, pts.coords)
        halo = VoxelWindow(4, 15, 3, 14, 5, 18)
        buf = np.zeros(halo.shape)
        stamp_batch(
            buf, grid, KERNEL, pts.coords, 1.0, WorkCounter(),
            clip=halo, vol_origin=(halo.x0, halo.y0, halo.t0),
        )
        np.testing.assert_allclose(buf, whole[halo.slices()], rtol=1e-13, atol=1e-18)

    def test_single_point_scalar_api_matches_batch(self, grid):
        """Bit for bit on the oracle backend, whose tables are the scalar
        path's arithmetic.  The default backend evaluates Epanechnikov in
        clamp form; its agreement with the oracle is the backend parity
        suite's to pin (this point's bar ends one float inside ``ht``,
        where both forms cancel and neither is within rtol of the other)."""
        point = np.array([[10.3, 9.7, 12.1]])
        vol_a = np.zeros(grid.shape)
        stamp_point_sym(vol_a, grid, KERNEL, *point[0], 1.0, WorkCounter())
        vol_b = np.zeros(grid.shape)
        stamp_batch(vol_b, grid, KERNEL, point, 1.0, WorkCounter(),
                    mode="sym", compute="numpy-ref")
        np.testing.assert_array_equal(vol_a, vol_b)


class TestBatchSemantics:
    def test_empty_batch_is_noop(self, grid):
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, KERNEL, np.empty((0, 3)), 1.0, WorkCounter())
        assert not vol.any()

    def test_batch_equals_sequential_singles(self, grid):
        pts = make_points(grid, 25, seed=4)
        batch = full_stamp(grid, pts.coords)
        singles = np.zeros(grid.shape)
        for row in pts.coords:
            stamp_point_sym(singles, grid, KERNEL, *row, 1.0, WorkCounter())
        np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=1e-18)

    def test_counter_tracks_madds(self, grid):
        c = WorkCounter()
        coords = np.array([[12.0, 11.0, 13.0]])
        stamp_batch(np.zeros(grid.shape), grid, KERNEL, coords, 1.0, c)
        disk = (2 * grid.Hs + 1) ** 2
        bar = 2 * grid.Ht + 1
        assert c.madds == disk * bar
        assert c.spatial_evals == disk
        assert c.temporal_evals == bar


@given(
    ax=st.integers(1, 4),
    ay=st.integers(1, 4),
    at=st.integers(1, 4),
    n=st.integers(1, 30),
    seed=st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_property_any_grid_partition_preserves_sum(ax, ay, at, n, seed):
    """Clipping through any A x B x C partition reproduces the whole."""
    grid = GridSpec(DomainSpec.from_voxels(18, 18, 18), hs=2.4, ht=2.1)
    pts = make_points(grid, n, seed=seed)
    whole = full_stamp(grid, pts.coords)
    pieces = np.zeros(grid.shape)
    from repro.parallel.partition import BlockDecomposition

    dec = BlockDecomposition(grid, ax, ay, at)
    for a, b, c in itertools.product(range(ax), range(ay), range(at)):
        stamp_batch(
            pieces, grid, KERNEL, pts.coords, 1.0, WorkCounter(),
            clip=dec.block_window(a, b, c),
        )
    np.testing.assert_allclose(pieces, whole, rtol=1e-12, atol=1e-18)
