"""Tests for the domain/grid model (Table 1 conventions)."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec, PointSet, Volume, VoxelWindow
from repro.core.grid import empty_volume, flat_view, zeroed_volume, zeros_volume
from repro.core.instrument import PhaseTimer, WorkCounter
from repro.core.regions import RegionBuffer
from repro.parallel import pb_sym_pd_sched
from repro.parallel.executors import run_phases, zero_fill_phase


class TestDomainSpec:
    def test_grid_sizes_are_ceilings(self):
        d = DomainSpec(gx=10.0, gy=9.1, gt=5.0, sres=3.0, tres=2.0)
        assert (d.Gx, d.Gy, d.Gt) == (4, 4, 3)

    def test_exact_division_not_inflated(self):
        d = DomainSpec(gx=9.0, gy=9.0, gt=4.0, sres=3.0, tres=2.0)
        assert (d.Gx, d.Gy, d.Gt) == (3, 3, 2)

    def test_float_representation_robustness(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floats; ceil must still be 3.
        d = DomainSpec(gx=0.3, gy=0.3, gt=0.3, sres=0.1, tres=0.1)
        assert (d.Gx, d.Gy, d.Gt) == (3, 3, 3)

    def test_from_voxels_round_trip(self):
        d = DomainSpec.from_voxels(148, 194, 728, sres=50.0, tres=1.0)
        assert (d.Gx, d.Gy, d.Gt) == (148, 194, 728)

    @pytest.mark.parametrize("field", ["gx", "gy", "gt", "sres", "tres"])
    def test_nonpositive_rejected(self, field):
        kwargs = dict(gx=1.0, gy=1.0, gt=1.0, sres=0.5, tres=0.5)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            DomainSpec(**kwargs)

    def test_from_voxels_rejects_empty(self):
        with pytest.raises(ValueError):
            DomainSpec.from_voxels(0, 5, 5)


class TestGridSpec:
    def test_bandwidths_in_voxels(self, physical_grid):
        # hs=800, sres=250 -> Hs = ceil(3.2) = 4; ht=7, tres=3 -> Ht = 3.
        assert physical_grid.Hs == 4
        assert physical_grid.Ht == 3

    def test_shape_and_volume(self, small_grid):
        assert small_grid.shape == (16, 14, 20)
        assert small_grid.n_voxels == 16 * 14 * 20
        assert small_grid.grid_bytes == small_grid.n_voxels * 8

    def test_nonpositive_bandwidths_rejected(self, small_domain):
        with pytest.raises(ValueError):
            GridSpec(small_domain, hs=0, ht=1)
        with pytest.raises(ValueError):
            GridSpec(small_domain, hs=1, ht=-2)

    def test_centers_offset_by_half(self, physical_grid):
        d = physical_grid.domain
        xc = physical_grid.x_centers()
        assert xc[0] == pytest.approx(d.x0 + 0.5 * d.sres)
        assert xc[1] - xc[0] == pytest.approx(d.sres)
        tc = physical_grid.t_centers(2, 5)
        assert len(tc) == 3
        assert tc[0] == pytest.approx(d.t0 + 2.5 * d.tres)

    def test_voxel_of_interior_point(self, physical_grid):
        d = physical_grid.domain
        X, Y, T = physical_grid.voxel_of(d.x0 + 260.0, d.y0 + 1.0, d.t0 + 3.1)
        assert (X, Y, T) == (1, 0, 1)

    def test_voxel_of_clamps_far_boundary(self, physical_grid):
        d = physical_grid.domain
        X, Y, T = physical_grid.voxel_of(d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt)
        assert (X, Y, T) == (physical_grid.Gx - 1, physical_grid.Gy - 1, physical_grid.Gt - 1)

    def test_voxels_of_matches_scalar(self, physical_grid, rng):
        d = physical_grid.domain
        pts = rng.uniform(
            [d.x0, d.y0, d.t0],
            [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt],
            size=(200, 3),
        )
        vec = physical_grid.voxels_of(pts)
        for i in range(len(pts)):
            assert tuple(vec[i]) == physical_grid.voxel_of(*pts[i])

    def test_normalization(self, small_grid):
        n = 17
        assert small_grid.normalization(n) == pytest.approx(
            1.0 / (n * small_grid.hs**2 * small_grid.ht)
        )

    def test_normalization_requires_points(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.normalization(0)

    def test_allocate_zeroed(self, small_grid):
        vol = small_grid.allocate()
        assert vol.shape == small_grid.shape
        assert vol.dtype == np.float64
        assert not vol.any()
        # t-outermost memory, y contiguous: [x, y, t] -> (Gy, 1, Gx*Gy).
        gx, gy, _ = small_grid.shape
        assert vol.strides == (8 * gy, 8, 8 * gx * gy)


#: Grids with degenerate (size-1) axes, where strides are easiest to get
#: wrong, beside an ordinary one.
LAYOUT_SHAPES = [(16, 14, 20), (1, 1, 1), (5, 1, 7), (1, 9, 1), (3, 4, 1)]


class TestVolumeLayout:
    """One layout, t-outermost memory under ``[x, y, t]`` indexing, and a
    flat view that is never a copy."""

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES)
    def test_allocate_and_its_flat_view_share_memory(self, shape):
        grid = GridSpec(DomainSpec.from_voxels(*shape), hs=1.0, ht=1.0)
        for vol in (grid.allocate(), RegionBuffer(grid.full_window()).data,
                    empty_volume(shape), zeros_volume(shape)):
            flat = flat_view(vol)
            assert np.shares_memory(flat, vol)
            assert flat.shape == (vol.size,)

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES)
    def test_flat_index_addresses_the_flat_view(self, shape):
        """A write through the flat view at ``flat_index(X, Y, T)`` lands
        on ``vol[X, Y, T]``, and ``voxels_at`` inverts ``flat_index``."""
        grid = GridSpec(DomainSpec.from_voxels(*shape), hs=1.0, ht=1.0)
        vol = grid.allocate()
        X, Y, T = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
        X, Y, T = X.ravel(), Y.ravel(), T.ravel()
        idx = grid.flat_index(X, Y, T)
        flat_view(vol)[idx] = np.arange(vol.size, dtype=np.float64)
        np.testing.assert_array_equal(
            vol, np.arange(vol.size, dtype=np.float64).reshape(shape)
        )
        for got, want in zip(grid.voxels_at(idx), (X, Y, T)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.sort(idx), np.arange(vol.size))

    @pytest.mark.parametrize("make", [
        lambda g: np.zeros(g.shape),                # C order
        lambda g: g.allocate()[:, :, ::2],          # strided
        lambda g: g.allocate()[2:5],                # x-slab
    ], ids=["c_order", "strided", "x_slab"])
    def test_flat_view_refuses_what_would_be_a_copy(self, small_grid, make):
        with pytest.raises(ValueError, match="volume layout"):
            flat_view(make(small_grid))


def _zero_fill(shape):
    out, init = zero_fill_phase(shape, 3, WorkCounter())
    run_phases([init], 3, "serial", PhaseTimer())
    return out[0]


#: Every zeroing entry point; ``zeroed_volume`` is also PD-REP's halo buffer.
ZEROING = {
    "allocate": lambda shape: GridSpec(
        DomainSpec.from_voxels(*shape), hs=1.0, ht=1.0).allocate(),
    "region_buffer": lambda shape: RegionBuffer(
        VoxelWindow(0, shape[0], 0, shape[1], 0, shape[2])).data,
    "halo_buffer": zeroed_volume,
    "zero_fill_phase": _zero_fill,
}

#: 8 KiB (served from the heap), 5 MiB (above NumPy's 4 MiB hugepage hint,
#: below glibc's 32 MiB mmap ceiling) and 40 MiB (always freshly mapped).
ZERO_SHAPES = [(8, 16, 8), (64, 80, 128), (128, 160, 256)]


def _assert_zeroed_volume(vol, shape):
    """All ``+0.0`` bits, in the volume layout."""
    sx, sy, _ = shape
    assert vol.shape == shape
    assert vol.strides == (8 * sy, 8, 8 * sx * sy)
    flat = flat_view(vol)
    assert np.shares_memory(flat, vol)
    assert not flat.view(np.uint64).any()


class TestZeroing:
    """Every zeroed allocation is all ``+0.0`` bits in the volume layout,
    whether its memory is fresh pages or a block the allocator reuses."""

    @pytest.mark.parametrize("shape", ZERO_SHAPES, ids=["8KiB", "5MiB", "40MiB"])
    @pytest.mark.parametrize("entry", sorted(ZEROING))
    def test_zeroed(self, entry, shape):
        _assert_zeroed_volume(ZEROING[entry](shape), shape)

    @pytest.mark.parametrize("shape", ZERO_SHAPES[:2], ids=["8KiB", "5MiB"])
    @pytest.mark.parametrize("entry", sorted(ZEROING))
    def test_a_dirtied_heap_block_comes_back_zeroed(self, entry, shape):
        # The first block freed lifts glibc's mmap threshold above its
        # size, so the second is dirtied on the heap and freed there.
        for _ in range(2):
            dirty = np.empty(math.prod(shape), dtype=np.float64)
            dirty.view(np.uint64)[:] = 0x7FF8DEADBEEF0001  # a NaN payload
            del dirty
        _assert_zeroed_volume(ZEROING[entry](shape), shape)


def _minor_faults() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are read the Linux way")
class TestFirstTouch:
    """Init is where a volume's pages fault (Figure 7's init phase): after
    it, a full pass over a fresh volume faults at most once per 8 MiB.  A
    lazily zeroed volume would fault its pages in that pass instead and
    hide the init cost in whatever writes first: once per 4 KiB page, or
    at least once per 2 MiB where transparent huge pages back it (0.4 %
    of its 4 KiB pages, so a bound of 1 % of those would not see it)."""

    #: 64 MiB, above glibc's 32 MiB mmap ceiling: always freshly mapped.
    GRID = GridSpec(DomainSpec.from_voxels(256, 256, 128), hs=2.0, ht=1.0)

    def _assert_pages_resident(self, vol):
        before = _minor_faults()
        vol += 1.0
        faults = _minor_faults() - before
        assert faults <= vol.nbytes / (8 << 20), faults

    def test_allocate(self):
        self._assert_pages_resident(self.GRID.allocate())

    def test_pd_sched_init(self):
        """PD-SCHED's volume comes from its init phase; four events stamp
        a few dozen pages of it, so the rest were faulted at init."""
        pts = PointSet(np.array([[40.5, 40.5, 20.5], [200.5, 60.5, 64.5],
                                 [128.5, 220.5, 100.5], [10.5, 250.5, 5.5]]))
        res = pb_sym_pd_sched(pts, self.GRID, P=2, backend="serial")
        self._assert_pages_resident(res.volume.data)


class TestWindowCoverage:
    """The guarantee that makes PB correct: the +-Hs/+-Ht index window
    around a point's voxel contains every voxel center within bandwidth."""

    @given(
        px=st.floats(0, 16, exclude_max=True),
        py=st.floats(0, 14, exclude_max=True),
        pt=st.floats(0, 20, exclude_max=True),
        hs=st.floats(0.3, 6.0),
        ht=st.floats(0.3, 6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_window_covers_bandwidth(self, px, py, pt, hs, ht):
        grid = GridSpec(DomainSpec.from_voxels(16, 14, 20), hs=hs, ht=ht)
        win = grid.point_window(px, py, pt)
        xc = grid.x_centers()
        yc = grid.y_centers()
        tc = grid.t_centers()
        inside_x = np.where(np.abs(xc - px) < hs)[0]
        inside_y = np.where(np.abs(yc - py) < hs)[0]
        inside_t = np.where(np.abs(tc - pt) <= ht)[0]
        if inside_x.size:
            assert win.x0 <= inside_x.min() and inside_x.max() < win.x1
        if inside_y.size:
            assert win.y0 <= inside_y.min() and inside_y.max() < win.y1
        if inside_t.size:
            assert win.t0 <= inside_t.min() and inside_t.max() < win.t1

    def test_window_clipped_to_grid(self, small_grid):
        win = small_grid.point_window(0.1, 0.1, 0.1)
        assert win.x0 == 0 and win.y0 == 0 and win.t0 == 0
        win2 = small_grid.point_window(15.9, 13.9, 19.9)
        assert win2.x1 == 16 and win2.y1 == 14 and win2.t1 == 20

    def test_interior_window_has_full_extent(self):
        grid = GridSpec(DomainSpec.from_voxels(50, 50, 50), hs=3, ht=2)
        win = grid.point_window(25.5, 25.5, 25.5)
        assert win.shape == (2 * grid.Hs + 1, 2 * grid.Hs + 1, 2 * grid.Ht + 1)


class TestVoxelWindow:
    def test_shape_and_volume(self):
        w = VoxelWindow(1, 4, 2, 5, 0, 2)
        assert w.shape == (3, 3, 2)
        assert w.volume == 18
        assert not w.empty

    def test_empty_window(self):
        w = VoxelWindow(3, 3, 0, 5, 0, 5)
        assert w.empty
        assert w.volume == 0

    def test_intersection(self):
        a = VoxelWindow(0, 10, 0, 10, 0, 10)
        b = VoxelWindow(5, 15, 2, 8, 9, 20)
        c = a.intersect(b)
        assert (c.x0, c.x1, c.y0, c.y1, c.t0, c.t1) == (5, 10, 2, 8, 9, 10)

    def test_disjoint_intersection_empty(self):
        a = VoxelWindow(0, 5, 0, 5, 0, 5)
        b = VoxelWindow(5, 9, 0, 5, 0, 5)
        assert a.intersect(b).empty

    def test_slices_round_trip(self):
        arr = np.zeros((6, 7, 8))
        w = VoxelWindow(1, 3, 2, 6, 0, 8)
        arr[w.slices()] = 1.0
        assert arr.sum() == w.volume

    def test_contains_voxel(self):
        w = VoxelWindow(1, 4, 1, 4, 1, 4)
        assert w.contains_voxel(1, 1, 1)
        assert w.contains_voxel(3, 3, 3)
        assert not w.contains_voxel(4, 1, 1)
        assert not w.contains_voxel(0, 3, 3)


class TestPointSet:
    def test_basic_construction(self, rng):
        pts = PointSet(rng.normal(size=(10, 3)))
        assert pts.n == 10
        assert len(pts) == 10

    def test_from_columns(self):
        pts = PointSet.from_columns([1, 2], [3, 4], [5, 6])
        np.testing.assert_array_equal(pts.coords, [[1, 3, 5], [2, 4, 6]])

    def test_column_views(self):
        pts = PointSet.from_columns([1, 2], [3, 4], [5, 6])
        np.testing.assert_array_equal(pts.xs, [1, 2])
        np.testing.assert_array_equal(pts.ys, [3, 4])
        np.testing.assert_array_equal(pts.ts, [5, 6])

    def test_immutable(self, rng):
        pts = PointSet(rng.normal(size=(4, 3)))
        with pytest.raises((ValueError, RuntimeError)):
            pts.coords[0, 0] = 99.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="\\(n, 3\\)"):
            PointSet(np.zeros((5, 2)))

    def test_rejects_nonfinite(self):
        arr = np.zeros((3, 3))
        arr[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PointSet(arr)

    def test_iteration_yields_floats(self, rng):
        pts = PointSet(rng.normal(size=(3, 3)))
        rows = list(pts)
        assert len(rows) == 3
        assert all(isinstance(v, float) for row in rows for v in row)

    def test_subset_and_concat(self, rng):
        pts = PointSet(rng.normal(size=(10, 3)))
        a = pts.subset(np.arange(4))
        b = pts.subset(np.arange(4, 10))
        both = a.concat(b)
        np.testing.assert_array_equal(both.coords, pts.coords)


class TestPointSetWeights:
    def test_unweighted_defaults(self, rng):
        pts = PointSet(rng.normal(size=(6, 3)))
        assert pts.weights is None
        assert not pts.weighted
        assert pts.total_weight == 6.0

    def test_weighted_construction(self, rng):
        w = np.array([1.0, 2.0, 0.5])
        pts = PointSet(rng.normal(size=(3, 3)), w)
        assert pts.weighted
        np.testing.assert_array_equal(pts.weights, w)
        assert pts.total_weight == pytest.approx(3.5)

    def test_weights_immutable(self, rng):
        pts = PointSet(rng.normal(size=(3, 3)), np.ones(3))
        with pytest.raises((ValueError, RuntimeError)):
            pts.weights[0] = 9.0

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="weights length"):
            PointSet(rng.normal(size=(4, 3)), np.ones(3))

    def test_negative_and_nonfinite_rejected(self, rng):
        coords = rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match="non-negative"):
            PointSet(coords, [1.0, -0.1, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            PointSet(coords, [1.0, np.nan, 1.0])

    def test_subset_carries_weights(self, rng):
        pts = PointSet(rng.normal(size=(5, 3)), np.arange(5, dtype=float))
        sub = pts.subset([1, 3])
        np.testing.assert_array_equal(sub.weights, [1.0, 3.0])

    def test_concat_mixed_fills_unit_weights(self, rng):
        a = PointSet(rng.normal(size=(2, 3)), [2.0, 3.0])
        b = PointSet(rng.normal(size=(2, 3)))
        both = a.concat(b)
        np.testing.assert_array_equal(both.weights, [2.0, 3.0, 1.0, 1.0])
        plain = b.concat(b)
        assert plain.weights is None

    def test_from_columns_with_weights(self):
        pts = PointSet.from_columns([1, 2], [3, 4], [5, 6], [0.5, 1.5])
        np.testing.assert_array_equal(pts.weights, [0.5, 1.5])


class TestVolume:
    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(ValueError, match="does not match"):
            Volume(np.zeros((2, 2, 2)), small_grid)

    def test_total_mass_quadrature(self, physical_grid):
        data = np.ones(physical_grid.shape)
        v = Volume(data, physical_grid)
        cell = physical_grid.domain.sres**2 * physical_grid.domain.tres
        assert v.total_mass == pytest.approx(physical_grid.n_voxels * cell)

    def test_time_slice(self, small_grid):
        data = np.zeros(small_grid.shape)
        data[:, :, 5] = 2.0
        v = Volume(data, small_grid)
        assert v.time_slice(5).sum() == pytest.approx(2.0 * 16 * 14)

    def test_max_voxel(self, small_grid):
        data = np.zeros(small_grid.shape)
        data[3, 7, 11] = 9.0
        assert Volume(data, small_grid).max_voxel() == (3, 7, 11)
