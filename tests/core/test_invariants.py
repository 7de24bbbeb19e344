"""Tests for the disk/bar invariant tables (the heart of PB-SYM)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec, WorkCounter
from repro.core.invariants import (
    bar_table,
    disk_table,
    stamp_cells,
    stamp_extent,
)
from repro.core.kernels import get_kernel


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(30, 30, 30), hs=4.3, ht=3.1)


KERNEL = get_kernel("epanechnikov")


class TestDiskTable:
    def test_shape_matches_ranges(self, grid):
        d = disk_table(grid, KERNEL, 15.0, 15.0, (10, 21), (12, 19), 1.0)
        assert d.shape == (11, 7)

    def test_zero_outside_bandwidth(self, grid):
        win = grid.point_window(15.2, 15.2, 15.0)
        d = disk_table(
            grid, KERNEL, 15.2, 15.2, (win.x0, win.x1), (win.y0, win.y1), 1.0
        )
        xc = grid.x_centers(win.x0, win.x1) - 15.2
        yc = grid.y_centers(win.y0, win.y1) - 15.2
        dist2 = xc[:, None] ** 2 + yc[None, :] ** 2
        assert np.all(d[dist2 >= grid.hs**2] == 0.0)
        assert np.all(d[dist2 < grid.hs**2] > 0.0)

    def test_norm_is_multiplicative(self, grid):
        args = (grid, KERNEL, 15.0, 14.5, (10, 20), (10, 20))
        d1 = disk_table(*args, 1.0)
        d2 = disk_table(*args, 2.5)
        np.testing.assert_allclose(d2, 2.5 * d1)

    def test_peak_at_point_voxel(self, grid):
        win = grid.point_window(15.5, 15.5, 15.0)
        d = disk_table(
            grid, KERNEL, 15.5, 15.5, (win.x0, win.x1), (win.y0, win.y1), 1.0
        )
        i, j = np.unravel_index(np.argmax(d), d.shape)
        assert win.x0 + i == 15 and win.y0 + j == 15

    def test_counts_work(self, grid):
        c = WorkCounter()
        d = disk_table(grid, KERNEL, 15.0, 15.0, (10, 20), (10, 20), 1.0, c)
        assert c.spatial_evals == d.size
        assert c.distance_tests == d.size

    def test_clipped_range_is_subtable(self, grid):
        """A DD-style clipped disk equals the corresponding full-disk slice."""
        win = grid.point_window(15.3, 15.7, 15.0)
        full = disk_table(
            grid, KERNEL, 15.3, 15.7, (win.x0, win.x1), (win.y0, win.y1), 1.0
        )
        clipped = disk_table(
            grid, KERNEL, 15.3, 15.7, (win.x0 + 2, win.x1 - 1), (win.y0, win.y1), 1.0
        )
        np.testing.assert_array_equal(clipped, full[2:-1, :])


class TestBarTable:
    def test_shape(self, grid):
        b = bar_table(grid, KERNEL, 15.0, (10, 22))
        assert b.shape == (12,)

    def test_zero_outside_bandwidth_inclusive(self, grid):
        win = grid.point_window(15.0, 15.0, 15.4)
        b = bar_table(grid, KERNEL, 15.4, (win.t0, win.t1))
        tc = grid.t_centers(win.t0, win.t1) - 15.4
        assert np.all(b[np.abs(tc) > grid.ht] == 0.0)
        assert np.all(b[np.abs(tc) <= grid.ht * 0.999] > 0.0)

    def test_exact_boundary_included(self):
        """|dt| == ht passes the paper's inclusive temporal test."""
        grid = GridSpec(DomainSpec.from_voxels(4, 4, 9), hs=1.0, ht=2.0)
        # Voxel centers at 0.5, 1.5, ...; point at 2.5 -> dt=+-2 at T=0,4.
        b = bar_table(grid, KERNEL, 2.5, (0, 9))
        assert b[0] == pytest.approx(0.0)  # kt(1) = 0 but *included* (value 0)
        # Check via a kernel that is nonzero at |w|=1: use as_printed.
        b2 = bar_table(grid, get_kernel("as_printed"), 2.5, (0, 9))
        assert b2[4] == pytest.approx(0.0)  # (1-1)^2 = 0 on the + side
        assert b2[0] == pytest.approx(0.75 * (1 - (-1)) ** 2)  # included

    def test_counts_work(self, grid):
        c = WorkCounter()
        b = bar_table(grid, KERNEL, 15.0, (0, 30), c)
        assert c.temporal_evals == b.size

    def test_symmetric_around_point(self, grid):
        # Point exactly at a voxel center -> bar symmetric.
        t = float(grid.t_centers(15, 16)[0])
        win = grid.point_window(15.0, 15.0, t)
        b = bar_table(grid, KERNEL, t, (win.t0, win.t1))
        np.testing.assert_allclose(b, b[::-1], atol=1e-15)


class TestStampExtent:
    def test_extent(self, grid):
        disk, bar = stamp_extent(grid)
        assert disk == 2 * grid.Hs + 1
        assert bar == 2 * grid.Ht + 1

    def test_cells_are_disk_bar_and_cylinder(self, grid):
        disk, bar = stamp_extent(grid)
        assert stamp_cells(grid) == disk * disk + bar + disk * disk * bar


@given(
    px=st.floats(0, 30, exclude_max=True),
    py=st.floats(0, 30, exclude_max=True),
    hs=st.floats(0.5, 8.0),
)
@settings(max_examples=150, deadline=None)
def test_property_disk_nonnegative_and_bounded(px, py, hs):
    grid = GridSpec(DomainSpec.from_voxels(30, 30, 30), hs=hs, ht=2.0)
    win = grid.point_window(px, py, 15.0)
    d = disk_table(grid, KERNEL, px, py, (win.x0, win.x1), (win.y0, win.y1), 1.0)
    assert np.all(d >= 0.0)
    assert np.all(d <= KERNEL.spatial_scalar(0, 0) + 1e-12)


@given(
    pt=st.floats(0, 30, exclude_max=True),
    ht=st.floats(2.0, 8.0),
)
@settings(max_examples=150, deadline=None)
def test_property_bar_mass_bounded_by_kernel_mass(pt, ht):
    """Riemann sum of the bar approximates at most the kernel's unit mass
    (scaled by 1/tres); clipping can only reduce it.  Only meaningful when
    ht spans a few voxels (ht >= 2*tres), otherwise the one-sample Riemann
    sum overshoots arbitrarily."""
    grid = GridSpec(DomainSpec.from_voxels(30, 30, 30), hs=2.0, ht=ht)
    win = grid.point_window(15.0, 15.0, pt)
    b = bar_table(grid, KERNEL, pt, (win.t0, win.t1))
    riemann = b.sum() * grid.domain.tres / ht
    assert riemann <= 1.15  # unit mass + discretisation slack
