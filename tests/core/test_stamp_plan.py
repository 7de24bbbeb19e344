"""The stamping plan: one batch's geometry, stamped group by group.

A group of a :class:`~repro.core.stamping.StampPlan` must stamp exactly —
to the bit, with the same work counts — what ``stamp_batch`` stamps on
that group's rows alone, with that group's clip, and must write only
where its own rows reach: the block and replica tasks of DD, PD and
PD-REP share one plan across threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, PointSet, VoxelWindow, WorkCounter
from repro.core.backends import ComputeBackend
from repro.core.kernels import get_kernel
from repro.core.regions import RegionBuffer
import repro.core.stamping as stamping
from repro.core.stamping import STAMP_MODES, StampPlan, stamp_batch
from repro.parallel import pb_sym_dd, pb_sym_pd_rep, pb_sym_pd_sched
from repro.parallel.partition import BlockDecomposition

KERNEL = get_kernel("quartic")
NORM = 0.37


@pytest.fixture(scope="module")
def grid():
    return GridSpec(DomainSpec.from_voxels(40, 36, 30), hs=4.6, ht=2.2)


def batch(grid, seed=7):
    """Clumps dense enough to crowd GEMM bins, scattered points on and
    near the grid's faces, and 30 coincident points."""
    rng = np.random.default_rng(seed)
    hi = np.array(grid.shape, dtype=float)
    clumps = [
        rng.normal(centre, [2.0, 2.0, 1.5], (70, 3))
        for centre in ([11.5, 10.5, 9.5], [27.5, 24.5, 19.5], [19.5, 17.5, 14.5])
    ]
    loose = rng.uniform(0.0, 1.0, (90, 3)) * hi
    coincident = np.tile([[20.3, 17.6, 11.4]], (30, 1))
    coords = np.vstack(clumps + [loose, coincident])
    coords = np.clip(coords, 0.01, hi - 0.01)
    return coords[rng.permutation(len(coords))]


def block_groups(grid, coords, shape=(4, 3, 2)):
    """Owner blocks, as the point decomposition groups its batch."""
    dec = BlockDecomposition(grid, *shape)
    return dec.owners(PointSet(coords))


def part_of(win, rng):
    """A random window inside ``win``: up to a quarter off each face."""
    return VoxelWindow(*(
        int(v)
        for a, b in ((win.x0, win.x1), (win.y0, win.y1), (win.t0, win.t1))
        for v in (a + rng.integers(0, (b - a) // 4 + 1),
                  b - rng.integers(0, (b - a) // 4 + 1))
    ))


def stamp_alone(shape, grid, coords, rows, **kw):
    """``stamp_batch`` on ``rows`` only; the volume and the counter."""
    weights = kw.pop("weights", None)
    if weights is not None:
        kw["weights"] = weights[rows]
    vol, c = np.zeros(shape), WorkCounter()
    stamp_batch(vol, grid, KERNEL, coords[rows], NORM, c, **kw)
    return vol, c


class TestPlanEquivalence:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("clipped", [False, True])
    @pytest.mark.parametrize("mode", STAMP_MODES)
    def test_each_group_is_its_own_stamp_batch(self, grid, mode, clipped,
                                               weighted):
        coords = batch(grid)
        groups = block_groups(grid, coords)
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.2, 3.0, len(coords)) if weighted else None
        n_groups = groups.max() + 1
        shape, origin = grid.shape, (0, 0, 0)
        if clipped:
            # A RegionBuffer behind a vol_origin, each group clipped to
            # its own part of it; the first block's points all lie
            # outside it, so that group stamps nothing.
            win = VoxelWindow(13, 40, 4, 33, 3, 27)
            clips = [part_of(win, rng) for _ in range(n_groups)]
            origin = (win.x0, win.y0, win.t0)
            shape = RegionBuffer(win).data.shape
        else:
            # Every other group unclipped, the rest each in its own window.
            clips = [None if g % 2 else part_of(grid.full_window(), rng)
                     for g in range(n_groups)]
        plan = StampPlan(grid, coords, mode=mode, clip=clips, groups=groups)
        np.testing.assert_array_equal(plan.counts, np.bincount(groups))
        # Most groups' lowest voxels lie off the absolute lattice on every
        # axis, so their bins are anchored at voxels of their own.
        edges = np.array(stamping._bin_edges(grid))
        off = [(grid.voxels_of(coords[groups == g]).min(axis=0) % edges).all()
               for g in np.unique(groups)]
        assert sum(off) >= len(off) // 2
        empty = 0
        for g in rng.permutation(plan.counts.size):
            rows = np.flatnonzero(groups == g)
            want, wc = stamp_alone(shape, grid, coords, rows, weights=weights,
                                   mode=mode, clip=clips[g], vol_origin=origin)
            got, gc = np.zeros(shape), WorkCounter()
            plan.stamp(got, KERNEL, NORM, gc, group=g, weights=weights,
                       vol_origin=origin)
            np.testing.assert_array_equal(got, want)
            assert gc.as_dict() == wc.as_dict()
            empty += bool(rows.size) and not got.any()
        if clipped:
            assert empty >= 1  # a group whose windows are all empty
        if mode == "sym" and not clipped:
            # The GEMM route ran: fewer tabulation groups than points.
            assert len(plan._gemm) > 0

    def test_each_group_crowds_on_its_own_box(self):
        """A bin is crowded against its own group's clipped box: two
        stamps cut by the grid's corner crowd a small window's box, not
        the whole grid's (bandwidths wide enough to lift the crowd above
        its fixed floor)."""
        wide = GridSpec(DomainSpec.from_voxels(64, 64, 40), hs=20.0, ht=6.0)
        coords = np.array([[2.5, 2.5, 20.5], [3.5, 2.5, 20.5]] * 2)
        groups = np.array([0, 0, 1, 1])
        clips = [None, VoxelWindow(0, 30, 0, 30, 0, 40)]
        plan = StampPlan(wide, coords, clip=clips, groups=groups)
        assert len(plan._gemm) == 1  # the clipped group's bin only
        for g in (0, 1):
            rows = np.flatnonzero(groups == g)
            want, wc = np.zeros(wide.shape), WorkCounter()
            stamp_batch(want, wide, KERNEL, coords[rows], NORM, wc,
                        clip=clips[g])
            got, gc = np.zeros(wide.shape), WorkCounter()
            plan.stamp(got, KERNEL, NORM, gc, group=g)
            np.testing.assert_array_equal(got, want)
            assert gc.as_dict() == wc.as_dict()

    def test_groups_in_any_order_build_the_same_volume(self, grid):
        """Stamped into one volume in a shuffled group order, the plan
        makes the additions of per-group calls in that same order."""
        coords = batch(grid, seed=11)
        groups = block_groups(grid, coords)
        plan = StampPlan(grid, coords, groups=groups)
        order = np.random.default_rng(5).permutation(plan.counts.size)
        got, want = np.zeros(grid.shape), np.zeros(grid.shape)
        gc, wc = WorkCounter(), WorkCounter()
        for g in order:
            plan.stamp(got, KERNEL, NORM, gc, group=g)
            stamp_batch(want, grid, KERNEL, coords[groups == g], NORM, wc)
        np.testing.assert_array_equal(got, want)
        assert gc.as_dict() == wc.as_dict()

    def test_scattered_group_ids(self, grid):
        """Groups need not be blocks: random ids, with gaps, interleaved
        in space."""
        coords = batch(grid, seed=13)
        groups = np.random.default_rng(2).choice([0, 2, 3, 7], len(coords))
        plan = StampPlan(grid, coords, groups=groups)
        for g in range(plan.counts.size + 1):
            want, wc = stamp_alone(grid.shape, grid, coords,
                                   np.flatnonzero(groups == g))
            got, gc = np.zeros(grid.shape), WorkCounter()
            plan.stamp(got, KERNEL, NORM, gc, group=g)
            np.testing.assert_array_equal(got, want)
            assert gc.as_dict() == wc.as_dict()

    def test_group_ids_past_the_plan_are_empty_and_negative_ones_rejected(
            self, grid):
        coords = batch(grid)
        plan = StampPlan(grid, coords, groups=np.arange(len(coords)) % 2)
        vol, c = np.zeros(grid.shape), WorkCounter()
        for g in (2, 3, 100):
            plan.stamp(vol, KERNEL, NORM, c, group=g)
        assert not vol.any() and c.as_dict() == WorkCounter().as_dict()
        for g in (-1, -3):
            with pytest.raises(ValueError, match=r"group.*0 to 1.*got -"):
                plan.stamp(vol, KERNEL, NORM, c, group=g)
        assert not vol.any()

    def test_one_group_is_stamp_batch(self, grid):
        coords = batch(grid)
        want, wc = stamp_alone(grid.shape, grid, coords, slice(None))
        got, gc = np.zeros(grid.shape), WorkCounter()
        StampPlan(grid, coords).stamp(got, KERNEL, NORM, gc)
        np.testing.assert_array_equal(got, want)
        assert gc.as_dict() == wc.as_dict()

    def test_bad_groups_are_rejected(self, grid):
        coords = batch(grid)
        for groups in (np.zeros(3, dtype=int), -np.ones(len(coords), dtype=int),
                       np.zeros(len(coords))):
            with pytest.raises(ValueError, match="groups"):
                StampPlan(grid, coords, groups=groups)
        groups = block_groups(grid, coords)
        for clip in ([None] * groups.max(), []):  # fewer windows than groups
            with pytest.raises(ValueError, match="clip"):
                StampPlan(grid, coords, clip=clip, groups=groups)


class TestGroupLattice:
    """Each group's bins are anchored at its own lowest live voxel, per
    axis: a block's rows fill as few bins as their extent needs, wherever
    the block sits against the grid origin."""

    def test_a_block_off_the_absolute_lattice_is_one_bin(self):
        # Hs = 4: bins 8 voxels wide along x.  PD's blocks are 12 wide;
        # the rows of block [12, 24) span x in [12, 20) and those of block
        # [24, 36) span [26, 34), which the lattice anchored at the grid
        # origin cuts at x = 16 and x = 32.
        grid = GridSpec(DomainSpec.from_voxels(48, 32, 32), hs=4.0, ht=2.0)
        dec = BlockDecomposition.adjusted_for_pd(grid, 4, 1, 1)
        assert dec.xb[1] == 12 and dec.xb[2] == 24
        rng = np.random.default_rng(31)
        coords = np.vstack([
            rng.uniform([x, 12.0, 12.0], [x + 7.9, 15.9, 15.9], (60, 3))
            for x in (12.0, 26.0)
        ])[rng.permutation(120)]
        groups = dec.owners(PointSet(coords))
        assert set(groups.tolist()) == {1, 2}
        plan = StampPlan(grid, coords, groups=groups)
        for g in (1, 2):
            rows = np.flatnonzero(groups == g)
            edge = stamping._bin_edges(grid)[0]
            absolute = np.unique(grid.voxels_of(coords[rows])[:, 0] // edge)
            assert absolute.size == 2
            # One GEMM run holds every row of the group: one table chunk.
            runs = plan._gemm[plan._gemm_at[g] : plan._gemm_at[g + 1]]
            assert [b - a for a, b, *_ in runs] == [rows.size]
            want, wc = stamp_alone(grid.shape, grid, coords, rows)
            got, gc = np.zeros(grid.shape), WorkCounter()
            plan.stamp(got, KERNEL, NORM, gc, group=g)
            np.testing.assert_array_equal(got, want)
            assert gc.as_dict() == wc.as_dict()
            assert gc.stamp_cohorts == 1


class TestWriteContainment:
    """The threads backend's safety property: a group writes only inside
    its block's halo, also where two blocks' crowded rows meet across the
    block edge (each group binned and boxed on its own rows), and a group
    clipped to its block's window (DD) only inside that window."""

    @pytest.fixture
    def setting(self):
        # Hs = 4: bins 8 voxels wide along x, PD blocks 12 wide; the rows
        # of blocks [0, 12) and [12, 24) crowd x in [8, 16) across the
        # block edge at x = 12.
        grid = GridSpec(DomainSpec.from_voxels(48, 32, 32), hs=4.0, ht=2.0)
        dec = BlockDecomposition.adjusted_for_pd(grid, 4, 1, 1)
        assert dec.shape == (4, 1, 1) and dec.xb[1] == 12
        rng = np.random.default_rng(29)
        left = rng.uniform([8.2, 12.0, 12.0], [11.9, 15.9, 15.9], (40, 3))
        right = rng.uniform([12.1, 12.0, 12.0], [15.9, 15.9, 15.9], (40, 3))
        coords = np.vstack([left, right])[rng.permutation(80)]
        return grid, dec, coords

    @pytest.mark.parametrize("replicated", [False, True])
    def test_groups_write_inside_their_halo(self, setting, monkeypatch,
                                            replicated):
        grid, dec, coords = setting
        pts = PointSet(coords)
        blocks = range(dec.n_blocks)
        if replicated:
            # DD's plan: every row in each block its cylinder meets.
            binning = dec.bin_points_replicated(pts)
            rows = coords[binning.order]
            groups = np.repeat(np.arange(dec.n_blocks), binning.counts())
            clip = [dec.block_window(*dec.block_coords(b)) for b in blocks]
            reach = clip
        else:
            rows, groups, clip = coords, dec.owners(pts), None
            reach = [dec.halo_window(*dec.block_coords(b)) for b in blocks]
        assert set(groups.tolist()) == {0, 1}
        gemm_rows = []
        tables = ComputeBackend.factor_tables

        def spy(self, grid, kernel, norm, dx, dy, dt, counter):
            gemm_rows.append(dx.shape[0])
            return tables(self, grid, kernel, norm, dx, dy, dt, counter)

        monkeypatch.setattr(ComputeBackend, "factor_tables", spy)
        plan = StampPlan(grid, rows, groups=groups, clip=clip)
        for g in (0, 1):
            vol = np.zeros(grid.shape)
            plan.stamp(vol, KERNEL, NORM, group=g)
            inside = np.zeros(grid.shape, dtype=bool)
            inside[reach[g].slices()] = True
            assert vol.any() and not vol[~inside].any(), g
        # Both blocks' rows were crowded: every row took the GEMM route,
        # as one bin per block.
        assert sum(gemm_rows) == len(rows)
        assert len(plan._gemm) == 2

    @pytest.mark.parametrize("algo", [pb_sym_pd_sched, pb_sym_dd, pb_sym_pd_rep])
    def test_threads_match_serial(self, setting, algo):
        grid, _, coords = setting
        pts = PointSet(coords)
        kw = dict(P=2, decomposition=(4, 1, 1))
        serial = algo(pts, grid, backend="serial", **kw)
        threads = algo(pts, grid, backend="threads", **kw)
        np.testing.assert_array_equal(threads.data, serial.data)
