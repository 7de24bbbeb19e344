"""Tests for the incremental / sliding-window estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import pb_sym
from repro.core import DomainSpec, GridSpec, PointSet, incremental
from repro.core.grid import zeros_volume
from repro.core.incremental import IncrementalSTKDE, _SparseUnit
from repro.core.kernels import available_kernels
from repro.core.regions import RegionBuffer, auto_slab_voxels

from repro.core.index import BucketIndex

from tests.helpers import make_points, multiset


def buffers(inc):
    """Each live unit's buffer, in tracking order (``None``: unstamped)."""
    return [inc._stamped.get(u.id, (None, None))[1] for u in inc.window.units]


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(22, 20, 30), hs=2.6, ht=2.2)


class TestAddOnly:
    def test_single_batch_matches_batch_estimate(self, grid):
        pts = make_points(grid, 60, seed=1)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        batch = pb_sym(pts, grid)
        np.testing.assert_allclose(inc.volume().data, batch.data,
                                   rtol=1e-12, atol=1e-18)

    def test_split_batches_match(self, grid):
        pts = make_points(grid, 80, seed=2)
        inc = IncrementalSTKDE(grid)
        inc.add(pts.subset(np.arange(30)))
        inc.add(pts.subset(np.arange(30, 80)))
        batch = pb_sym(pts, grid)
        np.testing.assert_allclose(inc.volume().data, batch.data,
                                   rtol=1e-12, atol=1e-18)
        assert inc.n == 80

    def test_accepts_raw_arrays(self, grid, rng):
        inc = IncrementalSTKDE(grid)
        inc.add(rng.uniform(0, 18, size=(10, 3)))
        assert inc.n == 10

    def test_empty_add_is_noop(self, grid):
        inc = IncrementalSTKDE(grid)
        inc.add(np.empty((0, 3)))
        assert inc.n == 0


class TestRemove:
    def test_add_then_remove_restores_empty(self, grid):
        pts = make_points(grid, 40, seed=3)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        inc.remove(pts)
        assert inc.n == 0
        assert not inc.volume().data.any()

    def test_partial_remove_matches_remaining_batch(self, grid):
        pts = make_points(grid, 50, seed=4)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        inc.remove(pts.subset(np.arange(20)))
        rest = pts.subset(np.arange(20, 50))
        batch = pb_sym(rest, grid)
        np.testing.assert_allclose(inc.volume().data, batch.data,
                                   rtol=1e-10, atol=1e-15)

    def test_remove_more_than_present_rejected(self, grid):
        pts = make_points(grid, 5, seed=5)
        inc = IncrementalSTKDE(grid)
        inc.add(pts.subset(np.arange(2)))
        with pytest.raises(ValueError, match="only 2 present"):
            inc.remove(pts)

    def test_no_negative_density_after_removal(self, grid):
        pts = make_points(grid, 30, seed=6)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        inc.remove(pts.subset(np.arange(15)))
        assert (inc.volume().data >= 0).all()


class TestSlideWindow:
    def test_slide_equals_batch_on_window(self, grid):
        rng = np.random.default_rng(7)
        early = np.column_stack([
            rng.uniform(0, 22, 25), rng.uniform(0, 20, 25), rng.uniform(0, 10, 25)
        ])
        late = np.column_stack([
            rng.uniform(0, 22, 25), rng.uniform(0, 20, 25), rng.uniform(10, 25, 25)
        ])
        new = np.column_stack([
            rng.uniform(0, 22, 20), rng.uniform(0, 20, 20), rng.uniform(25, 29, 20)
        ])
        inc = IncrementalSTKDE(grid)
        inc.add(early)
        inc.add(late)
        retired = inc.slide_window(new, t_horizon=10.0)
        assert retired == 25
        expect = pb_sym(PointSet(np.vstack([late, new])), grid)
        np.testing.assert_allclose(inc.volume().data, expect.data,
                                   rtol=1e-10, atol=1e-15)

    def test_repeated_slides_stay_consistent(self, grid):
        rng = np.random.default_rng(8)
        inc = IncrementalSTKDE(grid)
        window: list = []
        for day in range(5):
            batch = np.column_stack([
                rng.uniform(0, 22, 12), rng.uniform(0, 20, 12),
                rng.uniform(day * 5, day * 5 + 5, 12),
            ])
            horizon = max(0.0, (day - 1) * 5.0)
            inc.slide_window(batch, t_horizon=horizon)
            window = [b[b[:, 2] >= horizon] for b in window]
            window.append(batch)
        live = np.vstack([b for b in window if len(b)])
        expect = pb_sym(PointSet(live), grid)
        np.testing.assert_allclose(inc.volume().data, expect.data,
                                   rtol=1e-9, atol=1e-14)
        assert inc.n == len(live)


class TestRegionCacheReuse:
    """The region-engine rebuild: cached bbox buffers across slides."""

    def _time_slab(self, grid, rng, t_lo, t_hi, n=20):
        return np.column_stack([
            rng.uniform(0, grid.domain.gx, n),
            rng.uniform(0, grid.domain.gy, n),
            rng.uniform(t_lo, t_hi, n),
        ])

    def test_time_slab_batches_are_cached(self, grid):
        rng = np.random.default_rng(20)
        inc = IncrementalSTKDE(grid)
        inc.add(self._time_slab(grid, rng, 0.0, 5.0))
        assert inc.cached_buffer_cells == 0  # planned, not stamped
        inc.volume()
        assert 0 < inc.cached_buffer_cells < grid.n_voxels
        assert inc.counter.shard_bbox_cells == inc.cached_buffer_cells

    def test_full_retirement_reuses_cache(self, grid):
        """Sliding past a cached batch drops its box and keeps the
        survivor's buffer — the same object, not a restamp; density
        matches a batch recompute over the survivors."""
        rng = np.random.default_rng(23)
        early = self._time_slab(grid, rng, 0.0, 6.0)
        late = self._time_slab(grid, rng, 12.0, 18.0)
        fresh = self._time_slab(grid, rng, 24.0, 29.0)
        inc = IncrementalSTKDE(grid)
        inc.add(early)
        inc.add(late)
        inc.volume()
        assert inc.units_stamped == 2
        late_buffer = buffers(inc)[1]
        late_cells = late_buffer.cells
        retired = inc.slide_window(fresh, t_horizon=12.0)
        assert retired == len(early)
        # early's box went with it; fresh waits for a reader.
        assert inc.cached_buffer_cells == late_cells
        assert (inc.units_live, inc.units_stamped) == (2, 1)
        expect = pb_sym(PointSet(np.vstack([late, fresh])), grid)
        np.testing.assert_allclose(inc.volume().data, expect.data,
                                   rtol=1e-10, atol=1e-15)
        assert buffers(inc)[0] is late_buffer

    def test_partial_retirement_restamps_survivors(self, grid):
        """A horizon cutting through a cached batch: the cache is dropped
        and the kept points restamped into a fresh cache."""
        rng = np.random.default_rng(24)
        straddling = self._time_slab(grid, rng, 4.0, 14.0, n=30)
        fresh = self._time_slab(grid, rng, 20.0, 28.0, n=15)
        inc = IncrementalSTKDE(grid)
        inc.add(straddling)
        inc.volume()
        assert inc.cached_buffer_cells > 0
        retired = inc.slide_window(fresh, t_horizon=9.0)
        kept = straddling[straddling[:, 2] >= 9.0]
        assert retired == len(straddling) - len(kept)
        assert inc.n == len(kept) + len(fresh)
        assert inc.cached_buffer_cells == 0  # cache dropped with the cut
        expect = pb_sym(PointSet(np.vstack([kept, fresh])), grid)
        np.testing.assert_allclose(inc.volume().data, expect.data,
                                   rtol=1e-10, atol=1e-15)
        assert inc.units_stamped == inc.units_live  # survivors re-cached

    def test_many_slides_cached_vs_uncached_agree(self, grid):
        """Many slides over the caches agree with the estimator that
        caches nothing at all: a batch recompute on the live events."""
        rng = np.random.default_rng(25)
        cached = IncrementalSTKDE(grid)
        live: list = []
        for day in range(6):
            batch = self._time_slab(grid, rng, day * 4.0, day * 4.0 + 4.0, n=12)
            horizon = max(0.0, (day - 2) * 4.0)
            cached.slide_window(batch, t_horizon=horizon)
            live = [b[b[:, 2] >= horizon] for b in live]
            live.append(batch)
        kept = np.vstack([b for b in live if len(b)])
        assert cached.n == len(kept)
        np.testing.assert_allclose(cached.volume().data,
                                   pb_sym(PointSet(kept), grid).data,
                                   rtol=1e-12, atol=1e-16)

    def test_remove_untracks_so_slide_cannot_double_retire(self, grid):
        """remove() of previously-added events drops them from tracking:
        a later slide past the same span retires nothing (no double
        subtraction) and the estimator is exactly empty."""
        rng = np.random.default_rng(26)
        slab = self._time_slab(grid, rng, 0.0, 5.0)
        inc = IncrementalSTKDE(grid)
        inc.add(slab)
        inc.volume()
        assert inc.cached_buffer_cells > 0
        inc.remove(slab)  # n drops to 0 and the batch is untracked
        assert inc.cached_buffer_cells == 0
        assert inc.live_coords.shape == (0, 3)
        assert inc.slide_window(np.empty((0, 3)), t_horizon=10.0) == 0
        assert np.allclose(inc.volume().data, 0.0, atol=1e-12)

    def test_remove_duplicated_rows_drops_one_instance_each(self, grid):
        """Multiset semantics: removing one copy of a duplicated event
        leaves the other tracked (and the density exact)."""
        row = np.array([[3.3, 4.4, 5.5]])
        inc = IncrementalSTKDE(grid)
        inc.add(np.vstack([row, row, row]))
        inc.remove(row)
        assert inc.n == 2
        assert inc.live_coords.shape == (2, 3)
        ref = pb_sym(PointSet(np.vstack([row, row])), grid)
        np.testing.assert_allclose(
            inc.volume().data, ref.data, rtol=1e-9, atol=1e-15
        )

    def test_partial_remove_untracks_and_stays_exact(self, grid):
        """A batch that loses members via remove() is re-planned from
        its survivors — cached again by the next read — and keeps serving
        exact densities, including through a later slide."""
        rng = np.random.default_rng(27)
        slab = self._time_slab(grid, rng, 0.0, 5.0)
        inc = IncrementalSTKDE(grid)
        inc.add(slab)
        inc.volume()
        inc.remove(slab[:10])
        np.testing.assert_array_equal(
            multiset(inc.live_coords), multiset(slab[10:])
        )
        assert inc.units_stamped == 0
        ref = pb_sym(PointSet(slab[10:]), grid)
        np.testing.assert_allclose(
            inc.volume().data, ref.data, rtol=1e-9, atol=1e-15
        )
        assert inc.cached_buffer_cells > 0
        assert inc.units_stamped == inc.units_live
        inc.slide_window(np.empty((0, 3)), t_horizon=10.0)
        assert inc.n == 0
        assert np.allclose(inc.volume().data, 0.0, atol=1e-12)


class TestTimeSlabbedCaches:
    """The t-slabbed retirement caches: a slide drops expired slabs
    and restamps only the straddle slab, pinned equivalent to the
    monolithic cache at rtol=1e-12."""

    def _local_batch(self, grid, rng, t_lo, t_hi, n):
        # Slab boxes overlap by one stamp extent along t, so on this
        # small grid only a spatially localised batch keeps its slabs
        # within half the grid (past that the batch stays whole).
        return np.column_stack([
            rng.uniform(0, 0.2 * grid.domain.gx, n),
            rng.uniform(0, 0.2 * grid.domain.gy, n),
            rng.uniform(t_lo, t_hi, n),
        ])

    def _spanning_batch(self, grid, rng, n=400):
        return self._local_batch(grid, rng, 0, 0.9 * grid.domain.gt, n)

    def _pair(self, grid, rng, **kw):
        slabbed = IncrementalSTKDE(grid, **kw)
        mono = IncrementalSTKDE(grid, t_slab_voxels=None)
        batch = self._spanning_batch(grid, rng)
        slabbed.add(batch)
        mono.add(batch.copy())
        return slabbed, mono, batch

    def test_spanning_batch_splits_into_slabs(self, grid):
        rng = np.random.default_rng(40)
        slabbed, mono, _ = self._pair(grid, rng, t_slab_voxels=8)
        assert len(slabbed.live_batches) > 1
        assert len(mono.live_batches) == 1
        np.testing.assert_allclose(slabbed.volume().data, mono.volume().data,
                                   rtol=1e-12, atol=1e-16)

    def test_slide_subtracts_slabs_and_restamps_only_straddle(self, grid):
        """Expired slabs are dropped (the name predates that: they used
        to be subtracted from an accumulator); the counters mean the same."""
        rng = np.random.default_rng(41)
        slabbed, mono, batch = self._pair(grid, rng, t_slab_voxels=8)
        fresh = np.column_stack([
            rng.uniform(0, grid.domain.gx, 50),
            rng.uniform(0, grid.domain.gy, 50),
            rng.uniform(0.9 * grid.domain.gt, grid.domain.gt, 50),
        ])
        horizon = 0.45 * grid.domain.gt
        r1 = slabbed.slide_window(fresh, t_horizon=horizon)
        r2 = mono.slide_window(fresh.copy(), t_horizon=horizon)
        assert r1 == r2 > 0
        survivors = int((batch[:, 2] >= horizon).sum())
        # Monolithic restamps every survivor; slabs restamp only the
        # straddle slab's share of them.
        assert mono.counter.slab_restamp_points == survivors
        assert 0 < slabbed.counter.slab_restamp_points < survivors / 2
        assert (
            slabbed.counter.slab_buffers_retired
            > mono.counter.slab_buffers_retired
        )
        np.testing.assert_allclose(slabbed.volume().data, mono.volume().data,
                                   rtol=1e-12, atol=1e-15)
        live = np.vstack([batch[batch[:, 2] >= horizon], fresh])
        expect = pb_sym(PointSet(live), grid)
        np.testing.assert_allclose(slabbed.volume().data, expect.data,
                                   rtol=1e-12, atol=1e-15)

    def test_full_slab_expiry_needs_no_kernel_work(self, grid):
        """A horizon aligned past whole slabs retires by dropping them:
        zero restamp points."""
        rng = np.random.default_rng(42)
        inc = IncrementalSTKDE(grid, t_slab_voxels=8)
        inc.add(self._local_batch(grid, rng, 0, 8.0, 100))
        inc.add(self._local_batch(grid, rng, 16.0, 26.0, 100))
        assert len(inc.live_batches) > 2  # both batches are slabbed
        evals_before = inc.counter.spatial_evals
        retired = inc.slide_window(np.empty((0, 3)), t_horizon=12.0)
        assert retired == 100
        assert inc.counter.slab_restamp_points == 0
        assert inc.counter.spatial_evals == evals_before  # pure drop
        assert inc.counter.slab_buffers_retired > 0

    @pytest.mark.parametrize("bad", [0, 2.5, True, "geometric"])
    def test_fixed_thickness_and_max_slabs_validated(self, grid, bad):
        """Keeps its id; ``max_slabs`` is no longer an argument (below).
        Only ``"auto"``, ``None`` or an integer >= 1 that is not a bool
        constructs; anything else raises here, not on the first ``add``."""
        with pytest.raises(ValueError, match="t_slab_voxels"):
            IncrementalSTKDE(grid, t_slab_voxels=bad)


class TestAutoIsTheGeometricRule:
    """``t_slab_voxels="auto"`` *is* ``auto_slab_voxels(grid)``: no cost
    model is consulted, and the knobs that steered one are gone."""

    @staticmethod
    def _batch(grid, rng, xy_share, t_share, n=600):
        d = grid.domain
        return np.column_stack([
            rng.uniform(0, xy_share * d.gx, n),
            rng.uniform(0, xy_share * d.gy, n),
            rng.uniform(0, t_share * d.gt, n),
        ])

    @pytest.mark.parametrize("xy_share,t_share,slabbed", [
        (1.0, 0.05, False),  # thin: one unit
        (0.2, 0.9, True),    # t-wide, xy-localised: cut into slabs
        (1.0, 1.0, False),   # domain-wide: the half-grid guard keeps it whole
    ], ids=["thin", "t-wide-local", "domain-wide"])
    def test_auto_plans_the_pinned_rule_units(
        self, grid, xy_share, t_share, slabbed
    ):
        batch = self._batch(grid, np.random.default_rng(70), xy_share, t_share)
        auto = IncrementalSTKDE(grid)
        pinned = IncrementalSTKDE(grid, t_slab_voxels=auto_slab_voxels(grid))
        for inc in (auto, pinned):
            inc.add(batch.copy())
            assert (inc.units_live > 1) == slabbed
            inc.slide_window(np.empty((0, 3)), 0.3 * t_share * grid.domain.gt)
        assert auto.window.units == pinned.window.units
        for a, b in zip(auto.live_batches, pinned.live_batches):
            np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(
            auto.volume().data, pinned.volume().data
        )

    def test_full_xy_quarter_t_batch_is_slabbed(self):
        """128x128x64, hs=3, ht=2 (docs/PERFORMANCE.md, "Retirement-slab
        thickness", row 2): two stamp extents cut the batch in two; the
        thinner slabs a cost model once picked here overlapped past the
        half-grid guard and left it one unit."""
        big = GridSpec(DomainSpec.from_voxels(128, 128, 64), hs=3.0, ht=2.0)
        inc = IncrementalSTKDE(big)
        inc.add(self._batch(big, np.random.default_rng(71), 1.0, 0.25, 4000))
        assert inc.units_live > 1

    def test_removed_knobs_are_type_errors(self, grid):
        from repro.analysis.model import MachineModel
        from repro.serve import ShardedDensityService

        with pytest.raises(TypeError, match="machine"):
            IncrementalSTKDE(grid, machine=MachineModel.nominal())
        with pytest.raises(TypeError, match="max_slabs"):
            IncrementalSTKDE(grid, max_slabs=3)
        # Raised by the call itself: no worker is spawned.
        with pytest.raises(TypeError, match="t_slab_voxels"):
            ShardedDensityService(None, grid, workers=2, t_slab_voxels=4)


class TestBitExactWarmCold:
    """Carried satellite (PR 2): warm-vs-cold volume equivalence is now
    *bit-exact*, not fp-level.  Every cached unit is a pure function of
    its rows, and :meth:`IncrementalSTKDE.volume` composes the live
    caches in a canonical content-derived order — so a long-slid warm
    window and a cold estimator re-fed the same live membership produce
    ``assert_array_equal`` volumes."""

    def _feed(self, grid, rng, step, total_steps, win, n=18):
        t_lo = step * grid.domain.gt / (total_steps + win)
        t_hi = (step + 1) * grid.domain.gt / (total_steps + win)
        return np.column_stack([
            rng.uniform(0, grid.domain.gx, n),
            rng.uniform(0, grid.domain.gy, n),
            rng.uniform(t_lo, t_hi, n),
        ])

    def _slide_many(self, grid, rng, steps=20, win=6, read_every=3):
        """A long-slid window, read every ``read_every`` slides: its live
        buffers were stamped by different reads, some units never were."""
        inc = IncrementalSTKDE(grid)
        for step in range(steps):
            batch = self._feed(grid, rng, step, steps, win)
            horizon = max(0.0, (step - win) * grid.domain.gt / (steps + win))
            inc.slide_window(batch, t_horizon=horizon)
            if step % read_every == 0:
                inc.volume()
        return inc

    @staticmethod
    def _cold_replay(grid, warm):
        """A fresh estimator fed the warm window's live units, one add per
        unit with slabbing disabled so each re-stamps whole."""
        cold = IncrementalSTKDE(grid, t_slab_voxels=None)
        for _, coords in warm.live_batches:
            cold.add(coords)
        return cold

    def test_warm_equals_cold_replay_bitwise(self, grid):
        rng = np.random.default_rng(60)
        warm = self._slide_many(grid, rng)
        # Some buffers are warm (kept across slides), one is pending.
        assert 0 < warm.units_stamped < warm.units_live
        cold = self._cold_replay(grid, warm)
        assert cold.units_stamped == 0
        np.testing.assert_array_equal(warm.volume().data, cold.volume().data)
        assert warm.units_stamped == warm.units_live
        # A window nobody read until now composes the same bits.
        unread = self._slide_many(
            grid, np.random.default_rng(60), read_every=10**6)
        assert unread.units_stamped == 0
        np.testing.assert_array_equal(unread.volume().data, cold.volume().data)

    def test_volume_is_pure_function_of_live_membership(self, grid):
        """Two different mutation histories arriving at the same live
        window serve bit-identical volumes: history cannot leak through
        accumulation order."""
        rng = np.random.default_rng(61)
        warm = self._slide_many(grid, rng, steps=16, win=5)
        # Second history: same final units, but added in reverse order
        # after a churn of unrelated batches that were fully retired.
        other = IncrementalSTKDE(grid)
        churn = self._feed(grid, np.random.default_rng(99), 0, 16, 5)
        other.add(churn)
        other.slide_window(np.empty((0, 3)), t_horizon=grid.domain.gt)
        assert other.n == 0
        for _, coords in reversed(warm.live_batches):
            other.add(coords)
        np.testing.assert_array_equal(
            warm.volume().data, other.volume().data
        )

    def test_remove_and_domain_wide_batch_stay_bitwise(self, grid):
        """The contract holds under every interleaving, not only
        slide-only histories: a domain-wide batch (one whole-batch unit)
        and ``remove`` of live rows from several units, between slides."""
        rng = np.random.default_rng(62)
        warm = self._slide_many(grid, rng, steps=12, win=5)
        wide = make_points(grid, 40, seed=63).coords
        warm.add(wide)
        live = warm.live_coords
        warm.remove(live[rng.choice(len(live), 25, replace=False)])
        horizon = 8 * grid.domain.gt / 17  # cuts through the wide batch
        warm.slide_window(self._feed(grid, rng, 12, 12, 5), t_horizon=horizon)
        warm.remove(warm.live_coords[::7])
        assert len(warm.live_batches) > 3
        cold = self._cold_replay(grid, warm)
        np.testing.assert_array_equal(warm.volume().data, cold.volume().data)
        assert warm.units_stamped == warm.units_live
        np.testing.assert_allclose(
            warm.volume().data, pb_sym(PointSet(warm.live_coords), grid).data,
            rtol=1e-12, atol=1e-16,
        )

    def test_volume_scales_only_the_covered_t_planes(self, grid):
        """``volume()`` scales just the t-planes some live buffer covers:
        the others are exact zeros, and the covered runs — unit t-edges
        and a gap between two runs included — match a batch recompute."""
        rng = np.random.default_rng(64)
        slid = self._slide_many(grid, rng, read_every=10**6)
        gapped = IncrementalSTKDE(grid)
        for t in (3.0, 25.0):
            gapped.add(np.column_stack([
                rng.uniform(0, grid.domain.gx, 30),
                rng.uniform(0, grid.domain.gy, 30),
                rng.uniform(t - 1.0, t + 1.0, 30),
            ]))
        for inc, runs in ((slid, 1), (gapped, 2)):
            vol = inc.volume().data
            covered = np.zeros(grid.shape[2], dtype=bool)
            for b in buffers(inc):
                covered[b.window.t0 : b.window.t1] = True
            assert np.count_nonzero(np.diff(covered, prepend=False)) == 2 * runs
            assert not covered.all() and not vol[:, :, ~covered].any()
            np.testing.assert_allclose(
                vol, pb_sym(PointSet(inc.live_coords), grid).data,
                rtol=1e-12, atol=1e-16,
            )


class TestOneLiveState:
    """The units are the only representation of the live window: no
    running accumulator, nothing grid-shaped held between calls."""

    @staticmethod
    def _holds_grid_shaped_array(inc):
        return any(
            isinstance(v, np.ndarray) and v.shape == inc.grid.shape
            for v in vars(inc).values()
        )

    def test_construction_allocates_nothing_grid_sized(self):
        import tracemalloc

        big = GridSpec(DomainSpec.from_voxels(256, 256, 256), hs=3.0, ht=3.0)
        tracemalloc.start()
        try:
            inc = IncrementalSTKDE(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the volume itself would be 134 MB
        assert inc.counter.init_writes == 0

    def test_no_grid_shaped_attribute_across_operations(self, grid):
        rng = np.random.default_rng(81)
        inc = IncrementalSTKDE(grid)
        assert not self._holds_grid_shaped_array(inc)
        wide = make_points(grid, 60, seed=81).coords
        for op in (
            lambda: inc.add(wide),
            lambda: inc.volume(),
            lambda: inc.remove(wide[:7]),
            lambda: inc.slide_window(
                rng.uniform(20.0, 29.0, size=(15, 3)), t_horizon=12.0),
            lambda: inc.volume(),
        ):
            op()
            assert not self._holds_grid_shaped_array(inc)

    def test_rows_are_stored_once_in_the_index(self, grid):
        """A unit holds no coordinates: its rows are its index segment,
        read back in key order, and the units' rows are the window."""
        rng = np.random.default_rng(83)
        inc = IncrementalSTKDE(grid)
        batches = [rng.uniform(0, [22.0, 20.0, 30.0], size=(40, 3))
                   for _ in range(3)]
        for b in batches:
            inc.add(b)
        inc.remove(batches[1][:9])
        inc.slide_window(batches[0][:4] + [0.0, 0.0, 5.0], t_horizon=6.0)
        for u in inc.window.units:
            assert not any(isinstance(v, np.ndarray) for v in u)
        units = [rows for _, rows in inc.live_batches]
        assert [len(r) for r in units] == [u.n for u in inc.window.units]
        assert inc.index.n == inc.n == sum(map(len, units))
        np.testing.assert_array_equal(
            multiset(np.vstack(units)), multiset(inc.live_coords)
        )
        assert inc.min_t == inc.live_coords[:, 2].min() >= 6.0

    def test_count_table_waits_for_a_reader(self, grid):
        """The index's per-cell counts are built by the first read that
        needs them, not by a mutation or a volume: a standalone estimator
        never holds them.  Once built they equal a cold index's."""
        rng = np.random.default_rng(84)
        inc = IncrementalSTKDE(grid)
        wide = make_points(grid, 80, seed=84).coords
        for op in (
            lambda: inc.add(wide),
            lambda: inc.slide_window(
                rng.uniform(10.0, 29.0, size=(25, 3)), t_horizon=8.0),
            lambda: inc.remove(inc.live_coords[::5]),
            lambda: inc.volume(),
        ):
            op()
            assert inc.index._cell_counts is None
            assert inc.index._box_counts is None
        q = rng.uniform(-1.0, [23.0, 21.0, 31.0], size=(60, 3))
        cold = BucketIndex(grid, inc.live_coords)
        np.testing.assert_array_equal(
            inc.index.candidate_counts(q), cold.candidate_counts(q)
        )
        inc.slide_window(rng.uniform(20.0, 29.0, size=(10, 3)), 15.0)
        np.testing.assert_array_equal(
            inc.index.candidate_counts(q),
            BucketIndex(grid, inc.live_coords).candidate_counts(q),
        )

    def test_off_domain_batch_is_tracked_and_contributes_nothing(self, grid):
        """A batch far outside the domain is a unit like any other —
        counted in ``n``, retired by a slide, removable — whose stamps
        (clamped to boundary voxels, out of kernel reach) are all zero."""
        d = grid.domain
        rng = np.random.default_rng(82)
        inside = rng.uniform(0, [d.gx, d.gy, 8.0], size=(20, 3))
        outside = inside + [d.gx + 50.0, 0.0, 0.0]
        inc = IncrementalSTKDE(grid)
        inc.add(inside)
        inc.add(outside)
        assert inc.n == 40 and len(inc.live_batches) == 2
        both = PointSet(np.vstack([inside, outside]))
        np.testing.assert_allclose(
            inc.volume().data, pb_sym(both, grid).data, rtol=1e-12, atol=1e-18
        )
        # The off-domain unit holds no nonzero value, whichever form
        # (dense buffer or nonzero cells) it is held in.
        alone = zeros_volume(grid.shape)
        buffers(inc)[1].add_into(alone)
        assert not alone.any()
        inc.remove(outside[:5])
        assert inc.n == 35
        np.testing.assert_array_equal(
            multiset(inc.live_coords),
            multiset(np.vstack([inside, outside[5:]])),
        )
        assert inc.slide_window(np.empty((0, 3)), t_horizon=9.0) == 35
        assert inc.n == 0 and inc.live_batches == ()
        # On its own it serves the zero volume.
        inc.add(outside)
        assert inc.n == 20 and not inc.volume().data.any()

    def test_unit_structure_and_kernel_work_match_recorded_history(self):
        """Structure pin: one scripted history at default arguments — a
        spanning batch, six slides, each read before the next — must
        plan the same units (ids, order, row counts), hold the same
        buffer cells and charge the same kernel work as recorded (under
        the two-stamp-extent thickness: the spanning batch is 5 units);
        the ``remove`` that follows costs only the unit it touches its
        buffer.  The same history read once, at the end, plans the same
        units and stamps fewer."""
        grid = GridSpec(DomainSpec.from_voxels(40, 36, 96), hs=2.6, ht=2.2)
        d = grid.domain
        rng = np.random.default_rng(80)

        def batch(n, t_lo, t_hi):
            return np.column_stack([
                rng.uniform(0, 0.4 * d.gx, n),
                rng.uniform(0, 0.4 * d.gy, n),
                rng.uniform(t_lo, t_hi, n),
            ])

        def slide(est, k, feed, read):
            retired = est.slide_window(feed, t_horizon=7.0 * (k + 1))
            if read:
                est.volume()
            return retired

        first = batch(600, 0.0, 60.0)
        feeds = [batch(40, 60.0 + 5 * k, 65.0 + 5 * k) for k in range(6)]
        inc = IncrementalSTKDE(grid)
        inc.add(first)
        assert [len(c) for _, c in inc.live_batches] == [
            125, 119, 119, 117, 120]
        assert inc.cached_buffer_cells == 0
        inc.volume()
        assert inc.cached_buffer_cells == 31122
        retired = [slide(inc, k, f, True) for k, f in enumerate(feeds)]
        assert retired == [65, 71, 70, 70, 67, 69]
        assert [i for i, _ in inc.live_batches] == [
            18, 5, 7, 10, 12, 15, 17, 19]
        assert [len(c) for _, c in inc.live_batches] == [
            68, 120, 40, 40, 40, 40, 40, 40]
        assert inc.cached_buffer_cells == 32946
        c = inc.counter
        assert {
            "spatial_evals": c.spatial_evals,
            "temporal_evals": c.temporal_evals,
            "distance_tests": c.distance_tests,
            "madds": c.madds,
            "points_processed": c.points_processed,
            "stamp_batches": c.stamp_batches,
            "stamp_cohorts": c.stamp_cohorts,
            "shard_bbox_cells": c.shard_bbox_cells,
            "slab_buffers_retired": c.slab_buffers_retired,
            "slab_restamp_points": c.slab_restamp_points,
        } == {
            "spatial_evals": 53630,
            "temporal_evals": 8474,
            "distance_tests": 62104,
            "madds": 372124,
            "points_processed": 840,
            "stamp_batches": 19,
            "stamp_cohorts": 63,
            "shard_bbox_cells": 83600,
            "slab_buffers_retired": 11,
            "slab_restamp_points": 381,
        }
        # Every buffer cell was zero-filled once and nothing else was.
        assert c.init_writes == c.shard_bbox_cells

        inc.remove(inc.live_batches[2][1][:4])
        assert [i for i, _ in inc.live_batches] == [
            18, 5, 20, 10, 12, 15, 17, 19]
        assert [len(c) for _, c in inc.live_batches] == [
            68, 120, 36, 40, 40, 40, 40, 40]
        assert [i for i, b in enumerate(buffers(inc)) if b is None] == [2]

        unread = IncrementalSTKDE(grid)
        unread.add(first)
        assert [
            slide(unread, k, f, False) for k, f in enumerate(feeds)
        ] == retired
        unread.remove(unread.live_batches[2][1][:4])
        assert [
            (i, c.tobytes()) for i, c in unread.live_batches
        ] == [(i, c.tobytes()) for i, c in inc.live_batches]
        assert unread.counter.madds == 0
        np.testing.assert_array_equal(unread.volume().data, inc.volume().data)
        # Only the 8 live units were ever stamped: not the expired
        # slabs, nor the straddle survivors a later slide cut again.
        assert unread.counter.stamp_batches == 8
        assert unread.counter.shard_bbox_cells == unread.cached_buffer_cells
        assert unread.counter.madds < c.madds


class TestBuffersAreACache:
    """Mutations are bookkeeping; a unit's buffer is stamped by the first
    ``volume()`` that finds it without one, and kept until its
    membership changes."""

    @staticmethod
    def _feed(grid, rng, k, n=25):
        return np.column_stack([
            rng.uniform(0, grid.domain.gx, n),
            rng.uniform(0, grid.domain.gy, n),
            rng.uniform(3.0 * k, 3.0 * k + 3.0, n),
        ])

    @staticmethod
    def _kernel_work(inc):
        c = inc.counter
        return (c.madds, c.spatial_evals, c.temporal_evals, c.stamp_batches,
                c.init_writes, c.shard_bbox_cells)

    @pytest.mark.parametrize("t_slab_voxels", ["auto", 4, None])
    def test_mutations_without_a_read_stamp_nothing(self, grid, t_slab_voxels):
        rng = np.random.default_rng(90)
        inc = IncrementalSTKDE(grid, t_slab_voxels=t_slab_voxels)
        inc.add(make_points(grid, 80, seed=90).coords)  # domain-wide
        for k in range(6):
            inc.slide_window(self._feed(grid, rng, k), t_horizon=3.0 * (k - 2))
            inc.remove(inc.live_coords[::9])
            inc.add(self._feed(grid, rng, k))
            assert inc.cached_buffer_cells == 0 and inc.units_stamped == 0
        assert inc.n > 0 and inc.units_live > 1
        assert inc.counter.madds == 0
        assert self._kernel_work(inc) == (0,) * 6

    def test_a_read_stamps_the_pending_units_only(self, grid):
        rng = np.random.default_rng(91)
        inc = IncrementalSTKDE(grid)
        for k in range(4):
            inc.add(self._feed(grid, rng, k))
        inc.volume()
        held = dict(zip((u.id for u in inc.window.units), buffers(inc)))
        before = self._kernel_work(inc)
        arrived = [self._feed(grid, rng, k) for k in (4, 5, 6)]
        for k, feed in zip((4, 5, 6), arrived):
            inc.slide_window(feed, t_horizon=3.0 * (k - 3))
        assert self._kernel_work(inc) == before
        pending = [
            rows for (_, rows), b in zip(inc.live_batches, buffers(inc))
            if b is None
        ]
        inc.volume()
        # Units that survived unchanged kept the same buffer object ...
        survivors = [
            (held[u.id], b) for u, b in zip(inc.window.units, buffers(inc))
            if u.id in held
        ]
        assert survivors and all(a is b for a, b in survivors)
        # ... and the read cost what a fresh estimator pays for the
        # pending units alone.
        alone = IncrementalSTKDE(grid, t_slab_voxels=None)
        for coords in pending:
            alone.add(coords)
        alone.volume()
        spent = tuple(
            a - b for a, b in zip(self._kernel_work(inc), before))
        assert spent == self._kernel_work(alone) and spent[0] > 0

    def test_units_minted_and_retired_between_reads_are_never_stamped(
        self, grid
    ):
        rng = np.random.default_rng(92)
        inc = IncrementalSTKDE(grid)
        inc.add(self._feed(grid, rng, 6))
        first = inc.volume().data
        before = self._kernel_work(inc)
        gone = self._feed(grid, rng, 0)
        inc.add(gone)
        inc.remove(gone[:5])  # re-planned, still pending
        inc.slide_window(np.empty((0, 3)), t_horizon=3.0)  # and retired
        short_lived = self._feed(grid, rng, 8)
        inc.add(short_lived)
        inc.remove(short_lived)
        np.testing.assert_array_equal(inc.volume().data, first)
        assert self._kernel_work(inc) == before

    def test_repeated_read_is_identical_and_stamps_nothing(self, grid):
        rng = np.random.default_rng(93)
        inc = IncrementalSTKDE(grid)
        for k in range(5):
            inc.slide_window(self._feed(grid, rng, k), t_horizon=3.0 * (k - 2))
        one = inc.volume().data
        after_one = self._kernel_work(inc)
        held = buffers(inc)
        two = inc.volume().data
        np.testing.assert_array_equal(one, two)
        assert one is not two
        assert self._kernel_work(inc) == after_one
        assert all(a is b for a, b in zip(held, buffers(inc)))


class TestSparseUnits:
    """A unit whose bounding box is mostly zero is held as its nonzero
    cells, which compose the same bits as its dense buffer."""

    @staticmethod
    def _stream_window(shape, hs, ht, n, batches=4, seed=0):
        """A read window of clustered stream batches, one t-voxel each
        (the benchmark's live-window shape)."""
        grid = GridSpec(DomainSpec.from_voxels(*shape), hs=hs, ht=ht)
        rng = np.random.default_rng(seed)
        extent = np.array(shape[:2], dtype=np.float64)
        centres = rng.uniform(0.2, 0.8, (8, 2)) * extent
        inc = IncrementalSTKDE(grid)
        for i in range(batches):
            xy = centres[np.arange(n) % 8] + rng.normal(0, 0.08, (n, 2)) * extent
            t = rng.uniform(ht + i, ht + i + 1, n)
            inc.add(np.column_stack([np.clip(xy, 0.01, extent - 0.01), t]))
        inc.volume()
        return inc

    def test_form_follows_the_nonzero_share(self):
        """Narrow stamps over a wide box (hs=2 over 384²) are held sparse,
        stamps that fill their box (hs=12 over 128²) dense."""
        narrow = self._stream_window((384, 384, 96), 2.0, 1.0, 1000, seed=4)
        assert narrow.units_live == 4
        assert all(isinstance(b, _SparseUnit) for b in buffers(narrow))
        assert narrow.cached_buffer_cells < narrow.counter.shard_bbox_cells / 4
        wide = self._stream_window((128, 128, 96), 12.0, 4.0, 250, seed=5)
        assert wide.units_live == 4
        assert all(isinstance(b, RegionBuffer) for b in buffers(wide))
        assert wide.cached_buffer_cells == wide.counter.shard_bbox_cells

    GRID = GridSpec(DomainSpec.from_voxels(96, 96, 24), hs=1.5, ht=1.0)

    @classmethod
    def _batch(cls, rng, kind, t0):
        """``sparse``: a few events scattered over the whole xy plane;
        ``dense``: many events packed into one small patch."""
        d = cls.GRID.domain
        if kind == "sparse":
            xy = rng.uniform(0, [d.gx, d.gy], (6, 2))
        else:
            xy = rng.uniform(0, 6, 2) + rng.uniform(40, 46, (60, 2))
        t = rng.uniform(t0, t0 + 2.0, len(xy))
        return np.column_stack([xy, t])

    @staticmethod
    def _cold(inc, force_dense=False):
        """A fresh estimator fed ``inc``'s live units, one add each;
        ``force_dense`` holds every unit as its dense buffer."""
        with pytest.MonkeyPatch.context() as mp:
            if force_dense:
                mp.setattr(incremental, "_SPARSE_SHARE", -1.0)
            cold = IncrementalSTKDE(inc.grid, t_slab_voxels=None)
            for _, coords in inc.live_batches:
                cold.add(coords)
            vol = cold.volume().data
        if force_dense:
            assert all(isinstance(b, RegionBuffer) for b in buffers(cold))
        return vol

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "slide"]),
                st.sampled_from(["sparse", "dense"]),
                st.floats(0.0, 20.0),
                st.integers(0, 2**16),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_window_composes_like_dense_and_cold(self, steps):
        rng = np.random.default_rng(0)
        inc = IncrementalSTKDE(self.GRID)
        inc.add(self._batch(rng, "sparse", 4.0))
        inc.add(self._batch(rng, "dense", 9.0))
        inc.volume()
        forms = {type(b) for b in buffers(inc)}
        assert forms == {_SparseUnit, RegionBuffer}
        for op, kind, t, seed in steps:
            rng = np.random.default_rng(seed)
            if op == "add":
                inc.add(self._batch(rng, kind, t))
            elif op == "remove" and inc.n:
                live = inc.live_coords
                k = rng.integers(1, len(live) + 1)
                inc.remove(live[rng.choice(len(live), k, replace=False)])
            elif op == "slide":
                inc.slide_window(self._batch(rng, kind, t + 2.0), t)
            vol = inc.volume().data
            np.testing.assert_array_equal(vol, self._cold(inc, force_dense=True))
            np.testing.assert_array_equal(vol, self._cold(inc))


class TestWeightedInputsRejected:
    """Satellite: weighted PointSets must not silently drop weights into
    the unnormalised accumulator."""

    def test_add_rejects_weighted_pointset(self, grid):
        pts = make_points(grid, 10, seed=50)
        weighted = PointSet(pts.coords, np.linspace(0.5, 2.0, 10))
        inc = IncrementalSTKDE(grid)
        with pytest.raises(ValueError, match="weights"):
            inc.add(weighted)
        assert inc.n == 0 and inc.version == 0  # nothing half-applied

    def test_remove_rejects_weighted_pointset(self, grid):
        pts = make_points(grid, 10, seed=51)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        with pytest.raises(ValueError, match="weights"):
            inc.remove(PointSet(pts.coords, np.ones(10) * 2.0))
        assert inc.n == 10

    def test_unit_weight_pointset_still_rejected_loudly(self, grid):
        """Even all-ones weights are refused: the caller asked for a
        weighted estimator, silence would mask the contract."""
        pts = make_points(grid, 5, seed=52)
        inc = IncrementalSTKDE(grid)
        with pytest.raises(ValueError, match="weights"):
            inc.add(PointSet(pts.coords, np.ones(5)))

    def test_plain_arrays_and_unweighted_sets_unaffected(self, grid):
        pts = make_points(grid, 8, seed=53)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        inc.add(pts.coords)
        assert inc.n == 16


class TestVolumeSemantics:
    def test_empty_estimator_zero_volume(self, grid):
        inc = IncrementalSTKDE(grid)
        v = inc.volume()
        assert not v.data.any()

    def test_volume_is_a_copy(self, grid):
        pts = make_points(grid, 10, seed=9)
        inc = IncrementalSTKDE(grid)
        inc.add(pts)
        v1 = inc.volume()
        v1.data[:] = 99.0
        np.testing.assert_allclose(
            inc.volume().data.max(), pb_sym(pts, grid).data.max(), rtol=1e-12
        )

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_composed_volume_needs_no_clamp(self, grid, kernel):
        """``volume()`` only ever adds ``+1``-normed stamps into zeros —
        slides drop units and ``remove`` rebuilds them, nothing is
        subtracted — so there is nothing for a clamp to do: no negative,
        no ``-0.0``."""
        rng = np.random.default_rng(70)
        inc = IncrementalSTKDE(grid, kernel=kernel)
        for step in range(12):
            feed = np.column_stack([
                rng.uniform(0, grid.domain.gx, 25),
                rng.uniform(0, grid.domain.gy, 25),
                rng.uniform(2.0 * step, 2.0 * step + 2.0, 25),
            ])
            inc.slide_window(feed, t_horizon=2.0 * (step - 4))
        inc.remove(inc.live_coords[::3])
        data = inc.volume().data
        assert data.any() and not np.signbit(data).any()
        assert np.maximum(data, 0.0).tobytes() == data.tobytes()

    def test_normalisation_tracks_n(self, grid):
        """Adding a far-away batch rescales earlier contributions by n."""
        a = PointSet(np.array([[5.0, 5.0, 5.0]]))
        b = PointSet(np.array([[18.0, 16.0, 25.0]]))
        inc = IncrementalSTKDE(grid)
        inc.add(a)
        peak1 = inc.volume().data.max()
        inc.add(b)
        peak2 = inc.volume().data[5, 5, 5]
        assert peak2 == pytest.approx(peak1 / 2, rel=1e-6)
