"""Tests for the LRU query cache and the DensityService facade.

The acceptance-critical properties live here: the cache invalidates on
``slide_window`` (version-keyed entries are dropped and fresh answers
match a from-scratch recomputation), and the service answers point /
slice / region queries with both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pb_sym import pb_sym
from repro.analysis.model import MachineModel
from repro.core import PointSet, VoxelWindow
from repro.core.incremental import IncrementalSTKDE
from repro.serve import DensityService, QueryCache
from tests.helpers import make_clustered_points, make_points
from tests.serve.test_engine import voxel_center_queries

MACHINE = MachineModel(
    c_mem=1e-9, c_point=1e-7, c_cell=2e-9, c_batch=1e-5,
    c_lookup=5e-8, c_qpair=2e-9,
)


class TestQueryCache:
    def test_put_get_roundtrip(self):
        c = QueryCache(max_entries=4)
        key = QueryCache.make_key(0, "points", "direct", "abc")
        assert c.get(key) is None
        assert c.put(key, np.arange(3), 24)
        got = c.get(key)
        np.testing.assert_array_equal(got, np.arange(3))
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_order(self):
        c = QueryCache(max_entries=2)
        c.put(("a",), 1)
        c.put(("b",), 2)
        c.get(("a",))  # refresh a: b becomes LRU
        c.put(("c",), 3)
        assert c.get(("b",)) is None
        assert c.get(("a",)) == 1
        assert c.evictions == 1

    def test_byte_ceiling_evicts_and_rejects(self):
        c = QueryCache(max_entries=10, max_bytes=100)
        assert c.put(("a",), "x", 60)
        assert c.put(("b",), "y", 60)  # evicts a to fit
        assert c.get(("a",)) is None
        assert c.total_bytes == 60
        assert not c.put(("huge",), "z", 1000)  # never fits: not cached
        assert len(c) == 1

    def test_drop_stale_versions(self):
        c = QueryCache()
        c.put(QueryCache.make_key(0, "points", "k1"), 1)
        c.put(QueryCache.make_key(0, "region", "k2"), 2)
        c.put(QueryCache.make_key(1, "points", "k1"), 3)
        assert c.drop_stale(1) == 2
        assert c.get(QueryCache.make_key(1, "points", "k1")) == 3
        assert c.get(QueryCache.make_key(0, "points", "k1")) is None
        assert c.invalidations == 2

    def test_replace_updates_bytes(self):
        c = QueryCache(max_bytes=100)
        c.put(("a",), 1, 40)
        c.put(("a",), 2, 70)
        assert c.total_bytes == 70
        assert c.get(("a",)) == 2

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)


class TestServiceStatic:
    def test_repeat_point_query_hits_cache(self, small_grid):
        pts = make_points(small_grid, 80, seed=50)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        q = pts.coords[:10]
        a = svc.query_points(q, backend="direct")
        b = svc.query_points(q, backend="direct")
        assert svc.cache.hits == 1
        np.testing.assert_array_equal(a, b)
        assert svc.stats()["backend_calls"]["direct"] == 1  # computed once

    def test_slice_and_region_both_backends(self, small_grid):
        pts = make_clustered_points(small_grid, 100, seed=51)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        ref = pb_sym(pts, small_grid)
        for backend in ("direct", "lookup"):
            s = svc.query_slice(4, backend=backend)
            np.testing.assert_allclose(
                s.time_slice(), ref.data[:, :, 4], rtol=1e-6, atol=1e-18
            )
            r = svc.query_region((1, 7, 2, 9, 3, 10), backend=backend)
            np.testing.assert_allclose(
                r.data, ref.data[1:7, 2:9, 3:10], rtol=1e-6, atol=1e-18
            )

    def test_lookup_slice_is_view_of_materialised_volume(self, small_grid):
        pts = make_points(small_grid, 50, seed=52)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        s = svc.query_slice(3, backend="lookup")
        assert s.is_view
        assert np.shares_memory(s.data, svc.materialize().data)
        assert svc.stats()["volume_builds"] == 1  # one build serves both

    def test_each_service_keeps_its_own_cache(self, small_grid):
        """Two services over different events at the same version answer
        the same batch from their own caches, never from each other's."""
        pts_b = make_points(small_grid, 80, seed=57)
        a = DensityService(make_points(small_grid, 80, seed=56), small_grid,
                           machine=MACHINE)
        b = DensityService(pts_b, small_grid, machine=MACHINE)
        assert a.cache is not b.cache
        q = make_points(small_grid, 10, seed=58).coords
        first = a.query_points(q, backend="direct")
        second = b.query_points(q, backend="direct")
        assert b.cache.hits == 0 and b.cache.misses == 1
        assert not np.array_equal(first, second)
        fresh = DensityService(pts_b, small_grid, machine=MACHINE)
        np.testing.assert_array_equal(
            second, fresh.query_points(q, backend="direct")
        )

    def test_static_requires_grid(self, small_grid):
        pts = make_points(small_grid, 10, seed=53)
        with pytest.raises(ValueError, match="grid"):
            DensityService(pts)

    def test_empty_source_serves_zeros(self, small_grid):
        svc = DensityService(PointSet(np.empty((0, 3))), small_grid,
                             machine=MACHINE)
        out = svc.query_points(np.array([[1.0, 1.0, 1.0]]), backend="direct")
        np.testing.assert_array_equal(out, [0.0])
        s = svc.query_slice(0, backend="lookup")
        assert not s.data.any()

    def test_results_are_read_only(self, small_grid):
        pts = make_points(small_grid, 30, seed=55)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        out = svc.query_points(pts.coords[:3], backend="direct")
        with pytest.raises(ValueError):
            out[0] = 1.0
        reg = svc.query_region((0, 4, 0, 4, 0, 4), backend="lookup")
        with pytest.raises(ValueError):
            reg.data[0, 0, 0] = 1.0


class TestServiceWeighted:
    def test_weighted_served_by_both_backends(self, small_grid):
        """The weighted stamp mode opens the volume backends: lookup
        point queries, slices, and regions all honour the weights."""
        pts = make_points(small_grid, 40, seed=56)
        w = np.linspace(0.5, 2.0, 40)
        svc = DensityService(PointSet(pts.coords, w), small_grid,
                             machine=MACHINE)
        q, vox = voxel_center_queries(small_grid)
        direct = svc.query_points(q, backend="direct")
        lookup = svc.query_points(q, backend="lookup")
        # Both are exact at voxel centers.
        np.testing.assert_allclose(lookup, direct, rtol=1e-6, atol=1e-18)
        vol = svc.materialize()
        np.testing.assert_allclose(
            direct, vol.data[vox[:, 0], vox[:, 1], vox[:, 2]],
            rtol=1e-6, atol=1e-18,
        )
        for backend in ("direct", "lookup"):
            s = svc.query_slice(4, backend=backend)
            np.testing.assert_allclose(
                s.time_slice(), vol.data[:, :, 4], rtol=1e-6, atol=1e-18
            )

    def test_weighted_volume_is_weighted_estimator(self, small_grid):
        """The materialised volume of a weighted set equals the weighted
        sum of per-event stamps over total weight (brute force)."""
        pts = make_points(small_grid, 25, seed=60)
        w = np.linspace(0.2, 3.0, 25)
        svc = DensityService(PointSet(pts.coords, w), small_grid,
                             machine=MACHINE)
        vol = svc.materialize().data
        from repro.core.stamping import stamp_batch

        brute = small_grid.allocate()
        for i in range(25):
            one = np.zeros(small_grid.shape)
            stamp_batch(one, small_grid, svc.kernel, pts.coords[i : i + 1], 1.0)
            brute += w[i] * one
        brute /= w.sum() * small_grid.hs ** 2 * small_grid.ht
        np.testing.assert_allclose(vol, brute, rtol=1e-12, atol=1e-18)

    def test_uniform_weights_match_unweighted(self, small_grid):
        pts = make_points(small_grid, 40, seed=57)
        weighted = DensityService(
            PointSet(pts.coords, np.full(40, 2.0)), small_grid, machine=MACHINE
        )
        plain = DensityService(pts, small_grid, machine=MACHINE)
        q = pts.coords[:8]
        # Constant weights cancel in the normalised estimator.
        np.testing.assert_allclose(
            weighted.query_points(q),
            plain.query_points(q, backend="direct"),
            rtol=1e-12,
        )


class TestServiceLive:
    def make_live(self, grid, n=120):
        pts = make_clustered_points(grid, n, seed=58)
        inc = IncrementalSTKDE(grid)
        inc.add(pts.coords)
        return pts, inc, DensityService(inc, machine=MACHINE)

    def test_live_matches_batch(self, small_grid):
        pts, _, svc = self.make_live(small_grid)
        ref = pb_sym(pts, small_grid)
        q, vox = voxel_center_queries(small_grid)
        for backend in ("direct", "lookup"):
            out = svc.query_points(q, backend=backend)
            np.testing.assert_allclose(
                out, ref.data[vox[:, 0], vox[:, 1], vox[:, 2]],
                rtol=1e-6, atol=1e-15,
            )

    def test_slide_window_invalidates_and_reanswers(self, small_grid):
        """Acceptance: cache invalidates on slide_window, and post-slide
        answers match a from-scratch estimate of the new window."""
        pts, inc, svc = self.make_live(small_grid)
        q, vox = voxel_center_queries(small_grid)
        before = svc.query_points(q, backend="direct")
        svc.query_points(q, backend="direct")
        assert svc.cache.hits == 1
        entries_before = len(svc.cache)
        assert entries_before > 0

        horizon = float(np.median(pts.coords[:, 2]))
        fresh = make_points(small_grid, 40, seed=59).coords
        inc.slide_window(PointSet(fresh), t_horizon=horizon)

        after = svc.query_points(q, backend="direct")
        assert svc.cache.invalidations >= entries_before  # stale dropped
        live = np.vstack([pts.coords[pts.coords[:, 2] >= horizon], fresh])
        ref = pb_sym(PointSet(live), small_grid)
        np.testing.assert_allclose(
            after, ref.data[vox[:, 0], vox[:, 1], vox[:, 2]],
            rtol=1e-6, atol=1e-15,
        )
        assert not np.allclose(after, before)  # the window really moved

    def test_volume_rebuilt_after_slide(self, small_grid):
        pts, inc, svc = self.make_live(small_grid)
        assert not svc.volume_ready
        svc.query_slice(2, backend="lookup")
        assert svc.volume_ready
        horizon = float(np.median(pts.coords[:, 2]))
        assert inc.slide_window(np.empty((0, 3)), t_horizon=horizon) > 0
        assert not svc.volume_ready  # dropped on version change
        svc.query_slice(2, backend="lookup")
        assert svc.stats()["volume_builds"] == 2

    @pytest.mark.parametrize("live", [False, True], ids=["static", "live"])
    def test_region_backends_agree_to_rtol(self, small_grid, live):
        """Direct and lookup regions stamp the same events, summed in
        different orders: they agree at rtol=1e-12, not bit for bit —
        the contract under which auto mode serves whichever is cached."""
        pts, inc, svc = self.make_live(small_grid)
        if live:
            fresh = make_points(small_grid, 40, seed=61).coords
            inc.slide_window(fresh, t_horizon=5.0)
        else:
            svc = DensityService(pts, small_grid, machine=MACHINE)
        for w in (small_grid.full_window(), VoxelWindow(1, 9, 2, 13, 0, 7),
                  VoxelWindow(4, 16, 0, 6, 6, 20)):
            d = svc.query_region(w, backend="direct").data
            lk = svc.query_region(w, backend="lookup").data
            assert d.any()
            np.testing.assert_allclose(d, lk, rtol=1e-12, atol=0)

    def test_stats_show_whether_anybody_reads_the_buffers(self, small_grid):
        """``units_stamped`` of ``units_live``: direct answers come off
        the index and stamp nothing; the first lookup stamps the window,
        a slide leaves only the arriving unit pending."""
        pts, inc, svc = self.make_live(small_grid)
        svc.query_points(voxel_center_queries(small_grid)[0], backend="direct")
        work = svc.stats()["work"]
        assert work["units_live"] == inc.units_live > 0
        # One counter per live window: the direct sums' pairs land on it,
        # but no stamp of a unit buffer does.
        assert work["units_stamped"] == 0 and inc.counter.init_writes == 0
        svc.query_slice(2, backend="lookup")
        work = svc.stats()["work"]
        assert work["units_stamped"] == work["units_live"]
        fresh = make_points(small_grid, 40, seed=58).coords
        inc.slide_window(fresh, t_horizon=float("-inf"))
        work = svc.stats()["work"]
        assert work["units_live"] - work["units_stamped"] == 1

    def test_quiet_slide_keeps_caches_warm(self, small_grid):
        """A tick that retires and adds nothing must not invalidate: the
        dashboard keeps its volume, index, and cache entries."""
        pts, inc, svc = self.make_live(small_grid)
        svc.query_slice(2, backend="lookup")
        v = svc.version
        assert inc.slide_window(
            np.empty((0, 3)), t_horizon=float("-inf")
        ) == 0
        assert svc.version == v
        assert svc.volume_ready
        svc.query_slice(2, backend="lookup")
        assert svc.cache.hits == 1
        assert svc.stats()["volume_builds"] == 1

    def test_cache_hit_skips_planning(self, small_grid):
        """Auto-mode repeats must not pay the planner: a warm hit works
        even with a machine model that was never calibrated (planner
        construction would need one)."""
        pts = make_clustered_points(small_grid, 60, seed=61)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        q = pts.coords[:6]
        first = svc.query_points(q)  # auto: plans, computes, caches
        planner = svc._planner
        svc._planner = None  # a second plan would rebuild this
        again = svc.query_points(q)
        np.testing.assert_array_equal(first, again)
        assert svc._planner is None  # hit never touched the planner
        svc._planner = planner

    def test_off_domain_queries_agree_across_backends(self, small_grid):
        """Outside the domain box the lookup backend routes through the
        index, so a sentinel cannot flip answers with the plan."""
        pts = make_clustered_points(small_grid, 80, seed=62)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        d = small_grid.domain
        q = np.array([
            [d.x0 + d.gx + 0.5 * small_grid.hs, d.y0 + 1.0, d.t0 + 1.0],
            [d.x0 - 100.0, d.y0 - 100.0, d.t0 - 100.0],
            [d.x0 + 1.0, d.y0 + 1.0, d.t0 + 1.0],  # inside, still lookup
        ])
        direct = svc.query_points(q, backend="direct")
        lookup = svc.query_points(q, backend="lookup")
        np.testing.assert_allclose(lookup[:2], direct[:2], rtol=1e-12)
        assert lookup[1] == 0.0  # far outside: true zero, not a plateau

    def test_backends_agree_after_remove(self, small_grid):
        """Regression: remove() untracks events, so the direct backend's
        index (rebuilt from live_coords) matches the volume backend."""
        pts, inc, svc = self.make_live(small_grid)
        inc.remove(pts.coords[:40])
        q, vox = voxel_center_queries(small_grid)
        d = svc.query_points(q, backend="direct")
        l = svc.query_points(q, backend="lookup")
        np.testing.assert_allclose(d, l, rtol=1e-6, atol=1e-12)
        ref = pb_sym(PointSet(pts.coords[40:]), small_grid)
        np.testing.assert_allclose(
            d, ref.data[vox[:, 0], vox[:, 1], vox[:, 2]],
            rtol=1e-6, atol=1e-12,
        )

    def test_kernel_mismatch_rejected(self, small_grid):
        inc = IncrementalSTKDE(small_grid, kernel="quartic")
        with pytest.raises(ValueError, match="kernel"):
            DensityService(inc, kernel="epanechnikov")

    def test_stats_shape(self, small_grid):
        _, _, svc = self.make_live(small_grid)
        svc.query_points(np.array([[1.0, 1.0, 1.0]]), backend="direct")
        stats = svc.stats()
        assert stats["events"] == 120
        assert stats["backend_calls"]["direct"] == 1
        assert set(stats["cache"]) == {
            "entries", "bytes", "hits", "misses", "evictions", "invalidations"
        }
        assert stats["index"]["segments"] == 1
        assert stats["cache_hit_ratio"] == 0.0

    def test_slide_syncs_index_incrementally(self, small_grid):
        """Tentpole acceptance: across a slide the service keeps the
        index warm — only the arriving batch is re-bucketed, surviving
        batches keep their segments."""
        pts, inc, svc = self.make_live(small_grid)
        idx_before = svc.index()
        assert svc.counter.index_events_bucketed == 120
        # Horizon below every event: nothing retires, batches survive.
        fresh = make_points(small_grid, 25, seed=63).coords
        inc.slide_window(PointSet(fresh), t_horizon=-1.0)
        idx_after = svc.index()
        assert idx_after is idx_before is inc.index  # the estimator's own
        assert idx_after.segment_count == 2
        assert svc.counter.index_events_bucketed == 145  # +batch, not +n
        # A full retirement drops exactly the expired segments.
        inc.slide_window(np.empty((0, 3)), t_horizon=float("inf"))
        assert svc.index() is idx_before
        assert svc.index().n == 0
        assert svc.counter.index_events_bucketed == 145  # retire buckets nothing

    def test_incremental_index_answers_match_rebuild(self, small_grid):
        """Randomized slide sequence: the warm index's answers equal a
        cold service's at every step."""
        rng = np.random.default_rng(64)
        pts, inc, svc = self.make_live(small_grid)
        q, _ = voxel_center_queries(small_grid)
        for step in range(4):
            horizon = float(np.quantile(inc.live_coords[:, 2], 0.3)) if inc.n else 0.0
            fresh = make_points(small_grid, int(rng.integers(10, 40)),
                                seed=65 + step).coords
            inc.slide_window(PointSet(fresh), t_horizon=horizon)
            warm = svc.query_points(q, backend="direct")
            cold = DensityService(
                PointSet(inc.live_coords), small_grid, machine=MACHINE
            ).query_points(q, backend="direct")
            np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=1e-18)
            assert svc.index().segment_count == len(inc.live_batches)


class TestStaticMaterialize:
    def test_static_build_is_one_serial_stamp(self, monkeypatch):
        """No cost prediction puts a build on threads: on an x-elongated
        instance (thin, near-disjoint shard boxes — where a threaded build
        used to be predicted to win), with a machine model at hand and
        four cores on offer, a static ``materialize()`` is the same serial
        stamp, bit for bit, as without either."""
        from repro.core import DomainSpec, GridSpec
        import repro.serve.service as service_mod

        grid = GridSpec(DomainSpec.from_voxels(120, 10, 10), hs=1.0, ht=1.0)
        pts = PointSet(
            np.random.default_rng(66).uniform(0, [120, 10, 10], size=(600, 3))
        )
        ref = DensityService(pts, grid).materialize()
        monkeypatch.setattr(service_mod, "resolve_shard_count", lambda P: 4)
        svc = DensityService(pts, grid, machine=MACHINE)
        assert np.array_equal(svc.materialize().data, ref.data)
        assert svc.stats()["volume_build_backend"] == "stamp"
