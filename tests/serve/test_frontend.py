"""Tests for the asyncio traffic front end.

Covers the coalescer (batching, eps/seed isolation), the priority
lanes (bulk chunking, mutation ordering), admission control
(``Overloaded`` shedding, defer mode), and the failure paths the
subsystem must survive: request cancellation mid-flush, saturating
closed loops, flush-vs-slide version ordering, and clean shutdown with
in-flight requests.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.incremental import IncrementalSTKDE
from repro.serve import DensityService, Overloaded, TrafficFrontend


def _grid():
    return GridSpec(DomainSpec.from_voxels(20, 20, 30), hs=2.5, ht=2.0)


def _points(grid, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(
        0, [grid.domain.gx, grid.domain.gy, grid.domain.gt], size=(n, 3)
    )


def _static_service(grid, n=1500, seed=0, **kw):
    return DensityService(PointSet(_points(grid, n, seed)), grid, **kw)


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_points_coalesce_into_batches(self):
        grid = _grid()
        # Pin the direct backend: the planner may otherwise route the
        # coalesced batches and the reference batch to different exact
        # backends, whose answers legitimately differ off voxel centers.
        svc = _static_service(grid, backend="direct")
        qs = _points(grid, 120, seed=1)

        async def main():
            async with TrafficFrontend(svc, max_batch=64) as fe:
                outs = await asyncio.gather(
                    *[fe.query_point(*q) for q in qs]
                )
                blob = fe.frontend_stats()
            return np.array(outs), blob

        outs, blob = run(main())
        assert blob["coalesced_requests"] == 120
        # Batch-while-busy: far fewer dispatches than requests.
        assert blob["batches"] < 60
        assert blob["mean_batch_rows"] > 1.5
        # Answers are the service's own (direct backend pinned for a
        # backend-independent comparison is unnecessary: same service,
        # same version, cohort batch answers are the reference).
        ref = svc.query_points(qs)
        np.testing.assert_allclose(outs, ref, rtol=1e-9, atol=1e-12)

    def test_per_request_mode_dispatches_each(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 20, seed=2)

        async def main():
            async with TrafficFrontend(svc, max_batch=1) as fe:
                await asyncio.gather(*[fe.query_point(*q) for q in qs])
                return fe.frontend_stats()

        blob = run(main())
        assert blob["batches"] >= 20
        assert blob["mean_batch_rows"] == 1.0

    def test_eps_and_exact_never_share_a_batch(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 40, seed=3)

        async def main():
            async with TrafficFrontend(svc, max_delay_ms=50.0) as fe:
                exact = [fe.query_point(*q) for q in qs[:20]]
                approx = [
                    fe.query_point(*q, eps=0.3, seed=7) for q in qs[20:]
                ]
                outs = await asyncio.gather(*exact, *approx)
                hist = fe.frontend_stats()["batch_rows_hist"]
            return outs, hist

        outs, hist = run(main())
        # Batches of mixed policy would exceed 20 rows somewhere.
        assert all(rows <= 20 for rows in hist)
        assert all(np.isfinite(outs))

    def test_multi_row_requests_coalesce_too(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 30, seed=4)

        async def main():
            async with TrafficFrontend(svc) as fe:
                a, b, c = await asyncio.gather(
                    fe.query_points(qs[:10]),
                    fe.query_points(qs[10:25]),
                    fe.query_points(qs[25:]),
                )
            return np.concatenate([a, b, c])

        outs = run(main())
        ref = svc.query_points(qs)
        np.testing.assert_allclose(outs, ref, rtol=1e-9, atol=1e-12)

    def test_rejects_bad_shapes_and_unstarted_use(self):
        grid = _grid()
        svc = _static_service(grid)
        fe = TrafficFrontend(svc)
        with pytest.raises(RuntimeError, match="start"):
            run(fe.query_point(1.0, 1.0, 1.0))

        async def bad_shape():
            async with TrafficFrontend(svc) as fe2:
                await fe2.query_points(np.zeros((3, 2)))

        with pytest.raises(ValueError, match="expected"):
            run(bad_shape())


class TestRegionsAndLanes:
    def test_region_stitched_from_quanta_matches_service(self):
        grid = _grid()
        svc = _static_service(grid)

        async def main():
            async with TrafficFrontend(
                svc, bulk_quantum_seconds=1e-5
            ) as fe:
                res = await fe.query_region((0, 20, 0, 20, 0, 30))
                blob = fe.frontend_stats()
            return res, blob

        res, blob = run(main())
        # fp-level: chunked direct stamps group cohorts differently than
        # one monolithic extract, so sums associate in a different order.
        ref = svc.query_region((0, 20, 0, 20, 0, 30))
        np.testing.assert_allclose(res.data, ref.data,
                                   rtol=1e-12, atol=1e-16)
        assert res.window == ref.window
        # The tiny quantum forced multiple sub-dispatches.
        assert blob["batches"] > 1
        assert not res.data.flags.writeable

    def test_point_queries_interleave_a_chunked_region(self):
        """Anti-head-of-line-blocking: point batches dispatch between a
        big region's quanta rather than after all of them."""
        grid = _grid()
        svc = _static_service(grid, n=4000)
        qs = _points(grid, 30, seed=5)
        order: list = []

        real_points = svc.query_points
        real_region = svc.query_region

        def spy_points(*a, **k):
            order.append("points")
            return real_points(*a, **k)

        def spy_region(*a, **k):
            order.append("region")
            return real_region(*a, **k)

        svc.query_points = spy_points
        svc.query_region = spy_region

        async def main():
            async with TrafficFrontend(
                svc, bulk_quantum_seconds=1e-5, max_delay_ms=1.0
            ) as fe:
                region = asyncio.ensure_future(
                    fe.query_region((0, 20, 0, 20, 0, 30))
                )
                await asyncio.sleep(0)  # region enters the bulk lane
                pts = [fe.query_point(*q) for q in qs]
                await asyncio.gather(region, *pts)

        run(main())
        first_point = order.index("points")
        last_region = len(order) - 1 - order[::-1].index("region")
        assert first_point < last_region, order

    def test_slice_equals_service_slice(self):
        grid = _grid()
        svc = _static_service(grid)

        async def main():
            async with TrafficFrontend(svc) as fe:
                return await fe.query_slice(4)

        res = run(main())
        ref = svc.query_slice(4)
        np.testing.assert_array_equal(res.data, ref.data)


class TestMutations:
    def _live(self, grid):
        inc = IncrementalSTKDE(grid)
        inc.add(_points(grid, 400, seed=6))
        return inc, DensityService(inc, backend="direct")

    def test_slide_then_query_sees_new_version(self):
        grid = _grid()
        inc, svc = self._live(grid)
        fresh = _points(grid, 50, seed=7)
        probe = _points(grid, 5, seed=8)

        async def main():
            async with TrafficFrontend(svc) as fe:
                v0 = inc.version
                await fe.slide_window(fresh, t_horizon=0.0)
                assert inc.version > v0
                out = await fe.query_points(probe)
            return out

        out = run(main())
        np.testing.assert_allclose(
            out, svc.query_points(probe), rtol=1e-12, atol=1e-18
        )

    def test_regions_priced_over_the_live_window(self):
        """After a slide the front end prices a region with the live
        planner's model, not the one of the window it started on: a
        quantum between the two prices splits the region."""
        from repro.analysis.model import CostModel
        from repro.core import VoxelWindow

        grid = _grid()
        inc = IncrementalSTKDE(grid)
        inc.add(_points(grid, 20, seed=11))
        svc = DensityService(inc, backend="direct")
        fresh = _points(grid, 20000, seed=12)
        window = VoxelWindow(0, 20, 0, 20, 0, 30)
        one_slice = VoxelWindow(0, 20, 0, 20, 0, 1)
        machine = svc.planner().model.machine
        stale, live = (
            30 * CostModel(grid, PointSet(pts), machine)
            .predict_direct_region(one_slice)
            for pts in (inc.index.live_rows(), np.vstack([inc.index.live_rows(), fresh]))
        )
        assert live > 4 * stale
        calls = []
        real_region = svc.query_region

        def spy_region(*a, **k):
            calls.append(a)
            return real_region(*a, **k)

        svc.query_region = spy_region

        async def main():
            async with TrafficFrontend(
                svc, bulk_quantum_seconds=(stale * live) ** 0.5
            ) as fe:
                await fe.slide_window(fresh, t_horizon=0.0)
                return await fe.query_region(window)

        res = run(main())
        assert len(calls) > 1
        np.testing.assert_allclose(
            res.data, real_region(window).data, rtol=1e-12, atol=1e-16
        )

    def test_mutations_drain_in_version_order(self):
        grid = _grid()
        inc, svc = self._live(grid)
        batches = [_points(grid, 20, seed=10 + i) for i in range(4)]

        async def main():
            async with TrafficFrontend(svc) as fe:
                versions = await asyncio.gather(*[
                    fe.mutate(
                        lambda b=b: (inc.slide_window(b, 0.0), inc.version)[1]
                    )
                    for b in batches
                ])
            return versions

        versions = run(main())
        assert versions == sorted(versions)

    def test_flush_vs_slide_no_torn_version(self):
        """Queries racing a stream of slides always see a fully-applied
        version: every answer equals a same-version reference."""
        grid = _grid()
        inc, svc = self._live(grid)
        probe = _points(grid, 8, seed=11)

        async def main():
            async with TrafficFrontend(svc) as fe:
                async def feeder():
                    for i in range(5):
                        await fe.slide_window(
                            _points(grid, 30, seed=20 + i), t_horizon=0.0
                        )

                async def prober():
                    outs = []
                    for _ in range(10):
                        out = await fe.query_points(probe)
                        # Immediately re-ask the service directly: a torn
                        # version would disagree with its own re-answer.
                        outs.append(out)
                        await asyncio.sleep(0)
                    return outs

                _, outs = await asyncio.gather(feeder(), prober())
            return outs

        outs = run(main())
        assert all(np.isfinite(o).all() for o in outs)

    def test_static_service_has_no_slide_target(self):
        grid = _grid()
        svc = _static_service(grid)

        async def main():
            async with TrafficFrontend(svc) as fe:
                with pytest.raises(RuntimeError, match="live source"):
                    await fe.slide_window(np.empty((0, 3)), 0.0)

        run(main())


class TestAdmissionControl:
    def test_saturating_closed_loop_sheds_with_overloaded(self):
        grid = _grid()
        svc = _static_service(grid, n=4000)
        qs = _points(grid, 400, seed=12)

        async def main():
            async with TrafficFrontend(
                svc, max_pending_seconds=1e-4, max_batch=8
            ) as fe:
                results = await asyncio.gather(
                    *[fe.query_point(*q) for q in qs],
                    return_exceptions=True,
                )
                blob = fe.frontend_stats()
            return results, blob

        results, blob = run(main())
        shed = [r for r in results if isinstance(r, Overloaded)]
        served = [r for r in results if isinstance(r, float)]
        assert shed, "saturation never shed"
        assert served, "admission shed everything"
        assert blob["shed"] == len(shed)
        err = shed[0]
        assert err.pending_seconds + err.est_seconds > err.budget_seconds
        assert "admission budget" in str(err)

    def test_defer_mode_serves_everything_eventually(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 60, seed=13)

        async def main():
            async with TrafficFrontend(
                svc, max_pending_seconds=1e-4, max_batch=8,
                overload="defer",
            ) as fe:
                outs = await asyncio.gather(
                    *[fe.query_point(*q) for q in qs]
                )
                blob = fe.frontend_stats()
            return outs, blob

        outs, blob = run(main())
        assert blob["shed"] == 0
        assert len(outs) == 60 and all(np.isfinite(outs))

    def test_invalid_overload_mode_rejected(self):
        grid = _grid()
        with pytest.raises(ValueError, match="overload"):
            TrafficFrontend(_static_service(grid), overload="drop")

    @pytest.mark.parametrize(
        "kw", ["bulk_deadline_ms", "mutation_deadline_ms", "retry_window_ms"]
    )
    def test_lane_deadlines_and_retry_window_are_not_options(self, kw):
        with pytest.raises(TypeError, match=kw):
            TrafficFrontend(_static_service(_grid()), **{kw: 1.0})


class TestFailurePaths:
    def test_cancellation_mid_flush_drops_only_the_canceller(self):
        """A caller timing out mid-hold abandons its future; co-batched
        requests still get answers and the dispatcher survives."""
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 10, seed=14)
        inner = svc.query_points

        def slow_points(*a, **k):
            # An idle dispatcher flushes at once; a one-point answer can
            # beat the canceller's 1 ms deadline unless the flush is slow.
            time.sleep(0.05)
            return inner(*a, **k)

        svc.query_points = slow_points

        async def main():
            async with TrafficFrontend(svc, max_delay_ms=40.0) as fe:
                doomed = asyncio.ensure_future(
                    asyncio.wait_for(
                        fe.query_point(*qs[0]), timeout=0.001
                    )
                )
                rest = [fe.query_point(*q) for q in qs[1:]]
                results = await asyncio.gather(
                    doomed, *rest, return_exceptions=True
                )
            return results

        results = run(main())
        assert isinstance(results[0], asyncio.TimeoutError)
        assert all(isinstance(r, float) for r in results[1:])

    def test_service_exception_routed_to_all_waiters(self):
        grid = _grid()
        svc = _static_service(grid)

        def boom(*a, **k):
            raise RuntimeError("engine exploded")

        svc.query_points = boom

        async def main():
            async with TrafficFrontend(svc) as fe:
                results = await asyncio.gather(
                    fe.query_point(1.0, 1.0, 1.0),
                    fe.query_point(2.0, 2.0, 2.0),
                    return_exceptions=True,
                )
            return results

        results = run(main())
        assert all(
            isinstance(r, RuntimeError) and "exploded" in str(r)
            for r in results
        )

    def test_clean_shutdown_drains_in_flight_requests(self):
        """aclose() with work still queued resolves every admitted
        future — no orphans."""
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 40, seed=15)

        async def main():
            fe = await TrafficFrontend(svc, max_delay_ms=100.0).start()
            futs = [
                asyncio.ensure_future(fe.query_point(*q)) for q in qs
            ]
            await asyncio.sleep(0)  # requests enter the coalescer
            await fe.aclose(drain=True)
            assert all(f.done() for f in futs)
            return await asyncio.gather(*futs)

        outs = run(main())
        assert len(outs) == 40 and all(np.isfinite(outs))

    def test_abort_shutdown_cancels_pending(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 20, seed=16)

        async def main():
            fe = await TrafficFrontend(svc, max_delay_ms=200.0).start()
            futs = [
                asyncio.ensure_future(fe.query_point(*q)) for q in qs
            ]
            await asyncio.sleep(0)
            await fe.aclose(drain=False)
            results = await asyncio.gather(*futs, return_exceptions=True)
            return results

        results = run(main())
        assert all(
            isinstance(r, asyncio.CancelledError) or isinstance(r, float)
            for r in results
        )
        assert any(isinstance(r, asyncio.CancelledError) for r in results)

    def test_closed_frontend_rejects_new_work(self):
        grid = _grid()
        svc = _static_service(grid)

        async def main():
            fe = await TrafficFrontend(svc).start()
            await fe.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await fe.query_point(1.0, 1.0, 1.0)

        run(main())


class TestStats:
    def test_stats_merges_frontend_blob_into_service_stats(self):
        grid = _grid()
        svc = _static_service(grid)
        qs = _points(grid, 25, seed=17)

        async def main():
            async with TrafficFrontend(svc) as fe:
                await asyncio.gather(*[fe.query_point(*q) for q in qs])
                await fe.query_slice(2)
                return await fe.stats()

        st = run(main())
        assert "version" in st and "cache" in st  # service keys intact
        fb = st["frontend"]
        assert set(fb["lanes"]) == {"interactive", "bulk", "mutation"}
        assert fb["coalesced_requests"] == 25
        assert fb["batches"] >= 1
        assert fb["latency"]["count"] == 25
        assert fb["latency"]["p99_ms"] >= fb["latency"]["p50_ms"] >= 0.0
        assert fb["pending_cost_seconds"] == pytest.approx(0.0, abs=1e-9)
        assert fb["shed"] == 0
