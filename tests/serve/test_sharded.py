"""Sharded serving tier: partition exactness, routing, faults, planning.

The tentpole equivalence claim is pinned at ``rtol=1e-12``: the shard
partition is *disjoint event ownership*, so the gathered per-shard
partial sums re-associate (never re-weight) the single-process
estimator — on point, slice and region queries, for weighted static
snapshots, and across live ``add``/``remove``/``slide_window`` feeds.

Worker processes use the spawn start method; the grids here are tiny so
each pool costs fractions of a second to stand up.  Fault-path tests
exercise the contract that a dying worker surfaces a clear coordinator
error (never a hang) and that ``close()``/context exit always reap the
pool.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.analysis.model import CostModel, MachineModel
from repro.cli import main
from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.backends import DEFAULT_BACKEND
from repro.core.incremental import IncrementalSTKDE
from repro.serve import (
    DensityService,
    QueryPlanner,
    ShardPlan,
    ShardedDensityService,
    calibrate_ipc,
    plan_shards,
)
from tests.helpers import make_clustered_points

RTOL = 1e-12
ATOL = 1e-300  # densities are nonnegative; 0-vs-0 must compare equal


def make_grid(vox=(40, 32, 24), hs=4.0, ht=3.0) -> GridSpec:
    return GridSpec(DomainSpec.from_voxels(*vox), hs=hs, ht=ht)


def span_of(grid: GridSpec) -> np.ndarray:
    d = grid.domain
    return np.array([d.gx, d.gy, d.gt])


NOMINAL = MachineModel.nominal()


# ---------------------------------------------------------------------------
# ShardPlan geometry (no processes)
# ---------------------------------------------------------------------------
class TestShardPlan:
    def test_partition_is_a_permutation(self):
        grid = make_grid()
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, span_of(grid), size=(500, 3))
        plan = plan_shards(grid, coords, 4)
        parts = plan.partition(coords)
        assert len(parts) == plan.n_shards == 4
        joined = np.concatenate(parts)
        assert np.array_equal(np.sort(joined), np.arange(500))

    def test_owner_matches_cut_intervals(self):
        grid = make_grid()
        plan = ShardPlan(grid, np.array([10.0, 20.0]))
        xs = np.array([0.0, 9.999, 10.0, 15.0, 20.0, 39.0])
        assert plan.owner_of(xs).tolist() == [0, 0, 1, 1, 2, 2]

    def test_scatter_span_always_contains_the_owner(self):
        grid = make_grid()
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, span_of(grid), size=(300, 3))
        plan = plan_shards(grid, coords, 5)
        xs = rng.uniform(-2, span_of(grid)[0] + 2, size=200)
        lo, hi = plan.scatter_spans(xs)
        owner = plan.owner_of(np.clip(xs, 0, span_of(grid)[0]))
        assert np.all(lo <= owner) and np.all(owner <= hi)
        assert np.all(hi >= lo)

    def test_halo_defaults_to_bandwidth_and_widens_spans(self):
        grid = make_grid(hs=4.0)
        plan = ShardPlan(grid, np.array([20.0]))
        assert plan.halo == pytest.approx(4.0)
        # Within one halo of the cut: both shards are contacted.
        lo, hi = plan.scatter_spans(np.array([17.0, 23.9, 5.0, 35.0]))
        assert (hi - lo).tolist() == [1, 1, 0, 0]

    def test_shards_for_window_covers_reaching_events(self):
        grid = make_grid(hs=4.0)
        plan = ShardPlan(grid, np.array([20.0]))
        # Window ends at x-voxel 18 (domain x=18): events beyond the cut
        # at 20 still reach it through the 4-unit kernel support.
        from repro.core.grid import VoxelWindow

        w = VoxelWindow(10, 18, 0, 8, 0, 4)
        assert plan.shards_for_window(w).tolist() == [0, 1]
        w_far = VoxelWindow(0, 10, 0, 8, 0, 4)
        assert plan.shards_for_window(w_far).tolist() == [0]

    def test_decreasing_cuts_rejected(self):
        grid = make_grid()
        with pytest.raises(ValueError, match="nondecreasing"):
            ShardPlan(grid, np.array([20.0, 10.0]))


# ---------------------------------------------------------------------------
# Static equivalence (the rtol=1e-12 tentpole claim)
# ---------------------------------------------------------------------------
class TestStaticEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        grid = make_grid()
        rng = np.random.default_rng(7)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(800, 3)))
        q = rng.uniform(-2, span_of(grid) + 2, size=(200, 3))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=3, machine=NOMINAL
        ) as svc:
            yield grid, pts, q, ref, svc

    def test_point_queries_match(self, setup):
        _, _, q, ref, svc = setup
        got = svc.query_points(q, backend="sharded")
        want = ref.query_points(q, backend="direct")
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_region_and_slice_match(self, setup):
        grid, _, _, ref, svc = setup
        w = (5, 30, 0, 32, 3, 9)
        got = svc.query_region(w, backend="sharded")
        want = ref.query_region(w, backend="direct")
        np.testing.assert_allclose(got.data, want.data, rtol=RTOL, atol=ATOL)
        sl = svc.query_slice(4)
        sl_ref = ref.query_slice(4, backend="direct")
        np.testing.assert_allclose(sl.data, sl_ref.data, rtol=RTOL, atol=ATOL)

    def test_local_fallback_matches_sharded(self, setup):
        _, _, q, _, svc = setup
        np.testing.assert_allclose(
            svc.query_points(q, backend="local"),
            svc.query_points(q, backend="sharded"),
            rtol=RTOL, atol=ATOL,
        )

    def test_stats_merge_per_worker_gauges(self, setup):
        _, pts, q, _, svc = setup
        svc.query_points(q, backend="sharded")
        st = svc.stats()
        assert st["n_shards"] == 3
        assert st["events"] == pts.coords.shape[0]
        assert len(st["workers"]) == 3
        assert sum(w["events"] for w in st["workers"]) == pts.coords.shape[0]
        # Worker-side work counters reached the merged view.
        assert st["work"]["distance_tests"] > 0
        assert st["work"]["shard_messages"] > 0
        assert st["work"]["shard_rows_shipped"] > 0

    def test_weighted_static_matches(self):
        grid = make_grid()
        rng = np.random.default_rng(8)
        coords = rng.uniform(0, span_of(grid), size=(400, 3))
        pts = PointSet(coords, rng.uniform(0.5, 3.0, size=400))
        q = rng.uniform(0, span_of(grid), size=(120, 3))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL
        ) as svc:
            np.testing.assert_allclose(
                svc.query_points(q, backend="sharded"),
                ref.query_points(q, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )


# ---------------------------------------------------------------------------
# Live feeds: add / remove / slide_window + O(affected shards) routing
# ---------------------------------------------------------------------------
class TestLiveEquivalence:
    def test_add_remove_slide_match_single_process(self):
        grid = make_grid()
        rng = np.random.default_rng(11)
        span = span_of(grid)
        q = rng.uniform(-1, span + 1, size=(150, 3))
        inc = IncrementalSTKDE(grid)
        ref = DensityService(inc, machine=NOMINAL)

        def check(svc, live):
            np.testing.assert_allclose(
                svc.query_points(q),
                ref.query_points(q, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            # The routing gauges, read off the replay logs, against the
            # rows each shard owns and the events its worker holds.
            owner = svc.plan.owner_of(live[:, 0])
            st = svc.stats()
            for s in range(svc.n_shards):
                t = live[owner == s, 2]
                assert st["shard_events"][s] == len(t)
                assert st["workers"][s]["events"] == len(t)
                min_t = t.min() if len(t) else np.inf
                assert svc._sup.logs[s].min_t == min_t

        with ShardedDensityService(
            None, grid, workers=3, machine=NOMINAL
        ) as svc:
            b1 = rng.uniform(0, span, size=(300, 3))
            b1[:, 2] *= 0.3
            inc.add(b1)
            svc.add(b1)
            check(svc, b1)
            inc.remove(b1[:20])
            svc.remove(b1[:20])
            live = b1[20:]
            check(svc, live)
            for k in range(2):
                newb = rng.uniform(0, span, size=(200, 3))
                newb[:, 2] = (
                    grid.domain.gt * (0.4 + 0.2 * k)
                    + rng.uniform(0, 3, 200)
                )
                horizon = grid.domain.t0 + 6.0 * (k + 1)
                assert inc.slide_window(newb, horizon) == svc.slide_window(
                    newb, horizon
                )
                live = np.vstack([live[live[:, 2] >= horizon], newb])
                check(svc, live)
                w = (0, 40, 0, 32, 6, 16)
                np.testing.assert_allclose(
                    svc.query_region(w).data,
                    ref.query_region(w, backend="direct").data,
                    rtol=RTOL, atol=ATOL,
                )

    def test_slide_contacts_only_affected_shards(self):
        grid = make_grid()
        rng = np.random.default_rng(13)
        span = span_of(grid)
        with ShardedDensityService(
            None, grid, workers=3, machine=NOMINAL
        ) as svc:
            seed = rng.uniform(0, span, size=(240, 3))
            seed[:, 2] = grid.domain.t0 + rng.uniform(5, 20, size=240)
            svc.add(seed)
            cuts = svc.plan.cuts
            before = svc.counter.shard_messages
            # Arrivals strictly inside shard 0; horizon below every live
            # event: only shard 0 has anything to do.
            x_hi = max(cuts[0] - grid.domain.x0 - 1e-6, 1e-3)
            narrow = np.column_stack([
                grid.domain.x0 + rng.uniform(0, x_hi, 30),
                rng.uniform(0, span[1], 30),
                np.full(30, grid.domain.t0 + grid.domain.gt * 0.9),
            ])
            svc.slide_window(narrow, grid.domain.t0 + 1.0)
            assert svc.counter.shard_messages - before == 1


class TestPlannerModel:
    """The planner prices the served window: on a sharded service its
    model holds the rows the coordinator's shard logs hold."""

    def test_live_window(self):
        grid = make_grid((20, 20, 30))
        rng = np.random.default_rng(19)
        span = span_of(grid)
        with ShardedDensityService(
            None, grid, workers=1, machine=NOMINAL
        ) as svc:
            svc.add(rng.uniform(0, span, size=(5000, 3)))
            assert svc.events == 5000
            assert svc.planner().model.points.n == svc.events
            late = rng.uniform(0, span, size=(100, 3))
            late[:, 2] = grid.domain.t0 + grid.domain.gt * 0.95
            assert svc.slide_window(late, grid.domain.t0 + grid.domain.gt / 2) > 0
            assert svc.planner().model.points.n == svc.events < 5100

    def test_static_snapshot(self):
        grid = make_grid()
        pts = make_clustered_points(grid, 400, seed=23)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL
        ) as svc:
            rows = svc.planner().model.points.coords
            np.testing.assert_array_equal(
                np.unique(rows, axis=0), np.unique(pts.coords, axis=0)
            )
            assert len(rows) == pts.n


# ---------------------------------------------------------------------------
# Fault paths: dying workers must recover (or surface typed), never hang
# ---------------------------------------------------------------------------
class TestFaultPaths:
    def test_worker_death_mid_request_recovers(self):
        """A crash mid-query is absorbed: the supervisor respawns the
        worker, replays its state, and the query answer is unchanged."""
        grid = make_grid((24, 24, 12))
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(100, 3)))
        queries = rng.uniform(0, span_of(grid), size=(50, 3))
        svc = ShardedDensityService(pts, grid, workers=2, machine=NOMINAL)
        try:
            expect = svc.query_points(queries, backend="sharded")
            svc._workers[1].send_op("crash")
            t0 = time.perf_counter()
            out = svc.query_points(queries, backend="sharded")
            assert time.perf_counter() - t0 < 15.0  # recovered, not hung
            np.testing.assert_allclose(out, expect, rtol=RTOL, atol=ATOL)
            assert svc.counter.shard_restarts == 1
            assert svc.counter.requests_retried == 1
        finally:
            svc.close()
        svc.close()  # idempotent after a fault

    def test_worker_death_without_budget_raises_typed(self):
        """With a zero restart budget the old fail-fast contract holds,
        now as a typed ShardFailed naming the shard and op."""
        from repro.serve import ShardFailed

        grid = make_grid((24, 24, 12))
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(100, 3)))
        svc = ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL, max_restarts=0
        )
        try:
            svc._workers[1].send_op("crash")
            t0 = time.perf_counter()
            with pytest.raises(ShardFailed, match="shard worker 1"):
                svc.query_points(
                    rng.uniform(0, span_of(grid), size=(50, 3)),
                    backend="sharded",
                )
            assert time.perf_counter() - t0 < 5.0  # surfaced, not hung
        finally:
            svc.close()
        svc.close()  # idempotent after a fault

    def test_context_exit_reaps_the_pool(self):
        grid = make_grid((24, 24, 12))
        rng = np.random.default_rng(4)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(60, 3)))
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL
        ) as svc:
            procs = [w._proc for w in svc._workers]
            assert all(p.is_alive() for p in procs)
        assert all(not p.is_alive() for p in procs)

    def test_queries_after_close_fail_cleanly(self):
        grid = make_grid((24, 24, 12))
        pts = PointSet(np.array([[1.0, 1.0, 1.0]]))
        svc = ShardedDensityService(pts, grid, workers=2, machine=NOMINAL)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.query_points(np.zeros((1, 3)), backend="sharded")


# ---------------------------------------------------------------------------
# Scatter/gather planning + IPC calibration
# ---------------------------------------------------------------------------
class TestScatterPlanning:
    @pytest.fixture()
    def planner(self, small_grid):
        machine = MachineModel.nominal()
        model = CostModel(
            small_grid, PointSet(np.empty((0, 3))), machine
        )
        return QueryPlanner(model)

    def test_small_batch_goes_local(self, planner):
        plan = planner.plan_scatter(
            4, est_candidates=40, n_shards=4, fanout_rows=5
        )
        assert plan.backend == "local"
        assert plan.local_seconds <= plan.sharded_seconds

    def test_large_batch_goes_sharded(self, planner):
        plan = planner.plan_scatter(
            1_000_000, est_candidates=5_000_000_000, n_shards=4,
            fanout_rows=1_100_000,
        )
        assert plan.backend == "sharded"
        assert plan.sharded_seconds <= plan.local_seconds
        assert plan.speedup >= 1.0

    def test_force_overrides_but_records_both_prices(self, planner):
        plan = planner.plan_scatter(
            4, est_candidates=40, n_shards=4, fanout_rows=5,
            force="sharded", force_reason="live source serves sharded",
        )
        assert plan.backend == "sharded"
        assert plan.reason == "live source serves sharded"
        assert plan.local_seconds > 0 and plan.sharded_seconds > 0
        with pytest.raises(ValueError, match="backend"):
            planner.plan_scatter(
                4, est_candidates=40, n_shards=4, fanout_rows=5,
                force="bogus",
            )

    def test_prediction_decomposes_into_ipc_plus_compute(self, small_grid):
        model = CostModel(
            small_grid, PointSet(np.empty((0, 3))), MachineModel.nominal()
        )
        pred = model.predict_scatter_gather(
            1000, total_candidates=100_000, n_shards=4, fanout_rows=1200
        )
        assert pred.n_shards == 4
        assert pred.seconds == pytest.approx(
            pred.ipc_seconds + pred.compute_seconds
        )
        # More shards -> strictly more message cost.
        pred8 = model.predict_scatter_gather(
            1000, total_candidates=100_000, n_shards=8, fanout_rows=1200
        )
        assert pred8.ipc_seconds > pred.ipc_seconds

    def test_calibrate_ipc_measures_positive_rates(self):
        machine = calibrate_ipc(MachineModel.nominal())
        assert machine.c_msg > 0.0
        assert machine.c_qser > 0.0


# ---------------------------------------------------------------------------
# Retirement slabs under the default thickness
# ---------------------------------------------------------------------------
class TestAdaptiveSlabs:
    def test_auto_mode_stays_equivalent_to_monolithic(self, small_grid):
        rng = np.random.default_rng(19)
        d = small_grid.domain
        lo = np.array([d.x0, d.y0, d.t0])
        hi = lo + np.array([d.gx, d.gy, d.gt])
        batch = rng.uniform(lo, hi, size=(300, 3))  # full-t-span batch
        auto = IncrementalSTKDE(small_grid, t_slab_voxels="auto")
        mono = IncrementalSTKDE(small_grid, t_slab_voxels=None)
        auto.add(batch)
        mono.add(batch)
        arriving = rng.uniform(lo, hi, size=(100, 3))
        horizon = d.t0 + 0.3 * d.gt
        auto.slide_window(arriving, horizon)
        mono.slide_window(arriving, horizon)
        np.testing.assert_allclose(
            auto.volume().data, mono.volume().data, rtol=RTOL, atol=ATOL
        )


# ---------------------------------------------------------------------------
# The CLI: ``repro serve`` answers what ``repro query`` answers
# ---------------------------------------------------------------------------
def test_cli_serve_matches_query(tmp_path, capsys):
    """``repro serve --workers 2`` against ``repro query --backend direct``
    on the same CSVs (both plans pinned, so neither calibrates): equal
    densities, and a ``--stats`` frame without a ``compute`` blob whose
    merged dispatch tally names the default backend only."""
    events = make_clustered_points(make_grid(), 300, seed=31).coords
    queries = events[:40] + np.random.default_rng(32).normal(
        0.0, 1.0, size=(40, 3)
    )
    paths = {}
    for name, rows in (("events", events), ("queries", queries)):
        paths[name] = tmp_path / f"{name}.csv"
        np.savetxt(paths[name], rows, delimiter=",", header="x,y,t",
                   comments="")
    common = ["--points", str(paths["events"]), "--hs", "4", "--ht", "3",
              "--queries", str(paths["queries"])]
    a, b = tmp_path / "query.csv", tmp_path / "serve.csv"
    assert main(["query", *common, "--backend", "direct",
                 "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["serve", *common, "--workers", "2", "--backend", "sharded",
                 "--out", str(b), "--stats"]) == 0
    printed = capsys.readouterr().out
    stats = json.loads(printed[printed.index("\n{") + 1:])
    want = np.loadtxt(a, delimiter=",", skiprows=1)
    got = np.loadtxt(b, delimiter=",", skiprows=1)
    assert want[:, 3].any()
    np.testing.assert_allclose(got[:, 3], want[:, 3], rtol=RTOL, atol=ATOL)
    assert "compute" not in stats
    assert set(stats["work"]["backend_dispatches"]) == {DEFAULT_BACKEND}
