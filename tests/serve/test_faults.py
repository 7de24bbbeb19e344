"""Chaos suite: deterministic fault injection against the sharded tier.

The recovery contract under test: any single worker fault — crash,
wedge, dropped reply — is absorbed by the supervisor (respawn + replay
within the restart budget) and the recovered shard answers **exactly**
what a cold single-process rebuild would (``rtol=1e-12``).  Faults the
budget cannot absorb surface as typed errors (:class:`ShardDown`,
:class:`ShardFailed`) or, under ``on_shard_failure="partial"``, as
coverage-tagged :class:`PartialResult` degraded reads.  The
:class:`WorkCounter` recovery gauges are pinned exactly — restarts,
replayed batches, and retries are part of the contract, not incidental.

Everything is driven through :class:`FaultPlan` — the same deterministic
triggers ``REPRO_FAULTS`` injects in production — so each test names the
shard, the op, and the nth request that dies.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.incremental import IncrementalSTKDE
from repro.serve import (
    CircuitOpen,
    DensityService,
    FaultPlan,
    FaultSpec,
    PartialResult,
    ServeError,
    ShardDown,
    ShardFailed,
    ShardTimeout,
    ShardWorker,
    ShardedDensityService,
    TrafficFrontend,
)
from repro.serve.faults import FAULTS_ENV
from repro.serve.supervisor import ShardLog

RTOL = 1e-12
ATOL = 1e-300

from repro.analysis.model import MachineModel

NOMINAL = MachineModel.nominal()


def make_grid(vox=(24, 24, 12), hs=4.0, ht=3.0) -> GridSpec:
    return GridSpec(DomainSpec.from_voxels(*vox), hs=hs, ht=ht)


def span_of(grid: GridSpec) -> np.ndarray:
    d = grid.domain
    return np.array([d.gx, d.gy, d.gt])


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan / FaultInjector (no processes)
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="action"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match="nth"):
            FaultSpec("crash", nth=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec("delay", seconds=-1.0)

    def test_spec_matching_wildcards(self):
        any_spec = FaultSpec("crash")
        assert any_spec.matches(0, "add") and any_spec.matches(3, "slide")
        pinned = FaultSpec("crash", shard=1, op="query_points")
        assert pinned.matches(1, "query_points")
        assert not pinned.matches(0, "query_points")
        assert not pinned.matches(1, "slide")

    def test_json_roundtrip_and_single_object_form(self):
        plan = FaultPlan((
            FaultSpec("crash", shard=1, op="slide", nth=2),
            FaultSpec("wedge", seconds=9.0, persist=True),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan
        single = FaultPlan.from_json('{"action": "drop", "shard": 0}')
        assert single.specs == (FaultSpec("drop", shard=0),)
        with pytest.raises(ValueError, match="list"):
            FaultPlan.from_json('"crash"')

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV: "   "}) is None
        plan = FaultPlan.from_env(
            {FAULTS_ENV: '[{"action": "crash", "nth": 3}]'}
        )
        assert plan.specs == (FaultSpec("crash", nth=3),)

    def test_respawn_view_keeps_persistent_specs_only(self):
        one_shot = FaultPlan((FaultSpec("crash", shard=1),))
        assert one_shot.respawn_view() is None
        mixed = FaultPlan((
            FaultSpec("crash", shard=1),
            FaultSpec("crash", shard=1, persist=True),
        ))
        view = mixed.respawn_view()
        assert view is not None and len(view.specs) == 1
        assert view.specs[0].persist

    def test_injector_counts_matches_and_fires_once(self):
        plan = FaultPlan((
            FaultSpec("crash", shard=1, op="query_points", nth=2),
        ))
        other = plan.injector(0)  # wrong shard: never fires
        assert all(
            other.on_request("query_points") is None for _ in range(4)
        )
        inj = plan.injector(1)
        assert inj.on_request("slide") is None  # wrong op: not counted
        assert inj.on_request("query_points") is None  # 1st match
        spec = inj.on_request("query_points")  # 2nd match: fire
        assert spec is plan.specs[0]
        assert inj.on_request("query_points") is None  # one-shot


# ---------------------------------------------------------------------------
# Typed fault surface
# ---------------------------------------------------------------------------
class TestTypedErrors:
    def test_shard_failed_message_and_attrs(self):
        exc = ShardFailed(3, "add", "worker died", exitcode=1)
        assert str(exc).startswith("shard worker 3 failed 'add'")
        assert "worker died" in str(exc) and "exit code 1" in str(exc)
        assert exc.shard_id == 3 and exc.op == "add" and exc.retryable
        assert isinstance(exc, RuntimeError)  # legacy handlers keep working
        assert isinstance(exc, ServeError)
        assert not ShardFailed(0, "x", retryable=False).retryable

    def test_timeout_and_down_retryability(self):
        t = ShardTimeout(2, "query_points", 1.5)
        assert isinstance(t, ShardFailed) and t.retryable
        assert t.timeout == 1.5 and "wedged" in str(t)
        d = ShardDown(2, "query_points")
        assert isinstance(d, ShardFailed) and not d.retryable
        assert "restart budget" in str(d)

    def test_circuit_open_carries_routing_facts(self):
        exc = CircuitOpen((1, 3), 0.25)
        assert exc.shard_ids == (1, 3)
        assert exc.retry_after_s == 0.25
        assert not exc.retryable

    def test_partial_result_is_a_tagged_ndarray(self):
        vals = np.array([1.0, 2.0, 3.0])
        out = PartialResult(vals, 0.75, (1,))
        assert isinstance(out, np.ndarray)
        assert out.sum() == pytest.approx(6.0)
        assert out.coverage == 0.75 and out.failed_shards == (1,)
        assert out.degraded
        view = out[:2]  # views inherit the tags
        assert isinstance(view, PartialResult)
        assert view.coverage == 0.75
        complete = PartialResult(vals, 1.0)
        assert not complete.degraded


# ---------------------------------------------------------------------------
# ShardLog: each shard's live rows, the replay source of truth
# ---------------------------------------------------------------------------
class TestShardLog:
    def _coords(self, ts):
        ts = np.asarray(ts, dtype=np.float64)
        return np.column_stack([np.ones_like(ts), np.ones_like(ts), ts])

    def test_static_replaces_the_log(self):
        log = ShardLog()
        log.add(self._coords([1.0, 2.0]))
        weights = np.array([2.0, 3.0])
        log.load_static(self._coords([5.0, 6.0]), weights)
        assert len(log) == 1 and log.n == 2
        assert log.weight == 5.0 and log.min_t == 5.0
        (op, (coords, w)), = log.replay()
        assert op == "static" and w is weights
        np.testing.assert_array_equal(coords[:, 2], [5.0, 6.0])
        # A snapshot takes no live mutation (a static service refuses
        # them before they reach a shard).
        with pytest.raises(ValueError, match="static"):
            log.apply("add", self._coords([7.0]))
        assert log.n == 2

    def test_slide_retires_rows_before_the_horizon_and_returns_the_count(self):
        early, late = self._coords(np.arange(10.0)), self._coords([20.0, 21.0])
        arriving = self._coords([3.0, 11.0])
        log, inc = ShardLog(), IncrementalSTKDE(make_grid(vox=(4, 4, 24)))
        for batch in (early, late):
            log.add(batch)
            inc.add(batch)
        untouched = log.batches()[1]
        # The estimator's rule: rows of the live batches with t < 5 go,
        # the arrivals are added whole (t = 3.0 included).
        assert log.slide(arriving, 5.0) == 5
        assert inc.slide_window(arriving, 5.0) == 5
        assert log.n == inc.n == 5 + 2 + 2 and len(log) == 3
        assert log.min_t == inc.min_t == 3.0
        # Only the batch the horizon cuts was read and rebuilt.
        uid, rows = log.batches()[1]
        assert uid == untouched[0] and rows is untouched[1]
        np.testing.assert_array_equal(log.batches()[0][1][:, 2],
                                      np.arange(5.0, 10.0))
        # Replay is window inserts: one add per live batch.
        assert [op for op, _ in log.replay()] == ["add"] * 3
        # A horizon past everything empties the log: it is bounded by
        # the live window, not its history.
        assert log.slide(np.empty((0, 3)), 100.0) == 9
        assert len(log) == 0 and log.n == 0 and log.min_t == np.inf

    def test_remove_deletes_a_multiset_and_refuses_rows_not_live(self):
        log = ShardLog()
        log.add(self._coords([1.0, 2.0, 2.0, 3.0]))
        log.add(self._coords([2.0, 4.0]))
        # Duplicates are matched one for one, first batches first.
        log.remove(self._coords([2.0, 2.0]))
        assert log.n == 4 and log.weight == 4.0
        assert [rows[:, 2].tolist() for _, rows in log.batches()] == [
            [1.0, 3.0], [2.0, 4.0]
        ]
        log.remove(self._coords([2.0]))
        assert [rows[:, 2].tolist() for _, rows in log.batches()] == [
            [1.0, 3.0], [4.0]
        ]
        units = list(log.units)
        for bad in ([2.0], [1.0, 1.0], [9.0], [1.0, 3.0, 4.0, 4.0]):
            with pytest.raises(ValueError, match="not live|present"):
                log.remove(self._coords(bad))
            assert log.units == units and log.n == 3
            assert log.weight == 3.0

    def test_nan_horizon_is_refused_and_infinite_ones_are_legal(self):
        log = ShardLog()
        log.add(self._coords([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="NaN"):
            log.slide(self._coords([4.0]), float("nan"))
        assert log.n == 3 and len(log) == 1
        assert log.slide(self._coords([4.0]), float("-inf")) == 0
        assert log.n == 4
        # +inf retires every live row; the arrivals still land.
        assert log.slide(self._coords([5.0]), float("inf")) == 4
        assert log.n == 1 and log.min_t == 5.0


# ---------------------------------------------------------------------------
# Crash recovery (processes): respawn + replay == cold rebuild
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def test_injected_crash_on_query_recovers_exactly(self):
        grid = make_grid()
        rng = np.random.default_rng(31)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(200, 3)))
        queries = rng.uniform(0, span_of(grid), size=(60, 3))
        plan = FaultPlan((
            FaultSpec("crash", shard=1, op="query_points", nth=2),
        ))
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01,
        ) as svc:
            expect = svc.query_points(queries, backend="sharded")
            out = svc.query_points(queries, backend="sharded")  # crash+heal
            np.testing.assert_allclose(out, expect, rtol=RTOL, atol=ATOL)
            assert svc.counter.shard_restarts == 1
            assert svc.counter.requests_retried == 1
            # Static state is one log entry: exactly one batch replayed.
            assert svc.counter.shard_replayed_batches == 1
            # The healed pool keeps serving.
            again = svc.query_points(queries, backend="sharded")
            np.testing.assert_allclose(again, expect, rtol=RTOL, atol=ATOL)

    def test_crash_mid_slide_matches_cold_rebuild(self):
        """The replay-completes-the-mutation invariant: the batch is
        logged before the send, so a worker dying mid-``slide`` is
        healed into a state identical to a cold single-process rebuild
        that applied every mutation."""
        grid = make_grid()
        rng = np.random.default_rng(37)
        span = span_of(grid)
        seed = rng.uniform(0, span, size=(240, 3))
        arriving = rng.uniform(0, span, size=(80, 3))
        arriving[:, 2] = grid.domain.t0 + grid.domain.gt * 0.8
        horizon = grid.domain.t0 + 3.0
        queries = rng.uniform(0, span, size=(50, 3))
        plan = FaultPlan((FaultSpec("crash", shard=1, op="slide"),))
        with ShardedDensityService(
            None, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01,
        ) as svc:
            svc.add(seed)
            svc.slide_window(arriving, horizon)  # shard 1 dies mid-slide
            assert svc.counter.shard_restarts == 1
            assert svc.counter.requests_retried == 1
            inc = IncrementalSTKDE(grid)
            inc.add(seed)
            inc.slide_window(arriving, horizon)
            ref = DensityService(inc, machine=NOMINAL)
            np.testing.assert_allclose(
                svc.query_points(queries),
                ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            # The healed shard keeps taking mutations.
            more = rng.uniform(0, span, size=(40, 3))
            more[:, 2] = grid.domain.t0 + grid.domain.gt * 0.9
            svc.slide_window(more, horizon + 1.0)
            inc.slide_window(more, horizon + 1.0)
            np.testing.assert_allclose(
                svc.query_points(queries),
                ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            recovery = svc.stats()["recovery"]
            assert recovery["restarts_per_shard"][1] == 1
            assert recovery["down_shards"] == []

    def test_crash_mid_slide_returns_the_single_process_retired_count(self):
        """A slide the replay completed still reports every row it
        retired: the count comes from the shard's log, which retires the
        rows itself."""
        grid = make_grid()
        rng = np.random.default_rng(37)
        span = span_of(grid)
        seed = rng.uniform(0, span, size=(240, 3))
        arriving = rng.uniform(0, span, size=(80, 3))
        arriving[:, 2] = grid.domain.t0 + grid.domain.gt * 0.8
        horizon = grid.domain.t0 + 3.0
        inc = IncrementalSTKDE(grid)
        inc.add(seed)
        plan = FaultPlan((FaultSpec("crash", shard=1, op="slide"),))
        with ShardedDensityService(
            None, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01,
        ) as svc:
            svc.add(seed)
            retired = svc.slide_window(arriving, horizon)  # shard 1 dies
            assert svc.counter.shard_restarts == 1
            assert retired == inc.slide_window(arriving, horizon)
            assert svc.events == inc.n

    def test_live_workers_hold_a_window_and_never_stamp(self):
        """A live shard worker holds a window over its index and no
        estimator: it answers points from the index and regions from raw
        coordinates, so neither the mutations nor a crash's log replay
        stamp a single cell, and its stats carry no unit gauges."""
        grid = make_grid()
        rng = np.random.default_rng(41)
        span = span_of(grid)
        seed = rng.uniform(0, span, size=(240, 3))
        arriving = rng.uniform(0, span, size=(80, 3))
        arriving[:, 2] = grid.domain.t0 + grid.domain.gt * 0.8
        horizon = grid.domain.t0 + 3.0
        queries = rng.uniform(0, span, size=(50, 3))
        plan = FaultPlan((FaultSpec("crash", shard=1, op="remove"),))
        with ShardedDensityService(
            None, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01,
        ) as svc:
            svc.add(seed)
            retired_before = self._index_retired(svc)
            svc.slide_window(arriving, horizon)
            # The slide retired rows from each worker's own index.
            assert all(
                a > b for a, b in zip(self._index_retired(svc), retired_before)
            )
            svc.remove(arriving[::4])  # shard 1 dies, respawns, replays
            assert svc.counter.shard_restarts == 1
            assert svc.counter.shard_replayed_batches >= 2
            inc = IncrementalSTKDE(grid)
            inc.add(seed)
            inc.slide_window(arriving, horizon)
            inc.remove(arriving[::4])
            ref = DensityService(inc, machine=NOMINAL)
            np.testing.assert_allclose(
                svc.query_points(queries, backend="sharded"),
                ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            win = (2, 14, 3, 15, 1, 9)
            np.testing.assert_allclose(
                svc.query_region(win).data,
                ref.query_region(win, backend="direct").data,
                rtol=RTOL, atol=ATOL,
            )
            st = svc.stats()
            assert sum(w["events"] for w in st["workers"]) == inc.n
            for w in st["workers"]:
                assert not [k for k in w if k.startswith("units_")]
                # Unit buffers are the only thing a worker would count
                # here (the region answer above stamps a scratch window).
                assert w["work"]["shard_bbox_cells"] == 0
            # Slab buffers are the estimator's alone.
            assert st["work"]["slab_buffers_retired"] == 0

    @staticmethod
    def _index_retired(svc):
        return [w["work"]["index_events_retired"]
                for w in svc.stats()["workers"]]

    def test_wedged_worker_times_out_and_recovers(self):
        grid = make_grid()
        rng = np.random.default_rng(41)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(150, 3)))
        queries = rng.uniform(0, span_of(grid), size=(40, 3))
        plan = FaultPlan((
            FaultSpec("wedge", shard=0, op="query_points", seconds=30.0),
        ))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, request_timeout=1.0, restart_backoff_s=0.01,
        ) as svc:
            t0 = time.perf_counter()
            out = svc.query_points(queries, backend="sharded")
            elapsed = time.perf_counter() - t0
            assert elapsed < 15.0  # deadline + respawn, not a 30s hang
            np.testing.assert_allclose(
                out, ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            assert svc.counter.shard_restarts == 1

    def test_dropped_reply_recovers_via_deadline(self):
        grid = make_grid()
        rng = np.random.default_rng(43)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(120, 3)))
        queries = rng.uniform(0, span_of(grid), size=(30, 3))
        plan = FaultPlan((FaultSpec("drop", shard=0, op="query_points"),))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL,
            # The deadline also bounds the respawned worker's first reply
            # (spawn + import, ~0.45 s on a slow box): 0.5 s flaked.
            fault_plan=plan, request_timeout=1.0, restart_backoff_s=0.01,
        ) as svc:
            out = svc.query_points(queries, backend="sharded")
            np.testing.assert_allclose(
                out, ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            assert svc.counter.shard_restarts == 1

    def test_delay_fault_is_absorbed_without_recovery(self):
        grid = make_grid()
        rng = np.random.default_rng(47)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(120, 3)))
        queries = rng.uniform(0, span_of(grid), size=(30, 3))
        plan = FaultPlan((
            FaultSpec("delay", shard=0, op="query_points", seconds=0.05),
        ))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, request_timeout=5.0,
        ) as svc:
            out = svc.query_points(queries, backend="sharded")
            np.testing.assert_allclose(
                out, ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            assert svc.counter.shard_restarts == 0

    def test_app_error_never_restarts_and_never_degrades(self):
        """An injected application error comes from a *healthy* worker:
        replaying it cannot help, and ``"partial"`` must not mask it —
        and the drained pool keeps serving afterwards."""
        grid = make_grid()
        rng = np.random.default_rng(53)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(120, 3)))
        queries = rng.uniform(0, span_of(grid), size=(30, 3))
        plan = FaultPlan((FaultSpec("error", shard=0, op="query_points"),))
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL, fault_plan=plan,
        ) as svc:
            with pytest.raises(ShardFailed, match="injected fault"):
                svc.query_points(
                    queries, backend="sharded", on_shard_failure="partial"
                )
            assert svc.counter.shard_restarts == 0
            # Drain-before-raise: the surviving worker's reply was read,
            # so the next scatter is clean.
            np.testing.assert_allclose(
                svc.query_points(queries, backend="sharded"),
                ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )

    def test_rejected_mutation_does_not_poison_recovery(self):
        """A mutation a healthy worker rejected was never applied: it
        must stay out of that shard's replay log, or every later
        recovery of the shard replays the rejection and a recoverable
        crash becomes a permanent failure."""
        grid = make_grid()
        rng = np.random.default_rng(43)
        span = span_of(grid)
        seed = rng.uniform(0, span, size=(40, 3))
        surplus = rng.uniform(0, span, size=(200, 3))
        queries = rng.uniform(0, span, size=(50, 3))
        plan = FaultPlan((
            FaultSpec("crash", shard=1, op="query_points", nth=2),
        ))
        with ShardedDensityService(
            None, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01,
        ) as svc:
            svc.add(seed)
            # The owners' logs refuse it before anything is sent ...
            with pytest.raises(ValueError, match="only .* present"):
                svc.remove(surplus)  # more rows than either shard holds
            assert svc.stats()["recovery"]["log_entries"] == [1, 1]
            # ... and a rejection that does reach a worker is never
            # logged by the supervisor.
            part = surplus[svc.plan.owner_of(surplus[:, 0]) == 1]
            with pytest.raises(ShardFailed, match="only .* present") as err:
                svc._sup.scatter([(1, "remove", part)])
            assert not err.value.retryable
            assert svc.stats()["recovery"]["log_entries"] == [1, 1]
            expect = svc.query_points(queries, backend="sharded")
            out = svc.query_points(queries, backend="sharded")  # crash+heal
            np.testing.assert_allclose(out, expect, rtol=RTOL, atol=ATOL)
            assert svc.counter.shard_restarts == 1
            assert svc.counter.shard_replayed_batches == 1
            assert svc.stats()["recovery"]["down_shards"] == []

    def test_env_injected_plan_drives_recovery(self, monkeypatch):
        grid = make_grid()
        rng = np.random.default_rng(59)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(100, 3)))
        queries = rng.uniform(0, span_of(grid), size=(25, 3))
        monkeypatch.setenv(
            FAULTS_ENV,
            '[{"action": "crash", "shard": 0, "op": "query_points"}]',
        )
        ref = DensityService(pts, grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL, restart_backoff_s=0.01,
        ) as svc:
            out = svc.query_points(queries, backend="sharded")
            np.testing.assert_allclose(
                out, ref.query_points(queries, backend="direct"),
                rtol=RTOL, atol=ATOL,
            )
            assert svc.counter.shard_restarts == 1


# ---------------------------------------------------------------------------
# Budget exhaustion: ShardDown + degraded reads
# ---------------------------------------------------------------------------
class TestDegradedReads:
    def _doomed(self, **kw):
        grid = make_grid()
        rng = np.random.default_rng(61)
        pts = PointSet(rng.uniform(0, span_of(grid), size=(200, 3)))
        queries = rng.uniform(0, span_of(grid), size=(40, 3))
        plan = FaultPlan((
            FaultSpec("crash", shard=1, op="query_points", persist=True),
        ))
        svc = ShardedDensityService(
            pts, grid, workers=2, machine=NOMINAL,
            fault_plan=plan, restart_backoff_s=0.01, **kw,
        )
        return svc, queries

    def test_zero_budget_raises_shard_down(self):
        svc, queries = self._doomed(max_restarts=0)
        try:
            with pytest.raises(ShardDown, match="restart budget"):
                svc.query_points(queries, backend="sharded")
            assert svc._sup.is_down(1)
            # Down is sticky: later queries fail fast and typed.
            t0 = time.perf_counter()
            with pytest.raises(ShardFailed, match="shard worker 1"):
                svc.query_points(queries, backend="sharded")
            assert time.perf_counter() - t0 < 2.0
        finally:
            svc.close()
        svc.close()  # idempotent after a fault

    def test_partial_mode_returns_coverage_tagged_result(self):
        svc, queries = self._doomed(
            max_restarts=1, on_shard_failure="partial"
        )
        try:
            out = svc.query_points(queries, backend="sharded")
            assert isinstance(out, PartialResult)
            assert out.degraded and out.failed_shards == (1,)
            w = [log.weight for log in svc._sup.logs]
            assert out.coverage == pytest.approx(1.0 - w[1] / sum(w))
            assert 0.0 < out.coverage < 1.0
            assert svc.counter.degraded_queries == queries.shape[0]
            # Surviving partials are a lower bound on the full answer.
            ref = DensityService(
                PointSet(svc._static_coords), svc.grid, machine=NOMINAL
            ).query_points(queries, backend="direct")
            assert np.all(np.asarray(out) <= ref + 1e-15)
            # stats() stays available with the shard down.
            st = svc.stats()
            assert 1 in [
                s for s, ws in enumerate(st["workers"])
                if ws.get("down")
            ] or 1 in st["recovery"]["down_shards"]
        finally:
            svc.close()

    def test_per_call_policy_overrides_service_default(self):
        svc, queries = self._doomed(max_restarts=0)
        try:
            out = svc.query_points(
                queries, backend="sharded", on_shard_failure="partial"
            )
            assert isinstance(out, PartialResult) and out.degraded
            with pytest.raises(ValueError, match="on_shard_failure"):
                svc.query_points(
                    queries, backend="sharded", on_shard_failure="bogus"
                )
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# Worker shutdown under faults (satellite: deadline-aware close)
# ---------------------------------------------------------------------------
class TestWorkerShutdown:
    def test_wedged_worker_close_honours_grace_deadline(self):
        grid = make_grid()
        plan = FaultPlan((FaultSpec("wedge", op="stats", seconds=30.0),))
        w = ShardWorker(0, grid, "epanechnikov", fault_plan=plan)
        try:
            w.send_op("stats")
            with pytest.raises(ShardTimeout, match="wedged"):
                w.recv_reply("stats", timeout=0.3)
            t0 = time.perf_counter()
            w.close(grace=0.5)
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0  # grace + terminate, never the 30s sleep
            assert not w._proc.is_alive()
        finally:
            w.close()  # idempotent

    def test_send_after_close_is_typed_and_nonretryable(self):
        grid = make_grid()
        w = ShardWorker(0, grid, "epanechnikov")
        w.close()
        with pytest.raises(ShardFailed, match="closed") as ei:
            w.send_op("stats")
        assert not ei.value.retryable


# ---------------------------------------------------------------------------
# Frontend fault handling: typed fan-out, retry-once, circuit breaker
# ---------------------------------------------------------------------------
def _grid_fe():
    return GridSpec(DomainSpec.from_voxels(20, 20, 30), hs=2.5, ht=2.0)


def _points_fe(grid, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(
        0, [grid.domain.gx, grid.domain.gy, grid.domain.gt], size=(n, 3)
    )


class TestFrontendFaults:
    def test_retryable_fault_retries_once_and_succeeds(self):
        grid = _grid_fe()
        svc = DensityService(
            PointSet(_points_fe(grid, 800)), grid, backend="direct"
        )
        real = svc.query_points
        calls = {"n": 0}

        def flaky(*a, **k):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ShardFailed(1, "query_points", "worker died")
            return real(*a, **k)

        svc.query_points = flaky
        qs = _points_fe(grid, 6, seed=1)

        async def main():
            async with TrafficFrontend(svc) as fe:
                outs = await asyncio.gather(
                    *[fe.query_point(*q) for q in qs]
                )
                return outs, fe.frontend_stats()

        outs, blob = run_async(main())
        assert all(isinstance(o, float) for o in outs)
        np.testing.assert_allclose(outs, real(qs), rtol=1e-9, atol=1e-12)
        assert blob["retries"] == 1
        assert svc.counter.requests_retried == 1
        # The fault also opened shard 1's breaker.
        assert calls["n"] == 2

    def test_nonretryable_fault_fans_out_typed_error(self):
        grid = _grid_fe()
        svc = DensityService(PointSet(_points_fe(grid, 400)), grid)

        def down(*a, **k):
            raise ShardDown(0, "query_points")

        svc.query_points = down

        async def main():
            async with TrafficFrontend(svc) as fe:
                results = await asyncio.gather(
                    fe.query_point(1.0, 1.0, 1.0),
                    fe.query_point(2.0, 2.0, 2.0),
                    return_exceptions=True,
                )
                return results, fe.frontend_stats()

        results, blob = run_async(main())
        # Every coalesced waiter sees the same typed error — no
        # cancellations, no bare RuntimeError.
        assert all(isinstance(r, ShardDown) for r in results)
        assert blob["retries"] == 0

    def test_breaker_sheds_with_circuit_open_then_recovers(self):
        grid = _grid_fe()
        svc = DensityService(
            PointSet(_points_fe(grid, 400)), grid, backend="direct"
        )
        real = svc.query_points

        def dead(*a, **k):
            raise ShardFailed(2, "query_points", "down", retryable=False)

        svc.query_points = dead

        async def main():
            async with TrafficFrontend(
                svc, breaker_cooldown_ms=150.0
            ) as fe:
                with pytest.raises(ShardFailed):
                    await fe.query_point(1.0, 1.0, 1.0)
                # Breaker open: new traffic is shed, typed.
                with pytest.raises(CircuitOpen) as ei:
                    await fe.query_point(1.0, 1.0, 1.0)
                assert ei.value.shard_ids == (2,)
                assert ei.value.retry_after_s <= 0.151
                open_now = fe.frontend_stats()["open_breakers"]
                svc.query_points = real
                await asyncio.sleep(0.2)  # cooldown lapses
                out = await fe.query_point(1.0, 1.0, 1.0)
                return open_now, out, fe.frontend_stats()

        open_now, out, blob = run_async(main())
        assert open_now == [2]
        assert isinstance(out, float) and np.isfinite(out)
        assert blob["open_breakers"] == []
        assert blob["shed"] >= 1  # the CircuitOpen counted as shed

    def test_breaker_defer_waits_out_the_cooldown(self):
        grid = _grid_fe()
        svc = DensityService(
            PointSet(_points_fe(grid, 400)), grid, backend="direct"
        )
        real = svc.query_points

        def dead(*a, **k):
            raise ShardFailed(0, "query_points", "down", retryable=False)

        svc.query_points = dead

        async def main():
            async with TrafficFrontend(
                svc, overload="defer", breaker_cooldown_ms=120.0
            ) as fe:
                with pytest.raises(ShardFailed):
                    await fe.query_point(1.0, 1.0, 1.0)
                svc.query_points = real
                t0 = fe._loop.time()
                out = await fe.query_point(1.0, 1.0, 1.0)
                waited = fe._loop.time() - t0
                return out, waited, fe.frontend_stats()

        out, waited, blob = run_async(main())
        assert isinstance(out, float) and np.isfinite(out)
        assert waited >= 0.1  # deferred through the cooldown, not shed
        assert blob["shed"] == 0

    def test_mutations_never_retry(self):
        grid = _grid_fe()
        inc = IncrementalSTKDE(grid)
        inc.add(_points_fe(grid, 200))
        svc = DensityService(inc, backend="direct")
        calls = {"n": 0}

        def failing_mutation():
            calls["n"] += 1
            raise ShardFailed(0, "slide", "worker died")  # retryable

        async def main():
            async with TrafficFrontend(svc) as fe:
                with pytest.raises(ShardFailed):
                    await fe.mutate(failing_mutation)
                return fe.frontend_stats()

        blob = run_async(main())
        assert calls["n"] == 1  # surfaced immediately: no double-apply
        assert blob["retries"] == 0

    def test_generic_exceptions_bypass_retry_and_breaker(self):
        grid = _grid_fe()
        svc = DensityService(PointSet(_points_fe(grid, 400)), grid)

        def boom(*a, **k):
            raise RuntimeError("engine exploded")

        svc.query_points = boom

        async def main():
            async with TrafficFrontend(svc) as fe:
                with pytest.raises(RuntimeError, match="exploded"):
                    await fe.query_point(1.0, 1.0, 1.0)
                # Not a ServeError: no breaker opened, next call admits.
                with pytest.raises(RuntimeError, match="exploded"):
                    await fe.query_point(1.0, 1.0, 1.0)
                return fe.frontend_stats()

        blob = run_async(main())
        assert blob["retries"] == 0
        assert blob["open_breakers"] == []


def run_async(coro):
    return asyncio.run(coro)
