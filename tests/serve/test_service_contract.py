"""One service contract, four hosts.

``ShardedDensityService`` is ``DensityService`` plus a sharded arm, and a
worker hosts the same :class:`~repro.serve.shard.Shard` the in-process
service does — so every row of the request surface is checked here once,
over all four ways of standing a service up: a static snapshot or a live
window, in process or behind two shard workers.  The same 500 events sit
behind each host, so one ``brute_force_sum`` is the oracle for all.
"""

from __future__ import annotations

import asyncio
from contextlib import ExitStack

import numpy as np
import pytest

from repro.analysis.model import MachineModel
from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.grid import VoxelWindow
from repro.core.incremental import IncrementalSTKDE
from repro.core.kernels import get_kernel
from repro.serve import (
    DensityService,
    FaultPlan,
    FaultSpec,
    ShardedDensityService,
    ShardFailed,
    ShardWorker,
    TrafficFrontend,
)
from repro.serve.shard import Shard
from tests.helpers import brute_force_sum, sharded_state

NOMINAL = MachineModel.nominal()
RTOL, ATOL = 1e-12, 1e-300
GRID = GridSpec(DomainSpec.from_voxels(24, 20, 16), hs=3.0, ht=2.0)
SPAN = np.array([24.0, 20.0, 16.0])
EVENTS = np.random.default_rng(22).uniform(0, SPAN, size=(500, 3))
QUERIES = np.random.default_rng(23).uniform(-2, SPAN + 2, size=(120, 3))
WINDOW = (3, 19, 2, 15, 4, 11)

HOSTS = ("static", "live", "sharded-static", "sharded-live")
LIVE = ("live", "sharded-live")
#: The exact arm of each host (``auto`` may pick the interpolating lookup).
EXACT = {"static": "direct", "live": "direct",
         "sharded-static": "sharded", "sharded-live": "sharded"}


def make_host(kind: str, events=EVENTS, **kw):
    """A service of ``kind`` over ``events`` (use as a context manager)."""
    kw.setdefault("machine", NOMINAL)
    if kind == "static":
        return DensityService(events, GRID, **kw)
    if kind == "live":
        inc = IncrementalSTKDE(GRID)
        inc.add(events)
        return DensityService(inc, **kw)
    kw.setdefault("restart_backoff_s", 0.01)
    if kind == "sharded-static":
        return ShardedDensityService(events, GRID, workers=2, **kw)
    svc = ShardedDensityService(None, GRID, workers=2, **kw)
    svc.add(events)
    return svc


@pytest.fixture(scope="module")
def hosts():
    """All four hosts over ``EVENTS``, for the rows that only read."""
    with ExitStack() as stack:
        yield {k: stack.enter_context(make_host(k)) for k in HOSTS}


def truth(events, queries):
    return brute_force_sum(
        GRID, get_kernel("epanechnikov"), events, queries,
        norm=GRID.normalization(len(events)) if len(events) else 0.0,
    )


def voxel_centres(window):
    x0, x1, y0, y1, t0, t1 = window
    X, Y, T = np.meshgrid(
        np.arange(x0, x1), np.arange(y0, y1), np.arange(t0, t1),
        indexing="ij",
    )
    return np.column_stack([X.ravel(), Y.ravel(), T.ravel()]) + 0.5


def check_answers(svc, kind, events):
    """Points, a region and a slice against the definition."""
    np.testing.assert_allclose(
        svc.query_points(QUERIES, backend=EXACT[kind]),
        truth(events, QUERIES), rtol=RTOL, atol=ATOL,
    )
    region = svc.query_region(WINDOW, backend=EXACT[kind])
    np.testing.assert_allclose(
        region.data.ravel(), truth(events, voxel_centres(WINDOW)),
        rtol=RTOL, atol=ATOL,
    )
    sl = svc.query_slice(5, backend=EXACT[kind])
    assert sl.data.shape == (24, 20, 1)
    np.testing.assert_allclose(
        sl.data.ravel(), truth(events, voxel_centres((0, 24, 0, 20, 5, 6))),
        rtol=RTOL, atol=ATOL,
    )


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", HOSTS)
def test_answers_equal_the_definition(hosts, kind):
    check_answers(hosts[kind], kind, EVENTS)


@pytest.mark.parametrize("kind", HOSTS)
def test_empty_batch_is_an_empty_answer(hosts, kind):
    out = hosts[kind].query_points(np.empty((0, 3)))
    assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("kind", HOSTS)
def test_non_finite_queries_are_rejected(hosts, kind, bad):
    svc, good = hosts[kind], [8.0, 8.0, 8.0]
    for axis in range(3):
        q = np.array([good, good])
        q[1, axis] = bad
        with pytest.raises(ValueError, match="must be finite"):
            svc.query_points(q, backend=EXACT[kind])
    # Nothing was cached or wedged: the well-formed rows still answer.
    out = svc.query_points(np.array([good, good]), backend=EXACT[kind])
    assert out.shape == (2,) and np.isfinite(out).all() and out[0] == out[1]


@pytest.mark.parametrize("kind", HOSTS)
def test_bad_shapes_and_budgets_are_rejected(hosts, kind):
    svc = hosts[kind]
    with pytest.raises(ValueError, match=r"\(m, 3\)"):
        svc.query_points(np.zeros((3, 2)))
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps must be positive"):
            svc.query_points(QUERIES[:4], eps=eps)


@pytest.mark.parametrize("kind", HOSTS)
def test_empty_windows_and_absent_slices_are_rejected(hosts, kind):
    svc = hosts[kind]
    for window in ((5, 5, 0, 4, 0, 4), (30, 40, 0, 4, 0, 4)):
        with pytest.raises(ValueError, match="empty"):
            svc.query_region(window)
    for T in (-1, GRID.Gt):
        with pytest.raises(ValueError, match="slice"):
            svc.query_slice(T)


@pytest.mark.parametrize("kind", HOSTS)
def test_unknown_backend_is_rejected(hosts, kind):
    """At construction (before any worker is spawned) and per call."""
    cls = type(hosts[kind])
    with pytest.raises(ValueError, match="backend"):
        cls(EVENTS, GRID, backend="warp")
    with pytest.raises(ValueError, match="backend"):
        hosts[kind].query_points(QUERIES[:2], backend="warp")
    with pytest.raises(ValueError, match="backend"):
        hosts[kind].query_region(WINDOW, backend="warp")


@pytest.mark.parametrize("kind", HOSTS)
def test_plan_out_is_heard_by_points_and_regions(hosts, kind):
    svc = hosts[kind]
    plans: list = []
    out = svc.query_points(QUERIES, plan_out=plans)
    assert out.shape == (len(QUERIES),) and len(plans) == 1
    assert plans[0].backend in svc._BACKENDS
    assert plans[0].describe()
    region_plans: list = []
    got = svc.query_region(WINDOW, plan_out=region_plans)
    np.testing.assert_allclose(
        got.data, svc.query_region(WINDOW).data, rtol=RTOL, atol=ATOL
    )
    # In process a region is planned; the scatter arm prices none.
    assert len(region_plans) == (0 if kind.startswith("sharded") else 1)
    if kind == "sharded-static":
        svc.query_region(WINDOW, backend="local", plan_out=region_plans)
        assert region_plans[0].kind == "region"


def test_stats_share_one_key_set(hosts):
    blobs = {kind: hosts[kind].stats() for kind in HOSTS}
    common = set(blobs["static"])
    assert {"version", "events", "weighted", "backend_calls",
            "planner_decisions", "cache", "approx", "work",
            "index"} <= common
    assert set(blobs["live"]) == common
    tier = {"n_shards", "cuts", "shard_events", "workers", "recovery"}
    for kind in ("sharded-static", "sharded-live"):
        assert set(blobs[kind]) == common | tier
    for kind, blob in blobs.items():
        assert blob["events"] == len(EVENTS)
        assert set(blob["work"]) >= set(blobs["static"]["work"])
    # The local arm is the service itself: its calls sit beside the
    # scatter arm's, not in a nested blob.
    assert set(blobs["sharded-static"]["backend_calls"]) == {
        "direct", "lookup", "approx", "sharded", "local"}


def test_live_sharded_source_has_no_local_arm(hosts):
    with pytest.raises(ValueError, match="live sources"):
        hosts["sharded-live"].query_points(QUERIES[:1], backend="local")
    with pytest.raises(ValueError, match="live sources"):
        hosts["sharded-live"].query_region(WINDOW, backend="local")


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ("static", "sharded-static"))
def test_mutations_need_a_live_source(hosts, kind):
    svc, rows = hosts[kind], EVENTS[:3]
    for mutate in (
        lambda: svc.add(rows),
        lambda: svc.remove(rows),
        lambda: svc.slide_window(rows, 1.0),
    ):
        with pytest.raises(RuntimeError, match="live source"):
            mutate()

    async def through_frontend():
        async with TrafficFrontend(svc) as fe:
            await fe.slide_window(rows, 1.0)

    with pytest.raises(RuntimeError, match="live source"):
        asyncio.run(through_frontend())
    assert (svc.version, svc.events) == (0, len(EVENTS))


@pytest.mark.parametrize("kind", LIVE)
def test_weighted_live_feed_is_rejected(hosts, kind):
    svc = hosts[kind]
    before = svc.version, svc.events
    weighted = PointSet(EVENTS[:2], np.array([2.0, 1.0]))
    for mutate in (svc.add, svc.remove, lambda p: svc.slide_window(p, 1.0)):
        with pytest.raises(ValueError, match="weight"):
            mutate(weighted)
    assert (svc.version, svc.events) == before


@pytest.mark.parametrize("kind", LIVE)
def test_live_hosts_mutate_through_one_surface(kind):
    """``add`` / ``remove`` / ``slide_window`` on the service, then the
    same slide through a ``TrafficFrontend`` — one call on every host."""
    rng = np.random.default_rng(31)
    fresh = [rng.uniform([0, 0, 10.0], SPAN, size=(60, 3)) for _ in range(3)]
    with make_host(kind) as svc:
        window = EVENTS
        v = svc.version

        svc.add(fresh[0])
        window = np.vstack([window, fresh[0]])
        assert svc.version > v and svc.events == len(window)
        check_answers(svc, kind, window)

        svc.remove(EVENTS[:40])
        window = window[40:]
        assert svc.events == len(window)
        check_answers(svc, kind, window)

        retired = svc.slide_window(fresh[1], 3.0)
        assert retired == int((window[:, 2] < 3.0).sum()) > 0
        window = np.vstack([window[window[:, 2] >= 3.0], fresh[1]])
        check_answers(svc, kind, window)

        async def through_frontend():
            async with TrafficFrontend(svc) as fe:
                await fe.slide_window(fresh[2], 6.0)
                return await fe.query_points(QUERIES[:16])

        v = svc.version
        out = asyncio.run(through_frontend())
        window = np.vstack([window[window[:, 2] >= 6.0], fresh[2]])
        assert svc.version > v and svc.events == len(window)
        check_answers(svc, kind, window)
        if kind == "live":  # the front end's auto plan may interpolate
            out = svc.query_points(QUERIES[:16], backend="direct")
        np.testing.assert_allclose(
            out, truth(window, QUERIES[:16]), rtol=RTOL, atol=ATOL
        )


@pytest.mark.parametrize("kind", LIVE)
def test_a_quiet_slide_keeps_the_version(kind):
    """Nothing arriving and nothing before the horizon: the slide retires
    nothing and changes nothing, so ``version`` — and every cache keyed
    on it — stays, and no shard is sent a message."""
    with make_host(kind) as svc:
        before = svc.version, svc.events, svc.counter.shard_messages
        for horizon in (-np.inf, float(EVENTS[:, 2].min())):
            assert svc.slide_window(np.empty((0, 3)), horizon) == 0
            assert (svc.version, svc.events,
                    svc.counter.shard_messages) == before


# ---------------------------------------------------------------------------
# A remove one owner rejects; a mutation that fails part-way
# ---------------------------------------------------------------------------
def test_remove_one_owner_rejects_is_applied_nowhere():
    """100 live rows of shard 0 plus one row nobody holds, owned by shard
    1: the single-process contract — ``ValueError``, nothing changed on
    any worker, in the coordinator's gauges or in a replay log.  (It used
    to raise ``ShardFailed`` with shard 0's hundred rows already gone and
    every later answer normalised by the old ``W``.)"""
    with make_host("sharded-live") as svc:
        owner = svc.plan.owner_of(EVENTS[:, 0])
        cut = float(svc.plan.cuts[0])
        absent = np.array([[cut + 1.0, 4.5, 7.75]])
        rows = np.vstack([EVENTS[owner == 0][:100], absent])
        before = sharded_state(svc)
        with pytest.raises(ValueError, match="not live"):
            svc.remove(rows)
        assert sharded_state(svc) == before
        # The logs were left alone: both shards replay to the 500 events.
        for s in (0, 1):
            svc._workers[s].send_op("crash")
        np.testing.assert_allclose(
            svc.query_points(QUERIES), truth(EVENTS, QUERIES),
            rtol=RTOL, atol=ATOL,
        )
        assert svc.counter.shard_restarts == 2
        assert sharded_state(svc) == before


def test_a_mutation_failing_part_way_leaves_no_stale_weight():
    """Shard 1 errors on its second ``add`` after shard 0 applied its
    part: the error surfaces, and the coordinator's ``W`` is what the
    workers hold — answers stay the estimator of the rows that landed."""
    plan = FaultPlan((FaultSpec("error", shard=1, op="add", nth=2),))
    batch = np.random.default_rng(37).uniform(0, SPAN, size=(80, 3))
    with make_host("sharded-live", fault_plan=plan) as svc:
        v = svc.version
        with pytest.raises(ShardFailed, match="injected fault"):
            svc.add(batch)
        landed = batch[svc.plan.owner_of(batch[:, 0]) == 0]
        assert 0 < len(landed) < len(batch)
        held = [w["events"] for w in svc.stats()["workers"]]
        assert svc.events == sum(held) == len(EVENTS) + len(landed)
        assert svc.version > v
        window = np.vstack([EVENTS, landed])
        np.testing.assert_allclose(
            svc.query_points(QUERIES), truth(window, QUERIES),
            rtol=RTOL, atol=ATOL,
        )
        # Shard 1's rejected rows left its log: a crash replays to the same.
        svc._workers[1].send_op("crash")
        np.testing.assert_allclose(
            svc.query_points(QUERIES), truth(window, QUERIES),
            rtol=RTOL, atol=ATOL,
        )


# ---------------------------------------------------------------------------
# One Shard, two hosts
# ---------------------------------------------------------------------------
def test_a_shard_answers_the_same_in_process_and_behind_a_worker():
    """The class a worker hosts is the class the service hosts: the same
    ops give equal stats and ``array_equal`` unnormalised partials on
    either side of the pipe, static (weighted) and live."""
    rng = np.random.default_rng(41)
    weights = rng.uniform(0.5, 2.0, size=len(EVENTS))
    arriving = rng.uniform([0, 0, 9.0], SPAN, size=(70, 3))

    def both(shard, worker):
        assert worker.request("stats") == shard.stats()
        for eps, seed in ((None, 0), (0.2, 7)):
            np.testing.assert_array_equal(
                worker.request("query_points", (QUERIES, eps, seed)),
                shard.points(QUERIES, 1.0, eps, seed),
            )
        np.testing.assert_array_equal(
            worker.request("query_region", WINDOW),
            shard.region(VoxelWindow(*WINDOW), 1.0).data,
        )

    for live in (False, True):
        shard = Shard(GRID, "epanechnikov")
        worker = ShardWorker(0, GRID, "epanechnikov")
        try:
            if not live:
                shard.load_static(EVENTS, weights)
                assert worker.request("static", (EVENTS, weights)) is None
                assert shard.stats()["weight"] == float(weights.sum())
                both(shard, worker)
                continue
            shard.add(EVENTS)
            worker.request("add", EVENTS)
            both(shard, worker)
            # Rows that are not live are refused on both sides, and
            # neither side changes.
            with pytest.raises(ValueError, match="not live"):
                shard.remove(arriving[:1])
            with pytest.raises(ShardFailed, match="not live"):
                worker.request("remove", arriving[:1])
            both(shard, worker)
            shard.remove(EVENTS[:9])
            worker.request("remove", EVENTS[:9])
            both(shard, worker)
            assert shard.slide(arriving, 4.0) > 0
            worker.request("slide", (arriving, 4.0))
            both(shard, worker)
        finally:
            worker.close()
