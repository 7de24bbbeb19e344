"""Boundary inputs get one typed error at every serving entry.

Table-driven (ROADMAP item 3d): each row of the table is an entry point
that answers point queries, each column a malformed input.  Non-finite
coordinates used to be served as plan-dependent garbage — ``0.0`` from
the direct backend (the NaN cast to an arbitrary cell), ``nan`` from the
lookup backend.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analysis.model import MachineModel
from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.kernels import get_kernel
from repro.serve import (
    BucketIndex, DensityService, ShardedDensityService, TrafficFrontend,
)
from repro.serve.engine import direct_sum
from tests.helpers import brute_force_sum, sharded_state

# The sharded tier's rows are test_service_contract's (all four hosts).
ENTRIES = ("direct", "lookup", "frontend")
NON_FINITE = (np.nan, np.inf, -np.inf)
GOOD = [8.0, 8.0, 8.0]


@pytest.fixture(scope="module")
def entries():
    """``{entry: callable(q) -> densities}`` over one event set."""
    grid = GridSpec(DomainSpec.from_voxels(24, 24, 24), hs=3.0, ht=3.0)
    rng = np.random.default_rng(5)
    pts = PointSet(rng.uniform(0, 24.0, size=(600, 3)))
    machine = MachineModel.nominal()
    svc = DensityService(pts, grid, machine=machine)

    async def through_frontend(q):
        """Each row its own request, beside a well-formed one that must
        still be answered (a bad row may not poison its batch)."""
        async with TrafficFrontend(svc) as fe:
            good, *rest = await asyncio.gather(
                fe.query_point(*GOOD),
                *[fe.query_point(*row) for row in q.tolist()],
                return_exceptions=True,
            )
        assert good == pytest.approx(float(svc.query_points([GOOD])[0]))
        for out in rest:
            if isinstance(out, BaseException):
                raise out
        return np.array(rest)

    return {
        "direct": lambda q: svc.query_points(q, backend="direct"),
        "lookup": lambda q: svc.query_points(q, backend="lookup"),
        "frontend": lambda q: asyncio.run(through_frontend(q)),
    }


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_finite_queries_are_rejected(entries, entry, bad):
    query = entries[entry]
    for axis in range(3):
        q = np.array([GOOD, GOOD])
        q[1, axis] = bad
        with pytest.raises(ValueError, match="must be finite"):
            query(q)
    # Nothing was cached or wedged: the well-formed rows still answer.
    out = query(np.array([GOOD, GOOD]))
    assert out.shape == (2,) and np.isfinite(out).all() and out[0] == out[1]


@pytest.mark.parametrize("entry", ENTRIES[:2])  # query_point has no shape
def test_bad_shapes_are_rejected(entries, entry):
    with pytest.raises(ValueError, match=r"\(m, 3\)"):
        entries[entry](np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Bandwidths: NaN and inf are not "<= 0", and used to surface from inside
# the voxel-count arithmetic as "cannot convert float NaN to integer"
# (ValueError) and an OverflowError.
# ---------------------------------------------------------------------------
def _cli_query(hs, ht, tmp_path):
    from repro.cli import main

    pts = tmp_path / "events.csv"
    np.savetxt(
        pts, np.random.default_rng(0).uniform(0, 8, size=(20, 3)),
        delimiter=",", header="x,y,t", comments="",
    )
    main(["query", "--points", str(pts), "--queries", str(pts),
          "--hs", str(hs), "--ht", str(ht)])


BANDWIDTH_ENTRIES = {
    "GridSpec": lambda hs, ht, tmp: GridSpec(
        DomainSpec.from_voxels(8, 8, 8), hs=hs, ht=ht),
    "DensityService": lambda hs, ht, tmp: DensityService(
        np.full((4, 3), 4.0),
        GridSpec(DomainSpec.from_voxels(8, 8, 8), hs=hs, ht=ht)),
    "cli": _cli_query,
}


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("which", ("hs", "ht"))
@pytest.mark.parametrize("entry", BANDWIDTH_ENTRIES)
def test_bandwidths_must_be_finite_and_positive(entry, which, bad, tmp_path):
    hs, ht = (bad, 2.0) if which == "hs" else (2.0, bad)
    with pytest.raises(ValueError, match="bandwidths must be finite and positive"):
        BANDWIDTH_ENTRIES[entry](hs, ht, tmp_path)


# ---------------------------------------------------------------------------
# Mutation entries: a raw array bypasses PointSet's own finiteness check.
# ---------------------------------------------------------------------------
MUTATIONS = (
    "incremental.add", "incremental.remove", "incremental.slide_window",
    "service.add", "service.remove", "service.slide_window",
    "sharded.add", "sharded.remove", "sharded.slide_window",
    "frontend.slide_window",
)
SLIDES = tuple(m for m in MUTATIONS if m.endswith("slide_window"))


def _inc_state(inc):
    return (inc.n, inc.version,
            tuple((bid, rows.tobytes()) for bid, rows in inc.live_batches))


@pytest.fixture(scope="module")
def mutations():
    """``{entry: (mutate(rows), state())}`` over live sources seeded alike
    (a slide's ``mutate`` also takes the horizon, 4.0 unless given).

    ``state()`` is everything a rejected feed must leave alone: the event
    count, the version, and the tracked batches (for the sharded tier,
    whose batches live in the workers: per-shard counts on both sides of
    the pipe and the rows in each replay log).
    """
    from repro.core.incremental import IncrementalSTKDE

    grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
    seed = np.random.default_rng(6).uniform(0, 16.0, size=(120, 3))
    machine = MachineModel.nominal()

    def inc_state(inc):
        return lambda: _inc_state(inc)

    inc = IncrementalSTKDE(grid)
    inc.add(seed)
    served = IncrementalSTKDE(grid)
    served.add(seed)
    svc = DensityService(served, grid, machine=machine)

    async def frontend_slide(rows, horizon):
        async with TrafficFrontend(svc) as fe:
            await fe.slide_window(rows, horizon)

    with ShardedDensityService(None, grid, workers=2, machine=machine) as sh:
        sh.add(seed)

        def sh_state():
            return sharded_state(sh)

        yield {
            "incremental.add": (inc.add, inc_state(inc)),
            "incremental.remove": (inc.remove, inc_state(inc)),
            "incremental.slide_window": (
                lambda rows, h=4.0: inc.slide_window(rows, h),
                inc_state(inc)),
            "service.add": (svc.add, inc_state(served)),
            "service.remove": (svc.remove, inc_state(served)),
            "service.slide_window": (
                lambda rows, h=4.0: svc.slide_window(rows, h),
                inc_state(served)),
            "sharded.add": (sh.add, sh_state),
            "sharded.remove": (sh.remove, sh_state),
            "sharded.slide_window": (
                lambda rows, h=4.0: sh.slide_window(rows, h), sh_state),
            "frontend.slide_window": (
                lambda rows, h=4.0: asyncio.run(frontend_slide(rows, h)),
                inc_state(served)),
        }


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("entry", MUTATIONS)
def test_non_finite_events_are_rejected(mutations, entry, bad):
    mutate, state = mutations[entry]
    before = state()
    for axis in range(3):
        rows = np.array([GOOD, GOOD])
        rows[0, axis] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            mutate(rows)
        # Neither counted, stamped, versioned nor (on a slide) retired.
        assert state() == before


MALFORMED = (
    np.zeros((5, 2)), np.zeros(5), np.zeros((5, 4)), np.zeros((2, 5, 3)),
)


@pytest.mark.parametrize("bad", MALFORMED, ids=lambda a: str(a.shape))
@pytest.mark.parametrize("entry", MUTATIONS)
def test_malformed_event_batches_are_rejected(mutations, entry, bad):
    """Anything but ``(n, 3)`` raises before any state changes.  No stamp
    runs inside a mutation to trip over the shape; when one did, a slide
    had already retired rows by then, and a 4-column batch was accepted
    and broke the next ``live_coords``."""
    mutate, state = mutations[entry]
    before = state()
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        mutate(bad)
    # n, version and the tracked batches (ids and rows): the slides'
    # horizon of 4.0 would have retired rows had the feed been accepted.
    assert state() == before


@pytest.mark.parametrize("entry", SLIDES)
def test_nan_horizon_is_rejected(mutations, entry):
    """``t < nan`` is false for every event: the slide used to add the
    rows, retire nothing and bump the version — and the sharded tier's
    replay logs, truncated to ``t >= nan``, kept no row at all."""
    mutate, state = mutations[entry]
    before = state()
    with pytest.raises(ValueError, match="t_horizon must not be NaN"):
        mutate(np.array([GOOD, GOOD]), float("nan"))
    assert state() == before


def test_nan_horizon_leaves_the_replay_logs_whole():
    """The sharded row again, then a crash: the shard comes back from a
    log the rejected slide never touched, so every answer is unchanged."""
    from repro.core.incremental import IncrementalSTKDE
    from repro.serve import ShardLog

    grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
    rng = np.random.default_rng(10)
    seed = rng.uniform(0, 16.0, size=(500, 3))
    queries = rng.uniform(0, 16.0, size=(60, 3))
    with ShardedDensityService(
        None, grid, workers=2, machine=MachineModel.nominal(),
        restart_backoff_s=0.01,
    ) as sh:
        sh.add(seed)
        before = sharded_state(sh)
        answers = sh.query_points(queries, backend="sharded")
        with pytest.raises(ValueError, match="t_horizon must not be NaN"):
            sh.slide_window(seed[:40] + 0.25, float("nan"))
        assert sharded_state(sh) == before
        sh._workers[1].send_op("crash")
        np.testing.assert_array_equal(
            sh.query_points(queries, backend="sharded"), answers
        )
        assert sh.counter.shard_restarts == 1
        assert sharded_state(sh) == before
    # The log refuses one on its own account, too.
    log = ShardLog()
    log.add(seed)
    with pytest.raises(ValueError, match="NaN"):
        log.slide(seed[:3], float("nan"))
    assert log.n == 500 and len(log) == 1
    # +-inf stay legal: retire nothing / everything before the arrivals
    # land, as the estimator does.
    inc = IncrementalSTKDE(grid)
    inc.add(seed)
    for horizon in (float("-inf"), float("inf")):
        assert log.slide(seed[:3], horizon) == inc.slide_window(
            seed[:3], horizon
        )
        assert log.n == inc.n
    assert log.n == 3


# ---------------------------------------------------------------------------
# BucketIndex's own entry points, and the live estimator that owns one:
# exported from repro.serve and fed raw arrays by the shard workers, so
# PointSet's checks never see their input.  Unchecked, a NaN coordinate is
# cast into an arbitrary cell and counted, and a NaN weight turns every
# neighbouring answer into NaN.
# ---------------------------------------------------------------------------
INDEX_ENTRIES = ("constructor", "add_segment", "estimator")
BAD_WEIGHTS = (np.nan, np.inf, -1.0)


@pytest.fixture
def fed_index():
    """``(index, live coords, feed)``: the index of a live estimator holding
    two batches, one segment each, and ``feed(entry, rows, weights)``
    pushing one more batch through the named entry (the estimator's slide
    also asks for the retirement of every row with ``t < 8``)."""
    from repro.core.incremental import IncrementalSTKDE

    grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
    rng = np.random.default_rng(8)
    batches = [rng.uniform(0, 16.0, size=(60, 3)) for _ in range(2)]
    inc = IncrementalSTKDE(grid, t_slab_voxels=None)
    for rows in batches:
        inc.add(rows)
    idx = inc.index

    def feed(entry, rows, weights=None):
        if entry == "constructor":
            BucketIndex(grid, rows, weights)
        elif entry == "add_segment":
            idx.add_segment("new", rows, weights)
        else:
            inc.slide_window(rows, t_horizon=8.0)

    return idx, np.vstack(batches), feed


def _index_unchanged(idx, live):
    assert (idx.n, idx.segment_ids, idx.dead_rows) == (120, (1, 2), 0)
    q = np.random.default_rng(9).uniform(0, 16.0, size=(40, 3))
    kern = get_kernel("epanechnikov")
    np.testing.assert_allclose(
        direct_sum(idx, q, kern, 1.0),
        brute_force_sum(idx.grid, kern, live, q),
        rtol=1e-12, atol=0.0,
    )


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_index_rejects_non_finite_events(fed_index, entry, bad):
    idx, live, feed = fed_index
    for axis in range(3):
        rows = np.array([GOOD, GOOD])
        rows[1, axis] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            feed(entry, rows)
        # Neither bucketed nor counted, and (on a slide) nothing retired.
        _index_unchanged(idx, live)


@pytest.mark.parametrize("bad", BAD_WEIGHTS)
@pytest.mark.parametrize("entry", INDEX_ENTRIES[:2])  # the estimator takes no weights
def test_index_rejects_bad_weights(fed_index, entry, bad):
    idx, live, feed = fed_index
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        feed(entry, np.array([GOOD, GOOD]), np.array([1.0, bad]))
    assert idx.weights is None  # no weight column was back-filled either
    _index_unchanged(idx, live)


# ---------------------------------------------------------------------------
# remove() of rows that are not live: a typed error before anything changes
# (ROADMAP item 6) — there is no event set whose density "minus an absent
# row" would be.
# ---------------------------------------------------------------------------
ABSENT = [1.25, 4.5, 7.75]  # never added; x < 8 puts it on shard 0 of 2
NOT_LIVE = {
    # case: (rows built from the entry's own live rows, expected message)
    "never-added": (lambda own: np.array([ABSENT]), "not live"),
    "beyond-multiplicity": (lambda own: own[[3, 3]], "not live"),
    "known-mixed-with-absent": (
        lambda own: np.vstack([own[:4], [ABSENT]]), "not live"),
    "more-than-live": (
        lambda own: np.vstack([own, [ABSENT]]), r"only \d+ present"),
}


@pytest.mark.parametrize("case", NOT_LIVE)
@pytest.mark.parametrize("entry", ("incremental", "sharded"))
def test_remove_of_rows_not_live_raises_and_changes_nothing(entry, case):
    from repro.core.incremental import IncrementalSTKDE

    grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
    rng = np.random.default_rng(7)
    seed = rng.uniform(0, 16.0, size=(120, 3))
    fresh = rng.uniform([0, 0, 14.0], 16.0, size=(30, 3))
    build, message = NOT_LIVE[case]

    # The cold rebuild: an estimator that never saw the rejected call.
    cold = IncrementalSTKDE(grid)
    cold.add(seed)
    cold.slide_window(fresh, 4.0)

    if entry == "incremental":
        inc = IncrementalSTKDE(grid)
        inc.add(seed)
        before = _inc_state(inc)
        with pytest.raises(ValueError, match=message):
            inc.remove(build(seed))
        assert _inc_state(inc) == before
        inc.slide_window(fresh, 4.0)
        np.testing.assert_array_equal(inc.volume().data, cold.volume().data)
        return

    machine = MachineModel.nominal()
    queries = rng.uniform(0, 16.0, size=(40, 3))
    with ShardedDensityService(None, grid, workers=2, machine=machine) as sh:
        sh.add(seed)
        before = sharded_state(sh)
        # Rows of one shard only; a remove that one of several owners
        # rejects is test_service_contract's.  The error is the estimator's
        # own ValueError, not the worker's ShardFailed.
        with pytest.raises(ValueError, match=message):
            sh.remove(build(seed[seed[:, 0] < 8.0]))
        assert sharded_state(sh) == before
        sh.slide_window(fresh, 4.0)
        np.testing.assert_allclose(
            sh.query_points(queries, backend="sharded"),
            DensityService(cold, machine=machine).query_points(
                queries, backend="direct"),
            rtol=1e-12, atol=1e-300,
        )


# ---------------------------------------------------------------------------
# The serving tier takes no compute pin, outside cache or counter, or
# pre-built shard plan: a caller still passing one gets a TypeError at
# construction, before any worker is spawned, not an ignored knob.
# ---------------------------------------------------------------------------
RETIRED = (
    ("incremental", "compute"),
    ("shard", "compute"),
    ("service", "compute"), ("service", "cache"), ("service", "counter"),
    ("sharded", "compute"), ("sharded", "cache"), ("sharded", "counter"),
    ("sharded", "plan"),
)


def _construct(entry, keyword, monkeypatch):
    from repro.core.incremental import IncrementalSTKDE
    from repro.core.instrument import WorkCounter
    from repro.serve import QueryCache, Shard, plan_shards
    import repro.serve.service as service

    grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
    pts = np.random.default_rng(9).uniform(0, 16.0, size=(40, 3))
    value = {
        "compute": "numpy-ref",
        "cache": QueryCache(),
        "counter": WorkCounter(),
        "plan": plan_shards(grid, pts, 2),
    }[keyword]
    if entry == "incremental":
        return IncrementalSTKDE(grid, **{keyword: value})
    if entry == "shard":
        return Shard(grid, "epanechnikov", **{keyword: value})
    if entry == "service":
        return DensityService(pts, grid, **{keyword: value})

    def no_spawn(*args, **kw):
        raise AssertionError("a worker was spawned before the keyword check")

    monkeypatch.setattr(service, "ShardWorker", no_spawn)
    return ShardedDensityService(pts, grid, workers=2, **{keyword: value})


@pytest.mark.parametrize(("entry", "keyword"), RETIRED)
def test_retired_keyword_raises_at_construction(entry, keyword, monkeypatch):
    with pytest.raises(TypeError, match=f"'{keyword}'"):
        _construct(entry, keyword, monkeypatch)


@pytest.mark.parametrize("command", ("query", "serve"))
def test_cli_rejects_compute(command, tmp_path, capsys):
    from repro.cli import main

    pts = tmp_path / "events.csv"
    np.savetxt(
        pts, np.random.default_rng(0).uniform(0, 8, size=(20, 3)),
        delimiter=",", header="x,y,t", comments="",
    )
    with pytest.raises(SystemExit):
        main([
            command, "--points", str(pts), "--hs", "2", "--ht", "2",
            "--queries", str(pts), "--compute", "numpy-ref",
        ])
    assert "unrecognized arguments: --compute" in capsys.readouterr().err
