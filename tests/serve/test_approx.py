"""Tests for the ε-budgeted approximate query tier.

The acceptance-critical property lives here: at ``eps=0.1`` the 95th
percentile of the relative error ``|approx - exact| / max(exact, floor)``
over seeded random batches stays within the budget.  The stop rule
targets ``z * se <= eps * scale`` with ``z=2``, so the *per-query*
standard error lands near ``eps/2`` and the batch p95 sits comfortably
under ``eps`` — any regression in the bound geometry (a too-tight
importance bound breaks unbiasedness) or the variance bookkeeping shows
up as a violated quantile long before it breaks the mean.

Everything else the tier promises is pinned alongside: exactness when
the sample covers every candidate, bit-reproducibility under a fixed
seed, ``eps=None`` staying bit-identical to the exact engine, cache
keys that never alias exact and approximate answers, three-way planner
routing, and the new work counters.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.analysis.model import CostModel, MachineModel
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.core.kernels import get_kernel
from repro.serve import DensityService, QueryCache
from repro.serve.engine import approx_sum, direct_sum
from repro.core.index import BucketIndex
from repro.serve.planner import QueryPlanner

from tests.helpers import brute_force_sum


def dense_fixture(n=4000, seed=5):
    """A dense 3x3x3-cell index where every query sees ~all events.

    One bandwidth per axis spans a third of the domain, so candidate
    sets are in the thousands — the regime the sampler exists for.
    """
    grid = GridSpec(DomainSpec.from_voxels(36, 36, 36), hs=12.0, ht=12.0)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 36.0, size=(n, 3))
    idx = BucketIndex(grid, coords)
    queries = rng.uniform(6.0, 30.0, size=(300, 3))
    return grid, idx, queries


def dense_center_fixture(n=16000, m=200, seed=5):
    """Central-cell queries: every query's candidate set is all ``n``.

    The regime the planner routes to the sampler — avg candidates far
    above the ``~16/eps^2`` expected sample size.
    """
    grid = GridSpec(DomainSpec.from_voxels(36, 36, 36), hs=12.0, ht=12.0)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 36.0, size=(n, 3))
    idx = BucketIndex(grid, coords)
    queries = rng.uniform(13.0, 23.0, size=(m, 3))
    return grid, idx, coords, queries


def rel_err(approx, exact):
    mask = exact > 0
    return np.abs(approx[mask] - exact[mask]) / exact[mask]


class TestApproxSum:
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_p95_relative_error_within_budget(self, eps):
        grid, idx, q = dense_fixture()
        kern = get_kernel("epanechnikov")
        norm = grid.normalization(idx.n)
        exact = direct_sum(idx, q, kern, norm)
        approx = approx_sum(idx, q, kern, norm, eps=eps, seed=3)
        assert np.percentile(rel_err(approx, exact), 95) <= eps

    def test_weighted_error_within_budget(self):
        grid = GridSpec(DomainSpec.from_voxels(36, 36, 36), hs=12.0, ht=12.0)
        rng = np.random.default_rng(9)
        coords = rng.uniform(0.0, 36.0, size=(3000, 3))
        w = rng.uniform(0.2, 3.0, size=3000)
        idx = BucketIndex(grid, coords, w)
        q = rng.uniform(6.0, 30.0, size=(200, 3))
        kern = get_kernel("epanechnikov")
        norm = grid.normalization(float(w.sum()))
        exact = direct_sum(idx, q, kern, norm)
        approx = approx_sum(idx, q, kern, norm, eps=0.1, seed=1)
        assert np.percentile(rel_err(approx, exact), 95) <= 0.1

    @pytest.mark.parametrize("kernel", ["quartic", "as_printed"])
    def test_other_kernels_within_budget(self, kernel):
        grid, idx, q = dense_fixture(n=2500)
        kern = get_kernel(kernel)
        norm = grid.normalization(idx.n)
        exact = direct_sum(idx, q, kern, norm)
        approx = approx_sum(idx, q, kern, norm, eps=0.2, seed=7)
        assert np.percentile(rel_err(approx, exact), 95) <= 0.2

    def test_bit_reproducible_under_fixed_seed(self):
        grid, idx, q = dense_fixture()
        kern = get_kernel("epanechnikov")
        norm = grid.normalization(idx.n)
        a = approx_sum(idx, q, kern, norm, eps=0.15, seed=11)
        b = approx_sum(idx, q, kern, norm, eps=0.15, seed=11)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        grid, idx, q = dense_fixture()
        kern = get_kernel("epanechnikov")
        norm = grid.normalization(idx.n)
        a = approx_sum(idx, q, kern, norm, eps=0.15, seed=11)
        b = approx_sum(idx, q, kern, norm, eps=0.15, seed=12)
        assert not np.array_equal(a, b)

    def test_exact_when_sample_covers_all_candidates(self):
        """Once the draw budget reaches the candidate count the engine
        falls back to the exact sparse gather — bit-identical, not just
        close."""
        grid, idx, q = dense_fixture(n=1500)
        kern = get_kernel("epanechnikov")
        norm = grid.normalization(idx.n)
        exact = direct_sum(idx, q, kern, norm)
        approx = approx_sum(
            idx, q, kern, norm, eps=0.5, seed=0, min_sample=10**9
        )
        assert np.array_equal(approx, exact)

    def test_sparse_candidates_fall_back_exact(self, small_grid):
        """Tiny candidate sets never pay sampling: the fallback serves
        them exactly (empty neighbourhoods stay exactly zero)."""
        rng = np.random.default_rng(2)
        coords = rng.uniform([0, 0, 0], [16, 14, 20], size=(50, 3))
        idx = BucketIndex(small_grid, coords)
        q = rng.uniform([0, 0, 0], [16, 14, 20], size=(40, 3))
        kern = get_kernel("epanechnikov")
        norm = small_grid.normalization(50)
        exact = direct_sum(idx, q, kern, norm)
        c = WorkCounter()
        approx = approx_sum(idx, q, kern, norm, c, eps=0.1, seed=0)
        assert np.array_equal(approx, exact)
        assert c.sample_exact_fallbacks > 0

    def test_invalid_eps_rejected(self):
        grid, idx, q = dense_fixture(n=200)
        kern = get_kernel("epanechnikov")
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError):
                approx_sum(idx, q, kern, 1.0, eps=bad)

    def test_counter_tallies(self):
        grid, idx, q = dense_fixture(n=2000)
        kern = get_kernel("epanechnikov")
        c = WorkCounter()
        approx_sum(idx, q, kern, 1.0, c, eps=0.2, seed=4)
        assert c.sample_rows_drawn > 0
        assert c.sample_candidate_rows == int(idx.candidate_counts(q).sum())
        assert c.sample_bounds_evaluated == q.shape[0] * 9
        assert c.sample_rel_se_sum > 0.0
        assert c.eps_requested_sum == 0.0  # the service's tally

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.1])
    def test_far_off_domain_events_cost_no_extra_draws(self, eps):
        """Events at ``x = 1e160`` clamp into the boundary cells, so dense
        boundary queries draw them; their offset overflows when squared —
        outside the mask, worth 0.  The draw is evaluated under the exact
        tier's guard: no warning, no NaN mean burning every doubling
        round into the exact fallback (before: ~100x the draws)."""
        grid = GridSpec(DomainSpec.from_voxels(32, 32, 32), hs=3.0, ht=3.0)
        rng = np.random.default_rng(7)
        n, n_far = 60_000, 200
        coords = np.column_stack([
            rng.uniform(26, 32, n), rng.uniform(0, 8, n), rng.uniform(0, 8, n)
        ])
        far = coords.copy()
        far[:n_far, 0] = 1e160
        q = np.column_stack([
            rng.uniform(27, 31, 64), rng.uniform(1, 7, 64),
            rng.uniform(1, 7, 64),
        ])
        kern = get_kernel("epanechnikov")
        plain = WorkCounter()
        approx_sum(BucketIndex(grid, coords[n_far:]), q, kern, 1.0, plain,
                   eps=eps)
        stats = WorkCounter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = approx_sum(BucketIndex(grid, far), q, kern, 1.0, stats,
                             eps=eps)
        # The far events are outside every support: the oracle skips them.
        exact = brute_force_sum(grid, kern, coords[n_far:], q)
        assert np.isfinite(got).all()
        assert np.quantile(rel_err(got, exact), 0.95) <= eps
        assert plain.sample_exact_fallbacks == 0
        assert stats.sample_exact_fallbacks == 0
        # Not ``<=``: 200 more zero-valued candidates move the stop rule
        # by a few per cent either way (seeds 7-9: -1 % .. +6 %).
        assert stats.sample_rows_drawn <= 1.25 * plain.sample_rows_drawn


class TestPlannerRouting:
    def _planner(self, grid, coords=None):
        pts = PointSet(coords if coords is not None else np.empty((0, 3)))
        return QueryPlanner(
            CostModel(grid, pts, MachineModel.nominal())
        )

    def test_dense_batch_routes_approx(self):
        grid, idx, coords, q = dense_center_fixture()
        plan = self._planner(grid, coords).plan_points(
            idx, q, volume_ready=False, eps=0.1
        )
        assert plan.backend == "approx"
        assert plan.eps == 0.1
        assert plan.approx_seconds < min(
            plan.direct_seconds, plan.lookup_seconds
        )
        assert "approx" in plan.describe()

    def test_no_eps_never_routes_approx(self):
        grid, idx, q = dense_fixture()
        plan = self._planner(grid).plan_points(idx, q, volume_ready=False)
        assert plan.backend != "approx"
        assert plan.approx_seconds == float("inf")
        assert plan.eps is None

    def test_force_approx_requires_eps(self):
        grid, idx, q = dense_fixture(n=100)
        with pytest.raises(ValueError):
            self._planner(grid).plan_points(
                idx, q, volume_ready=False, force="approx"
            )

    def test_tight_eps_prices_toward_exact(self):
        """The predicted sample size grows as 1/eps^2, so a tight budget
        must cost more than a loose one and cap at the exact plan."""
        grid, idx, q = dense_fixture()
        model = CostModel(
            grid, PointSet(np.empty((0, 3))), MachineModel.nominal()
        )
        m = q.shape[0]
        cand = int(idx.candidate_counts(q).sum())
        loose = model.predict_approx_query(m, cand, 0.3)
        tight = model.predict_approx_query(m, cand, 0.01)
        assert loose < tight


class TestServiceEps:
    def _service(self, n=4000, **kw):
        grid, idx, q = dense_fixture(n=n)
        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(0.0, 36.0, size=(n, 3)))
        svc = DensityService(
            pts, grid, machine=MachineModel.nominal(), **kw
        )
        return svc, q

    def test_eps_none_bit_identical_to_exact(self):
        svc, q = self._service()
        dens = svc.query_points(q, backend="direct")
        ref = direct_sum(
            svc.index(), q, svc.kernel, svc._norm(), WorkCounter()
        )
        assert np.array_equal(dens, ref)
        assert svc.counter.queries_approx == 0
        assert svc.counter.queries_exact == q.shape[0]

    def test_auto_routes_approx_and_meets_budget(self):
        grid, idx, coords, q = dense_center_fixture()
        svc = DensityService(
            PointSet(coords), grid, machine=MachineModel.nominal()
        )
        exact = svc.query_points(q, backend="direct")
        plans: list = []
        approx = svc.query_points(q, eps=0.1, seed=3, plan_out=plans)
        assert plans[-1].backend == "approx"
        assert np.percentile(rel_err(approx, exact), 95) <= 0.1
        assert svc.counter.queries_approx == q.shape[0]
        assert svc.counter.sample_rows_drawn > 0

    def test_cache_never_aliases_exact_and_approx(self):
        svc, q = self._service()
        exact = svc.query_points(q)
        a1 = svc.query_points(q, eps=0.2, seed=3)
        # Exact re-query must return the exact entry, not the sampled one.
        assert np.array_equal(svc.query_points(q), exact)
        # Same (eps, seed) hits the cached sampled entry bit-identically.
        assert np.array_equal(svc.query_points(q, eps=0.2, seed=3), a1)
        # Different seed or budget is a different entry.
        hits = svc.cache.stats()["hits"]
        svc.query_points(q, eps=0.2, seed=4)
        svc.query_points(q, eps=0.25, seed=3)
        assert svc.cache.stats()["hits"] == hits

    def test_cache_key_includes_eps_and_seed(self):
        base = QueryCache.make_key(1, "points", "auto", "d", "exact")
        k1 = QueryCache.make_key(1, "points", "auto", "d", "eps", 0.1, 0)
        k2 = QueryCache.make_key(1, "points", "auto", "d", "eps", 0.1, 1)
        k3 = QueryCache.make_key(1, "points", "auto", "d", "eps", 0.2, 0)
        assert len({base, k1, k2, k3}) == 4

    def test_pinned_approx_requires_eps(self):
        svc, q = self._service(n=300)
        with pytest.raises(ValueError):
            svc.query_points(q, backend="approx")
        out = svc.query_points(q, backend="approx", eps=0.3, seed=1)
        assert out.shape == (q.shape[0],)
        assert svc._backend_calls["approx"] == 1

    def test_approx_default_pins_only_requests_with_a_budget(self):
        """``backend="approx"`` as the service default: the sampler for
        requests that carry an ``eps``, the planner for everything else
        (regions, slices and budget-less batches used to raise)."""
        svc, q = self._service(n=300, backend="approx")
        auto, _ = self._service(n=300)
        plans: list = []
        out = svc.query_points(q, eps=0.3, seed=1, plan_out=plans)
        assert plans[-1].backend == "approx"
        assert plans[-1].reason == "forced by caller"
        assert np.array_equal(
            out, auto.query_points(q, backend="approx", eps=0.3, seed=1)
        )
        svc.query_points(q, plan_out=plans)
        assert plans[-1].backend in ("direct", "lookup")
        assert plans[-1].reason != "forced by caller"
        assert np.array_equal(svc.query_points(q), auto.query_points(q))
        w = (2, 9, 1, 8, 3, 7)
        assert np.array_equal(
            svc.query_region(w, plan_out=plans).data,
            auto.query_region(w).data,
        )
        assert plans[-1].kind == "region"
        assert np.array_equal(
            svc.query_slice(4).data, auto.query_slice(4).data
        )
        # A per-call pin without a budget still has no plan to force.
        with pytest.raises(ValueError, match="backend"):
            svc.query_points(q, backend="approx")

    def test_stats_blob_reports_realised_eps(self):
        svc, q = self._service()
        svc.query_points(q)  # one exact batch
        svc.query_points(q, backend="approx", eps=0.1, seed=3)
        st = svc.stats()
        blob = st["approx"]
        assert blob["queries"] == q.shape[0]
        assert blob["eps_requested_mean"] == pytest.approx(0.1)
        # Realised error estimate: converged queries stop at se <= eps/2.
        assert 0.0 < blob["eps_realised_mean"] <= 0.1
        assert blob["sample_rows_drawn"] > 0
        assert st["work"]["queries_exact"] == q.shape[0]
        assert st["work"]["queries_approx"] == q.shape[0]

    def test_stats_blob_empty_before_any_approx(self):
        svc, q = self._service(n=300)
        svc.query_points(q)
        blob = svc.stats()["approx"]
        assert blob["queries"] == 0
        assert blob["eps_requested_mean"] is None
        assert blob["eps_realised_mean"] is None


class TestShardedEps:
    def test_sharded_eps_reproducible_and_counted(self):
        from repro.serve import ShardedDensityService

        grid = GridSpec(
            DomainSpec.from_voxels(36, 36, 36), hs=12.0, ht=12.0
        )
        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(0.0, 36.0, size=(4000, 3)))
        q = rng.uniform(6.0, 30.0, size=(120, 3))
        exact_ref = DensityService(
            pts, grid, machine=MachineModel.nominal()
        ).query_points(q, backend="direct")
        svc = ShardedDensityService(
            pts, grid, workers=2, machine=MachineModel.nominal()
        )
        try:
            a1 = svc.query_points(q, backend="sharded", eps=0.1, seed=3)
            a2 = svc.query_points(q, backend="sharded", eps=0.1, seed=3)
            assert np.array_equal(a1, a2)
            assert np.percentile(rel_err(a1, exact_ref), 95) <= 0.1
            ex = svc.query_points(q, backend="sharded")
            np.testing.assert_allclose(ex, exact_ref, rtol=1e-10)
            st = svc.stats()
            assert st["work"]["queries_approx"] == 2 * q.shape[0]
            assert st["work"]["queries_exact"] >= q.shape[0]
            assert st["work"]["sample_rows_drawn"] > 0
        finally:
            svc.close()

    @pytest.mark.parametrize("live", [False, True])
    def test_stats_blob_carries_the_workers_sampler(self, live):
        """The ``approx`` blob reads the counter merged with the workers':
        the coordinator never samples, so a blob of its own tallies is
        all zeros while ``work`` shows the sampled rows."""
        from repro.serve import ShardedDensityService

        grid = GridSpec(
            DomainSpec.from_voxels(36, 36, 36), hs=12.0, ht=12.0
        )
        rng = np.random.default_rng(2)
        coords = rng.uniform(0.0, 36.0, size=(4000, 3))
        q = rng.uniform(6.0, 30.0, size=(256, 3))
        with ShardedDensityService(
            None if live else PointSet(coords), grid, workers=2,
            backend="sharded", machine=MachineModel.nominal(),
        ) as svc:
            if live:
                svc.add(coords)
            svc.query_points(q, eps=0.1, seed=3)
            st = svc.stats()
        blob, work = st["approx"], st["work"]
        assert blob["queries"] == work["queries_approx"] == q.shape[0]
        assert blob["eps_requested_mean"] == pytest.approx(0.1)
        assert 0.0 < blob["eps_realised_mean"] <= 0.1
        assert blob["sample_rows_drawn"] == work["sample_rows_drawn"] > 0
        assert blob["candidate_rows"] == work["sample_candidate_rows"] > 0
        assert blob["exact_fallbacks"] == work["sample_exact_fallbacks"]


class TestCliEps:
    def test_parser_accepts_eps_and_seed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["query", "--points", "p.csv", "--hs", "2", "--ht", "2",
             "--queries", "q.csv", "--eps", "0.1", "--seed", "7",
             "--backend", "approx"]
        )
        assert args.eps == 0.1
        assert args.seed == 7
        assert args.backend == "approx"

    def test_query_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(0)
        pts = tmp_path / "events.csv"
        qs = tmp_path / "queries.csv"
        out = tmp_path / "dens.csv"
        np.savetxt(
            pts, rng.uniform(0.0, 36.0, size=(2500, 3)),
            delimiter=",", header="x,y,t", comments="",
        )
        np.savetxt(
            qs, rng.uniform(6.0, 30.0, size=(60, 3)),
            delimiter=",", header="x,y,t", comments="",
        )
        rc = main([
            "query", "--points", str(pts), "--hs", "12", "--ht", "12",
            "--queries", str(qs), "--eps", "0.2", "--seed", "3",
            "--backend", "approx", "--out", str(out), "--stats",
        ])
        assert rc == 0
        dens = np.loadtxt(out, delimiter=",", skiprows=1)
        assert dens.shape == (60, 4)
        blob = capsys.readouterr().out
        assert '"queries_approx": 60' in blob
        assert '"eps_requested_mean": 0.2' in blob

    def test_eps_without_queries_rejected(self, tmp_path):
        from repro.cli import main

        pts = tmp_path / "events.csv"
        np.savetxt(
            pts, np.random.default_rng(0).uniform(0, 8, size=(20, 3)),
            delimiter=",", header="x,y,t", comments="",
        )
        with pytest.raises(SystemExit):
            main([
                "query", "--points", str(pts), "--hs", "2", "--ht", "2",
                "--slice", "0", "--eps", "0.1",
            ])

    def test_backend_approx_without_eps_rejected(self, tmp_path):
        from repro.cli import main

        pts = tmp_path / "events.csv"
        np.savetxt(
            pts, np.random.default_rng(0).uniform(0, 8, size=(20, 3)),
            delimiter=",", header="x,y,t", comments="",
        )
        with pytest.raises(SystemExit):
            main([
                "query", "--points", str(pts), "--hs", "2", "--ht", "2",
                "--queries", str(pts), "--backend", "approx",
            ])
