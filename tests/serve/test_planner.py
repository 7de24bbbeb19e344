"""Planner tests: backend agreement and the direct-vs-lookup crossover.

Uses a pinned :class:`MachineModel` (no calibration) so the decisions are
deterministic: the planner must send sparse/few-query batches to the
index walk and dense/many-query batches to volume materialisation +
lookup, and both physical plans must agree numerically where they are
both exact (voxel centers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.model import CostModel, MachineModel
from repro.core import PointSet
from repro.core.grid import VoxelWindow
from repro.serve import BucketIndex, DensityService, QueryPlanner
from repro.serve.engine import slab_dispatches
from tests.helpers import make_clustered_points, make_points
from tests.serve.test_engine import voxel_center_queries

#: Deterministic machine: memory fast, per-batch dispatch expensive enough
#: that materialisation needs a real batch to amortise.
MACHINE = MachineModel(
    c_mem=1e-9, c_point=1e-7, c_cell=2e-9, c_batch=1e-5,
    c_lookup=5e-8, c_qpair=2e-9,
    c_qcohort=5e-6, c_qprobe=1e-6,
)


@pytest.fixture
def sparse_setup(small_grid):
    pts = make_points(small_grid, 60, seed=30)
    model = CostModel(small_grid, pts, MACHINE)
    return pts, BucketIndex(small_grid, pts.coords), QueryPlanner(model)


@pytest.fixture
def dense_setup(small_grid):
    pts = make_clustered_points(small_grid, 4000, seed=31)
    model = CostModel(small_grid, pts, MACHINE)
    return pts, BucketIndex(small_grid, pts.coords), QueryPlanner(model)


class TestPointCrossover:
    def test_few_queries_on_sparse_data_go_direct(self, sparse_setup, small_grid):
        _, idx, planner = sparse_setup
        q = make_points(small_grid, 5, seed=32).coords
        plan = planner.plan_points(idx, q, volume_ready=False)
        assert plan.backend == "direct"
        assert plan.direct_seconds < plan.lookup_seconds

    def test_many_queries_on_dense_data_go_lookup(self, dense_setup, small_grid):
        _, idx, planner = dense_setup
        q = make_points(small_grid, 20_000, seed=33).coords
        plan = planner.plan_points(idx, q, volume_ready=False)
        assert plan.backend == "lookup"
        assert plan.lookup_seconds < plan.direct_seconds

    def test_warm_volume_flips_small_batches_to_lookup(self, dense_setup, small_grid):
        """Once materialised, per-query lookup undercuts even tiny walks
        on dense data (each direct query touches hundreds of pairs)."""
        _, idx, planner = dense_setup
        q = make_points(small_grid, 50, seed=34).coords
        cold = planner.plan_points(idx, q, volume_ready=False)
        warm = planner.plan_points(idx, q, volume_ready=True)
        assert cold.backend == "direct"
        assert warm.backend == "lookup"

    def test_estimates_scale_with_batch(self, sparse_setup, small_grid):
        _, idx, planner = sparse_setup
        small = planner.plan_points(
            idx, make_points(small_grid, 10, seed=35).coords, volume_ready=False
        )
        big = planner.plan_points(
            idx, make_points(small_grid, 1000, seed=35).coords, volume_ready=False
        )
        assert big.direct_seconds > small.direct_seconds
        assert big.est_candidates > small.est_candidates

    def test_force_overrides_but_reports(self, sparse_setup, small_grid):
        _, idx, planner = sparse_setup
        q = make_points(small_grid, 5, seed=36).coords
        plan = planner.plan_points(idx, q, volume_ready=False, force="lookup")
        assert plan.backend == "lookup"
        assert "forced" in plan.reason
        assert plan.direct_seconds < plan.lookup_seconds  # honest estimates
        with pytest.raises(ValueError, match="backend"):
            planner.plan_points(idx, q, volume_ready=False, force="magic")


class TestRegionCrossover:
    def test_small_region_cold_volume_goes_direct(self, sparse_setup, small_grid):
        _, _, planner = sparse_setup
        plan = planner.plan_region(
            VoxelWindow(0, 4, 0, 4, 0, 4), volume_ready=False
        )
        assert plan.backend == "direct"

    def test_any_region_warm_volume_goes_lookup(self, dense_setup, small_grid):
        _, _, planner = dense_setup
        plan = planner.plan_region(
            small_grid.full_window(), volume_ready=True
        )
        assert plan.backend == "lookup"

    def test_full_region_cold_estimates_comparable(self, dense_setup, small_grid):
        """A cold full-window extract *is* (a window of) a materialisation:
        the two estimates must track each other."""
        _, _, planner = dense_setup
        model = planner.model
        plan = planner.plan_region(
            small_grid.full_window(), volume_ready=False
        )
        assert plan.lookup_seconds == pytest.approx(
            model.predict_materialize() + model.lookup_cost
        )
        # The direct estimate is a serial stamp of the same window: it
        # must track serial materialisation within a small factor.
        serial = model.predict_pb_sym()
        assert plan.direct_seconds < 2.5 * serial
        assert serial < 2.5 * plan.direct_seconds


class TestBackendAgreement:
    def test_backends_agree_on_random_voxel_center_batches(self, small_grid):
        """Satellite acceptance: direct-sum and volume-lookup agree to
        rtol=1e-6 on random query batches (voxel centers, where both are
        exact)."""
        pts = make_clustered_points(small_grid, 150, seed=37)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        rng = np.random.default_rng(38)
        q_all, _ = voxel_center_queries(small_grid, stride=1)
        for _ in range(3):
            q = q_all[rng.choice(q_all.shape[0], size=200, replace=False)]
            d = svc.query_points(q, backend="direct")
            l = svc.query_points(q, backend="lookup")
            np.testing.assert_allclose(d, l, rtol=1e-6, atol=1e-15)

    def test_backends_close_off_center(self, small_grid):
        """Off the lattice, lookup is an interpolation of the exact direct
        answer: bounded by the field's scale, not equal."""
        pts = make_clustered_points(small_grid, 150, seed=39)
        svc = DensityService(pts, small_grid, machine=MACHINE)
        rng = np.random.default_rng(40)
        d = small_grid.domain
        q = rng.uniform([d.x0, d.y0, d.t0],
                        [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt], size=(300, 3))
        exact = svc.query_points(q, backend="direct")
        approx = svc.query_points(q, backend="lookup")
        scale = exact.max()
        assert scale > 0
        assert np.max(np.abs(exact - approx)) < 0.2 * scale


class TestCostModelPredictors:
    def test_direct_query_prices_pairs_and_dispatch(self, small_grid):
        pts = make_points(small_grid, 50, seed=41)
        model = CostModel(small_grid, pts, MACHINE)
        base = model.predict_direct_query(0, 0)
        assert base == pytest.approx(MACHINE.c_batch + MACHINE.c_qcohort)
        # Defaults: one slab dispatch, one segment.
        assert model.predict_direct_query(10, 500) == pytest.approx(
            MACHINE.c_batch + MACHINE.c_qcohort
            + 10 * (MACHINE.c_qprobe + MACHINE.c_point)
            + 500 * MACHINE.c_qpair
        )
        # Slab dispatches multiply c_qcohort; segments multiply the probes.
        assert model.predict_direct_query(
            10, 500, n_cohorts=2, n_segments=3
        ) == pytest.approx(
            MACHINE.c_batch + 2 * MACHINE.c_qcohort
            + 10 * 3 * MACHINE.c_qprobe + 10 * MACHINE.c_point
            + 500 * MACHINE.c_qpair
        )

    @pytest.mark.parametrize(
        "m,c,s", [(1, 27, 1), (64, 900, 4), (3000, 10**6, 20)]
    )
    def test_probes_are_priced_per_query_per_segment(
        self, small_grid, m, c, s
    ):
        """``c_qprobe`` is paid the way it is measured: each query's own
        window needles, searched once per segment — not once per distinct
        home cell of the batch."""
        model = CostModel(small_grid, make_points(small_grid, 10, seed=45),
                          MACHINE)
        assert model.predict_direct_query(m, c, n_segments=s) == (
            MACHINE.c_batch + MACHINE.c_qcohort + m * s * MACHINE.c_qprobe
            + m * MACHINE.c_point + c * MACHINE.c_qpair
        )

    def test_plan_prices_co_located_queries_per_query(self, small_grid):
        """Queries sharing one home cell still search every segment each:
        the direct plan pays ``m * segments`` probes, not one probe per
        segment for the batch's single distinct cell."""
        pts = make_points(small_grid, 200, seed=46)
        idx = BucketIndex(small_grid)
        for s in range(4):
            idx.add_segment(s, pts.coords[s::4])
        q = np.repeat(pts.coords[:1], 32, axis=0)
        model = CostModel(small_grid, pts, MACHINE)
        plan = QueryPlanner(model).plan_points(idx, q, volume_ready=False)
        cand = int(idx.candidate_counts(q).sum())
        assert plan.direct_seconds == model.predict_direct_query(
            32, cand, n_cohorts=slab_dispatches(cand), n_segments=4
        )

    def test_lookup_charges_build_only_when_cold(self, small_grid):
        pts = make_points(small_grid, 50, seed=42)
        model = CostModel(small_grid, pts, MACHINE)
        cold = model.predict_volume_lookup(100, volume_ready=False)
        warm = model.predict_volume_lookup(100, volume_ready=True)
        # The cold build is the one the service runs: serial PB-SYM.
        assert cold == pytest.approx(
            model.predict_materialize() + 100 * MACHINE.c_lookup
        )
        assert model.predict_materialize() == model.predict_pb_sym()
        assert warm == pytest.approx(100 * MACHINE.c_lookup)

    def test_direct_region_charges_reaching_stamps_only(self, small_grid):
        """A window far from every event prices (almost) only its first
        touch; a window over the data prices the stamps it absorbs."""
        rng = np.random.default_rng(43)
        coords = rng.uniform([0, 0, 0], [3.0, 3.0, 3.0], size=(50, 3))
        model = CostModel(small_grid, PointSet(coords), MACHINE)
        near = model.predict_direct_region(VoxelWindow(0, 6, 0, 6, 0, 6))
        far_w = VoxelWindow(
            small_grid.Gx - 2, small_grid.Gx,
            small_grid.Gy - 2, small_grid.Gy,
            small_grid.Gt - 2, small_grid.Gt,
        )
        far = model.predict_direct_region(far_w)
        assert far == pytest.approx(
            MACHINE.c_mem * far_w.volume + MACHINE.c_batch
        )
        assert near > far

    def test_uncalibrated_lookup_rate_falls_back(self, small_grid):
        machine = MachineModel(c_mem=1e-9, c_point=1e-7, c_cell=2e-9)
        model = CostModel(small_grid, make_points(small_grid, 10, seed=44),
                          machine)
        assert model.lookup_cost == pytest.approx(32e-9)
