"""Tests for the Section 6.5 parametric model and strategy selector."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro import STKDE
from repro.algorithms import pb_sym
from repro.analysis import model as model_module
from repro.analysis.model import CostModel, MachineModel, select_strategy
from repro.core import DomainSpec, GridSpec
from repro.data.datasets import get_instance
from repro.parallel.partition import BlockDecomposition

from tests.helpers import make_clustered_points, make_points


@pytest.fixture(scope="module")
def machine():
    return MachineModel.calibrate()


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(40, 40, 44), hs=3.0, ht=2.5)


class TestMachineModel:
    def test_calibration_positive(self, machine):
        assert machine.c_mem > 0
        assert machine.c_point > 0
        assert machine.c_cell > 0

    def test_sane_magnitudes(self, machine):
        # Memory writes are ns-scale per voxel; dispatch is us-scale.
        assert machine.c_mem < 1e-6
        assert 1e-7 < machine.c_point < 1e-2
        assert machine.c_cell < 1e-6


class TestCostModelPredictions:
    def test_pb_sym_prediction_within_factor(self, grid, machine):
        """The model predicts the sequential runtime within ~4x — enough
        to rank strategies, which is all Section 6.5 asks of it."""
        pts = make_points(grid, 600, seed=0)
        model = CostModel(grid, pts, machine)
        predicted = model.predict_pb_sym()
        measured = pb_sym(pts, grid).elapsed
        assert predicted == pytest.approx(measured, rel=3.0)

    def test_dr_infeasible_without_memory(self, grid, machine):
        pts = make_points(grid, 50, seed=1)
        model = CostModel(grid, pts, machine,
                          memory_budget_bytes=2 * grid.grid_bytes)
        p = model.predict_dr(P=8)
        assert not p.feasible
        assert math.isinf(p.seconds)

    def test_dr_feasible_with_memory(self, grid, machine):
        pts = make_points(grid, 50, seed=1)
        model = CostModel(grid, pts, machine)
        p = model.predict_dr(P=4)
        assert p.feasible and p.seconds > 0

    def test_dd_reports_clamped_decomposition(self, grid, machine):
        pts = make_points(grid, 50, seed=2)
        model = CostModel(grid, pts, machine)
        p = model.predict_dd((64, 64, 64), P=4)
        assert p.decomposition == (40, 40, 44)

    def test_pd_respects_bandwidth_constraint(self, grid, machine):
        pts = make_points(grid, 50, seed=3)
        model = CostModel(grid, pts, machine)
        p = model.predict_pd((16, 16, 16), P=4)
        A, B, C = p.decomposition
        assert A <= grid.Gx // (2 * grid.Hs + 1)

    def test_sched_not_slower_than_parity(self, grid, machine):
        pts = make_clustered_points(grid, 800, k=2, seed=4)
        model = CostModel(grid, pts, machine)
        parity = model.predict_pd((8, 8, 8), P=8, scheduler="parity")
        sched = model.predict_pd((8, 8, 8), P=8, scheduler="sched")
        assert sched.seconds <= parity.seconds * 1.05

    def test_rep_not_slower_than_sched_on_hot_cluster(self, grid, machine):
        """REP exists to beat SCHED exactly when one cluster dominates."""
        pts = make_clustered_points(grid, 900, k=1, seed=5)
        model = CostModel(grid, pts, machine)
        sched = model.predict_pd((8, 8, 8), P=8, scheduler="sched")
        rep = model.predict_pd_rep((8, 8, 8), P=8)
        assert rep.seconds <= sched.seconds * 1.05

    def test_rep_infeasible_under_tight_budget_coarse(self, grid, machine):
        pts = make_clustered_points(grid, 500, k=1, seed=6)
        model = CostModel(grid, pts, machine,
                          memory_budget_bytes=int(1.05 * grid.grid_bytes))
        p = model.predict_pd_rep((1, 1, 1), P=8)
        assert not p.feasible


class TestSelectStrategy:
    def test_returns_feasible_best(self, grid, machine):
        pts = make_clustered_points(grid, 400, seed=7)
        best, ranked = select_strategy(grid, pts, 8, machine=machine)
        assert best.feasible
        assert best.seconds == min(p.seconds for p in ranked if p.feasible)

    def test_memory_budget_rules_out_dr(self, grid, machine):
        pts = make_points(grid, 100, seed=8)
        best, ranked = select_strategy(
            grid, pts, 8, machine=machine,
            memory_budget_bytes=3 * grid.grid_bytes,
        )
        dr = [p for p in ranked if p.algorithm == "pb-sym-dr"]
        assert dr and not dr[0].feasible
        assert best.algorithm != "pb-sym-dr"

    def test_ranking_sorted(self, grid, machine):
        pts = make_points(grid, 100, seed=9)
        _, ranked = select_strategy(grid, pts, 4, machine=machine)
        secs = [p.seconds for p in ranked]
        assert secs == sorted(secs)

    def test_selector_regret_small(self, grid, machine):
        """The model's pick should be close to the oracle best when the
        candidates are actually run (simulated, P=4)."""
        from repro.parallel import pb_sym_dd, pb_sym_dr, pb_sym_pd_sched

        pts = make_clustered_points(grid, 700, seed=10)
        best, _ = select_strategy(grid, pts, 4, machine=machine)

        runs = {
            "pb-sym-dr": pb_sym_dr(pts, grid, P=4).meta["makespan"],
            "pb-sym-dd": pb_sym_dd(pts, grid, P=4, decomposition=(8, 8, 8)).meta["makespan"],
            "pb-sym-pd-sched": pb_sym_pd_sched(pts, grid, P=4, decomposition=(8, 8, 8)).meta["makespan"],
        }
        oracle = min(runs.values())
        picked = runs.get(best.algorithm)
        if picked is not None:
            assert picked <= oracle * 3.0  # generous: ranking, not regression

    def test_describe_mentions_infeasibility(self, grid, machine):
        pts = make_points(grid, 30, seed=11)
        model = CostModel(grid, pts, machine, memory_budget_bytes=grid.grid_bytes)
        p = model.predict_dr(P=8)
        assert "infeasible" in p.describe()


class TestOneBinningPerDecomposition:
    """The PD predictors share one owner binning and one colour DAG per
    decomposition; what they predict is what three separate binnings
    predicted."""

    #: sha256 prefixes of the ranked predictions (algorithm, P, seconds as
    #: ``float.hex``, decomposition, feasibility, reason) under
    #: ``MachineModel.nominal()`` at P=16, without and with the instance's
    #: memory budget, recorded while every predictor binned on its own.
    RANKED = {
        "Dengue_Hr-Lb": ("94b8f2292b110850", "94b8f2292b110850"),
        "Flu_Lr-Lb": ("59f6838d8ad624f0", "59f6838d8ad624f0"),
        "Flu_Hr-Lb": ("ec91e90c84a7e35f", "5cc41859464f5e06"),
        "PollenUS_VHr-Lb": ("81acf6fb9c46eb4c", "17a2aac656287823"),
    }

    @staticmethod
    def _digest(ranked):
        rows = [(p.algorithm, p.P, p.seconds.hex(), p.feasible,
                 p.decomposition, p.reason) for p in ranked]
        return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(RANKED))
    def test_predictions_and_ranking_unchanged(self, name):
        inst = get_instance(name, "bench")
        grid, pts = inst.grid(), inst.points()
        for budget, want in zip((None, inst.memory_budget_bytes),
                                self.RANKED[name]):
            best, ranked = select_strategy(
                grid, pts, 16, machine=MachineModel.nominal(),
                memory_budget_bytes=budget)
            assert self._digest(ranked) == want
            # A fresh model per prediction binned nothing twice, so
            # sharing between predictors can only show here.
            fresh = lambda: CostModel(grid, pts, MachineModel.nominal(),
                                      budget)
            for p in ranked:
                if p.algorithm == "pb-sym-pd-rep":
                    alone = fresh().predict_pd_rep(p.decomposition, 16)
                elif p.algorithm == "pb-sym-pd":
                    alone = fresh().predict_pd(p.decomposition, 16, "parity")
                elif p.algorithm == "pb-sym-pd-sched":
                    alone = fresh().predict_pd(p.decomposition, 16, "sched")
                else:
                    continue
                assert alone == p

    def test_one_owner_binning_per_decomposition(self, monkeypatch):
        calls = []
        bin_owner = BlockDecomposition.bin_points_owner

        def counted(dec, points):
            calls.append(dec.shape)
            return bin_owner(dec, points)

        monkeypatch.setattr(BlockDecomposition, "bin_points_owner", counted)
        inst = get_instance("Dengue_Hr-Lb", "bench")
        select_strategy(inst.grid(), inst.points(), 16,
                        machine=MachineModel.nominal())
        assert calls == [(4, 4, 4), (8, 8, 8), (15, 16, 16)]


class TestProcessCalibration:
    """``CostModel(machine=None)`` shares one calibration per process."""

    @pytest.fixture
    def probes(self, monkeypatch):
        """Count ``MachineModel.calibrate`` calls (stubbed to the nominal
        constants); the memo is empty before and after."""
        calls = []

        def calibrate(cls, seed=0):
            calls.append(seed)
            return cls.nominal()

        monkeypatch.setattr(MachineModel, "calibrate", classmethod(calibrate))
        model_module._process_calibration.cache_clear()
        yield calls
        model_module._process_calibration.cache_clear()

    def test_auto_estimates_probe_once_and_select_alike(self, probes):
        pts = make_clustered_points(
            GridSpec(DomainSpec.from_voxels(40, 40, 24), hs=2.5, ht=2.5),
            400, seed=30,
        )
        est = STKDE(hs=2.5, ht=2.5, algorithm="auto", P=4)
        a, b = est.estimate(pts), est.estimate(pts)
        assert len(probes) == 1
        assert a.meta["selected_by"] == "model"
        assert (a.algorithm, a.meta.get("decomposition")) == (
            b.algorithm, b.meta.get("decomposition"))
        MachineModel.calibrate()  # a direct call still probes
        assert len(probes) == 2

    def test_explicit_machine_bypasses_the_memo(self, grid, probes):
        pts = make_points(grid, 50, seed=31)
        mine = MachineModel.nominal()
        assert CostModel(grid, pts, mine).machine is mine
        select_strategy(grid, pts, 4, machine=mine)
        assert probes == []
        assert model_module._process_calibration.cache_info().currsize == 0
