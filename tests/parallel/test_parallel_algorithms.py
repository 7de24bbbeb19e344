"""Integration tests for the five parallel strategies.

The non-negotiable property: every strategy, on every backend, at every
decomposition and worker count, computes *exactly* the PB-SYM volume —
parallelisation reorganises the additions but never changes them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import pb_sym
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.parallel import (
    MemoryBudgetExceeded,
    pb_sym_dd,
    pb_sym_dr,
    pb_sym_pd,
    pb_sym_pd_rep,
    pb_sym_pd_sched,
)

from tests.helpers import make_clustered_points, make_points

PARALLEL = [pb_sym_dr, pb_sym_dd, pb_sym_pd, pb_sym_pd_sched, pb_sym_pd_rep]
DECOMPOSED = [pb_sym_dd, pb_sym_pd, pb_sym_pd_sched, pb_sym_pd_rep]


@pytest.fixture(scope="module")
def grid():
    return GridSpec(DomainSpec.from_voxels(36, 32, 44), hs=2.8, ht=2.3)


@pytest.fixture(scope="module")
def pts(grid):
    return make_clustered_points(grid, 350, seed=17)


@pytest.fixture(scope="module")
def reference(grid, pts):
    return pb_sym(pts, grid).data


class TestEquivalence:
    @pytest.mark.parametrize("algo", PARALLEL)
    @pytest.mark.parametrize("backend", ["serial", "simulated", "threads"])
    def test_matches_pb_sym(self, algo, backend, grid, pts, reference):
        kwargs = {"P": 3, "backend": backend}
        if algo is not pb_sym_dr:
            kwargs["decomposition"] = (4, 4, 4)
        res = algo(pts, grid, **kwargs)
        np.testing.assert_allclose(res.data, reference, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("algo", PARALLEL)
    @pytest.mark.parametrize("P", [1, 2, 5, 8])
    def test_any_worker_count(self, algo, P, grid, pts, reference):
        res = algo(pts, grid, P=P, backend="simulated")
        np.testing.assert_allclose(res.data, reference, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("algo", DECOMPOSED)
    @pytest.mark.parametrize("dec", [(1, 1, 1), (2, 2, 2), (8, 8, 8), (16, 16, 16), (5, 3, 7)])
    def test_any_decomposition(self, algo, dec, grid, pts, reference):
        res = algo(pts, grid, P=4, decomposition=dec, backend="simulated")
        np.testing.assert_allclose(res.data, reference, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("algo", DECOMPOSED)
    def test_threads_with_fine_decomposition(self, algo, grid, pts, reference):
        res = algo(pts, grid, P=4, decomposition=(6, 6, 6), backend="threads")
        np.testing.assert_allclose(res.data, reference, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_single_point(self, algo, grid):
        one = PointSet(np.array([[18.0, 16.0, 22.0]]))
        ref = pb_sym(one, grid).data
        res = algo(one, grid, P=4, backend="simulated")
        np.testing.assert_allclose(res.data, ref, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_boundary_points(self, algo, grid, reference):
        edge = PointSet(
            np.array(
                [
                    [0.05, 0.05, 0.05],
                    [35.9, 31.9, 43.9],
                    [0.1, 31.9, 22.0],
                    [18.0, 0.1, 43.9],
                ]
            )
        )
        ref = pb_sym(edge, grid).data
        res = algo(edge, grid, P=3, backend="simulated")
        np.testing.assert_allclose(res.data, ref, rtol=1e-12, atol=1e-18)


class TestValidation:
    @pytest.mark.parametrize("algo", PARALLEL)
    def test_rejects_bad_P(self, algo, grid, pts):
        with pytest.raises(ValueError, match="P must be"):
            algo(pts, grid, P=0)

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_rejects_unknown_backend(self, algo, grid, pts):
        with pytest.raises(ValueError, match="backend"):
            algo(pts, grid, P=2, backend="quantum")

    def test_dd_takes_no_memory_budget(self, grid, pts):
        """DD holds one volume and no replica: it has no budget to check."""
        with pytest.raises(TypeError, match="memory_budget_bytes"):
            pb_sym_dd(pts, grid, decomposition=(2, 2, 2), memory_budget_bytes=10)


class TestMemoryBudget:
    def test_dr_oom_when_replicas_do_not_fit(self, grid, pts):
        budget = int(3.5 * grid.grid_bytes)  # fits 3 copies, not 9
        pb_sym_dr(pts, grid, P=2, memory_budget_bytes=budget)  # 3 copies: ok
        with pytest.raises(MemoryBudgetExceeded, match="PB-SYM-DR"):
            pb_sym_dr(pts, grid, P=8, memory_budget_bytes=budget)

    def test_dr_error_reports_sizes(self, grid, pts):
        with pytest.raises(MemoryBudgetExceeded) as ei:
            pb_sym_dr(pts, grid, P=4, memory_budget_bytes=grid.grid_bytes)
        assert ei.value.needed > ei.value.budget

    def test_rep_oom_at_coarse_decomposition(self, grid, pts):
        """With one block, REP degenerates to DR and exceeds tight budgets
        (Figure 14's Flu-Hr failures)."""
        budget = int(1.5 * grid.grid_bytes)
        with pytest.raises(MemoryBudgetExceeded, match="PB-SYM-PD-REP"):
            pb_sym_pd_rep(
                pts, grid, P=8, decomposition=(1, 1, 1),
                memory_budget_bytes=budget,
            )

    def test_rep_fine_needs_less_memory_than_coarse(self, grid, pts, reference):
        """Fine decompositions replicate small halos; coarse ones replicate
        whole-domain-sized blocks (Figure 14's memory cliff)."""
        fine = pb_sym_pd_rep(pts, grid, P=8, decomposition=(16, 16, 16))
        coarse = pb_sym_pd_rep(pts, grid, P=8, decomposition=(1, 1, 1))
        assert fine.meta["extra_bytes"] < coarse.meta["extra_bytes"]
        np.testing.assert_allclose(fine.data, reference, rtol=1e-12, atol=1e-18)

    def test_no_budget_means_no_check(self, grid, pts):
        pb_sym_dr(pts, grid, P=8, memory_budget_bytes=None)  # must not raise


class TestDDOverheads:
    def test_replication_factor_grows_with_decomposition(self, grid, pts):
        r = {}
        for k in (1, 2, 4, 8):
            res = pb_sym_dd(pts, grid, P=2, decomposition=(k, k, k))
            r[k] = res.meta["replication_factor"]
        assert r[1] == 1.0
        assert r[8] > r[4] > r[2] > 1.0

    def test_extra_work_matches_replication(self, grid, pts):
        """DD does more kernel work than PB-SYM, proportional to cut
        cylinders; at 1x1x1 the work is identical."""
        base = WorkCounter()
        pb_sym(pts, grid, counter=base)
        c1 = WorkCounter()
        pb_sym_dd(pts, grid, P=2, decomposition=(1, 1, 1), counter=c1)
        assert c1.spatial_evals == base.spatial_evals
        c8 = WorkCounter()
        pb_sym_dd(pts, grid, P=2, decomposition=(8, 8, 8), counter=c8)
        assert c8.spatial_evals > base.spatial_evals

    def test_clustered_data_imbalanced_tasks(self, grid):
        pts = make_clustered_points(grid, 400, k=2, seed=3)
        res = pb_sym_dd(pts, grid, P=4, decomposition=(4, 4, 4))
        # Work, not wall-clock: per-task fixed overhead hides the imbalance
        # in task_seconds at this size.
        work = res.meta["task_madds"]
        assert len(work) == res.meta["occupied_blocks"]
        assert max(work) > 3 * (sum(work) / len(work))  # heavy hot-spot tasks


class TestPDProperties:
    def test_decomposition_adjusted_to_bandwidth(self, grid, pts):
        res = pb_sym_pd(pts, grid, P=2, decomposition=(64, 64, 64))
        A, B, C = res.meta["decomposition"]
        assert A <= grid.Gx // (2 * grid.Hs + 1)
        assert C <= grid.Gt // (2 * grid.Ht + 1)
        assert res.meta["requested_decomposition"] == (64, 64, 64)

    def test_parity_uses_at_most_8_colors(self, grid, pts):
        res = pb_sym_pd(pts, grid, P=2, decomposition=(4, 4, 4))
        assert res.meta["n_colors"] <= 8

    def test_sched_critical_path_not_longer(self, grid):
        """PD-SCHED's load-aware colouring should not lengthen the
        critical path (Figure 12: marginal decrease)."""
        pts = make_clustered_points(grid, 500, k=3, seed=5)
        r_pd = pb_sym_pd(pts, grid, P=4, decomposition=(8, 8, 8))
        r_sc = pb_sym_pd_sched(pts, grid, P=4, decomposition=(8, 8, 8))
        # Compare *ratios* (measured times differ slightly run to run).
        assert (
            r_sc.meta["critical_path_ratio"]
            <= r_pd.meta["critical_path_ratio"] * 1.35
        )

    def test_work_efficient_no_extra_kernel_work(self, grid, pts):
        """PD never inflates kernel work (unlike DD/DR): work-efficiency,
        the whole point of Section 5."""
        base = WorkCounter()
        pb_sym(pts, grid, counter=base)
        for algo in (pb_sym_pd, pb_sym_pd_sched):
            c = WorkCounter()
            algo(pts, grid, P=4, decomposition=(8, 8, 8), counter=c)
            assert c.spatial_evals == base.spatial_evals
            assert c.temporal_evals == base.temporal_evals

    def test_simulated_makespan_within_graham(self, grid, pts):
        res = pb_sym_pd_sched(pts, grid, P=4, decomposition=(8, 8, 8))
        compute_ms = res.meta["phase_makespans"]["compute"]
        assert compute_ms <= res.meta["graham_bound"] * 1.05 + 1e-6
        assert compute_ms >= res.meta["Tinf"] - 1e-6


class TestREPProperties:
    def test_replication_happens_on_hot_chain(self, grid):
        """Heavily clustered points force a long chain; REP must split it."""
        pts = make_clustered_points(grid, 600, k=1, seed=8)
        res = pb_sym_pd_rep(pts, grid, P=8, decomposition=(8, 8, 8))
        assert res.meta["blocks_replicated"] >= 1
        assert res.meta["max_replication"] >= 2
        assert res.meta["tinf_planned_after"] <= res.meta["tinf_planned_before"]

    def test_uniform_low_parallelism_no_replication_needed(self, grid):
        pts = make_points(grid, 200, seed=9)
        res = pb_sym_pd_rep(pts, grid, P=1, decomposition=(4, 4, 4))
        # P=1: threshold T1/2 is huge, so nothing should be replicated.
        assert res.meta["blocks_replicated"] == 0

    def test_extra_bytes_reported(self, grid):
        pts = make_clustered_points(grid, 600, k=1, seed=8)
        res = pb_sym_pd_rep(pts, grid, P=8, decomposition=(8, 8, 8))
        if res.meta["blocks_replicated"]:
            assert res.meta["extra_bytes"] > 0


class TestMetaAndPhases:
    @pytest.mark.parametrize("algo", PARALLEL)
    def test_meta_has_makespan_and_P(self, algo, grid, pts):
        res = algo(pts, grid, P=2, backend="simulated")
        assert res.meta["P"] == 2
        assert res.meta["makespan"] > 0
        assert "phase_makespans" in res.meta

    def test_dr_counts_replica_inits(self, grid, pts):
        c = WorkCounter()
        pb_sym_dr(pts, grid, P=4, counter=c)
        assert c.init_writes == 4 * grid.n_voxels  # P private volumes
        assert c.reduce_adds == 4 * grid.n_voxels  # P-way reduction

    def test_simulated_makespan_shrinks_with_P(self, grid):
        """On a compute-heavy instance more processors means a shorter
        simulated makespan (until the critical path floor)."""
        pts = make_points(grid, 800, seed=10)
        m1 = pb_sym_pd_sched(pts, grid, P=1, decomposition=(8, 8, 8)).meta["makespan"]
        m4 = pb_sym_pd_sched(pts, grid, P=4, decomposition=(8, 8, 8)).meta["makespan"]
        assert m4 < m1


#: Serial planning steps a strategy times itself, before the runner's phases.
PLANNING = ("bin", "color", "plan")


def run_on(algo, backend, grid, pts, P=3):
    kwargs = {"P": P, "backend": backend, "counter": WorkCounter()}
    if algo is not pb_sym_dr:
        kwargs["decomposition"] = (4, 4, 4)
    return algo(pts, grid, **kwargs)


class TestRunnerContracts:
    """What ``run_phases`` owns for every strategy, on every backend."""

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_makespan_is_planning_plus_phases(self, algo, grid, pts):
        names = set()
        for backend in ("serial", "simulated", "threads"):
            res = run_on(algo, backend, grid, pts)
            seconds, phase_ms = res.timer.seconds, res.meta["phase_makespans"]
            planning = sum(
                seconds[k] for k in PLANNING if k in seconds and k not in phase_ms
            )
            assert res.meta["makespan"] == pytest.approx(
                planning + sum(phase_ms.values())
            )
            assert set(phase_ms) <= set(seconds)
            names.add(tuple(sorted(seconds)))
        assert len(names) == 1  # same phase names whatever the backend

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_serial_phase_seconds_are_task_sums(self, algo, grid, pts):
        res = run_on(algo, "serial", grid, pts)
        phase_ms = res.meta["phase_makespans"]
        for k in ("init", "compute"):
            assert 0 < phase_ms[k] <= res.timer.seconds[k]
        if algo is pb_sym_dd:
            assert phase_ms["compute"] == pytest.approx(sum(res.meta["task_seconds"]))
        if algo in (pb_sym_pd, pb_sym_pd_sched):
            assert phase_ms["compute"] == pytest.approx(res.meta["T1"])

    @pytest.mark.parametrize("algo", PARALLEL)
    def test_serial_and_simulated_are_one_execution(self, algo, grid, pts):
        serial = run_on(algo, "serial", grid, pts)
        simulated = run_on(algo, "simulated", grid, pts)
        assert np.array_equal(serial.data, simulated.data)
        threads = run_on(algo, "threads", grid, pts)
        assert serial.counter.as_dict() == simulated.counter.as_dict()
        assert serial.counter.as_dict() == threads.counter.as_dict()

    #: Per-block madds of PD and PD-SCHED (one shared plan, one task per
    #: occupied block): a plan that merged or split block work moves them.
    PD_TASK_MADDS = [3087, 1029, 31213, 9604, 1372, 17836, 2058, 343, 4067,
                     4802, 343, 11319, 14063, 343, 343, 5831, 343, 343, 686,
                     2058, 2744, 5831, 343]

    @pytest.mark.parametrize("algo, want", [
        # madds, init_writes, reduce_adds, points_processed, stamp_batches,
        # stamp_cohorts
        (pb_sym_dr, (120001, 152064, 152064, 350, 3, 7)),
        (pb_sym_dd, (120001, 50688, 0, 1546, 45, 52)),
        (pb_sym_pd, (120001, 50688, 0, 350, 23, 26)),
        (pb_sym_pd_sched, (120001, 50688, 0, 350, 23, 26)),
        (pb_sym_pd_rep, (120001, 685434, 634746, 350, 196, 197)),
    ])
    def test_work_counts_pinned(self, algo, want, grid, pts):
        res = run_on(algo, "simulated", grid, pts)
        c = res.counter
        assert (c.madds, c.init_writes, c.reduce_adds, c.points_processed,
                c.stamp_batches, c.stamp_cohorts) == want
        if algo in (pb_sym_pd, pb_sym_pd_sched):
            assert res.meta["task_madds"] == self.PD_TASK_MADDS


#: Every key the paper benchmarks, ``benchmarks/sweeps.py`` and the
#: perfbench layers may read off a strategy run: ``meta``, its
#: ``phase_makespans`` and the timer's phases, the same on every backend.
_SHARED = {"P", "backend", "makespan", "phase_makespans"}
_PD_META = _SHARED | {
    "scheduler", "decomposition", "requested_decomposition", "n_colors",
    "occupied_blocks", "T1", "Tinf", "critical_path_ratio", "graham_bound",
    "task_madds",
}
CONTRACT = {
    "pb-sym-dr": (
        _SHARED | {"memory_bytes"},
        {"init", "compute", "reduce"},
        {"init", "compute", "reduce"},
    ),
    "pb-sym-dd": (
        _SHARED | {"decomposition", "replication_factor", "occupied_blocks",
                   "task_seconds", "task_madds"},
        {"bin", "init", "compute"},
        {"bin", "init", "compute"},
    ),
    "pb-sym-pd": (_PD_META, {"init", "compute"}, {"bin", "color", "init", "compute"}),
    "pb-sym-pd-sched": (
        _PD_META, {"init", "compute"}, {"bin", "color", "init", "compute"},
    ),
    "pb-sym-pd-rep": (
        _SHARED | {"decomposition", "requested_decomposition", "replicas",
                   "blocks_replicated", "max_replication", "tinf_planned_before",
                   "tinf_planned_after", "extra_bytes", "occupied_blocks"},
        {"init", "compute"},
        {"bin", "plan", "init", "compute"},
    ),
    "pb-sym": (_SHARED, {"init", "compute", "reduce"}, {"plan", "init", "compute", "reduce"}),
}


class TestStrategyContract:
    """The exact ``meta``, ``phase_makespans`` and timer key sets of every
    parallel strategy and of PB-SYM's threads path, on every backend."""

    @pytest.mark.parametrize("algo, backend", [
        *((a, b) for a in PARALLEL for b in ("serial", "simulated", "threads")),
        (pb_sym, "threads"),
    ])
    def test_key_sets(self, algo, backend, grid, pts):
        kwargs = {"P": 2, "backend": backend}
        if algo in DECOMPOSED:
            kwargs["decomposition"] = (4, 4, 4)
        res = algo(pts, grid, **kwargs)
        meta, phases, timed = CONTRACT[res.algorithm]
        assert set(res.meta) == meta
        assert set(res.meta["phase_makespans"]) == phases
        assert set(res.timer.seconds) == timed


class TestModelPicksStrategiesNotBackends:
    def test_select_strategy_ranks_registered_names_only(self, grid, pts):
        from repro.algorithms import parallel_algorithms
        from repro.analysis.model import MachineModel, select_strategy

        _, ranked = select_strategy(grid, pts, 4, machine=MachineModel.nominal())
        assert {p.algorithm for p in ranked} == set(parallel_algorithms())

    @pytest.mark.parametrize("backend", ["serial", "simulated", "threads"])
    def test_auto_runs_a_registered_strategy_on_the_asked_backend(
        self, backend, grid, pts, reference
    ):
        from repro import STKDE
        from repro.algorithms import parallel_algorithms

        est = STKDE(hs=grid.hs, ht=grid.ht, algorithm="auto", P=4, backend=backend)
        res = est.estimate(pts, grid.domain)
        assert res.algorithm in parallel_algorithms()
        assert res.meta["selected_by"] == "model"
        assert res.meta["backend"] == backend
        np.testing.assert_allclose(res.data, reference, rtol=1e-12, atol=1e-18)
