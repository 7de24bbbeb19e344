"""Tests for the figure metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import pb_sym
from repro.analysis.metrics import (
    dd_work_overhead,
    load_imbalance,
    pd_critical_path_ratio,
    phase_breakdown,
    replication_stats,
    speedup,
    warm_baseline,
)
from repro.core import DomainSpec, GridSpec
from repro.parallel import pb_sym_pd_rep

from tests.helpers import make_clustered_points, make_points


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(36, 36, 40), hs=2.5, ht=2.0)


class TestPhaseBreakdown:
    def test_fractions_sum_to_one(self, grid):
        pts = make_points(grid, 50, seed=0)
        res = pb_sym(pts, grid)
        frac = phase_breakdown(res)
        assert sum(frac.values()) == pytest.approx(1.0)
        assert set(frac) == {"init", "compute"}

    def test_empty_timer(self):
        from repro.algorithms.base import STKDEResult
        from repro.core import PhaseTimer, Volume, WorkCounter

        g = GridSpec(DomainSpec.from_voxels(4, 4, 4), hs=1, ht=1)
        res = STKDEResult(Volume(np.zeros(g.shape), g), "x", PhaseTimer(), WorkCounter())
        assert phase_breakdown(res) == {}


class TestSpeedup:
    def test_uses_makespan_when_present(self, grid):
        pts = make_points(grid, 30, seed=1)
        res = pb_sym(pts, grid)
        res.meta["makespan"] = res.elapsed / 4
        assert speedup(res.elapsed, res) == pytest.approx(4.0)

    def test_falls_back_to_elapsed(self, grid):
        pts = make_points(grid, 30, seed=1)
        res = pb_sym(pts, grid)
        assert speedup(res.elapsed, res) == pytest.approx(1.0)

    def test_rejects_zero_runtime(self, grid):
        pts = make_points(grid, 5, seed=2)
        res = pb_sym(pts, grid)
        res.meta["makespan"] = 0.0
        with pytest.raises(ValueError):
            speedup(1.0, res)


class TestWarmBaseline:
    @staticmethod
    def runs(seconds):
        """A baseline whose calls report ``seconds`` in turn."""
        from repro.algorithms.base import STKDEResult
        from repro.core import PhaseTimer, Volume, WorkCounter

        g = GridSpec(DomainSpec.from_voxels(4, 4, 4), hs=1, ht=1)
        calls = iter(seconds)

        def run():
            timer = PhaseTimer()
            timer.add("compute", next(calls))
            return STKDEResult(Volume(np.zeros(g.shape), g), "pb-sym", timer,
                               WorkCounter())

        return run

    def test_slow_first_call_never_reaches_the_baseline(self):
        """A cold first call 100x the warm ones is discarded, whatever
        the warm calls' order."""
        for warm in ([1.0, 1.2, 0.9, 1.1, 1.0], [0.9, 1.0, 1.0, 1.1, 1.2]):
            t, last = warm_baseline(self.runs([100.0] + warm))
            assert t == pytest.approx(float(np.median(warm)))
            assert last.elapsed == warm[-1]

    def test_median_resists_one_slow_warm_call(self):
        t, _ = warm_baseline(self.runs([100.0, 1.0, 50.0, 1.0, 1.0, 1.0]))
        assert t == pytest.approx(1.0)

    def test_on_a_real_baseline(self, grid):
        pts = make_points(grid, 30, seed=1)
        t, res = warm_baseline(lambda: pb_sym(pts, grid))
        assert t > 0 and res.algorithm == "pb-sym"
        assert speedup(t, res) == pytest.approx(t / res.elapsed)


class TestDDOverhead:
    def test_no_overhead_single_block(self, grid):
        pts = make_points(grid, 60, seed=3)
        m = dd_work_overhead(pts, grid, (1, 1, 1))
        assert m["replication_factor"] == 1.0
        assert m["invariant_overhead"] == pytest.approx(1.0)

    def test_overhead_grows_with_decomposition(self, grid):
        """Figure 9's monotone trend."""
        pts = make_points(grid, 80, seed=4)
        vals = [
            dd_work_overhead(pts, grid, (k, k, k))["invariant_overhead"]
            for k in (1, 2, 4, 8)
        ]
        assert vals[0] < vals[1] < vals[2] < vals[3]
        assert vals[0] == pytest.approx(1.0)

    def test_replication_below_block_count(self, grid):
        pts = make_points(grid, 40, seed=5)
        m = dd_work_overhead(pts, grid, (4, 4, 4))
        assert 1.0 <= m["replication_factor"] <= 64


class TestPDCriticalPath:
    def test_ratio_in_unit_interval(self, grid):
        pts = make_clustered_points(grid, 200, seed=6)
        r = pd_critical_path_ratio(pts, grid, (8, 8, 8), "parity")
        assert 0.0 < r <= 1.0

    def test_sched_not_worse(self, grid):
        """Figure 12: load-aware colouring marginally shortens the path."""
        pts = make_clustered_points(grid, 400, k=2, seed=7)
        r_pd = pd_critical_path_ratio(pts, grid, (8, 8, 8), "parity")
        r_sched = pd_critical_path_ratio(pts, grid, (8, 8, 8), "sched")
        assert r_sched <= r_pd + 1e-12

    def test_single_block_ratio_is_one(self, grid):
        pts = make_points(grid, 30, seed=8)
        assert pd_critical_path_ratio(pts, grid, (1, 1, 1)) == pytest.approx(1.0)

    def test_clustered_longer_path_than_uniform(self, grid):
        uni = make_points(grid, 400, seed=9)
        clu = make_clustered_points(grid, 400, k=1, seed=9)
        r_uni = pd_critical_path_ratio(uni, grid, (8, 8, 8), "parity")
        r_clu = pd_critical_path_ratio(clu, grid, (8, 8, 8), "parity")
        assert r_clu > r_uni

    def test_unknown_scheduler(self, grid):
        pts = make_points(grid, 10, seed=10)
        with pytest.raises(ValueError, match="scheduler"):
            pd_critical_path_ratio(pts, grid, (4, 4, 4), "magic")


class TestLoadImbalance:
    def test_balanced(self):
        s = load_imbalance([2.0, 2.0, 2.0])
        assert s.imbalance == pytest.approx(1.0)
        assert s.cv == pytest.approx(0.0)

    def test_imbalanced(self):
        s = load_imbalance([10.0, 1.0, 1.0])
        assert s.imbalance == pytest.approx(10.0 / 4.0)

    def test_ignores_zeros(self):
        s = load_imbalance([0.0, 4.0, 0.0, 4.0])
        assert s.mean == pytest.approx(4.0)

    def test_empty(self):
        s = load_imbalance([])
        assert s.imbalance == 1.0


class TestReplicationStats:
    def test_summarises_rep_run(self, grid):
        pts = make_clustered_points(grid, 400, k=1, seed=11)
        res = pb_sym_pd_rep(pts, grid, P=8, decomposition=(8, 8, 8))
        s = replication_stats(res)
        assert s["blocks"] == res.meta["occupied_blocks"]
        assert s["max"] >= 1.0

    def test_handles_non_rep_result(self, grid):
        pts = make_points(grid, 20, seed=12)
        res = pb_sym(pts, grid)
        s = replication_stats(res)
        assert s["blocks"] == 0.0
