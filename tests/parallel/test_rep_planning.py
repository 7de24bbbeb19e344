"""Unit tests for the REP replication planner (Section 5.2's loop)."""

from __future__ import annotations

import pytest

from repro.parallel.rep import plan_replication


def chain(n):
    succs = [[i + 1] if i + 1 < n else [] for i in range(n)]
    preds = [[i - 1] if i > 0 else [] for i in range(n)]
    return succs, preds


def independent(n):
    return [[] for _ in range(n)], [[] for _ in range(n)]


class TestPlanReplication:
    def test_no_replication_when_path_short(self):
        succs, preds = independent(8)
        reps, before, after = plan_replication(
            [1.0] * 8, [0.1] * 8, succs, preds, P=2, max_replicas=[100] * 8
        )
        # T1=8, threshold=2, Tinf=1 <= 2: nothing to do.
        assert reps == [1] * 8
        assert before == after == 1.0

    def test_hot_chain_gets_split(self):
        succs, preds = chain(3)
        w = [10.0, 10.0, 10.0]
        reps, before, after = plan_replication(
            w, [0.5] * 3, succs, preds, P=4, max_replicas=[50] * 3
        )
        assert before == pytest.approx(30.0)
        assert max(reps) > 1
        assert after < before

    def test_overhead_blocks_useless_splitting(self):
        """When the replica overhead exceeds the split gain, refuse."""
        succs, preds = chain(2)
        w = [4.0, 4.0]
        # Splitting into 2 gives w/2 + oh = 2 + 10 > 4: never worth it.
        reps, before, after = plan_replication(
            w, [10.0, 10.0], succs, preds, P=8, max_replicas=[50, 50]
        )
        assert reps == [1, 1]
        assert after == before

    def test_respects_max_replicas(self):
        succs, preds = chain(1)
        reps, _, _ = plan_replication(
            [100.0], [0.01], succs, preds, P=16, max_replicas=[3]
        )
        assert reps[0] <= 3

    def test_single_heavy_task_among_light(self):
        succs, preds = independent(5)
        w = [100.0, 1.0, 1.0, 1.0, 1.0]
        reps, before, after = plan_replication(
            w, [0.5] * 5, succs, preds, P=4, max_replicas=[1000] * 5
        )
        assert reps[0] > 1
        assert all(r == 1 for r in reps[1:])
        # Target: Tinf <= T1/(2P) = 104/8 = 13.
        assert after <= 13.0 + 1e-9

    def test_terminates_on_zero_weights(self):
        succs, preds = independent(3)
        reps, before, after = plan_replication(
            [0.0, 0.0, 0.0], [0.1] * 3, succs, preds, P=4, max_replicas=[5] * 3
        )
        assert reps == [1, 1, 1]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="mismatched"):
            plan_replication([1.0], [0.1, 0.2], [[]], [[]], P=2, max_replicas=[1])

    def test_monotone_nonincreasing_tinf(self):
        """The planner never makes the critical path longer."""
        succs, preds = chain(5)
        w = [5.0, 8.0, 3.0, 8.0, 5.0]
        reps, before, after = plan_replication(
            w, [0.2] * 5, succs, preds, P=8, max_replicas=[100] * 5
        )
        assert after <= before + 1e-12


class TestPlanIsAFunctionOfTheInputs:
    """PB-SYM-PD-REP plans in work units: no clock reaches the replica
    counts, so volume bits, memory and budget verdicts repeat exactly —
    here under a clock whose every reading jumps by a random amount."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.core import DomainSpec, GridSpec
        from tests.helpers import make_clustered_points

        grid = GridSpec(DomainSpec.from_voxels(48, 40, 44), hs=3.8, ht=2.3)
        return grid, make_clustered_points(grid, 2500, seed=19)

    @pytest.fixture(autouse=True)
    def erratic_clock(self, monkeypatch):
        import time

        import numpy as np

        rng = np.random.default_rng(5)
        now = [0.0]

        def perf_counter():
            now[0] += rng.exponential(1e-3)
            return now[0]

        monkeypatch.setattr(time, "perf_counter", perf_counter)

    @staticmethod
    def run(instance, **kwargs):
        from repro.parallel import pb_sym_pd_rep

        grid, pts = instance
        return pb_sym_pd_rep(pts, grid, P=4, decomposition=(4, 4, 4), **kwargs)

    def test_two_calls_agree_bit_for_bit(self, instance):
        import numpy as np

        a, b = self.run(instance), self.run(instance)
        assert a.meta["blocks_replicated"] >= 1  # the fixture does replicate
        assert a.meta["replicas"] == b.meta["replicas"]
        assert a.meta["extra_bytes"] == b.meta["extra_bytes"]
        assert np.array_equal(a.data, b.data)
        assert a.counter.as_dict() == b.counter.as_dict()

    def test_budget_verdict_repeats(self, instance):
        from repro.parallel import MemoryBudgetExceeded

        need = instance[0].grid_bytes + self.run(instance).meta["extra_bytes"]
        for _ in range(5):
            self.run(instance, memory_budget_bytes=need)
            with pytest.raises(MemoryBudgetExceeded):
                self.run(instance, memory_budget_bytes=need - 1)
