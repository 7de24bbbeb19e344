"""Tests for DAG construction, critical paths, and list scheduling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec
from repro.parallel.color import block_task_graph
from repro.parallel.partition import BlockDecomposition
from repro.parallel.schedule import (
    BandwidthModel,
    TaskGraph,
    barrier_schedule,
    critical_path,
    grahams_bound,
    list_schedule,
    saturated_makespan,
)


def chain(weights):
    n = len(weights)
    succs = [[i + 1] if i + 1 < n else [] for i in range(n)]
    preds = [[i - 1] if i > 0 else [] for i in range(n)]
    return TaskGraph(list(weights), succs, preds)


def independent(weights):
    n = len(weights)
    return TaskGraph(list(weights), [[] for _ in range(n)], [[] for _ in range(n)])


class TestTaskGraph:
    def test_topological_order_valid(self):
        g = chain([1, 1, 1, 1])
        order = g.topological_order()
        assert order == [0, 1, 2, 3]

    def test_cycle_detected(self):
        g = TaskGraph([1, 1], [[1], [0]], [[1], [0]])
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_total_weight(self):
        assert chain([1.5, 2.5]).total_weight == 4.0


class TestCriticalPath:
    def test_chain_is_whole_graph(self):
        g = chain([1, 2, 3])
        length, path = critical_path(g)
        assert length == 6
        assert path == [0, 1, 2]

    def test_independent_is_max(self):
        g = independent([4, 7, 2])
        length, path = critical_path(g)
        assert length == 7
        assert path == [1]

    def test_diamond(self):
        #   0
        #  / \
        # 1   2
        #  \ /
        #   3
        g = TaskGraph(
            [1, 5, 2, 1],
            [[1, 2], [3], [3], []],
            [[], [0], [0], [1, 2]],
        )
        length, path = critical_path(g)
        assert length == 7
        assert path == [0, 1, 3]

    def test_empty_graph(self):
        g = TaskGraph([], [], [])
        assert critical_path(g) == (0.0, [])


class TestListSchedule:
    def test_serial_on_one_proc(self):
        g = independent([1, 2, 3])
        res = list_schedule(g, 1)
        assert res.makespan == pytest.approx(6.0)

    def test_perfect_split_independent(self):
        g = independent([2, 2, 2, 2])
        res = list_schedule(g, 2)
        assert res.makespan == pytest.approx(4.0)

    def test_chain_cannot_parallelise(self):
        g = chain([1, 1, 1, 1])
        res = list_schedule(g, 8)
        assert res.makespan == pytest.approx(4.0)

    def test_respects_dependencies(self):
        g = TaskGraph(
            [1, 1, 1],
            [[2], [2], []],
            [[], [], [0, 1]],
        )
        res = list_schedule(g, 2)
        assert res.start[2] >= max(res.end[0], res.end[1])

    def test_no_processor_oversubscription(self):
        rng = np.random.default_rng(0)
        g = independent(rng.uniform(0.5, 2.0, size=20).tolist())
        P = 3
        res = list_schedule(g, P)
        events = sorted(
            [(s, 1) for s in res.start] + [(e, -1) for e in res.end]
        )
        live = 0
        for _, d in events:
            live += d
            assert live <= P

    def test_grahams_bound_holds(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = 30
            w = rng.uniform(0.1, 3.0, size=n).tolist()
            # Random DAG: edges i -> j for i < j with prob 0.15.
            succs = [[] for _ in range(n)]
            preds = [[] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.15:
                        succs[i].append(j)
                        preds[j].append(i)
            g = TaskGraph(w, succs, preds)
            tinf, _ = critical_path(g)
            for P in (1, 2, 4, 8):
                res = list_schedule(g, P)
                assert res.makespan <= grahams_bound(g.total_weight, tinf, P) + 1e-9
                assert res.makespan >= max(tinf, g.total_weight / P) - 1e-9

    def test_priority_changes_order(self):
        g = independent([1.0, 5.0, 1.0])
        res = list_schedule(g, 1, priority=lambda v: (-g.weights[v], v))
        assert res.start[1] == 0.0  # heaviest first

    def test_efficiency_bounds(self):
        g = independent([1, 1, 1, 1])
        res = list_schedule(g, 2)
        assert 0.0 < res.efficiency <= 1.0

    def test_rejects_bad_P(self):
        with pytest.raises(ValueError):
            list_schedule(independent([1]), 0)


class TestBarrierSchedule:
    def test_single_class_equals_greedy(self):
        ms = barrier_schedule([[2, 2, 2, 2]], 2)
        assert ms == pytest.approx(4.0)

    def test_barriers_add_up(self):
        ms = barrier_schedule([[3], [3], [3]], 4)
        assert ms == pytest.approx(9.0)

    def test_imbalanced_class_dominated_by_heaviest(self):
        ms = barrier_schedule([[10, 1, 1, 1]], 4)
        assert ms == pytest.approx(10.0)

    def test_lpt_within_graham_bounds(self):
        """Both orders obey Graham's greedy bound sum/P + max; LPT is *not*
        pointwise better than index order (the classic scheduling anomaly),
        so only the bound — not dominance — is asserted."""
        rng = np.random.default_rng(2)
        P = 3
        for _ in range(20):
            ws = rng.uniform(0.1, 5.0, size=9).tolist()
            lower = max(max(ws), sum(ws) / P)  # OPT >= both
            for lpt in (False, True):
                ms = barrier_schedule([ws], P, lpt=lpt)
                assert lower - 1e-9 <= ms <= sum(ws) / P + max(ws) + 1e-9

    def test_barrier_never_faster_than_dag(self):
        """Barriers over-constrain: the paper's motivation for PD-SCHED."""
        dec = BlockDecomposition(
            GridSpec(DomainSpec.from_voxels(40, 40, 40), hs=2.0, ht=2.0), 4, 4, 4
        )
        occ = list(range(dec.n_blocks))
        rng = np.random.default_rng(3)
        weights = {bid: float(rng.uniform(0.1, 2.0)) for bid in occ}
        graph, classes = block_task_graph(dec, weights, "parity")
        class_w = [[graph.weights[k] for k in cls] for cls in classes]
        for P in (2, 4, 8):
            dag = list_schedule(graph, P).makespan
            barrier = barrier_schedule(class_w, P)
            assert dag <= barrier + 1e-9

    def test_empty_classes_skipped(self):
        assert barrier_schedule([[], [1.0], []], 2) == pytest.approx(1.0)


class TestColourDag:
    def test_edges_oriented_low_to_high(self):
        dec = BlockDecomposition(
            GridSpec(DomainSpec.from_voxels(30, 30, 30), hs=2.0, ht=2.0), 3, 3, 3
        )
        graph, classes = block_task_graph(
            dec, dict.fromkeys(range(dec.n_blocks), 1.0), "sched")
        colour = {t: k for k, cls in enumerate(classes) for t in cls}
        for u in range(graph.n):
            for v in graph.succs[u]:
                assert colour[u] < colour[v]

    def test_acyclic(self):
        dec = BlockDecomposition(
            GridSpec(DomainSpec.from_voxels(40, 40, 40), hs=2.0, ht=2.0), 4, 4, 4
        )
        graph, _ = block_task_graph(
            dec, dict.fromkeys(range(dec.n_blocks), 1.0), "parity")
        graph.topological_order()  # raises on cycle


class TestBandwidthSaturation:
    def test_cap_limits_scaling(self):
        ws = [1.0] * 16
        assert saturated_makespan(ws, 16, BandwidthModel(cap=3.0)) == pytest.approx(
            16.0 / 3.0
        )

    def test_below_cap_scales_normally(self):
        ws = [1.0] * 4
        assert saturated_makespan(ws, 2, BandwidthModel(cap=3.0)) == pytest.approx(2.0)

    def test_single_task_floor(self):
        assert saturated_makespan([5.0, 0.1], 16, BandwidthModel(cap=4.0)) == 5.0

    def test_empty(self):
        assert saturated_makespan([], 4) == 0.0

    def test_rejects_bad_P(self):
        with pytest.raises(ValueError):
            saturated_makespan([1.0], 0)


@given(
    n=st.integers(1, 25),
    P=st.integers(1, 8),
    seed=st.integers(0, 1000),
    edge_p=st.floats(0.0, 0.4),
)
@settings(max_examples=80, deadline=None)
def test_property_list_schedule_within_graham(n, P, seed, edge_p):
    """Graham's bound and the trivial lower bounds hold for any DAG."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 2.0, size=n).tolist()
    succs = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                succs[i].append(j)
                preds[j].append(i)
    g = TaskGraph(w, succs, preds)
    tinf, _ = critical_path(g)
    res = list_schedule(g, P)
    T1 = g.total_weight
    assert res.makespan <= grahams_bound(T1, tinf, P) + 1e-9
    assert res.makespan >= max(tinf, T1 / P) - 1e-9
    # All tasks scheduled exactly once, no overlap per processor.
    per_proc: dict = {}
    for v in range(n):
        per_proc.setdefault(res.proc[v], []).append((res.start[v], res.end[v]))
    for spans in per_proc.values():
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-12
