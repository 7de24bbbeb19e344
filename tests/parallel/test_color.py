"""Tests for the colour DAG builder, against a brute-force oracle."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec
from repro.parallel.color import block_task_graph
from repro.parallel.partition import BlockDecomposition


def make_dec(A=4, B=4, C=4, G=40):
    grid = GridSpec(DomainSpec.from_voxels(G, G, G), hs=2.0, ht=2.0)
    return BlockDecomposition(grid, A, B, C)


def oracle(dec, loads, scheduler):
    """Pure-Python colour DAG: Chebyshev pairs, colours, succs, preds."""
    labels = sorted(loads)
    xyz = [dec.block_coords(b) for b in labels]
    nbrs = [
        [j for j, q in enumerate(xyz)
         if j != i and max(abs(x - y) for x, y in zip(p, q)) <= 1]
        for i, p in enumerate(xyz)
    ]
    if scheduler == "parity":
        col = [4 * (a % 2) + 2 * (b % 2) + c % 2 for a, b, c in xyz]
    else:
        col = [-1] * len(labels)
        for i in sorted(range(len(labels)), key=lambda i: (-loads[labels[i]], labels[i])):
            taken = {col[j] for j in nbrs[i]}
            col[i] = next(c for c in itertools.count() if c not in taken)
    succs = [[j for j in nbrs[i] if col[i] < col[j]] for i in range(len(labels))]
    preds = [[j for j in nbrs[i] if col[j] < col[i]] for i in range(len(labels))]
    return nbrs, col, succs, preds


def colour_of(classes):
    return {t: k for k, cls in enumerate(classes) for t in cls}


@st.composite
def decompositions(draw):
    """A 1-D, 2-D or 3-D decomposition, a sparse or full set of occupied
    blocks, and small integer loads (so ties are common)."""
    dec = make_dec(*draw(st.tuples(*[st.integers(1, 6)] * 3)), G=30)
    occ = draw(st.sets(st.integers(0, dec.n_blocks - 1), min_size=1)
               | st.just(set(range(dec.n_blocks))))
    return dec, {b: float(draw(st.integers(0, 4))) for b in sorted(occ)}


#: Explicit 1-D and 2-D decompositions, every block occupied, tied loads.
FULL = [make_dec(*shape, G=30) for shape in ((7, 1, 1), (1, 1, 5), (5, 4, 1), (1, 3, 6))]


def oracle_property(test):
    """Run ``test((dec, loads))`` on drawn and explicit cases."""
    for dec in FULL:
        test = example(case=(dec, dict.fromkeys(range(dec.n_blocks), 1.0)))(test)
    return given(case=decompositions())(settings(max_examples=60, deadline=None)(test))


@oracle_property
def test_edges_are_the_chebyshev_pairs(case):
    dec, loads = case
    nbrs = oracle(dec, loads, "parity")[0]
    pairs = {frozenset((i, j)) for i in range(len(nbrs)) for j in nbrs[i]}
    for scheduler in ("parity", "sched"):
        graph, _ = block_task_graph(dec, loads, scheduler)
        assert graph.labels == sorted(loads)
        assert graph.weights == [loads[b] for b in graph.labels]
        assert pairs == {frozenset((u, v))
                         for u in range(graph.n) for v in graph.succs[u]}


@oracle_property
def test_edges_run_from_lower_to_higher_class(case):
    dec, loads = case
    for scheduler in ("parity", "sched"):
        graph, classes = block_task_graph(dec, loads, scheduler)
        of = colour_of(classes)
        assert sorted(of) == list(range(graph.n))  # every task in one class
        assert all(cls == sorted(cls) for cls in classes)
        assert all(of[u] < of[v] for u in range(graph.n) for v in graph.succs[u])
        assert all(of[u] < of[v] for v in range(graph.n) for u in graph.preds[v])


@oracle_property
def test_parity_classes_follow_the_formula(case):
    dec, loads = case
    graph, classes = block_task_graph(dec, loads, "parity")
    col = [4 * (a % 2) + 2 * (b % 2) + c % 2
           for a, b, c in map(dec.block_coords, graph.labels)]
    assert [colour_of(classes)[t] for t in range(graph.n)] == col
    assert len(classes) == max(col) + 1  # empty classes below the top kept


@oracle_property
def test_sched_colours_are_first_fit_by_load_then_id(case):
    dec, loads = case
    _, classes = block_task_graph(dec, loads, "sched")
    nbrs, col = oracle(dec, loads, "sched")[:2]
    assert [colour_of(classes)[t] for t in range(len(col))] == col
    assert len(classes) == max(col) + 1 <= max(map(len, nbrs)) + 1


@oracle_property
def test_lists_equal_the_oracle_in_order(case):
    """``succs`` and ``preds`` fix the serial stamping order: equal as
    lists, not only as sets."""
    dec, loads = case
    for scheduler in ("parity", "sched"):
        graph, _ = block_task_graph(dec, loads, scheduler)
        _, _, succs, preds = oracle(dec, loads, scheduler)
        assert graph.succs == succs
        assert graph.preds == preds


@oracle_property
def test_tied_loads_colour_in_natural_order(case):
    """All loads equal: the load-aware greedy is the classic greedy in
    block-id order (the ordering ablation's natural arm)."""
    dec, loads = case
    tied = dict.fromkeys(loads, 0.0)
    _, classes = block_task_graph(dec, tied, "sched")
    nbrs = oracle(dec, tied, "sched")[0]
    col = []
    for i in range(len(nbrs)):
        taken = {col[j] for j in nbrs[i] if j < i}
        col.append(next(c for c in itertools.count() if c not in taken))
    assert [colour_of(classes)[t] for t in range(len(col))] == col


@pytest.mark.parametrize("scheduler", ["parity", "sched"])
def test_empty_loads_give_empty_graph(scheduler):
    graph, classes = block_task_graph(make_dec(), {}, scheduler)
    assert (graph.n, graph.succs, graph.preds, graph.labels) == (0, [], [], [])
    assert classes == []


def test_rejects_unknown_scheduler():
    with pytest.raises(ValueError, match="scheduler"):
        block_task_graph(make_dec(2, 2, 2), {0: 1.0, 7: 2.0}, "magic")


def test_edge_inside_a_colour_rejected():
    """A decomposition whose ids alias across the stencil puts a block and
    its same-parity neighbour on one edge; the DAG refuses it."""
    dec = SimpleNamespace(A=8, B=1, C=1, shape=(8, 2, 2))
    with pytest.raises(ValueError, match="share colour"):
        block_task_graph(dec, dict.fromkeys(range(8), 1.0), "parity")


@pytest.mark.parametrize("scheduler", ["parity", "sched"])
def test_tasks_are_occupied_blocks_in_id_order(scheduler):
    graph, _ = block_task_graph(make_dec(2, 2, 2), {7: 1.0, 0: 2.0, 3: 3.0}, scheduler)
    assert graph.labels == [0, 3, 7]
    assert graph.weights == [2.0, 3.0, 1.0]


class TestStencil:
    def degree(self, graph, a, b, c, dec):
        t = graph.labels.index(dec.linear_id(a, b, c))
        return len(graph.succs[t]) + len(graph.preds[t])

    def test_full_grid_degrees(self):
        dec = make_dec()
        graph, _ = block_task_graph(dec, dict.fromkeys(range(64), 1.0), "parity")
        assert self.degree(graph, 1, 1, 1, dec) == 26  # interior
        assert self.degree(graph, 0, 0, 0, dec) == 7  # corner
        assert self.degree(graph, 0, 1, 1, dec) == 17  # face

    def test_1d_decomposition(self):
        dec = make_dec(5, 1, 1)
        graph, _ = block_task_graph(dec, dict.fromkeys(range(5), 1.0), "sched")
        assert self.degree(graph, 2, 0, 0, dec) == 2
        assert self.degree(graph, 0, 0, 0, dec) == 1

    def test_only_occupied_blocks_are_tasks(self):
        dec = make_dec(3, 3, 3)
        occ = [dec.linear_id(0, 0, 0), dec.linear_id(0, 0, 1), dec.linear_id(2, 2, 2)]
        graph, _ = block_task_graph(dec, dict.fromkeys(occ, 1.0), "parity")
        # (0,0,0) and (0,0,1) adjacent; (2,2,2) isolated.
        assert graph.succs == [[1], [], []]
        assert graph.preds == [[], [0], []]


class TestParity:
    def test_at_most_8_colors(self):
        dec = make_dec(4, 4, 4)
        _, classes = block_task_graph(dec, dict.fromkeys(range(64), 1.0), "parity")
        assert len(classes) == 8

    def test_one_block_per_class_on_2x2x2(self):
        _, classes = block_task_graph(make_dec(2, 2, 2), dict.fromkeys(range(8), 1.0), "parity")
        assert classes == [[k] for k in range(8)]

    def test_empty_classes_kept(self):
        """A lone block of colour 5 still makes six classes."""
        dec = make_dec(2, 2, 2)
        _, classes = block_task_graph(dec, {dec.linear_id(1, 0, 1): 1.0}, "parity")
        assert classes == [[], [], [], [], [], [0]]


class TestSched:
    def test_at_most_27_colors(self):
        """Greedy on a 27-stencil uses at most deg+1 = 27 colours."""
        dec = make_dec(6, 6, 6)
        _, classes = block_task_graph(dec, dict.fromkeys(range(216), 1.0), "sched")
        assert len(classes) <= 27

    def test_isolated_blocks_share_colour_0(self):
        dec = make_dec(6, 6, 6)
        occ = [dec.linear_id(a, a, a) for a in (0, 2, 4)]
        _, classes = block_task_graph(dec, dict.fromkeys(occ, 1.0), "sched")
        assert classes == [[0, 1, 2]]

    def test_heaviest_block_gets_colour_0(self):
        dec = make_dec(4, 4, 4)
        loads = {bid: float(bid % 7) for bid in range(64)}
        loads[37] = 100.0
        graph, classes = block_task_graph(dec, loads, "sched")
        assert graph.labels.index(37) in classes[0]

    def test_ties_fall_back_to_id_order(self):
        """On a 1-D chain with equal loads the greedy alternates 0, 1 from
        block 0, as the natural-order greedy does."""
        _, classes = block_task_graph(make_dec(5, 1, 1), dict.fromkeys(range(5), 3.0), "sched")
        assert classes == [[0, 2, 4], [1, 3]]
