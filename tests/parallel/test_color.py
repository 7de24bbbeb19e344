"""Tests for stencil-graph colouring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec
from repro.parallel.color import (
    block_task_graph,
    greedy_coloring,
    load_order,
    natural_order,
    occupied_neighbor_map,
    parity_coloring,
    stencil_neighbors,
    validate_coloring,
)
from repro.parallel.partition import BlockDecomposition


def make_dec(A=4, B=4, C=4, G=40):
    grid = GridSpec(DomainSpec.from_voxels(G, G, G), hs=2.0, ht=2.0)
    return BlockDecomposition(grid, A, B, C)


class TestStencilNeighbors:
    def test_interior_block_has_26(self):
        dec = make_dec()
        assert len(list(stencil_neighbors(dec, 1, 1, 1))) == 26

    def test_corner_block_has_7(self):
        dec = make_dec()
        assert len(list(stencil_neighbors(dec, 0, 0, 0))) == 7

    def test_face_block_has_17(self):
        dec = make_dec()
        assert len(list(stencil_neighbors(dec, 0, 1, 1))) == 17

    def test_never_self(self):
        dec = make_dec()
        for a, b, c in dec.iter_blocks():
            assert (a, b, c) not in set(stencil_neighbors(dec, a, b, c))

    def test_symmetric(self):
        dec = make_dec(3, 3, 3)
        for a, b, c in dec.iter_blocks():
            for nb in stencil_neighbors(dec, a, b, c):
                assert (a, b, c) in set(stencil_neighbors(dec, *nb))

    def test_1d_decomposition(self):
        dec = make_dec(5, 1, 1)
        assert len(list(stencil_neighbors(dec, 2, 0, 0))) == 2
        assert len(list(stencil_neighbors(dec, 0, 0, 0))) == 1


class TestOccupiedNeighborMap:
    def test_only_occupied_appear(self):
        dec = make_dec(3, 3, 3)
        occupied = [dec.linear_id(0, 0, 0), dec.linear_id(2, 2, 2), dec.linear_id(0, 0, 1)]
        adj = occupied_neighbor_map(dec, occupied)
        assert set(adj) == set(occupied)
        # (0,0,0) and (0,0,1) adjacent; (2,2,2) isolated.
        assert adj[dec.linear_id(0, 0, 0)] == [dec.linear_id(0, 0, 1)]
        assert adj[dec.linear_id(2, 2, 2)] == []


class TestParityColoring:
    def test_proper_and_at_most_8_colors(self):
        dec = make_dec(4, 4, 4)
        occ = list(range(dec.n_blocks))
        col = parity_coloring(dec, occ)
        assert col.n_colors <= 8
        assert validate_coloring(dec, col, occ)

    def test_exact_color_formula(self):
        dec = make_dec(4, 4, 4)
        col = parity_coloring(dec, list(range(dec.n_blocks)))
        for bid, c in col.colors.items():
            a, b, cc = dec.block_coords(bid)
            assert c == 4 * (a % 2) + 2 * (b % 2) + (cc % 2)

    def test_classes_group_by_color(self):
        dec = make_dec(2, 2, 2)
        col = parity_coloring(dec, list(range(8)))
        classes = col.classes()
        assert len(classes) == 8
        assert all(len(cls) == 1 for cls in classes)


class TestGreedyColoring:
    def test_proper_on_full_grid(self):
        dec = make_dec(5, 4, 3)
        occ = list(range(dec.n_blocks))
        col = greedy_coloring(dec, occ, natural_order(occ))
        assert validate_coloring(dec, col, occ)

    def test_at_most_27_colors(self):
        """Greedy on a 27-stencil uses at most deg+1 = 27 colors."""
        dec = make_dec(6, 6, 6)
        occ = list(range(dec.n_blocks))
        col = greedy_coloring(dec, occ, natural_order(occ))
        assert col.n_colors <= 27

    def test_sparse_occupancy_fewer_colors(self):
        """Isolated occupied blocks all get colour 0."""
        dec = make_dec(6, 6, 6)
        occ = [dec.linear_id(a, a, a) for a in (0, 2, 4)]
        col = greedy_coloring(dec, occ, natural_order(occ))
        assert col.n_colors == 1

    def test_load_order_colors_heavy_first(self):
        dec = make_dec(4, 4, 4)
        occ = list(range(dec.n_blocks))
        loads = {bid: float(bid % 7) for bid in occ}
        order = load_order(occ, loads)
        col = greedy_coloring(dec, occ, order, method="load-aware")
        assert validate_coloring(dec, col, occ)
        # The single heaviest block in any neighbourhood gets colour 0.
        heaviest = order[0]
        assert col.colors[heaviest] == 0

    def test_rejects_non_permutation_order(self):
        dec = make_dec(2, 2, 2)
        occ = list(range(8))
        with pytest.raises(ValueError, match="permutation"):
            greedy_coloring(dec, occ, occ[:-1])

    def test_validate_rejects_improper(self):
        from repro.parallel.color import Coloring

        dec = make_dec(2, 2, 2)
        occ = list(range(8))
        bad = Coloring({bid: 0 for bid in occ}, 1, "bad")
        assert not validate_coloring(dec, bad, occ)


class TestBlockTaskGraph:
    def test_rejects_unknown_scheduler(self):
        dec = make_dec(2, 2, 2)
        with pytest.raises(ValueError, match="scheduler"):
            block_task_graph(dec, {0: 1.0, 7: 2.0}, "magic")

    @pytest.mark.parametrize("scheduler", ["parity", "sched"])
    def test_tasks_are_occupied_blocks_in_id_order(self, scheduler):
        dec = make_dec(2, 2, 2)
        graph, coloring = block_task_graph(dec, {7: 1.0, 0: 2.0, 3: 3.0}, scheduler)
        assert graph.labels == [0, 3, 7]
        assert graph.weights == [2.0, 3.0, 1.0]
        assert validate_coloring(dec, coloring, [0, 3, 7])


class TestLoadOrder:
    def test_non_increasing(self):
        loads = {1: 5.0, 2: 9.0, 3: 1.0, 4: 9.0}
        order = load_order([1, 2, 3, 4], loads)
        assert order == [2, 4, 1, 3]  # ties by id

    def test_natural_order_sorted(self):
        assert natural_order([5, 1, 3]) == [1, 3, 5]


@given(
    A=st.integers(2, 5),
    B=st.integers(2, 5),
    C=st.integers(2, 5),
    occ_fraction=st.floats(0.2, 1.0),
    seed=st.integers(0, 100),
    use_load=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_greedy_coloring_always_proper(A, B, C, occ_fraction, seed, use_load):
    dec = make_dec(A, B, C, G=30)
    rng = np.random.default_rng(seed)
    all_blocks = np.arange(dec.n_blocks)
    k = max(1, int(occ_fraction * dec.n_blocks))
    occ = sorted(rng.choice(all_blocks, size=k, replace=False).tolist())
    if use_load:
        loads = {bid: float(rng.integers(0, 100)) for bid in occ}
        order = load_order(occ, loads)
    else:
        order = natural_order(occ)
    col = greedy_coloring(dec, occ, order)
    assert validate_coloring(dec, col, occ)
    # Greedy never uses more colours than max degree + 1.
    adj = occupied_neighbor_map(dec, occ)
    max_deg = max((len(v) for v in adj.values()), default=0)
    assert col.n_colors <= max_deg + 1
