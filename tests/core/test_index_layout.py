"""The bucket index's storage format, checked after every mutation.

The format is the contract the read path relies on: every segment is a
contiguous slice of one append-only store, sorted by (cell, t) through
one key per row (stably, so member registration order then insertion
order among tied keys), a candidate run addresses coordinates directly
and ascends in t, and dead rows are only *counted* until one repack rule
reclaims them.  ``check_layout`` states
that against a model — a dict of the live batches — and is run after
every step of a scripted history and of a ``hypothesis`` state machine
over ``add_segment`` / ``remove_segment`` (of a segment or of one member
of a consolidated segment) / a live estimator's mutation (retirements,
arrivals, then ``maintain``) / ``consolidate_segments``;
``check_answers`` pins the reads (brute-force sums, a cold index's
candidate sets) on the same states.

The planner's 27-cell box table is part of the format too: it and the
per-cell counts under it exist only once a read asked for them, from
then on mutations patch them where they touched them, and
``check_layout`` compares them with from-scratch sums whenever they
exist or it is asked to read them.  Reading drains the pending patches,
so the state machine switches the reads on and off at random and reads
once more at the end: tables never built, a patch list drained every
step, one never drained, and everything between.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.core import DomainSpec, GridSpec
from repro.core.kernels import get_kernel
from repro.serve.engine import direct_sum
from repro.core.index import _WINDOW_SLACK, BucketIndex
from tests.helpers import (
    brute_force_sum, cell_candidates, member_ids, reference_candidates, sync,
    window_candidates,
)

GRID = GridSpec(DomainSpec.from_voxels(10, 10, 8), hs=2.5, ht=2.0)  # 4x4x4 cells
SPAN = np.array([GRID.domain.gx, GRID.domain.gy, GRID.domain.gt])
KERNEL = get_kernel("epanechnikov")
QUERIES = np.random.default_rng(1).uniform(-1.0, SPAN + 1.0, size=(48, 3))
EVERY_CELL = [(cx, cy, ct) for cx in range(4) for cy in range(4) for ct in range(4)]


def make_batch(rng, m, weighted, span=SPAN, local=False):
    """``(coords, weights)``; coarse coordinates, so cells hold ties.
    ``local`` confines the batch to a random sub-box of the domain (a
    box-table patch smaller than the grid); otherwise it spans it."""
    lo, hi = np.zeros(3), span
    if local:
        lo, hi = np.sort(rng.uniform(0.0, span, size=(2, 3)), axis=0)
    coords = np.round(rng.uniform(lo, hi, size=(m, 3)) * 2.0) / 2.0
    return coords, (rng.uniform(0.25, 4.0, m) if weighted else None)


def sort_keys(idx, coords):
    """The stored key of each location, restated: twice its cell plus how
    far through the cell it lies in t (0 before the domain, 1 after)."""
    cc = idx.cell_coords(coords)
    u = (coords[:, 2] - idx.grid.domain.t0) / idx.grid.ht
    return 2.0 * idx.flat_cells(cc) + (np.clip(u, 0.0, idx.nt) - cc[:, 2])


def neighbour_sums(idx, counts):
    """The 27-cell box table from scratch: every neighbour added up."""
    nx, ny, nt = idx.nx, idx.ny, idx.nt
    padded = np.pad(counts.reshape(nx, ny, nt), 1)
    return sum(
        padded[dx : dx + nx, dy : dy + ny, dt : dt + nt]
        for dx, dy, dt in product(range(3), repeat=3)
    )


def live_events(model, weighted):
    coords = np.vstack([c for c, _ in model.values()] + [np.empty((0, 3))])
    if not weighted:
        return coords, None
    return coords, np.concatenate(
        [w if w is not None else np.ones(len(c)) for c, w in model.values()]
        + [np.empty(0)]
    )


def candidate_events(index, cell):
    """One home cell's candidates as a sorted ``(x, y, t[, w])`` multiset."""
    rows = cell_candidates(index, *cell)
    cols = [index.coords[rows]]
    if index.weights is not None:
        cols.append(index.weights[rows])
    events = np.column_stack(cols)
    return events[np.lexsort(events.T)]


def check_layout(idx, model, read_table=True):
    """The format invariants of ``idx`` holding exactly ``model``'s
    batches (``{batch_id: (coords, weights)}``).  ``read_table=False``
    leaves the box table (and its pending patches) untouched."""
    size = idx.coords.shape[0]
    segs = list(idx._segments.values())
    assert sum(s.n for s in segs) + idx.dead_rows == size
    spans = sorted((s.start, s.start + s.n) for s in segs)
    assert all(0 <= lo <= hi <= size for lo, hi in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))  # disjoint
    seen = []
    for s in segs:
        rows = slice(s.start, s.start + s.n)
        keys = idx._keys[rows]
        np.testing.assert_array_equal(keys, sort_keys(idx, idx.coords[rows]))
        assert (np.diff(keys) >= 0).all()
        tied = np.diff(keys) == 0
        # Cells ascend, and t ascends within every (ix, iy) column run
        # (make_batch's half-unit times are exact in the key; times closer
        # than a key resolves would keep insertion order).
        cells = idx.cell_of(idx.coords[rows])
        assert (np.diff(cells) >= 0).all()
        same_column = np.diff(cells // idx.nt) == 0
        assert (np.diff(idx.coords[rows][:, 2])[same_column] >= 0).all()
        if s.members is None:
            assert s.owner is None
            parts = [(s.seg_id, np.ones(s.n, dtype=bool))]
        else:
            assert s.owner.shape == (s.n,)
            parts = [(mid, s.owner == k) for mid, k in s.members.items()]
            # The members partition the segment's rows, and among tied
            # keys they appear in registration order.
            assert sum(int(mask.sum()) for _, mask in parts) == s.n
            rank = np.zeros(max(s.members.values()) + 1, dtype=np.int64)
            rank[list(s.members.values())] = np.arange(len(s.members))
            assert (np.diff(rank[s.owner])[tied] >= 0).all()
        for mid, mask in parts:
            # A member's rows are its batch, stably sorted by key.
            coords, w = model[mid]
            by_key = np.argsort(sort_keys(idx, coords), kind="stable")
            np.testing.assert_array_equal(
                idx.coords[rows][mask], coords[by_key]
            )
            if idx.weights is not None:
                w = w if w is not None else np.ones(len(coords))
                np.testing.assert_array_equal(
                    idx.weights[rows][mask], w[by_key]
                )
            seen.append(mid)
    assert sorted(seen, key=repr) == sorted(model, key=repr)
    live, _ = live_events(model, False)
    assert idx.n == len(live)
    counts = np.bincount(idx.cell_of(live), minlength=idx.n_cells)
    if idx._cell_counts is not None:
        np.testing.assert_array_equal(idx._cell_counts, counts)
    if read_table:
        np.testing.assert_array_equal(
            idx.box_counts, neighbour_sums(idx, counts)
        )
        np.testing.assert_array_equal(idx._cell_counts, counts)
        assert idx._stale_boxes == [] and idx._stale_cells == 0


def check_answers(idx, model):
    """Reads over the same state: exact sums against the estimator's
    definition, candidate sets against a cold single-segment index."""
    weighted = idx.weights is not None
    live, w = live_events(model, weighted)
    np.testing.assert_allclose(
        direct_sum(idx, QUERIES, KERNEL, 1.0),
        brute_force_sum(GRID, KERNEL, live, QUERIES, weights=w),
        rtol=1e-12, atol=0.0,
    )
    cold = BucketIndex(GRID, live, w)
    for cell in EVERY_CELL:
        np.testing.assert_array_equal(
            candidate_events(idx, cell), candidate_events(cold, cell)
        )


@pytest.mark.parametrize("weighted", [False, True])
def test_scripted_history_keeps_the_layout(weighted):
    """Adds, an empty batch, two consolidations (the second absorbing the
    first), member retirements, a whole-segment removal and the repacks
    they trigger — the invariants hold after every step."""
    rng = np.random.default_rng(3)
    idx = BucketIndex(GRID, merge_segment_cap=None)
    model = {}

    def check():
        check_layout(idx, model)
        check_answers(idx, model)

    def add(bid, m, w=False):
        model[bid] = make_batch(rng, m, w)
        idx.add_segment(bid, *model[bid])
        check()

    def sync_without(*gone):
        for bid in gone:
            del model[bid]
        retired = idx.events_retired
        sync(idx, [(bid, c) for bid, (c, _) in model.items()])
        assert idx.dead_rows <= max(64, idx.n)
        check()
        return idx.events_retired - retired

    for bid, m in enumerate((30, 0, 45, 17, 60)):
        add(bid, m, w=weighted and bid % 2 == 0)
    idx.consolidate_segments([0, 1, 2])
    check()
    assert idx.dead_rows == 75 and idx.segment_ids == (("merged", 0), 3, 4)
    assert sync_without(1, 2) == 45  # an empty member and a full one
    add(5, 25, w=weighted)
    idx.consolidate_segments([("merged", 0), 3, 5])  # absorbs the first
    check()
    assert idx.segment_ids == (("merged", 1), 4)
    assert member_ids(idx._segments[("merged", 1)]) == (0, 3, 5)
    assert sync_without(3) == 17
    idx.remove_segment(4)
    del model[4]
    assert idx.dead_rows <= max(64, idx.n)
    check()
    assert idx.rows_compacted > 0  # the history crossed the repack rule
    assert sync_without(0, 5) == 55  # last members gone: segment dropped
    assert idx.segment_ids == () and idx.n == 0


@pytest.mark.parametrize("voxels, cells", [
    ((30, 25, 20), (12, 10, 10)),
    ((10, 10, 8), (4, 4, 4)),
    ((10, 4, 2), (4, 2, 1)),  # fewer than 3 cells on two axes
    ((2, 2, 2), (1, 1, 1)),
])
def test_box_table_is_patched_where_batches_land(voxels, cells):
    """A sliding feed of local batches through ``sync`` (merges and
    repacks on the way), the table read every third step: it always
    equals the from-scratch neighbour sums.  A batch confined to a few
    cells of a larger grid is patched into the existing table; one that
    spans the grid drops the table for the next read to build whole."""
    grid = GridSpec(DomainSpec.from_voxels(*voxels), hs=2.5, ht=2.0)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    rng = np.random.default_rng(11)
    idx = BucketIndex(grid, merge_segment_cap=4)
    assert (idx.nx, idx.ny, idx.nt) == cells
    model = {}
    for step in range(30):
        model[step] = make_batch(rng, 20, False, span, local=True)
        model.pop(step - 6, None)
        sync(idx, [(bid, c) for bid, (c, _) in model.items()])
        check_layout(idx, model, read_table=step % 3 == 0)
    check_layout(idx, model)
    assert idx.segments_merged > 0 and idx.rows_compacted > 0

    table = idx.box_counts
    corner = np.full((5, 3), 0.25)
    idx.add_segment("corner", corner)
    model["corner"] = (corner, None)
    if idx.n_cells > 8:  # the 2x2x2 corner patch is smaller than the grid
        assert idx._stale_boxes == [(slice(0, 2),) * 3]
        assert idx.box_counts is table  # patched in place
    check_layout(idx, model)
    model["wide"] = make_batch(rng, 200, False, span)
    idx.add_segment("wide", model["wide"][0])
    assert idx._box_counts is None  # dropped: the next read builds it whole
    check_layout(idx, model)
    idx.remove_segment("wide")
    del model["wide"]
    check_layout(idx, model)


def test_runs_read_left_to_right_fix_the_candidate_order():
    """Run-order pin: the coordinates a run table addresses are, in
    order, segment-major, then x, then y, then t — among tied keys member
    registration order, then insertion order — for a simple, an empty and
    a twice-consolidated segment with one retired member.  Both cuts of
    the columns: ``candidate_runs`` by a home cell's three t-cells,
    ``window_runs`` by a query's own (widened) time window."""
    rng = np.random.default_rng(5)
    batches = {bid: make_batch(rng, 40, False)[0] for bid in range(6)}
    batches["empty"] = np.empty((0, 3))
    idx = BucketIndex(GRID, merge_segment_cap=None)
    for bid in (0, 1, 2, 3, 4, "empty", 5):
        idx.add_segment(bid, batches[bid])
    idx.consolidate_segments([0, 1, 2])
    idx.consolidate_segments([("merged", 0), 3, 5])
    del batches[1]
    sync(idx, list(batches.items()))  # retires member 1
    segments = [member_ids(s) for s in idx._segments.values()]
    assert segments == [(0, 2, 3, 5), (4,), ("empty",)]

    def walk(cx, cy, in_run):
        """Events of the columns around ``(cx, cy)`` that ``in_run(t,
        t-cell)`` keeps: per segment and column, members in registration
        order, then one stable sort by key."""
        out = [np.empty((0, 3))]
        for members in segments:
            for ix in range(max(0, cx - 1), min(idx.nx, cx + 2)):
                for iy in range(max(0, cy - 1), min(idx.ny, cy + 2)):
                    run = np.vstack([batches[m] for m in members])
                    cc = idx.cell_coords(run)
                    run = run[(cc[:, 0] == ix) & (cc[:, 1] == iy)
                              & in_run(run[:, 2], cc[:, 2])]
                    out.append(
                        run[np.argsort(sort_keys(idx, run), kind="stable")]
                    )
        return np.vstack(out)

    for cx, cy, ct in EVERY_CELL:
        rows = cell_candidates(idx, cx, cy, ct)
        np.testing.assert_array_equal(
            idx.coords[rows],
            walk(cx, cy, lambda t, it: (it >= ct - 1) & (it <= ct + 1)),
        )
        np.testing.assert_array_equal(
            rows, reference_candidates(idx, cx, cy, ct)
        )
    for q in QUERIES:
        cx, cy, _ = idx.cell_coords(q[None])[0]
        reach = GRID.ht + _WINDOW_SLACK * (abs(q[2]) + GRID.ht)
        np.testing.assert_array_equal(
            idx.coords[window_candidates(idx, q)],
            walk(cx, cy, lambda t, it: (t >= q[2] - reach) & (t <= q[2] + reach)),
        )


class IndexMachine(RuleBasedStateMachine):
    """Random histories over the four mutating entry points; the model
    is the dict of live batches."""

    @initialize(
        cap=st.sampled_from([None, 2, 4]), seed=st.integers(0, 2**16),
        read_table=st.booleans(),
    )
    def start(self, cap, seed, read_table):
        self.idx = BucketIndex(GRID, merge_segment_cap=cap)
        self.model = {}
        self.rng = np.random.default_rng(seed)
        self.next_id = 0
        self.read_table = read_table

    def _new_batch(self, m, weighted, local=False):
        bid, self.next_id = self.next_id, self.next_id + 1
        self.model[bid] = make_batch(self.rng, m, weighted, local=local)
        return bid

    @rule(read_table=st.booleans())
    def switch_table_reads(self, read_table):
        self.read_table = read_table

    @rule(m=st.integers(0, 25), weighted=st.booleans(), local=st.booleans())
    def add_segment(self, m, weighted, local):
        bid = self._new_batch(m, weighted, local)
        self.idx.add_segment(bid, *self.model[bid])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_segment(self, data):
        """A segment, or one member of a consolidated segment."""
        bid = data.draw(st.sampled_from(sorted(self.model)))
        self.idx.remove_segment(bid)
        del self.model[bid]
        assert self.idx.dead_rows <= max(64, self.idx.n)

    @rule(data=st.data(), arriving=st.lists(st.integers(0, 25), max_size=2))
    def mutate(self, data, arriving):
        """A live estimator's mutation: retirements, arrivals, upkeep."""
        gone = [bid for bid in self.model if data.draw(st.booleans())]
        retired = self.idx.events_retired
        for bid in gone:
            self.idx.remove_segment(bid)
            retired += len(self.model.pop(bid)[0])
        for m in arriving:
            bid = self._new_batch(m, False, local=data.draw(st.booleans()))
            self.idx.add_segment(bid, self.model[bid][0])
        self.idx.maintain()
        assert self.idx.events_retired == retired
        assert self.idx.dead_rows <= max(64, self.idx.n)
        cap = self.idx.merge_segment_cap
        assert cap is None or self.idx.segment_count <= cap

    @precondition(lambda self: self.idx.segment_count)
    @rule(data=st.data())
    def consolidate_segments(self, data):
        self.idx.consolidate_segments(data.draw(st.lists(
            st.sampled_from(self.idx.segment_ids), min_size=1, unique=True
        )))

    @invariant()
    def layout_and_answers(self):
        check_layout(self.idx, self.model, self.read_table)
        check_answers(self.idx, self.model)

    def teardown(self):
        if hasattr(self, "idx"):  # whatever patches are still pending
            check_layout(self.idx, self.model)


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
