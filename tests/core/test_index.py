"""Tests for the bucket index: no false negatives, exact counts, batching."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec
from repro.core.kernels import get_kernel
from repro.serve.engine import direct_sum
from repro.core.index import BucketIndex
from tests.helpers import (
    brute_force_sum,
    cell_candidates,
    make_clustered_points,
    make_points,
    reference_candidates,
    sync,
    window_candidates,
)


@pytest.fixture
def index(small_grid):
    pts = make_points(small_grid, 120, seed=4)
    return BucketIndex(small_grid, pts.coords)


class TestConstruction:
    def test_cell_grid_is_one_bandwidth_per_axis(self, small_grid, index):
        d = small_grid.domain
        assert index.nx == int(np.ceil(d.gx / small_grid.hs))
        assert index.ny == int(np.ceil(d.gy / small_grid.hs))
        assert index.nt == int(np.ceil(d.gt / small_grid.ht))

    def test_rejects_bad_shapes(self, small_grid):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            BucketIndex(small_grid, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="weights"):
            BucketIndex(small_grid, np.zeros((4, 3)), np.ones(3))

    def test_empty_index(self, small_grid):
        idx = BucketIndex(small_grid, np.empty((0, 3)))
        assert idx.n == 0
        assert idx.occupied_cells == 0
        assert cell_candidates(idx, 0, 0, 0).size == 0

    def test_overhead_is_linear_not_per_cell_objects(self, small_grid):
        pts = make_points(small_grid, 500, seed=5)
        idx = BucketIndex(small_grid, pts.coords)
        # One sort key per row and one aggregate per-cell count table —
        # no per-cell Python objects.
        assert idx.nbytes <= 8 * (2 * idx.n + idx.n_cells) + 64


class TestCandidates:
    def test_no_false_negatives(self, small_grid):
        """Every event within bandwidth of a query is in its candidate set
        — the correctness contract of the 3x3x3 neighbourhood walk — and
        in its time-window cut of it, which holds nothing else."""
        pts = make_clustered_points(small_grid, 200, seed=6)
        idx = BucketIndex(small_grid, pts.coords)
        rng = np.random.default_rng(7)
        d = small_grid.domain
        qs = rng.uniform(
            [d.x0, d.y0, d.t0],
            [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt],
            size=(50, 3),
        )
        hs, ht = small_grid.hs, small_grid.ht
        for q in qs:
            dx = pts.coords[:, 0] - q[0]
            dy = pts.coords[:, 1] - q[1]
            dt = pts.coords[:, 2] - q[2]
            inside = ((dx * dx + dy * dy) < hs * hs) & (np.abs(dt) <= ht)
            cc = idx.cell_coords(q[None, :])[0]
            rows = cell_candidates(idx, *(int(c) for c in cc))
            cand = set(map(tuple, idx.coords[rows].tolist()))
            missing = set(map(tuple, pts.coords[inside].tolist())) - cand
            assert not missing, f"index missed events {missing} for query {q}"
            cut = set(map(tuple, idx.coords[window_candidates(idx, q)].tolist()))
            assert set(map(tuple, pts.coords[inside].tolist())) <= cut <= cand

    def test_candidates_unique(self, index):
        for cx in range(index.nx):
            for cy in range(index.ny):
                cand = cell_candidates(index, cx, cy, 0)
                assert len(np.unique(cand)) == cand.size

    def test_candidate_counts_match_gather(self, small_grid):
        pts = make_clustered_points(small_grid, 150, seed=8)
        idx = BucketIndex(small_grid, pts.coords)
        qs = make_points(small_grid, 40, seed=9).coords
        counts = idx.candidate_counts(qs)
        cells = idx.cell_coords(qs)
        for q_cell, n_exp in zip(cells, counts):
            got = cell_candidates(idx, *(int(c) for c in q_cell)).size
            assert got == n_exp

    def test_off_domain_queries_clamp(self, small_grid):
        pts = make_points(small_grid, 50, seed=10)
        idx = BucketIndex(small_grid, pts.coords)
        d = small_grid.domain
        far = np.array([[d.x0 + d.gx + 100.0, d.y0 - 100.0, d.t0 + d.gt + 100.0]])
        assert idx.candidate_counts(far).shape == (1,)  # no crash, clamped

    @pytest.mark.parametrize("big", [1e19, -1e19, 1e300, -1e300])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_huge_finite_coordinates_clamp_before_the_cast(self, axis, big):
        """Any finite coordinate is accepted, so it must land in the
        border cell on its side: cast to int64 before clamping, a quotient
        past 2**63 warned ``invalid value encountered in cast`` and became
        an arbitrary cell (0 here).  Events and queries, every axis, no
        warning of any kind, answers from the estimator's definition."""
        grid = GridSpec(DomainSpec.from_voxels(6, 6, 6), hs=1.0, ht=1.0)
        rng = np.random.default_rng(15)
        events = rng.uniform(0.0, 6.0, size=(84, 3))
        events[80:, axis] = big
        # The last four queries sit on the far events (big + 0.25 == big).
        queries = np.vstack([rng.uniform(0.0, 6.0, size=(30, 3)),
                             events[80:] + 0.25])
        kern = get_kernel("epanechnikov")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = BucketIndex(grid, events)
            border = 0 if big < 0 else 5
            for rows in (events[80:], queries[30:]):
                assert (idx.cell_coords(rows)[:, axis] == border).all()
            assert (idx.candidate_counts(queries) > 0).all()
            got = direct_sum(idx, queries, kern, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle squares 1e300
            want = brute_force_sum(grid, kern, events, queries)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert (got[30:] > 0).all()


class TestGrouping:
    def test_same_cell_queries_share_a_group(self, small_grid):
        pts = make_points(small_grid, 30, seed=12)
        idx = BucketIndex(small_grid, pts.coords)
        q = np.array([[1.0, 1.0, 1.0], [1.1, 1.2, 1.05], [1.05, 0.9, 0.95]])
        assert np.unique(idx.cell_of(q)).size == 1

    def test_flat_cells_are_the_home_cells(self, index, small_grid):
        qs = make_points(small_grid, 64, seed=11).coords
        cc = index.cell_coords(qs)
        np.testing.assert_array_equal(index.flat_cells(cc), index.cell_of(qs))


class TestCandidateRuns:
    """``candidate_runs`` (one bound table, one ``searchsorted`` per
    segment) against the per-cell reference walk."""

    def _every_cell(self, idx):
        return np.array([
            (cx, cy, ct)
            for cx in range(idx.nx)
            for cy in range(idx.ny)
            for ct in range(idx.nt)
        ])

    def _check(self, idx):
        cells = self._every_cell(idx)
        starts, lengths = idx.candidate_runs(cells)
        assert starts.shape == lengths.shape == (
            len(cells), 9 * max(1, idx.segment_count)
        )
        np.testing.assert_array_equal(
            lengths.sum(axis=1),
            idx.box_counts[cells[:, 0], cells[:, 1], cells[:, 2]],
        )
        for cell in cells:
            np.testing.assert_array_equal(
                cell_candidates(idx, *cell), reference_candidates(idx, *cell)
            )

    def test_single_segment(self, index):
        self._check(index)

    def test_segments_with_an_empty_and_a_consolidated_one(self, small_grid):
        pts = make_clustered_points(small_grid, 240, seed=14).coords
        idx = BucketIndex(small_grid, merge_segment_cap=None)
        for i in range(4):
            idx.add_segment(i, pts[i::4])
        idx.add_segment("empty", np.empty((0, 3)))
        idx.consolidate_segments([0, 1, 2])
        idx.remove_segment(1)  # a consolidated member
        assert idx.n == 180 and idx.merged_segments == 1
        self._check(idx)

    def test_empty_inputs(self, small_grid, index):
        starts, lengths = index.candidate_runs(np.empty((0, 3), dtype=np.int64))
        assert starts.shape == lengths.shape == (0, 9)
        starts, lengths = BucketIndex(small_grid).candidate_runs(
            np.array([[0, 0, 0]])
        )
        assert not lengths.any()


class TestWeights:
    def test_weights_carried(self, small_grid):
        pts = make_points(small_grid, 20, seed=13)
        w = np.linspace(0.5, 2.0, 20)
        idx = BucketIndex(small_grid, pts.coords, w)
        # Storage is in key order: each event still carries its weight.
        stored = np.column_stack([idx.coords, idx.weights])
        given = np.column_stack([pts.coords, w])
        np.testing.assert_array_equal(
            stored[np.lexsort(stored.T)], given[np.lexsort(given.T)]
        )


def _same_candidates(incremental, rebuilt):
    """Both indexes return the same candidate *event sets* everywhere.

    Candidate row indices differ (storage layouts differ), so compare the
    coordinates they address, as multisets per cell.
    """
    assert incremental.n == rebuilt.n
    for cx in range(incremental.nx):
        for cy in range(incremental.ny):
            for ct in range(incremental.nt):
                a = incremental.coords[cell_candidates(incremental, cx, cy, ct)]
                b = rebuilt.coords[cell_candidates(rebuilt, cx, cy, ct)]
                assert a.shape == b.shape
                order_a = np.lexsort((a[:, 2], a[:, 1], a[:, 0]))
                order_b = np.lexsort((b[:, 2], b[:, 1], b[:, 0]))
                np.testing.assert_array_equal(a[order_a], b[order_b])


class TestIncrementalSegments:
    """Satellite acceptance: incrementally-synced segments equal a full
    rebuild after randomized add/remove/slide sequences, with only the
    delta batches re-bucketed."""

    def test_add_remove_matches_rebuild(self, small_grid):
        rng = np.random.default_rng(14)
        idx = BucketIndex(small_grid)
        live = {}
        next_id = 0
        from repro.core import WorkCounter

        for step in range(30):
            if live and rng.random() < 0.4:
                sid = list(live)[int(rng.integers(0, len(live)))]
                idx.remove_segment(sid)
                del live[sid]
            else:
                m = int(rng.integers(1, 40))
                coords = make_points(small_grid, m, seed=100 + step).coords
                idx.add_segment(next_id, coords)
                live[next_id] = coords
                next_id += 1
            if live:
                rebuilt = BucketIndex(
                    small_grid, np.vstack([live[k] for k in live])
                )
            else:
                rebuilt = BucketIndex(small_grid)
            _same_candidates(idx, rebuilt)
            counts_q = make_points(small_grid, 25, seed=step).coords
            np.testing.assert_array_equal(
                idx.candidate_counts(counts_q),
                rebuilt.candidate_counts(counts_q),
            )

    def test_sync_touches_only_the_delta(self, small_grid):
        """WorkCounter check: one slide re-buckets ~the arriving batch,
        not the n live events."""
        from repro.core import WorkCounter

        batches = {
            i: make_points(small_grid, 50, seed=200 + i).coords
            for i in range(6)
        }
        idx = BucketIndex(small_grid)
        c = WorkCounter()
        sync(idx, list(batches.items()), counter=c)
        assert c.index_events_bucketed == 300
        # Slide: batch 0 retires, batch 6 arrives.
        batches.pop(0)
        batches[6] = make_points(small_grid, 50, seed=206).coords
        c2 = WorkCounter()
        added, retired = sync(idx, list(batches.items()), counter=c2)
        assert (added, retired) == (50, 50)
        assert c2.index_events_bucketed == 50  # the delta, not 300
        assert c2.index_events_retired == 50
        _same_candidates(
            idx, BucketIndex(small_grid, np.vstack(list(batches.values())))
        )

    def test_dead_rows_compact(self, small_grid):
        """Retiring most segments triggers a repack; results unchanged."""
        idx = BucketIndex(small_grid)
        keep = make_points(small_grid, 20, seed=300).coords
        idx.add_segment("keep", keep)
        for i in range(5):
            idx.add_segment(i, make_points(small_grid, 60, seed=301 + i).coords)
        for i in range(5):
            idx.remove_segment(i)
            assert idx.dead_rows <= max(64, idx.n)  # the repack bound
        assert idx.rows_compacted > 0
        assert idx.n == 20
        _same_candidates(idx, BucketIndex(small_grid, keep))

    def test_duplicate_segment_rejected(self, small_grid):
        idx = BucketIndex(small_grid)
        idx.add_segment(1, make_points(small_grid, 5, seed=310).coords)
        with pytest.raises(ValueError, match="already registered"):
            idx.add_segment(1, make_points(small_grid, 5, seed=311).coords)
        with pytest.raises(KeyError):
            idx.remove_segment(99)

    def test_stats_shape(self, small_grid):
        idx = BucketIndex(small_grid, make_points(small_grid, 30, seed=312).coords)
        s = idx.stats()
        assert s["segments"] == 1 and s["events"] == 30
        assert set(s) >= {
            "segments", "events", "dead_rows",
            "events_bucketed", "events_retired",
        }


def test_degenerate_tiny_domain():
    """A domain smaller than one bandwidth still indexes (one cell)."""
    grid = GridSpec(DomainSpec(gx=1.0, gy=1.0, gt=1.0, sres=0.5, tres=0.5),
                    hs=5.0, ht=5.0)
    idx = BucketIndex(grid, np.array([[0.5, 0.5, 0.5]]))
    assert idx.n_cells == 1
    assert cell_candidates(idx, 0, 0, 0).size == 1


class TestMergePolicyAndCompaction:
    """The merge policy bounds segment count with zero re-bucketing,
    member retirement filters (never re-sorts), and one repack rule
    keeps ``dead_rows <= max(64, n)`` after every ``maintain`` and
    ``remove_segment``.  ``sync`` drives the index the way a live
    estimator's mutations do."""

    def _batches(self, small_grid, n_batches, size=25, seed0=400):
        return {
            i: make_points(small_grid, size, seed=seed0 + i).coords
            for i in range(n_batches)
        }

    def test_sync_merges_past_the_cap_without_rebucketing(self, small_grid):
        from repro.core import WorkCounter

        batches = self._batches(small_grid, 24)
        idx = BucketIndex(small_grid, merge_segment_cap=8)
        c = WorkCounter()
        sync(idx, list(batches.items()), counter=c)
        assert idx.segment_count <= 8
        assert idx.merged_segments >= 1
        assert c.index_segments_merged > 0
        # Merging copies rows; it never re-buckets an event.
        assert c.index_events_bucketed == 24 * 25
        _same_candidates(
            idx, BucketIndex(small_grid, np.vstack(list(batches.values())))
        )

    def test_member_retirement_from_merged_segment(self, small_grid):
        from repro.core import WorkCounter

        batches = self._batches(small_grid, 20)
        idx = BucketIndex(small_grid, merge_segment_cap=6)
        sync(idx, list(batches.items()))
        assert idx.merged_segments >= 1
        # Retire three of the oldest (merged-away) batches.
        for bid in (0, 1, 2):
            batches.pop(bid)
        c = WorkCounter()
        added, retired = sync(idx, list(batches.items()), counter=c)
        assert (added, retired) == (0, 75)
        assert c.index_events_bucketed == 0  # filtered, not re-bucketed
        _same_candidates(
            idx, BucketIndex(small_grid, np.vstack(list(batches.values())))
        )

    def test_sliding_soak_keeps_segments_and_debt_bounded(self, small_grid):
        from repro.core import WorkCounter

        idx = BucketIndex(small_grid, merge_segment_cap=6)
        c = WorkCounter()
        live = {}
        for step in range(60):
            live[step] = make_points(small_grid, 20, seed=500 + step).coords
            if len(live) > 12:
                live.pop(min(live))
            sync(idx, list(live.items()), counter=c)
            assert idx.segment_count <= 6
            assert idx.dead_rows <= max(64, idx.n)
            # Storage stays bounded: live rows plus at most as many dead.
            assert idx.coords.shape[0] <= 2 * max(64, idx.n)
        # O(delta) bucketing: every event bucketed exactly once.
        assert c.index_events_bucketed == 60 * 20
        _same_candidates(
            idx, BucketIndex(small_grid, np.vstack(list(live.values())))
        )

    def test_heavy_unsynced_retirement_still_bounded(self, small_grid):
        """Remove-only callers cannot leak storage: ``remove_segment``
        runs the repack rule itself."""
        idx = BucketIndex(small_grid, merge_segment_cap=None)
        keep = make_points(small_grid, 10, seed=610).coords
        idx.add_segment("keep", keep)
        for i in range(40):
            idx.add_segment(i, make_points(small_grid, 50, seed=611 + i).coords)
        for i in range(40):
            idx.remove_segment(i)
            assert idx.dead_rows <= max(64, idx.n)
            assert idx.coords.shape[0] <= 2 * max(64, idx.n)
        _same_candidates(idx, BucketIndex(small_grid, keep))

    def test_consolidate_rejects_repeated_or_unknown_ids(self, small_grid):
        """A bad id list is refused before anything moves."""
        from repro.core.kernels import get_kernel
        from repro.serve.engine import direct_sum

        idx = BucketIndex(small_grid, merge_segment_cap=None)
        for i in range(2):
            idx.add_segment(i, make_points(small_grid, 25, seed=650 + i).coords)
        q = make_points(small_grid, 30, seed=652).coords
        kern = get_kernel("epanechnikov")
        before = direct_sum(idx, q, kern, 1.0)
        for ids in ([0, 0], [0, "unknown"]):
            with pytest.raises(ValueError, match="distinct registered ids"):
                idx.consolidate_segments(ids)
            assert idx.n == 50 and idx.segment_ids == (0, 1)
            assert idx.dead_rows == 0 and idx.merged_segments == 0
            np.testing.assert_array_equal(direct_sum(idx, q, kern, 1.0), before)

    def test_idle_sync_copies_no_rows(self, small_grid):
        """A sync that retires nothing and merges nothing moves nothing."""
        from repro.core import WorkCounter

        batches = self._batches(small_grid, 6)
        idx = BucketIndex(small_grid)
        sync(idx, list(batches.items()))
        batches.pop(0)
        sync(idx, list(batches.items()))  # leaves 25 dead rows behind
        c = WorkCounter()
        assert sync(idx, list(batches.items()), counter=c) == (0, 0)
        assert c.index_rows_compacted == 0 and idx.rows_compacted == 0
        assert idx.dead_rows == 25

    @pytest.mark.parametrize("size, cap", [(24, None), (5, 64)])
    def test_repack_cost_is_amortised(self, small_grid, size, cap):
        """200 slides of a 12-batch window, no merge firing: a repack
        copies ``n`` rows only after more than ``n`` died, so the rows
        copied never exceed the rows retired."""
        idx = BucketIndex(small_grid, merge_segment_cap=cap)
        live = {}
        for step in range(200):
            live[step] = make_points(small_grid, size, seed=800 + step).coords
            if len(live) > 12:
                live.pop(min(live))
            sync(idx, list(live.items()))
        assert idx.segments_merged == 0
        assert 0 < idx.rows_compacted <= idx.events_retired

    def test_merge_preserves_weights(self, small_grid):
        from repro.serve.engine import direct_sum
        from repro.core.kernels import get_kernel

        rng = np.random.default_rng(620)
        batches = {
            i: make_points(small_grid, 15, seed=630 + i).coords
            for i in range(10)
        }
        idx = BucketIndex(small_grid, merge_segment_cap=4)
        for i, coords in batches.items():
            idx.add_segment(i, coords, weights=np.full(15, 1.0 + i))
        sync(idx, list(batches.items()))  # triggers the merge
        assert idx.merged_segments >= 1
        all_coords = np.vstack(list(batches.values()))
        all_w = np.concatenate([np.full(15, 1.0 + i) for i in batches])
        mono = BucketIndex(small_grid, all_coords, all_w)
        q = make_points(small_grid, 30, seed=640).coords
        kern = get_kernel("epanechnikov")
        np.testing.assert_allclose(
            direct_sum(idx, q, kern, 1.0),
            direct_sum(mono, q, kern, 1.0),
            rtol=1e-12, atol=1e-18,
        )

    def test_merge_cap_validation(self, small_grid):
        with pytest.raises(ValueError, match="merge_segment_cap"):
            BucketIndex(small_grid, merge_segment_cap=1)
        # None disables merging entirely.
        idx = BucketIndex(small_grid, merge_segment_cap=None)
        batches = self._batches(small_grid, 30, size=5, seed0=700)
        sync(idx, list(batches.items()))
        assert idx.segment_count == 30
