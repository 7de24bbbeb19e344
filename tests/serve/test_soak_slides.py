"""Sustained-slide soak: the whole O(delta) pipeline under 50+ slides.

The steady-state contract of the slide pipeline, end to end: a live
window fed by tiny batches must (a) keep the estimator's volume exact
against a cold recompute at ``rtol=1e-12`` — slab subtraction and
straddle restamps never drift — (b) keep the serving index's live
segment count under the merge cap, and (c) keep the index's dead rows
under the repack bound ``max(64, n)`` after every sync, with bucketing
work O(arriving batch) throughout.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pb_sym import pb_sym
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.core.incremental import IncrementalSTKDE
from repro.serve import DensityService


N_SLIDES = 55
BATCH = 24
WINDOW_BATCHES = 12
MERGE_CAP = 6


def _grid():
    return GridSpec(DomainSpec.from_voxels(24, 24, 40), hs=2.5, ht=2.0)


def _feed(grid, rng, step, n=BATCH):
    """One tiny arriving batch in its own t-slab (the sliding-feed shape)."""
    t_lo = step * grid.domain.gt / (N_SLIDES + WINDOW_BATCHES)
    t_hi = (step + 1) * grid.domain.gt / (N_SLIDES + WINDOW_BATCHES)
    return np.column_stack([
        rng.uniform(0, grid.domain.gx, n),
        rng.uniform(0, grid.domain.gy, n),
        rng.uniform(t_lo, t_hi, n),
    ])


def test_soak_50_plus_tiny_batch_slides():
    grid = _grid()
    rng = np.random.default_rng(77)
    counter = WorkCounter()
    inc = IncrementalSTKDE(grid, counter=counter)
    svc = DensityService(inc, backend="direct", index_merge_cap=MERGE_CAP)
    window: list = []
    probe = rng.uniform(
        0, [grid.domain.gx, grid.domain.gy, grid.domain.gt], size=(40, 3)
    )

    for step in range(N_SLIDES):
        batch = _feed(grid, rng, step)
        horizon = (
            (step - WINDOW_BATCHES)
            * grid.domain.gt / (N_SLIDES + WINDOW_BATCHES)
        )
        horizon = max(0.0, horizon)
        bucketed_before = svc.counter.index_events_bucketed
        inc.slide_window(batch, t_horizon=horizon)
        window = [b[b[:, 2] >= horizon] for b in window]
        window.append(batch)
        svc.query_points(probe)  # forces the index sync every slide

        idx = svc.index()
        # (b) merge policy bounds the live segment count.
        assert idx.segment_count <= MERGE_CAP, (step, idx.segment_count)
        # (c) dead rows within the repack bound, post-sync.
        assert idx.dead_rows <= max(64, idx.n), (step, idx.dead_rows)
        # O(delta): this slide bucketed ~the arriving batch (plus any
        # straddle-slab survivors the estimator re-minted), never the
        # whole live window.
        delta = svc.counter.index_events_bucketed - bucketed_before
        assert delta <= 2 * BATCH, (step, delta)

    # (a) exactness after 55 slides: rtol=1e-12 against a cold recompute.
    live = np.vstack([b for b in window if len(b)])
    assert inc.n == len(live)
    expect = pb_sym(PointSet(live), grid)
    np.testing.assert_allclose(
        inc.volume().data, expect.data, rtol=1e-12, atol=1e-15
    )

    # Bit-exact warm-vs-cold (carried since PR 2, closed by the canonical
    # cache composition): a cold estimator re-fed the warm window's live
    # units — one add per unit, slabbing disabled so each re-stamps whole
    # — serves the *identical* volume, to the last bit, after 55 slides.
    assert all(tb.buffer is not None for tb in inc._live)
    cold_inc = IncrementalSTKDE(grid, t_slab_voxels=None)
    for _, coords in inc.live_batches:
        cold_inc.add(coords)
    np.testing.assert_array_equal(
        inc.volume().data, cold_inc.volume().data
    )

    # The serving answers ride the same contract: warm merged index vs a
    # cold service over the same estimator state.
    cold = DensityService(inc, backend="direct")
    np.testing.assert_allclose(
        svc.query_points(probe), cold.query_points(probe),
        rtol=1e-12, atol=1e-18,
    )

    # Retirement ran through the slab caches, not survivor restamps: a
    # t-stratified feed never restamps more than a straddle's worth.
    assert counter.slab_buffers_retired > 0
    assert counter.slab_restamp_points <= N_SLIDES * BATCH
    # Storage stayed bounded under 55 slides of churn.
    assert svc.index().coords.shape[0] <= 2 * max(64, svc.index().n)


def test_soak_merge_disabled_still_exact_but_unbounded_segments():
    """Control: without the merge policy the same soak accumulates one
    segment per live batch — the probe-cost growth the policy exists to
    stop — while answers stay exact."""
    grid = _grid()
    rng = np.random.default_rng(78)
    inc = IncrementalSTKDE(grid)
    svc = DensityService(inc, backend="direct", index_merge_cap=None)
    probe = rng.uniform(
        0, [grid.domain.gx, grid.domain.gy, grid.domain.gt], size=(10, 3)
    )
    for step in range(24):
        horizon = max(
            0.0,
            (step - WINDOW_BATCHES)
            * grid.domain.gt / (N_SLIDES + WINDOW_BATCHES),
        )
        inc.slide_window(_feed(grid, rng, step), t_horizon=horizon)
        svc.query_points(probe)
    assert svc.index().segment_count > MERGE_CAP
    cold = DensityService(inc, backend="direct")
    np.testing.assert_allclose(
        svc.query_points(probe), cold.query_points(probe),
        rtol=1e-12, atol=1e-18,
    )
