"""Sustained-slide soak: the whole O(delta) pipeline under 50+ slides.

The steady-state contract of the slide pipeline, end to end: a live
window fed by tiny batches must (a) keep the estimator's volume exact
against a cold recompute at ``rtol=1e-12`` — slab subtraction and
straddle restamps never drift — (b) keep its index's live segment count
under the default merge cap, and (c) keep the index's dead rows under
the repack bound ``max(64, n)`` after every slide, with bucketing work
O(arriving batch) throughout.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pb_sym import pb_sym
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.core.incremental import IncrementalSTKDE
from repro.core.index import BucketIndex
from repro.core.kernels import get_kernel
from repro.serve import DensityService
from repro.serve.engine import direct_sum
from tests.helpers import sync

N_SLIDES = 55
BATCH = 24
WINDOW_BATCHES = 20  # more live units than the default merge cap (16)


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
    svc = DensityService(inc, backend="direct")
    cap = inc.index.merge_segment_cap
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
        svc.query_points(probe)

        idx = svc.index()
        assert idx is inc.index  # one row store per live window
        # (b) merge policy bounds the live segment count.
        assert idx.segment_count <= cap, (step, idx.segment_count)
        # (c) dead rows within the repack bound, after every slide.
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
    assert inc.units_stamped == inc.units_live
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
    # Storage stayed bounded under 55 slides of churn, and the merge
    # policy did fire.
    assert svc.index().coords.shape[0] <= 2 * max(64, svc.index().n)
    assert svc.index().segments_merged > 0


def test_soak_merge_disabled_still_exact_but_unbounded_segments():
    """Control: an index without the merge policy, fed the same units,
    accumulates one segment per live unit — the probe-cost growth the
    policy exists to stop — while answers stay exact."""
    grid = _grid()
    rng = np.random.default_rng(78)
    inc = IncrementalSTKDE(grid)
    uncapped = BucketIndex(grid, merge_segment_cap=None)
    probe = rng.uniform(
        0, [grid.domain.gx, grid.domain.gy, grid.domain.gt], size=(10, 3)
    )
    for step in range(32):
        horizon = max(
            0.0,
            (step - WINDOW_BATCHES)
            * grid.domain.gt / (N_SLIDES + WINDOW_BATCHES),
        )
        inc.slide_window(_feed(grid, rng, step), t_horizon=horizon)
        sync(uncapped, inc.live_batches)
    assert uncapped.segment_count == inc.units_live
    assert uncapped.segment_count > inc.index.merge_segment_cap
    assert inc.index.segment_count <= inc.index.merge_segment_cap
    kernel = get_kernel("epanechnikov")
    norm = grid.normalization(inc.n)
    np.testing.assert_allclose(
        direct_sum(uncapped, probe, kernel, norm),
        DensityService(inc, backend="direct").query_points(probe),
        rtol=1e-12, atol=1e-18,
    )
