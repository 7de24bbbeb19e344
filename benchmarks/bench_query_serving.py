"""Benchmark: the query-serving subsystem.

Measures the serving layer's core trades on a clustered instance:

1. **Direct-sum vs volume-lookup crossover**: answering ``m`` point
   queries by index-walk kernel sums (O(candidates) per query, no volume)
   vs materialising the volume once and trilinearly sampling (O(1) per
   query after the build).  Small batches favour direct, large batches
   amortise the build — the planner must land on the right side at both
   ends of the sweep.
2. **Ragged engine**: the direct-sum engine on a *clustered* batch (half
   the rows within a voxel or so of an event) — the shape where almost
   every home cell has its own candidate count, so batching by count
   degenerates.  Reports distinct candidate counts beside the slab
   dispatches actually run (which follow pairs, not cells), gated on
   equivalence with an in-script brute-force sum at rtol=1e-12 and on
   the dispatch count staying at its pair-count bound.
3. **Slide-then-query**: a live sliding window served across
   ``slide_window`` — the estimator's index buckets only the arriving
   batch (O(batch), measured by ``index_events_bucketed``) while a cold
   index buckets all n live events.
4. **Steady-state slides**: 100 tiny-batch slides through one service —
   the default merge policy must hold the live segment count under its
   cap, the dead rows must stay under ``max(64, n)`` after every slide,
   per-slide work must stay O(arriving batch) (bucketing counters +
   slide wall time vs a cold rebuild), and the 50k scattered query batch
   on the merged index must not lose to an uncapped index fed the same
   batches (a fresh single-segment index is timed for reference).
5. **Cache-hit speedup**: a repeated dashboard slice served from the
   version-keyed LRU vs recomputed.
6. **Approximate tier (throughput vs eps)**: the bucket-importance
   sampler vs the exact direct sum on a dense high-candidate batch at
   several error budgets — measuring realised p95 relative error
   against the exact answers (must sit within each requested eps), the
   speedup, and whether the calibrated planner routes the batch to the
   approx backend on its own.

Every cell re-verifies that direct sums match the stamped volume at
queried voxel centers (``rtol=1e-6`` acceptance, measured slack ~1e-12),
and the ragged engine is re-verified against the brute-force sum.

Writes ``BENCH_query.json`` at the repository root (override with
``--out``); ``--results-dir DIR`` additionally writes
``DIR/query_serving.json`` in the shape :mod:`repro.analysis.report`
checks.  ``--smoke`` runs a seconds-scale subset with the same schema.

Run:  ``PYTHONPATH=src python benchmarks/bench_query_serving.py``
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.model import CostModel, MachineModel
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.core.incremental import IncrementalSTKDE
from repro.core.stamping import stamp_batch
from repro.core.kernels import get_kernel
from repro.serve.engine import _QUERY_SLAB_PAIRS as SLAB_PAIRS
from repro.serve import (
    BucketIndex,
    DensityService,
    QueryPlanner,
    ShardedDensityService,
    approx_sum,
    calibrate_serving,
    direct_sum,
    sample_volume,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_query.json"

#: Same paper-flavoured geometry as the other benchmark suites.
GRID_VOXELS = (128, 128, 64)
HS, HT = 3.0, 2.0


def make_grid() -> GridSpec:
    return GridSpec(DomainSpec.from_voxels(*GRID_VOXELS), hs=HS, ht=HT)


def make_coords(grid: GridSpec, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    centers = rng.uniform(0.2 * span, 0.8 * span, size=(5, 3))
    pts = centers[rng.integers(0, 5, size=n)] + rng.normal(0, 0.08, size=(n, 3)) * span
    return np.clip(pts, 0, span * (1 - 1e-9))


def voxel_center_queries(grid, m, seed):
    """Random voxel-center locations and their voxel indices:
    ``(queries (m, 3), vox (m, 3))`` — centers are where direct and
    lookup are both exact."""
    rng = np.random.default_rng(seed)
    vox = np.column_stack([
        rng.integers(0, grid.Gx, m),
        rng.integers(0, grid.Gy, m),
        rng.integers(0, grid.Gt, m),
    ])
    return np.column_stack([
        grid.x_centers()[vox[:, 0]],
        grid.y_centers()[vox[:, 1]],
        grid.t_centers()[vox[:, 2]],
    ]), vox


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def crossover_rows(grid: GridSpec, n: int, query_counts, repeats: int,
                   machine: MachineModel) -> list:
    """Direct-sum vs build+lookup at each batch size, plus planner verdicts."""
    kern = get_kernel("epanechnikov")
    coords = make_coords(grid, n)
    norm = grid.normalization(n)
    index = BucketIndex(grid, coords)
    planner = QueryPlanner(CostModel(grid, PointSet(coords), machine))

    # Reference volume (also the timed build) for equivalence + lookup.
    vol = grid.allocate()
    t0 = time.perf_counter()
    stamp_batch(vol, grid, kern, coords, norm, WorkCounter())
    t_build = time.perf_counter() - t0

    rows = []
    for m in query_counts:
        q, vox = voxel_center_queries(grid, m, seed=m)
        t_direct = best_of(lambda: direct_sum(index, q, kern, norm), repeats)
        t_sample = best_of(lambda: sample_volume(vol, grid, q), repeats)
        dens = direct_sum(index, q, kern, norm)
        ref = vol[vox[:, 0], vox[:, 1], vox[:, 2]]
        equiv = bool(np.allclose(dens, ref, rtol=1e-6, atol=1e-18))
        plan = planner.plan_points(index, q, volume_ready=False)
        t_lookup_cold = t_build + t_sample
        measured_winner = "direct" if t_direct <= t_lookup_cold else "lookup"
        rows.append({
            "path": "crossover",
            "n_events": n,
            "n_queries": m,
            "mean_candidates": float(index.candidate_counts(q).mean()),
            "direct_seconds": t_direct,
            "volume_build_seconds": t_build,
            "lookup_sample_seconds": t_sample,
            "lookup_cold_seconds": t_lookup_cold,
            "measured_winner": measured_winner,
            "planner_choice": plan.backend,
            "planner_agrees": plan.backend == measured_winner,
            "direct_matches_stamp_rtol_1e6": equiv,
        })
        print(
            f"crossover n={n} m={m:>6d}  direct {t_direct:8.4f}s  "
            f"lookup(cold) {t_lookup_cold:8.4f}s (build {t_build:.3f} + "
            f"sample {t_sample:.4f})  winner={measured_winner:6s} "
            f"planner={plan.backend:6s} equiv={equiv}"
        )
    return rows


def clustered_batch(grid: GridSpec, coords: np.ndarray, m: int,
                    seed: int) -> np.ndarray:
    """Half uniform rows, half within a voxel or so of a random event."""
    rng = np.random.default_rng(seed)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    near = m - m // 2
    q = np.vstack([
        rng.uniform(0, span, size=(m // 2, 3)),
        coords[rng.integers(0, len(coords), near)]
        + rng.normal(0.0, 1.0, size=(near, 3)),
    ])
    return np.clip(q, 0, span * (1 - 1e-9))


def brute_force_sum(grid, kern, coords, q, norm):
    """The estimator's definition over every (query, event) pair."""
    out = np.empty(len(q))
    for i, (x, y, t) in enumerate(q):
        dx, dy, dt = x - coords[:, 0], y - coords[:, 1], t - coords[:, 2]
        inside = (dx * dx + dy * dy < grid.hs * grid.hs) & (
            np.abs(dt) <= grid.ht
        )
        out[i] = (
            kern.spatial(dx[inside] / grid.hs, dy[inside] / grid.hs)
            * kern.temporal(dt[inside] / grid.ht)
        ).sum()
    return norm * out


def ragged_row(grid: GridSpec, n: int, m: int, repeats: int) -> dict:
    """The ragged direct-sum engine on a clustered batch.

    No timing gate (smoke scale is noise): the gates are equivalence with
    the brute-force sum on a 256-row sample, and the slab dispatch count
    against its bound — every slab but the last holds more than
    ``slab_pairs - K_max`` pairs, because a query's segment is never
    split and the next query did not fit.
    """
    kern = get_kernel("epanechnikov")
    coords = make_coords(grid, n)
    norm = grid.normalization(n)
    index = BucketIndex(grid, coords)
    q = clustered_batch(grid, coords, m, seed=7)

    counter = WorkCounter()
    out = direct_sum(index, q, kern, norm, counter)
    t_direct = best_of(lambda: direct_sum(index, q, kern, norm), repeats)
    sample = np.random.default_rng(8).choice(m, size=min(m, 256), replace=False)
    equiv = bool(np.allclose(
        out[sample], brute_force_sum(grid, kern, coords, q[sample], norm),
        rtol=1e-12, atol=0.0,
    ))
    K = index.candidate_counts(q)
    pairs = int(K.sum())
    # A query larger than a whole slab is its own dispatch.
    fill = max(SLAB_PAIRS - int(K.max()), 1)
    bound = -(-pairs // fill) + 1
    row = {
        "path": "ragged-engine",
        "n_events": n,
        "n_queries": m,
        "distinct_candidate_counts": int(np.unique(K[K > 0]).size),
        "pairs": pairs,
        "max_candidates": int(K.max()),
        "slab_pairs": SLAB_PAIRS,
        "slab_dispatches": counter.query_cohorts,
        "pairs_over_slab_pairs": -(-pairs // SLAB_PAIRS),
        "slab_dispatch_bound": bound,
        "slab_dispatches_within_bound": counter.query_cohorts <= bound,
        "direct_seconds": t_direct,
        "pairs_per_second": pairs / max(t_direct, 1e-12),
        "brute_force_sample_rows": int(sample.size),
        "ragged_matches_brute_force_rtol_1e12": equiv,
    }
    print(
        f"ragged       n={n} m={m:>6d}  {t_direct:8.4f}s  "
        f"{row['distinct_candidate_counts']} "
        f"distinct K, {pairs} pairs -> {row['slab_dispatches']} slab "
        f"dispatches (pairs/slab {row['pairs_over_slab_pairs']}, bound "
        f"{bound})  equiv={equiv}"
    )
    return row


def slide_row(grid: GridSpec, n: int, n_batches: int, m: int,
              machine: MachineModel) -> dict:
    """Slide-then-query under a live window: O(batch) index upkeep.

    The estimator's index absorbs a ``slide_window`` by retiring the
    expired batch's segment and bucketing only the arriving one; a cold
    service over the same events buckets all of them.  Measures both
    latencies and the bucketed event counts.
    """
    batch = n // n_batches
    kern_name = "epanechnikov"
    inc = IncrementalSTKDE(grid)
    rng = np.random.default_rng(11)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    t_slab = grid.domain.gt / (n_batches + 1)

    def feed(i: int) -> np.ndarray:
        pts = make_coords(grid, batch, seed=40 + i)
        pts[:, 2] = rng.uniform(i * t_slab, (i + 1) * t_slab, size=batch)
        return pts

    for i in range(n_batches):
        inc.add(feed(i))
    svc = DensityService(inc, kernel=kern_name, machine=machine)
    q = rng.uniform(0, span, size=(m, 3))
    svc.query_points(q, backend="direct")  # the first answer
    bucketed_before = svc.counter.index_events_bucketed

    t0 = time.perf_counter()
    retired = inc.slide_window(feed(n_batches), t_horizon=t_slab)
    t_slide = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = svc.query_points(q, backend="direct")
    t_warm_query = time.perf_counter() - t0
    rebucketed = svc.counter.index_events_bucketed - bucketed_before

    # Cold reference: a fresh static service buckets every live event.
    cold_svc = DensityService(
        inc.live_coords, grid, kernel=kern_name, machine=machine
    )
    t0 = time.perf_counter()
    cold = cold_svc.query_points(q, backend="direct")
    t_cold_query = time.perf_counter() - t0
    equiv = bool(np.allclose(warm, cold, rtol=1e-9, atol=1e-18))

    row = {
        "path": "slide-sync",
        "n_live_events": inc.n,
        "batch_size": batch,
        "n_batches": n_batches,
        "n_queries": m,
        "retired": retired,
        "slide_seconds": t_slide,
        "warm_query_seconds": t_warm_query,
        "cold_query_seconds": t_cold_query,
        "events_rebucketed_after_slide": rebucketed,
        "events_rebucketed_cold": cold_svc.counter.index_events_bucketed,
        "sync_obatch": rebucketed <= 1.5 * batch,
        "warm_matches_cold_rtol_1e9": equiv,
        "index_segments": svc.index().segment_count,
    }
    print(
        f"slide-sync   live={inc.n} batch={batch}  warm sync re-bucketed "
        f"{rebucketed} events (cold: {row['events_rebucketed_cold']})  "
        f"slide {t_slide:0.4f}s  query warm {t_warm_query:0.4f}s vs cold "
        f"{t_cold_query:0.4f}s  equiv={equiv}"
    )
    return row


def steady_slides_row(grid: GridSpec, n_slides: int, batch: int,
                      window_batches: int, m_big: int,
                      machine: MachineModel) -> dict:
    """Steady-state serving under sustained tiny-batch slides.

    One service absorbs ``n_slides`` slides of ``batch`` events each
    (window of ``window_batches`` batches, more than the default merge
    cap).  Measures: live segment count (merge policy cap), dead rows vs
    the repack bound ``max(64, n)``, per-slide wall time and bucketing
    work (O(arriving batch) — a cold index buckets the whole window
    instead), and finally a large scattered query batch on the
    merge-capped index vs an *uncapped* standalone index fed the same
    batches — the probe-cost-bounded claim of the merge policy (a fresh
    monolithic index is also timed for reference).  Each batch lies in
    its own t-slab and the horizon steps slab by slab, so batches expire
    whole.
    """
    kern_name = "epanechnikov"
    rng = np.random.default_rng(23)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    t_slab = grid.domain.gt / (n_slides + window_batches)

    def feed(i: int) -> np.ndarray:
        pts = make_coords(grid, batch, seed=900 + i)
        pts[:, 2] = rng.uniform(i * t_slab, (i + 1) * t_slab, size=batch)
        return pts

    inc = IncrementalSTKDE(grid)
    svc = DensityService(inc, kernel=kern_name, machine=machine)
    cap = inc.index.merge_segment_cap
    idx_uncapped = BucketIndex(grid, merge_segment_cap=None)
    probe = rng.uniform(0, span, size=(64, 3))
    slide_times = []
    max_segments = max_dead = max_uncapped = 0
    budget_ok = True
    bucketed0 = svc.counter.index_events_bucketed
    for i in range(n_slides):
        horizon = max(0.0, (i - window_batches) * t_slab)
        arriving = feed(i)
        t0 = time.perf_counter()
        inc.slide_window(arriving, t_horizon=horizon)
        slide_times.append(time.perf_counter() - t0)
        svc.query_points(probe, backend="direct")
        idx_uncapped.add_segment(i, arriving)
        for j in [j for j in idx_uncapped.segment_ids
                  if (j + 1) * t_slab <= horizon]:
            idx_uncapped.remove_segment(j)
        idx = svc.index()
        max_segments = max(max_segments, idx.segment_count)
        max_uncapped = max(max_uncapped, idx_uncapped.segment_count)
        max_dead = max(max_dead, idx.dead_rows)
        budget_ok = budget_ok and idx.dead_rows <= max(64, idx.n)
    bucketed = svc.counter.index_events_bucketed - bucketed0

    # Cold reference: one fresh service buckets the whole live window.
    cold_svc = DensityService(
        inc.live_coords, grid, kernel=kern_name, machine=machine
    )
    t0 = time.perf_counter()
    cold_probe = cold_svc.query_points(probe, backend="direct")
    t_cold = time.perf_counter() - t0
    warm_probe = svc.query_points(probe, backend="direct")
    equiv = bool(np.allclose(warm_probe, cold_probe, rtol=1e-9, atol=1e-18))

    # Probe-cost bound: the capped index vs the uncapped segment pileup
    # on one large scattered batch (fresh monolith for reference).
    q_big = rng.uniform(0, span, size=(m_big, 3))
    kern = get_kernel(kern_name)
    norm = grid.normalization(inc.n)
    idx_merged = svc.index()
    assert idx_uncapped.n == idx_merged.n
    mono = BucketIndex(grid, inc.live_coords)
    t_merged = best_of(lambda: direct_sum(idx_merged, q_big, kern, norm), 2)
    t_uncapped = best_of(
        lambda: direct_sum(idx_uncapped, q_big, kern, norm), 2
    )
    t_mono = best_of(lambda: direct_sum(mono, q_big, kern, norm), 2)
    np.testing.assert_allclose(
        direct_sum(idx_merged, q_big, kern, norm),
        direct_sum(mono, q_big, kern, norm),
        rtol=1e-9, atol=1e-18,
    )

    stats = idx_merged.stats()
    row = {
        "path": "steady-slides",
        "n_slides": n_slides,
        "batch_size": batch,
        "window_batches": window_batches,
        "n_live_events": inc.n,
        "merge_cap": cap,
        "max_live_segments": max_segments,
        "max_uncapped_segments": max_uncapped,
        "segments_bounded_by_cap": max_segments <= cap,
        "max_dead_rows": max_dead,
        "dead_rows_within_budget": budget_ok,
        "events_bucketed_total": bucketed,
        "bucketed_per_slide_obatch": bucketed <= 2 * batch * n_slides,
        "mean_slide_seconds": sum(slide_times) / len(slide_times),
        "max_slide_seconds": max(slide_times),
        "cold_rebuild_seconds": t_cold,
        "segments_merged": stats["segments_merged"],
        "rows_compacted": stats["rows_compacted"],
        "warm_matches_cold_rtol_1e9": equiv,
        "m_big_queries": m_big,
        "merged_cohort_seconds": t_merged,
        "uncapped_cohort_seconds": t_uncapped,
        "fresh_mono_cohort_seconds": t_mono,
        "merged_vs_uncapped_latency_ratio": t_merged / max(t_uncapped, 1e-12),
        "merged_vs_mono_latency_ratio": t_merged / max(t_mono, 1e-12),
    }
    print(
        f"steady       {n_slides} slides x{batch}  segs<= {max_segments} "
        f"(cap {cap}; uncapped {max_uncapped})  dead<= {max_dead}  slide "
        f"mean {row['mean_slide_seconds'] * 1e3:6.2f}ms max "
        f"{row['max_slide_seconds'] * 1e3:6.2f}ms vs cold "
        f"{t_cold * 1e3:6.2f}ms  {m_big} scattered q: merged "
        f"{t_merged:6.3f}s vs uncapped {t_uncapped:6.3f}s vs mono "
        f"{t_mono:6.3f}s"
    )
    return row


def cache_row(grid: GridSpec, n: int, machine: MachineModel) -> dict:
    """A repeated dashboard slice: computed once, then served from LRU."""
    coords = make_coords(grid, n, seed=1)
    svc = DensityService(PointSet(coords), grid, machine=machine)
    T = grid.Gt // 2

    t0 = time.perf_counter()
    svc.query_slice(T)
    t_cold = time.perf_counter() - t0
    t_warm = best_of(lambda: svc.query_slice(T), 3)
    stats = svc.stats()
    row = {
        "path": "cache-hit",
        "n_events": n,
        "slice_T": T,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "cache_hit_speedup": t_cold / max(t_warm, 1e-9),
        "cache_stats": stats["cache"],
    }
    print(
        f"cache-hit    n={n} slice T={T}  cold {t_cold:8.4f}s  warm "
        f"{t_warm * 1e3:8.4f}ms  ({row['cache_hit_speedup']:.0f}x)"
    )
    return row


def cpu_count() -> int:
    """CPUs this process may use (affinity mask when available)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def workers_scaling_row(grid: GridSpec, n: int, m: int, repeats: int,
                        machine: MachineModel, workers: int = 4) -> dict:
    """Sharded scatter/gather vs the single-process direct engine.

    Measured only on a box with at least ``workers`` CPUs — on smaller
    machines the row is *recorded as skipped* (with the CPU count), never
    extrapolated or faked: a 4-worker pool time-slicing one core measures
    scheduler contention, not scaling.
    """
    cpus = cpu_count()
    row = {
        "path": "workers-scaling",
        "n_events": n,
        "n_queries": m,
        "workers": workers,
        "cpu_count": cpus,
    }
    if cpus < workers:
        row.update({
            "skipped": True,
            "reason": (
                f"requires >= {workers} CPUs for an honest scaling "
                f"measurement, have {cpus}"
            ),
        })
        print(f"workers      SKIPPED ({row['reason']})")
        return row
    kern = get_kernel("epanechnikov")
    coords = make_coords(grid, n)
    norm = grid.normalization(n)
    index = BucketIndex(grid, coords)
    rng = np.random.default_rng(5)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    q = rng.uniform(0, span, size=(m, 3))

    ref = direct_sum(index, q, kern, norm)
    t_single = best_of(lambda: direct_sum(index, q, kern, norm), repeats)
    with ShardedDensityService(
        PointSet(coords), grid, workers=workers, machine=machine
    ) as svc:
        got = svc.query_points(q, backend="sharded")
        equiv = bool(np.allclose(got, ref, rtol=1e-12, atol=1e-300))
        t_sharded = best_of(
            lambda: svc.query_points(q, backend="sharded"), repeats
        )
    row.update({
        "skipped": False,
        "single_direct_seconds": t_single,
        "sharded_seconds": t_sharded,
        "workers_speedup": t_single / max(t_sharded, 1e-12),
        "sharded_matches_single_rtol_1e12": equiv,
    })
    print(
        f"workers      n={n} m={m} P={workers}  single {t_single:8.4f}s  "
        f"sharded {t_sharded:8.4f}s  ({row['workers_speedup']:.2f}x, "
        f"equiv={equiv})"
    )
    return row


#: The compute backends compared, the reference first.
BACKEND_NAMES = ("numpy-ref", "numpy-fused")


def compute_backend_rows(grid: GridSpec, n: int, m: int,
                         repeats: int) -> list:
    """One clustered direct-sum row per compute backend.

    Same batch, same index — only the pair-evaluation backend changes,
    so the column measures exactly the seam the planner's per-backend
    unit costs price.  Every row carries an rtol=1e-12 equivalence flag
    against the ``numpy-ref`` answers.
    """
    kern = get_kernel("epanechnikov")
    coords = make_coords(grid, n)
    norm = grid.normalization(n)
    index = BucketIndex(grid, coords)
    q = clustered_batch(grid, coords, m, seed=9)

    ref = direct_sum(index, q, kern, norm, compute="numpy-ref")
    rows = []
    t_ref = None
    for name in BACKEND_NAMES:
        got = direct_sum(index, q, kern, norm, compute=name)  # warm
        t = best_of(lambda: direct_sum(index, q, kern, norm, compute=name),
                    repeats)
        if name == "numpy-ref":
            t_ref = t
        row = {
            "path": "compute-backends",
            "backend": name,
            "skipped": False,
            "n_events": n,
            "n_queries": m,
            "direct_seconds": t,
            "speedup_vs_numpy_ref": (t_ref / t) if t_ref else None,
            "equivalent_rtol_1e12": bool(
                np.allclose(got, ref, rtol=1e-12, atol=1e-18)
            ),
        }
        rows.append(row)
        print(
            f"compute      backend {name:12s} n={n} m={m}  {t:8.4f}s "
            f"({row['speedup_vs_numpy_ref']:5.2f}x vs ref)  "
            f"equiv={row['equivalent_rtol_1e12']}"
        )
    return rows


def approx_tier_rows(n: int, m: int, eps_values, repeats: int,
                     machine: MachineModel) -> list:
    """Throughput-vs-eps sweep: importance sampler vs exact direct sum.

    A dense wide-bandwidth instance (every query's 3x3x3 candidate box
    covers most of the domain) is where exact direct summation pays
    O(n) per query and the sampler's sublinear budget matters.  Each
    eps row measures the exact and approximate wall times on the *same*
    batch, the realised p95 relative error against the exact answers
    (the statistical contract: must sit within the requested eps), seed
    reproducibility, and the calibrated planner's verdict — the planner
    must route the dense batch to the approx backend by itself.
    """
    kern = get_kernel("epanechnikov")
    dgrid = GridSpec(DomainSpec.from_voxels(64, 64, 64), hs=16.0, ht=16.0)
    coords = make_coords(dgrid, n, seed=3)
    norm = dgrid.normalization(n)
    index = BucketIndex(dgrid, coords)
    planner = QueryPlanner(CostModel(dgrid, PointSet(coords), machine))
    rng = np.random.default_rng(17)
    # Central queries: the candidate box reaches (nearly) every event.
    q = rng.uniform(16.0, 48.0, size=(m, 3))

    exact = direct_sum(index, q, kern, norm)
    t_exact = best_of(lambda: direct_sum(index, q, kern, norm), repeats)
    mean_cand = float(index.candidate_counts(q).mean())
    pos = exact > 0

    rows = []
    for eps in eps_values:
        stats = WorkCounter()
        approx = approx_sum(index, q, kern, norm, stats, eps=eps, seed=7)
        again = approx_sum(index, q, kern, norm, eps=eps, seed=7)
        reproducible = bool(np.array_equal(approx, again))
        t_approx = best_of(
            lambda: approx_sum(index, q, kern, norm, eps=eps, seed=7),
            repeats,
        )
        rel = np.abs(approx[pos] - exact[pos]) / exact[pos]
        p95 = float(np.percentile(rel, 95)) if rel.size else 0.0
        plan = planner.plan_points(index, q, volume_ready=False, eps=eps)
        row = {
            "path": "approx-tier",
            "eps": eps,
            "n_events": n,
            "n_queries": m,
            "mean_candidates": mean_cand,
            "exact_direct_seconds": t_exact,
            "approx_seconds": t_approx,
            "approx_speedup": t_exact / max(t_approx, 1e-12),
            "p95_rel_err": p95,
            "rel_err_within_eps": p95 <= eps,
            "sample_rows_drawn": stats.sample_rows_drawn,
            "exact_fallbacks": stats.sample_exact_fallbacks,
            "reproducible_fixed_seed": reproducible,
            "planner_choice": plan.backend,
            "planner_picks_approx": plan.backend == "approx",
        }
        rows.append(row)
        print(
            f"approx-tier  n={n} m={m} eps={eps:<5g} exact {t_exact:8.4f}s  "
            f"approx {t_approx:8.4f}s ({row['approx_speedup']:6.2f}x)  "
            f"p95 rel err {p95:.4f}  planner={plan.backend:6s} "
            f"repro={reproducible}"
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale subset (n=20k events), for CI")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="output JSON path (default: repo-root BENCH_query.json)")
    ap.add_argument("--results-dir", type=Path, default=None,
                    help="also write query_serving.json here for the "
                         "analysis.report shape checks")
    args = ap.parse_args(argv)

    grid = make_grid()
    if args.smoke:
        n, query_counts, repeats = 20_000, (10, 100_000), 1
        batch_m, slide_batches, slide_m = 20_000, 4, 2_000
        steady_slides, steady_batch, steady_window, steady_m = 40, 250, 24, 5_000
        approx_n, approx_m = 60_000, 400
    else:
        n, query_counts, repeats = (
            100_000, (10, 100, 1_000, 10_000, 50_000, 200_000), 2
        )
        batch_m, slide_batches, slide_m = 50_000, 10, 10_000
        steady_slides, steady_batch, steady_window, steady_m = (
            100, 1_000, 32, 50_000
        )
        approx_n, approx_m = 200_000, 2_000
    approx_eps = (0.3, 0.1, 0.05)

    machine = calibrate_serving()
    rows = crossover_rows(grid, n, query_counts, repeats, machine)
    smallest, largest = rows[0], rows[-1]
    ragged = ragged_row(grid, n, batch_m, repeats)
    rows.append(ragged)
    slide = slide_row(grid, n, slide_batches, slide_m, machine)
    rows.append(slide)
    steady = steady_slides_row(
        grid, steady_slides, steady_batch, steady_window, steady_m, machine
    )
    rows.append(steady)
    cache = cache_row(grid, n, machine)
    rows.append(cache)
    workers = workers_scaling_row(grid, n, batch_m, repeats, machine)
    rows.append(workers)
    approx = approx_tier_rows(approx_n, approx_m, approx_eps, repeats, machine)
    rows.extend(approx)
    approx_01 = next(r for r in approx if r["eps"] == 0.1)
    backend_rows = compute_backend_rows(grid, n, batch_m, repeats)
    rows.extend(backend_rows)

    acceptance = {
        "case": f"clustered n={n}, grid {'x'.join(map(str, GRID_VOXELS))}",
        "direct_sum_matches_stamp_rtol_1e6": all(
            r["direct_matches_stamp_rtol_1e6"]
            for r in rows if r["path"] == "crossover"
        ),
        "direct_wins_smallest_batch": smallest["measured_winner"] == "direct",
        "lookup_wins_largest_batch": largest["measured_winner"] == "lookup",
        "planner_picks_direct_for_few": smallest["planner_choice"] == "direct",
        "planner_picks_lookup_for_many": largest["planner_choice"] == "lookup",
        "ragged_matches_brute_force_rtol_1e12":
            ragged["ragged_matches_brute_force_rtol_1e12"],
        "ragged_distinct_candidate_counts":
            ragged["distinct_candidate_counts"],
        "ragged_slab_dispatches": ragged["slab_dispatches"],
        "ragged_slab_dispatches_within_bound":
            ragged["slab_dispatches_within_bound"],
        "ragged_pairs_per_second": ragged["pairs_per_second"],
        "index_sync_rebucketed_events": slide["events_rebucketed_after_slide"],
        "index_sync_obatch": slide["sync_obatch"],
        "slide_warm_matches_cold": slide["warm_matches_cold_rtol_1e9"],
        "steady_max_live_segments": steady["max_live_segments"],
        "steady_segments_bounded_by_cap": steady["segments_bounded_by_cap"],
        "steady_dead_rows_within_budget": steady["dead_rows_within_budget"],
        "steady_bucketed_obatch": steady["bucketed_per_slide_obatch"],
        "steady_warm_matches_cold": steady["warm_matches_cold_rtol_1e9"],
        "steady_merged_vs_uncapped_latency_ratio": steady[
            "merged_vs_uncapped_latency_ratio"
        ],
        # The merge policy must bound probe cost: the capped index never
        # loses to the uncapped segment pileup on the big scattered batch.
        "steady_merge_bounds_probe_cost": steady[
            "merged_vs_uncapped_latency_ratio"
        ] <= 1.1,
        "cache_hit_speedup": cache["cache_hit_speedup"],
        "cache_hit_faster": cache["cache_hit_speedup"] > 2.0,
        # Workers-scaling is measured only on a >= 4-core box; on smaller
        # machines the row records the CPU count and a skip reason, and
        # the acceptance values stay None (skipped, never faked).
        "workers_scaling_cpu_count": workers["cpu_count"],
        "workers_scaling_skipped": workers["skipped"],
        "workers_speedup_at_4": (
            None if workers["skipped"] else workers["workers_speedup"]
        ),
        "workers_speedup_ge_1_8x": (
            None if workers["skipped"]
            else workers["workers_speedup"] >= 1.8
        ),
        "sharded_matches_single_rtol_1e12": (
            None if workers["skipped"]
            else workers["sharded_matches_single_rtol_1e12"]
        ),
        # Approximate tier: the statistical contract holds at every
        # budget (measured p95 relative error within the requested eps),
        # the sampler is measured — not extrapolated — to beat the exact
        # direct sum on the dense batch at eps=0.1, and the calibrated
        # planner routes that batch to the approx backend on its own.
        "approx_rel_err_within_eps_all": all(
            r["rel_err_within_eps"] for r in approx
        ),
        "approx_reproducible_fixed_seed": all(
            r["reproducible_fixed_seed"] for r in approx
        ),
        "approx_p95_rel_err_at_eps_0_1": approx_01["p95_rel_err"],
        "approx_speedup_at_eps_0_1": approx_01["approx_speedup"],
        "approx_beats_direct_at_eps_0_1": approx_01["approx_speedup"] > 1.0,
        "approx_planner_picks_approx_at_eps_0_1":
            approx_01["planner_picks_approx"],
        # Per-backend direct-sum columns on the same clustered batch;
        # every backend must agree with numpy-ref at rtol=1e-12.
        "compute_backends_measured": [r["backend"] for r in backend_rows],
        "compute_backends_equivalent_rtol_1e12": all(
            r["equivalent_rtol_1e12"] for r in backend_rows
        ),
    }
    payload = {
        "benchmark": "query_serving",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": args.smoke,
        "config": {
            "grid_voxels": list(GRID_VOXELS),
            "hs": HS,
            "ht": HT,
            "n_events": n,
            "query_counts": list(query_counts),
            "batch_queries": batch_m,
            "slide_batches": slide_batches,
            "kernel": "epanechnikov",
            "cpu_count": cpu_count(),
            "approx_n_events": approx_n,
            "approx_queries": approx_m,
            "approx_eps_values": list(approx_eps),
            "approx_grid_voxels": [64, 64, 64],
            "approx_hs_ht": 16.0,
        },
        "note": (
            "crossover = answering m voxel-center point queries by direct "
            "kernel sums over the bucket index vs materialising the volume "
            "once (build) and trilinearly sampling it; lookup_cold = build "
            "+ sample, the planner's cold-volume comparison.  "
            "ragged-engine = the direct-sum engine on one clustered batch "
            "(half the rows beside events): distinct candidate counts vs "
            "slab dispatches run, checked against a brute-force sum.  "
            "slide-sync = a slide_window absorbed by the estimator's own "
            "per-unit index (bucketed events ~ batch) vs a cold "
            "rebuild (~ n).  steady-slides = sustained tiny-batch slides "
            "through one service: the default merge policy caps the live "
            "segments, dead rows stay under max(64, n) after every slide "
            "(one amortised repack), per-slide bucketing stays O(arriving "
            "batch), and the capped index's big scattered batch never loses "
            "to an uncapped index fed the same batches.  cache-hit = a repeated dashboard "
            "slice served from the version-keyed LRU vs its first "
            "computation.  workers-scaling = 4 shard-owning worker "
            "processes answering one scattered batch by scatter/gather "
            "vs the single-process direct engine; measured only with "
            ">= 4 CPUs, recorded as skipped (with cpu_count) otherwise.  "
            "approx-tier = the bucket-importance sampler vs the exact "
            "direct sum on a dense wide-bandwidth batch (every query's "
            "candidate box covers most events) at several error budgets: "
            "realised p95 relative error vs the exact answers must sit "
            "within each requested eps, the speedup is measured on the "
            "same batch, and the calibrated planner must pick the approx "
            "backend for the dense batch unprompted."
        ),
        "results": rows,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if args.results_dir is not None:
        args.results_dir.mkdir(parents=True, exist_ok=True)
        mirror = args.results_dir / "query_serving.json"
        mirror.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
        print(f"wrote {mirror}")
    print(f"acceptance: {json.dumps(acceptance, indent=2)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
