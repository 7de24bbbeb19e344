"""Benchmark: the unified region-accumulation engine.

Measures the write paths the engine unified:

1. **Bbox-sharded threads** (``pb_sym(..., P=THREADS_P, backend="threads")``)
   against serial PB-SYM — wall time *and* peak shard-buffer bytes vs
   the ``P`` full private volumes the pre-regions path allocated.  The
   acceptance gate requires the bbox buffers to come in strictly below
   ``P`` full volumes on the clustered ``n=1e5`` instance.
2. **Incremental sliding windows**: one `slide_window` on a warm
   region-cached estimator, timed to its read (``slide_window`` +
   ``volume()``: the slide itself is bookkeeping, the read stamps what
   it left pending) vs recomputing the window from scratch with
   sequential PB-SYM.
3. **Slide pipeline (t-slabbed retirement)**: sustained slides cutting
   through a clustered ``n=1e5`` window, each timed and counted **to
   its read** — t-slab caches (drop expired slabs + restamp one
   straddle) vs the restamp-survivors
   baseline (``t_slab_voxels=None``), sweeping slab thickness.  The
   acceptance gate requires >= 3x fewer kernel evaluations
   (WorkCounter) and less wall time, with every config equivalent to a
   cold recompute at ``rtol=1e-12`` — asserted in the bench itself.
4. **VB voxel tiles** through the engine vs the retained legacy tile loop
   (small instance — VB is Theta(voxels * points)).

Every cell verifies density equivalence (``rtol=1e-12`` unless noted).

Writes ``BENCH_regions.json`` at the repository root (override with
``--out``); ``--results-dir DIR`` additionally writes
``DIR/region_engine.json`` in the shape :mod:`repro.analysis.report`
checks.  ``--smoke`` runs a seconds-scale subset with the same schema.

Run:  ``PYTHONPATH=src python benchmarks/bench_region_engine.py``
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.pb_sym import pb_sym
from repro.algorithms.vb import accumulate_tile_legacy, vb
from repro.core import DomainSpec, GridSpec, PointSet, WorkCounter
from repro.core.grid import flat_view
from repro.core.incremental import IncrementalSTKDE
from repro.core.kernels import get_kernel
from repro.core.regions import auto_slab_voxels, plan_stamp_shards

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_regions.json"

#: Same paper-flavoured geometry as BENCH_stamping.json: 245-cell stamps.
GRID_VOXELS = (128, 128, 64)
HS, HT = 3.0, 2.0
THREADS_P = 4


def make_grid() -> GridSpec:
    return GridSpec(DomainSpec.from_voxels(*GRID_VOXELS), hs=HS, ht=HT)


def make_coords(grid: GridSpec, n: int, dataset: str, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    if dataset == "uniform":
        return rng.uniform(0, span, size=(n, 3))
    centers = rng.uniform(0.2 * span, 0.8 * span, size=(5, 3))
    pts = centers[rng.integers(0, 5, size=n)] + rng.normal(0, 0.08, size=(n, 3)) * span
    return np.clip(pts, 0, span * (1 - 1e-9))


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def threads_cell(grid: GridSpec, dataset: str, n: int, repeats: int) -> dict:
    """Bbox-sharded threads vs serial PB-SYM, plus the memory comparison.

    Both sides are whole ``pb_sym`` runs, so both time their own volume's
    zeroing."""
    pts = PointSet(make_coords(grid, n, dataset))
    runs = {}

    def serial() -> None:
        runs["serial"] = pb_sym(pts, grid)

    def threads() -> None:
        runs["threads"] = pb_sym(pts, grid, P=THREADS_P, backend="threads")

    serial()  # warm the engine code path
    t_serial = best_of(serial, repeats)
    t_threads = best_of(threads, repeats)
    vol_serial, vol_threads = runs["serial"].data, runs["threads"].data
    counters = runs["threads"].counter
    plan = plan_stamp_shards(grid, pts.coords, THREADS_P)
    full_bytes = THREADS_P * grid.grid_bytes
    row = {
        "path": "threads-bbox",
        "dataset": dataset,
        "n": n,
        "P": THREADS_P,
        "serial_engine_seconds": t_serial,
        "threads_seconds": t_threads,
        # All shard buffers are live together between stamp and reduce, so
        # the plan's total is the peak.
        "peak_shard_buffer_bytes": plan.buffer_bytes,
        "full_private_volumes_bytes": full_bytes,
        "buffer_reduction_factor": full_bytes / max(plan.buffer_bytes, 1),
        "shard_bbox_cells": counters.shard_bbox_cells,
        "stamp_batches": counters.stamp_batches,
        "equivalent_rtol_1e12": bool(
            np.allclose(vol_threads, vol_serial, rtol=1e-12, atol=1e-18)
        ),
    }
    print(
        f"threads-bbox {dataset:10s} n={n:>7d}  serial {t_serial:7.3f}s  "
        f"threads P={THREADS_P} {t_threads:7.3f}s  buffers "
        f"{plan.buffer_bytes / 1e6:8.2f} MB vs {full_bytes / 1e6:8.2f} MB "
        f"({row['buffer_reduction_factor']:5.2f}x smaller)  "
        f"equiv={row['equivalent_rtol_1e12']}"
    )
    return row


def incremental_cell(grid: GridSpec, n: int) -> dict:
    """One window slide on a region-cached estimator vs batch recompute.

    The unit is slide-to-read: the window is read once before the clock
    starts (its buffers are warm), then ``slide_window`` + ``volume()``
    are timed together — the arriving batch is stamped by that read."""
    kern_name = "epanechnikov"
    rng = np.random.default_rng(7)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    n_day = max(1, n // 8)

    def day_batch(lo: float, hi: float) -> np.ndarray:
        pts = rng.uniform(0, span, size=(n_day, 3))
        pts[:, 2] = rng.uniform(lo, hi, size=n_day)
        return pts

    day_len = float(span[2]) / 8.0
    inc = IncrementalSTKDE(grid, kernel=kern_name)
    batches = []
    for day in range(6):
        b = day_batch(day * day_len, (day + 1) * day_len)
        batches.append(b)
        inc.add(b)
    fresh = day_batch(6 * day_len, 7 * day_len)
    inc.volume()

    t0 = time.perf_counter()
    inc.slide_window(fresh, t_horizon=2 * day_len)
    slid = inc.volume()
    t_slide = time.perf_counter() - t0

    live = np.vstack([b[b[:, 2] >= 2 * day_len] for b in batches] + [fresh])


    t0 = time.perf_counter()
    batch_res = pb_sym(PointSet(live), grid, kernel=kern_name)
    t_batch = time.perf_counter() - t0

    equiv = bool(
        np.allclose(slid.data, batch_res.data, rtol=1e-9, atol=1e-14)
    )
    row = {
        "path": "incremental-slide",
        "dataset": "uniform-days",
        "n": int(6 * n_day + n_day),
        "slide_seconds": t_slide,
        "batch_recompute_seconds": t_batch,
        "slide_speedup_vs_recompute": t_batch / max(t_slide, 1e-12),
        "cached_buffer_cells": inc.cached_buffer_cells,
        "shard_bbox_cells": inc.counter.shard_bbox_cells,
        "equivalent_rtol_1e9": equiv,
    }
    print(
        f"incremental  n={row['n']:>7d}  slide {t_slide:7.3f}s  recompute "
        f"{t_batch:7.3f}s ({row['slide_speedup_vs_recompute']:5.2f}x)  "
        f"equiv={equiv}"
    )
    return row


def slide_pipeline_cells(grid: GridSpec, n: int, n_slides: int) -> list:
    """Sustained slides cutting through one clustered window.

    One big batch spans most of the t-domain (the backfill / dense-feed
    shape whose partial retirement is the expensive case); every slide
    feeds a small fresh batch and advances the horizon *through* the big
    batch.  The window lives in one xy quadrant of the grid: the
    estimator slabs a batch only while its slab boxes together fit in
    half the grid, and the overlapping slab boxes of a domain-wide
    clustered batch total ~1.5 grids (it would stay one whole unit and
    every config would measure the baseline).  The restamp-survivors baseline (``t_slab_voxels=None``)
    re-tabulates kernels for every survivor per slide; the t-slab configs
    drop expired slabs and restamp only the straddle.

    **The unit is slide-to-read**: ``slide_window`` is bookkeeping and
    the survivors it re-planned are stamped by the next ``volume()``, so
    each slide is timed and its kernel evaluations counted from the
    ``slide_window`` call to the end of the ``volume()`` that follows
    (``slides_seconds`` therefore includes composing the volume, the
    same pass in every config).  Kernel
    evaluations are deterministic (WorkCounter), wall time measured, and
    every config's final volume is pinned against a cold PB-SYM recompute
    of the live window at rtol=1e-12 in this very function.
    """

    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])

    def quadrant(n_pts: int, seed: int) -> np.ndarray:
        pts = make_coords(grid, n_pts, "clustered", seed=seed)
        pts[:, :2] *= 0.5
        return pts

    big = quadrant(n, 17)
    big[:, 2] = np.random.default_rng(18).uniform(0, 0.6 * span[2], size=n)
    n_feed = max(1, n // 20)

    def feed(k: int) -> np.ndarray:
        pts = quadrant(n_feed, 60 + k)
        lo = (0.62 + 0.05 * k) * span[2]
        pts[:, 2] = np.random.default_rng(80 + k).uniform(
            lo, min(lo + 0.05 * span[2], span[2] * (1 - 1e-9)), size=n_feed
        )
        return pts

    horizons = [(k + 1) * 0.55 * span[2] / (n_slides + 1)
                for k in range(n_slides)]

    rows = []
    for label, slab_voxels in (
        ("restamp-survivors", None),
        ("slabs-auto", "auto"),
        ("slabs-thin", 5),
        ("slabs-thick", 20),
    ):
        counter = WorkCounter()
        inc = IncrementalSTKDE(
            grid, counter=counter, t_slab_voxels=slab_voxels,
        )
        inc.add(big)
        inc.volume()  # warm: the big batch's stamp is nobody's slide
        # Retirement cost in isolation: the horizon advance is timed to
        # its read on its own (empty feed), then the arriving batch —
        # identical work in every config — is added and stamped by a
        # read off the clock.
        retired = 0
        t_slides = 0.0
        slide_evals = 0
        empty = np.empty((0, 3))
        for k in range(n_slides):
            evals0 = counter.spatial_evals + counter.temporal_evals
            t0 = time.perf_counter()
            retired += inc.slide_window(empty, t_horizon=horizons[k])
            inc.volume()
            t_slides += time.perf_counter() - t0
            slide_evals += (
                counter.spatial_evals + counter.temporal_evals - evals0
            )
            inc.add(feed(k))
            inc.volume()

        live = np.vstack(
            [big[big[:, 2] >= horizons[-1]]] + [feed(k) for k in range(n_slides)]
        )
        cold = pb_sym(PointSet(live), grid, kernel="epanechnikov")
        equiv = bool(np.allclose(
            inc.volume().data, cold.data, rtol=1e-12, atol=1e-15
        ))
        assert equiv, f"slide pipeline diverged from cold recompute ({label})"
        rows.append({
            "path": "slide-pipeline",
            "config": label,
            "t_slab_voxels": slab_voxels if slab_voxels != "auto" else
                             auto_slab_voxels(grid),
            "dataset": "clustered-window",
            "n": n,
            "feed_batch": n_feed,
            "n_slides": n_slides,
            "retired": retired,
            "slides_seconds": t_slides,
            "slide_kernel_evals": slide_evals,
            "slab_buffers_retired": counter.slab_buffers_retired,
            "slab_restamp_points": counter.slab_restamp_points,
            "cached_buffer_cells": inc.cached_buffer_cells,
            "equivalent_rtol_1e12": equiv,
        })
        print(
            f"slide-pipe   {label:18s} n={n:>7d}  {n_slides} slides "
            f"{t_slides:7.3f}s  kernel evals {slide_evals:>12d}  restamped "
            f"{counter.slab_restamp_points:>7d} pts  equiv={equiv}"
        )
    base = rows[0]
    for r in rows[1:]:
        r["kernel_eval_reduction_vs_restamp"] = (
            base["slide_kernel_evals"] / max(r["slide_kernel_evals"], 1)
        )
        r["speedup_vs_restamp"] = (
            base["slides_seconds"] / max(r["slides_seconds"], 1e-12)
        )
    return rows


def vb_tile_cell(n: int) -> dict:
    """VB through the engine tile path vs the retained legacy tile loop."""
    grid = GridSpec(DomainSpec.from_voxels(32, 32, 16), hs=2.5, ht=2.0)
    kern = get_kernel("epanechnikov")
    pts = PointSet(make_coords(grid, n, "clustered", seed=3))
    norm = grid.normalization(pts.n)

    res = vb(pts, grid)
    t_engine = res.timer.seconds["compute"]
    tiles = res.counter.tile_batches

    vol_legacy = grid.allocate()
    flat = flat_view(vol_legacy)
    t0 = time.perf_counter()
    for start in range(0, flat.size, 2048):
        idx = np.arange(start, min(start + 2048, flat.size))
        X, Y, T = grid.voxels_at(idx)
        cx = grid.domain.x0 + (X + 0.5) * grid.domain.sres
        cy = grid.domain.y0 + (Y + 0.5) * grid.domain.sres
        ct = grid.domain.t0 + (T + 0.5) * grid.domain.tres
        for pstart in range(0, pts.n, 512):
            sl = slice(pstart, min(pstart + 512, pts.n))
            accumulate_tile_legacy(
                flat, idx, cx, cy, ct,
                pts.xs[sl], pts.ys[sl], pts.ts[sl],
                grid, kern, norm, WorkCounter(),
            )
    t_legacy = time.perf_counter() - t0

    row = {
        "path": "vb-tiles",
        "dataset": "clustered",
        "n": n,
        "grid_voxels": list(grid.shape),
        "engine_seconds": t_engine,
        "legacy_tile_loop_seconds": t_legacy,
        "tile_batches": tiles,
        "equivalent_rtol_1e12": bool(
            np.allclose(res.data, vol_legacy, rtol=1e-12, atol=1e-18)
        ),
    }
    print(
        f"vb-tiles     n={n:>7d}  legacy {t_legacy:7.3f}s  engine "
        f"{t_engine:7.3f}s  tiles={tiles}  equiv={row['equivalent_rtol_1e12']}"
    )
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale subset (n=1000 only), for CI")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="output JSON path (default: repo-root BENCH_regions.json)")
    ap.add_argument("--results-dir", type=Path, default=None,
                    help="also write region_engine.json here for the "
                         "analysis.report shape checks")
    args = ap.parse_args(argv)

    grid = make_grid()
    sizes = [1_000] if args.smoke else [1_000, 10_000, 100_000]
    rows = []
    for dataset in ("clustered", "uniform"):
        for n in sizes:
            repeats = 1 if n >= 100_000 else 2
            rows.append(threads_cell(grid, dataset, n, repeats))
    rows.append(incremental_cell(grid, sizes[-1]))
    rows.extend(
        slide_pipeline_cells(
            grid,
            5_000 if args.smoke else 100_000,
            n_slides=3 if args.smoke else 6,
        )
    )
    rows.append(vb_tile_cell(500 if args.smoke else 2_000))

    key = [
        r for r in rows
        if r["path"] == "threads-bbox"
        and r["dataset"] == "clustered"
        and r["n"] == sizes[-1]
    ][0]
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    )
    slab_auto = [
        r for r in rows
        if r["path"] == "slide-pipeline" and r["config"] == "slabs-auto"
    ][0]
    acceptance = {
        "case": f"clustered n={sizes[-1]}, P={THREADS_P}",
        "peak_shard_buffer_bytes": key["peak_shard_buffer_bytes"],
        "full_private_volumes_bytes": key["full_private_volumes_bytes"],
        "bbox_buffers_strictly_below_full_volumes": (
            key["peak_shard_buffer_bytes"] < key["full_private_volumes_bytes"]
        ),
        "buffer_reduction_factor": key["buffer_reduction_factor"],
        "threads_scaling_measurable": cpus > 1,
        "slab_kernel_eval_reduction": slab_auto[
            "kernel_eval_reduction_vs_restamp"
        ],
        "slab_kernel_evals_ge_3x_fewer": (
            slab_auto["kernel_eval_reduction_vs_restamp"] >= 3.0
        ),
        "slab_slide_speedup": slab_auto["speedup_vs_restamp"],
        "slab_slides_faster_than_restamp": (
            slab_auto["speedup_vs_restamp"] > 1.0
        ),
        "densities_equivalent_rtol_1e12": all(
            r.get("equivalent_rtol_1e12", r.get("equivalent_rtol_1e9", False))
            for r in rows
        ),
    }
    payload = {
        "benchmark": "region_engine",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": args.smoke,
        "config": {
            "grid_voxels": list(GRID_VOXELS),
            "hs": HS,
            "ht": HT,
            "threads_P": THREADS_P,
            "cpus_available": cpus,
            "kernel": "epanechnikov",
        },
        "note": (
            "threads-bbox = pb_sym(P, backend='threads') with bounding-box "
            "shard buffers (peak bytes = all P buffers live between stamp and "
            "reduce) vs the P full private volumes of the pre-regions "
            "path; incremental-slide = slide_window on a region-cached "
            "IncrementalSTKDE vs sequential PB-SYM recompute of the live "
            "window; vb-tiles = VB via the shared tile engine vs the "
            "retained legacy tile loop.  On a single-CPU container the "
            "threads rows measure overhead, not scaling."
        ),
        "results": rows,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if args.results_dir is not None:
        args.results_dir.mkdir(parents=True, exist_ok=True)
        mirror = args.results_dir / "region_engine.json"
        mirror.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
        print(f"wrote {mirror}")
    print(f"acceptance: {json.dumps(acceptance, indent=2)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
