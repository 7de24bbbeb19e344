"""Benchmark: MTTR and availability of the self-healing sharded tier.

Measures the :class:`repro.serve.ShardSupervisor` recovery contract on a
live sharded service:

1. **MTTR vs state size**: kill one shard worker at several live-state
   sizes and time the supervised recovery (respawn + replay of the
   horizon-truncated mutation log).  Each row records the measured wall
   time and the replayed rows/batches — acceptance: every recovered shard
   answers queries identically to a cold single-process rebuild at
   ``rtol=1e-12``.
2. **Throughput through a fault**: a closed query loop with a worker
   killed mid-stream.  Records steady-state qps before the fault, the
   latency of the query that absorbs the recovery (the availability
   dip), and qps after — acceptance: post-recovery throughput within 2x
   of the pre-fault rate and exactly one restart consumed.
3. **Degraded coverage**: with the restart budget exhausted
   (``max_restarts=0``) a dead shard stays down; ``on_shard_failure=
   "partial"`` reads return coverage-tagged :class:`PartialResult`
   lower bounds — acceptance: coverage lands in ``(0, 1)`` and the
   ``degraded_queries`` gauge moves.

Every number is measured in-process — the workers really die
(``os._exit``) and the supervisor really replays.

Writes ``BENCH_faults.json`` at the repository root (override with
``--out``); ``--results-dir DIR`` additionally writes ``DIR/faults
.json`` in the shape :mod:`repro.analysis.report` checks.  ``--smoke``
runs a seconds-scale subset with the same schema.

Run:  ``PYTHONPATH=src python benchmarks/bench_faults.py``
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.model import MachineModel
from repro.core import DomainSpec, GridSpec
from repro.core.incremental import IncrementalSTKDE
from repro.serve import (
    DensityService,
    PartialResult,
    ShardedDensityService,
    calibrate_ipc,
    calibrate_serving,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

GRID_VOXELS = (48, 40, 32)
HS, HT = 3.0, 2.0
RTOL = 1e-12


def make_grid() -> GridSpec:
    return GridSpec(DomainSpec.from_voxels(*GRID_VOXELS), hs=HS, ht=HT)


def span_of(grid: GridSpec) -> np.ndarray:
    d = grid.domain
    return np.array([d.gx, d.gy, d.gt])


def make_batches(grid: GridSpec, n: int, seed: int = 0):
    """The live feed: a few add batches plus one window slide, so the
    replay log holds a realistic op mix (not one monolithic batch)."""
    rng = np.random.default_rng(seed)
    span = span_of(grid)
    per = max(1, n // 4)
    adds = [rng.uniform(0, span, size=(per, 3)) for _ in range(3)]
    arriving = rng.uniform(0, span, size=(n - 3 * per, 3))
    arriving[:, 2] = grid.domain.t0 + grid.domain.gt * 0.85
    horizon = grid.domain.t0 + 0.1 * grid.domain.gt
    return adds, arriving, horizon


def feed(target, adds, arriving, horizon) -> None:
    for batch in adds:
        target.add(batch)
    target.slide_window(arriving, horizon)


def build_service(grid, adds, arriving, horizon, machine, **kw):
    svc = ShardedDensityService(
        None, grid, workers=2, machine=machine,
        restart_backoff_s=0.0, **kw,
    )
    feed(svc, adds, arriving, horizon)
    return svc


def cold_reference(grid, adds, arriving, horizon, machine) -> DensityService:
    inc = IncrementalSTKDE(grid)
    feed(inc, adds, arriving, horizon)
    return DensityService(inc, machine=machine)


def kill_worker(svc, s: int) -> None:
    """Make worker ``s`` die the way a segfault looks: os._exit, no reply."""
    svc._workers[s].send_op("crash")
    svc._workers[s]._proc.join(10.0)


# ----------------------------------------------------------------------
# Path 1: MTTR vs state size
# ----------------------------------------------------------------------
def mttr_row(grid, n, machine, queries, seed) -> dict:
    adds, arriving, horizon = make_batches(grid, n, seed)
    ref = cold_reference(grid, adds, arriving, horizon, machine)
    want = ref.query_points(queries, backend="direct")
    with build_service(grid, adds, arriving, horizon, machine) as svc:
        log = svc._sup.logs[1]
        state_rows, state_batches = log.n, len(log)
        kill_worker(svc, 1)
        t0 = time.perf_counter()
        svc._sup.recover(1)
        mttr = time.perf_counter() - t0
        got = svc.query_points(queries)
        matches = bool(np.allclose(got, want, rtol=RTOL, atol=1e-300))
        restarts = svc.counter.shard_restarts
        replayed = svc.counter.shard_replayed_batches
    return {
        "path": "mttr",
        "n_events": n,
        "state_rows": state_rows,
        "state_batches": state_batches,
        "mttr_seconds": mttr,
        "shard_restarts": restarts,
        "shard_replayed_batches": replayed,
        "post_recovery_matches_cold_rtol_1e12": matches,
        "measured": True,
    }


# ----------------------------------------------------------------------
# Path 2: throughput through a fault
# ----------------------------------------------------------------------
def throughput_row(grid, n, machine, seed, *, probes, batch_rows) -> dict:
    adds, arriving, horizon = make_batches(grid, n, seed)
    rng = np.random.default_rng(seed + 1)
    span = span_of(grid)
    qs = rng.uniform(0, span, size=(batch_rows, 3))

    def clock(svc, k):
        lat = []
        for _ in range(k):
            t0 = time.perf_counter()
            svc.query_points(qs, backend="sharded")
            lat.append(time.perf_counter() - t0)
        return np.array(lat)

    with build_service(grid, adds, arriving, horizon, machine) as svc:
        clock(svc, 2)  # warm the pipes before the timed window
        before = clock(svc, probes)
        kill_worker(svc, 1)
        t0 = time.perf_counter()
        svc.query_points(qs, backend="sharded")  # absorbs the recovery
        recovery_query = time.perf_counter() - t0
        after = clock(svc, probes)
        restarts = svc.counter.shard_restarts
        retried = svc.counter.requests_retried
    qps_before = probes / before.sum()
    qps_after = probes / after.sum()
    return {
        "path": "recovery-throughput",
        "n_events": n,
        "probe_queries": probes,
        "batch_rows": batch_rows,
        "qps_before": qps_before,
        "qps_after": qps_after,
        "recovery_query_seconds": recovery_query,
        "dip_vs_median_query": recovery_query / float(np.median(before)),
        "qps_after_within_2x": bool(qps_after >= 0.5 * qps_before),
        "shard_restarts": restarts,
        "requests_retried": retried,
        "measured": True,
    }


# ----------------------------------------------------------------------
# Path 3: degraded coverage with the budget exhausted
# ----------------------------------------------------------------------
def degraded_row(grid, n, machine, seed) -> dict:
    adds, arriving, horizon = make_batches(grid, n, seed)
    rng = np.random.default_rng(seed + 2)
    queries = rng.uniform(0, span_of(grid), size=(64, 3))
    with build_service(
        grid, adds, arriving, horizon, machine,
        max_restarts=0, on_shard_failure="partial",
    ) as svc:
        kill_worker(svc, 1)
        out = svc.query_points(queries, backend="sharded")
        degraded = isinstance(out, PartialResult)
        coverage = float(out.coverage) if degraded else 1.0
        failed = list(out.failed_shards) if degraded else []
        gauge = svc.counter.degraded_queries
        down = svc._sup.down_shards()
    return {
        "path": "degraded",
        "n_events": n,
        "queries": queries.shape[0],
        "returned_partial": degraded,
        "coverage": coverage,
        "failed_shards": failed,
        "down_shards": down,
        "degraded_queries_gauge": gauge,
        "measured": True,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale subset, for CI")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="output JSON path (default: repo-root "
                         "BENCH_faults.json)")
    ap.add_argument("--results-dir", type=Path, default=None,
                    help="also write faults.json here for the "
                         "analysis.report shape checks")
    args = ap.parse_args(argv)

    grid = make_grid()
    sizes = [1_000, 4_000] if args.smoke else [2_000, 10_000, 40_000]
    probes = 5 if args.smoke else 15

    print("calibrating serving machine (query + ipc probes) ...")
    base = MachineModel.nominal() if args.smoke else MachineModel.calibrate()
    machine = calibrate_ipc(calibrate_serving(base))
    print(f"  c_msg={machine.c_msg:.2e}s  c_qser={machine.c_qser:.2e}s")

    rng = np.random.default_rng(99)
    queries = rng.uniform(0, span_of(grid), size=(80, 3))

    rows = []
    print("mttr vs state size ...")
    for i, n in enumerate(sizes):
        row = mttr_row(grid, n, machine, queries, seed=10 + i)
        rows.append(row)
        print(
            f"  n={n:>6}: mttr {row['mttr_seconds'] * 1e3:7.1f} ms, "
            f"{row['state_rows']} rows / {row['state_batches']} batches "
            f"replayed, matches cold rebuild: "
            f"{row['post_recovery_matches_cold_rtol_1e12']}"
        )

    print("throughput through a fault ...")
    tput = throughput_row(
        grid, sizes[-1], machine, seed=33, probes=probes, batch_rows=64
    )
    rows.append(tput)
    print(
        f"  qps {tput['qps_before']:.1f} -> recovery query "
        f"{tput['recovery_query_seconds'] * 1e3:.1f} ms "
        f"({tput['dip_vs_median_query']:.1f}x a median query) "
        f"-> qps {tput['qps_after']:.1f}"
    )

    print("degraded coverage with budget exhausted ...")
    deg = degraded_row(grid, sizes[0], machine, seed=55)
    rows.append(deg)
    print(
        f"  partial={deg['returned_partial']} "
        f"coverage={deg['coverage']:.3f} "
        f"failed_shards={deg['failed_shards']}"
    )

    mttr_rows = [r for r in rows if r["path"] == "mttr"]
    acceptance = {
        "case": f"live 2-shard service, grid "
                f"{'x'.join(map(str, GRID_VOXELS))}",
        "post_recovery_matches_cold_rtol_1e12": all(
            r["post_recovery_matches_cold_rtol_1e12"] for r in mttr_rows
        ),
        "mttr_measured_at_every_size": all(
            r["mttr_seconds"] > 0 for r in mttr_rows
        ),
        "restart_counters_recorded": all(
            r["shard_restarts"] >= 1 for r in mttr_rows
        ),
        "throughput_recovers_within_2x": tput["qps_after_within_2x"],
        "exactly_one_restart_in_throughput_run":
            tput["shard_restarts"] == 1,
        "degraded_coverage_in_unit_interval":
            deg["returned_partial"] and 0.0 < deg["coverage"] < 1.0,
        "degraded_gauge_moves": deg["degraded_queries_gauge"] > 0,
    }
    payload = {
        "benchmark": "fault_tolerance",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": args.smoke,
        "config": {
            "grid_voxels": list(GRID_VOXELS),
            "hs": HS,
            "ht": HT,
            "state_sizes": sizes,
            "workers": 2,
            "probe_queries": probes,
            "kernel": "epanechnikov",
        },
        "note": (
            "mttr = wall time of one supervised recovery (respawn + "
            "replay of the horizon-truncated mutation log) after a "
            "worker os._exit mid-serving; the recovered shard must "
            "answer identically to a "
            "cold single-process rebuild at rtol=1e-12.  "
            "recovery-throughput = closed query loop with a mid-stream "
            "kill: steady qps before, the latency of the query that "
            "absorbs the recovery (the availability dip), qps after.  "
            "degraded = restart budget exhausted, on_shard_failure="
            "'partial': coverage-tagged PartialResult lower bounds from "
            "the surviving shards."
        ),
        "results": rows,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if args.results_dir is not None:
        args.results_dir.mkdir(parents=True, exist_ok=True)
        mirror = args.results_dir / "faults.json"
        mirror.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
        print(f"wrote {mirror}")
    print(f"acceptance: {json.dumps(acceptance, indent=2)}")
    return int(not all(acceptance[k] for k in acceptance if k != "case"))


if __name__ == "__main__":
    raise SystemExit(main())
