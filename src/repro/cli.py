"""Command-line interface: ``stkde`` (or ``python -m repro``).

Subcommands
-----------
``instances``
    Print the Table 2 registry at any scale.
``run``
    Run one algorithm on one instance; print timing, phases, and stats.
``estimate``
    Compute a density volume from a CSV of events and save it.
``render``
    ASCII-render a time slice of a saved volume.
``select``
    Ask the Section 6.5 cost model for the best strategy on an instance.
``query``
    Serve point / slice / region density queries from a CSV of events
    through :class:`repro.serve.DensityService` (direct kernel sums or
    volume lookups, planner-chosen by default).  ``--eps`` attaches a
    per-request error budget that admits the approximate sampling tier;
    ``--workers N`` routes the same queries through the multi-process
    sharded tier; ``--frontend`` serves through the asyncio
    :class:`repro.serve.TrafficFrontend` (micro-batching coalescer,
    priority lanes, cost-priced admission) with every query row its own
    concurrent loopback client — port-free; ``--queries -`` streams
    from stdin.
``serve``
    Multi-process sharded serving
    (:class:`repro.serve.ShardedDensityService`): shard-owning worker
    processes answer scatter/gather query fan-out; ``--stats`` surfaces
    the per-worker gauges.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import algorithms  # noqa: F401  (registers sequential algorithms)
from . import parallel  # noqa: F401  (registers parallel algorithms)
from .algorithms.base import available_algorithms
from .analysis.metrics import phase_breakdown
from .analysis.model import select_strategy
from .core.stkde import STKDE
from .data.datasets import SCALES, get_instance, instance_names, iter_instances
from .data.io import load_points_csv, load_volume, save_volume
from .viz.render import hotspots, render_time_slice

__all__ = ["main"]


def _parse_workers(s: str):
    if s == "auto":
        return s
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError("workers must be an int or 'auto'")
    if n < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return n


def _parse_decomposition(s: str):
    parts = s.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("decomposition must look like 8x8x8")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("decomposition must be integers AxBxC")


def _cmd_instances(args: argparse.Namespace) -> int:
    for inst in iter_instances(args.scale):
        print(inst.describe())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    inst = get_instance(args.instance, args.scale)
    grid = inst.grid()
    est = STKDE(
        hs=grid.hs, ht=grid.ht, kernel=args.kernel, algorithm=args.algorithm,
        P=args.threads, backend=args.backend, decomposition=args.decomposition,
        memory_budget_bytes=inst.memory_budget_bytes if args.memory_budget else None,
    )
    print(f"instance : {inst.describe()}")
    print(f"algorithm: {args.algorithm}  {est.bind(args.algorithm, args.decomposition)}")
    res = est.estimate(inst.points(), grid.domain)
    print(f"elapsed  : {res.elapsed:.4f} s (measured wall)")
    if "makespan" in res.meta:
        print(f"makespan : {res.meta['makespan']:.4f} s (P={res.meta['P']}, {res.meta['backend']})")
    for phase, frac in sorted(phase_breakdown(res).items()):
        print(f"  {phase:10s} {frac:6.1%}")
    print(f"max density: {res.data.max():.4e} at voxel {res.volume.max_voxel()}")
    print(f"total mass : {res.volume.total_mass:.4f}")
    if args.out:
        save_volume(res.volume, args.out)
        print(f"volume written to {args.out}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    pts = load_points_csv(args.points)
    est = STKDE(
        hs=args.hs, ht=args.ht, sres=args.sres, tres=args.tres,
        kernel=args.kernel, algorithm=args.algorithm,
        P=args.threads, backend=args.backend,
    )
    res = est.estimate(pts)
    g = res.volume.grid
    print(f"n={pts.n} grid={g.Gx}x{g.Gy}x{g.Gt} Hs={g.Hs} Ht={g.Ht}")
    print(f"algorithm={res.algorithm} elapsed={res.elapsed:.4f}s")
    save_volume(res.volume, args.out)
    print(f"volume written to {args.out}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    vol = load_volume(args.volume)
    T = args.time if args.time is not None else vol.max_voxel()[2]
    print(render_time_slice(vol, T, width=args.width, height=args.height))
    print("\ntop hotspots:")
    for (X, Y, Tv), val in hotspots(vol, k=5):
        print(f"  voxel ({X:4d},{Y:4d},{Tv:4d})  density {val:.4e}")
    return 0


def _npy_path(out: str) -> str:
    """The path ``np.save`` actually wrote (it appends ``.npy``)."""
    return out if out.endswith(".npy") else out + ".npy"


def _cmd_query(args: argparse.Namespace) -> int:
    from .core.stkde import infer_domain
    from .core.grid import GridSpec
    from .serve import DensityService, ShardedDensityService

    if args.eps is not None and args.queries is None:
        raise SystemExit(
            "--eps applies to --queries only (slice/region extracts "
            "are exact)"
        )
    if getattr(args, "backend", None) == "approx" and args.eps is None:
        raise SystemExit("--backend approx needs an --eps error budget")
    pts = load_points_csv(args.points)
    domain = infer_domain(
        pts, sres=args.sres, tres=args.tres, hs=args.hs, ht=args.ht
    )
    grid = GridSpec(domain, hs=args.hs, ht=args.ht)
    # Machine-model persistence: an explicit --calibration-file (or the
    # REPRO_CALIBRATION env var) loads saved unit costs, or calibrates
    # once and saves them there.  Without either, the service calibrates
    # lazily on first plan, as before.
    import os

    from .serve.calibrate import CALIBRATION_ENV, resolve_machine_model

    machine = None
    calibration = getattr(args, "calibration_file", None)
    if calibration is not None or os.environ.get(CALIBRATION_ENV):
        machine = resolve_machine_model(calibration)
    workers = getattr(args, "workers", None)
    if workers is None and getattr(args, "faults", None) is not None:
        raise SystemExit(
            "--faults injects into shard workers; add --workers N"
        )
    if workers is not None:
        if args.backend not in ("auto", "sharded", "local"):
            raise SystemExit(
                f"--backend {args.backend!r} is a single-process plan; "
                f"with --workers use auto, sharded or local"
            )
        fault_plan = None
        faults = getattr(args, "faults", None)
        if faults is not None:
            from .serve import FaultPlan

            if faults.startswith("@"):
                with open(faults[1:], "r") as fh:
                    faults = fh.read()
            fault_plan = FaultPlan.from_json(faults)
        service = ShardedDensityService(
            pts, grid, workers=workers, kernel=args.kernel,
            backend=args.backend, machine=machine,
            max_restarts=getattr(args, "max_restarts", 3),
            request_timeout=getattr(args, "request_timeout", 30.0),
            on_shard_failure=getattr(args, "on_shard_failure", "raise"),
            fault_plan=fault_plan,
        )
        tier = f"{service.n_shards} shard workers"
    else:
        service = DensityService(
            pts, grid, kernel=args.kernel, backend=args.backend,
            machine=machine,
        )
        tier = "single process"
    print(f"serving n={pts.n}{' (weighted)' if pts.weighted else ''} on "
          f"grid {grid.Gx}x{grid.Gy}x{grid.Gt} "
          f"(backend={args.backend}, {tier})")
    with service:
        if getattr(args, "frontend", False):
            return _run_frontend_ops(args, service, grid)
        return _run_query_ops(args, service, grid)


def _run_query_ops(args: argparse.Namespace, service, grid) -> int:
    import numpy as np

    if args.queries is not None:
        q = load_points_csv(args.queries)
        # Only plan (which calibrates the machine model) when the backend
        # is actually the planner's to choose.
        plans: list = []
        plan_out = plans if args.backend == "auto" else None
        dens = service.query_points(
            q.coords, eps=args.eps, seed=args.seed, plan_out=plan_out
        )
        if plans:
            print(f"plan: {plans[-1].describe()}")
        if args.out:
            np.savetxt(
                args.out,
                np.column_stack([q.coords, dens]),
                delimiter=",", header="x,y,t,density", comments="", fmt="%.17g",
            )
            print(f"{dens.size} densities written to {args.out}")
        else:
            for row, d in zip(q.coords, dens):
                print(f"{row[0]:.6g},{row[1]:.6g},{row[2]:.6g},{d:.6e}")
    elif args.slice is not None:
        res = service.query_slice(args.slice)
        sl = res.time_slice()
        X, Y = np.unravel_index(int(np.argmax(sl)), sl.shape)
        print(f"slice T={args.slice}: backend={res.backend} "
              f"max={sl.max():.4e} at voxel ({X},{Y}) mean={sl.mean():.4e}")
        if args.out:
            np.save(args.out, np.asarray(sl))
            print(f"slice written to {_npy_path(args.out)}")
    elif args.region is not None:
        res = service.query_region(tuple(args.region))
        print(f"region {args.region}: backend={res.backend} "
              f"shape={res.data.shape} max={res.data.max():.4e} "
              f"mass={res.data.sum() * grid.domain.sres**2 * grid.domain.tres:.4e}")
        if args.out:
            np.save(args.out, np.asarray(res.data))
            print(f"region written to {_npy_path(args.out)}")
    else:
        raise SystemExit("one of --queries / --slice / --region is required")
    stats = service.stats()
    if args.stats:
        # Machine-readable serving observability: cache hit/miss ratios,
        # index segment gauges, planner decisions — and, for the sharded
        # tier, the merged cross-process work counters plus the
        # per-worker views — what a load balancer or dashboard scrapes.
        import json

        print(json.dumps(stats, indent=2, default=str))
    else:
        work = stats["work"]
        print(f"stats: backends={stats['backend_calls']} "
              f"cache={stats['cache']} "
              f"messages={work['shard_messages']} "
              f"rows_shipped={work['shard_rows_shipped']}")
    return 0


def _load_query_coords(path: str):
    """Query locations for the frontend demo: a CSV path, or ``-`` to
    stream ``x,y,t`` lines from stdin (the port-free serving loop)."""
    import numpy as np

    if path != "-":
        return load_points_csv(path).coords
    rows = []
    for line in sys.stdin:
        line = line.strip()
        if not line or line[0].isalpha():  # blank / header line
            continue
        rows.append([float(v) for v in line.split(",")[:3]])
    if not rows:
        raise SystemExit("no x,y,t rows on stdin")
    return np.asarray(rows, dtype=np.float64)


def _run_frontend_ops(args: argparse.Namespace, service, grid) -> int:
    """Serve the requested op through the asyncio traffic front end —
    a port-free loopback demo: every query row is its own concurrent
    in-process client, so the coalescer has real co-arriving traffic
    to merge; slices/regions ride the cost-bounded bulk lane."""
    import asyncio
    import json

    import numpy as np

    from .serve import TrafficFrontend

    async def run() -> int:
        fe = TrafficFrontend(service)
        await fe.start()
        try:
            if args.queries is not None:
                coords = _load_query_coords(args.queries)
                parts = await asyncio.gather(*(
                    fe.query_points(
                        coords[i:i + 1], eps=args.eps, seed=args.seed
                    )
                    for i in range(coords.shape[0])
                ))
                dens = np.concatenate(parts)
                if args.out:
                    np.savetxt(
                        args.out,
                        np.column_stack([coords, dens]),
                        delimiter=",", header="x,y,t,density",
                        comments="", fmt="%.17g",
                    )
                    print(f"{dens.size} densities written to {args.out}")
                else:
                    for row, d in zip(coords, dens):
                        print(f"{row[0]:.6g},{row[1]:.6g},{row[2]:.6g},{d:.6e}")
            elif args.slice is not None:
                res = await fe.query_slice(args.slice)
                sl = res.time_slice()
                X, Y = np.unravel_index(int(np.argmax(sl)), sl.shape)
                print(f"slice T={args.slice}: backend={res.backend} "
                      f"max={sl.max():.4e} at voxel ({X},{Y}) "
                      f"mean={sl.mean():.4e}")
                if args.out:
                    np.save(args.out, np.asarray(sl))
                    print(f"slice written to {_npy_path(args.out)}")
            elif args.region is not None:
                res = await fe.query_region(tuple(args.region))
                print(f"region {args.region}: backend={res.backend} "
                      f"shape={res.data.shape} max={res.data.max():.4e} "
                      f"mass={res.data.sum() * grid.domain.sres**2 * grid.domain.tres:.4e}")
                if args.out:
                    np.save(args.out, np.asarray(res.data))
                    print(f"region written to {_npy_path(args.out)}")
            else:
                raise SystemExit(
                    "one of --queries / --slice / --region is required"
                )
            blob = fe.frontend_stats()
            print(f"frontend: {blob['batches']} batches for "
                  f"{blob['coalesced_requests']} coalesced requests "
                  f"(mean {blob['mean_batch_rows']:.1f} rows/batch, "
                  f"p99 {blob['latency']['p99_ms']:.2f} ms, "
                  f"shed {blob['shed']})")
            if args.stats:
                print(json.dumps(await fe.stats(), indent=2, default=str))
        finally:
            await fe.aclose()
        return 0

    return asyncio.run(run())


def _cmd_select(args: argparse.Namespace) -> int:
    inst = get_instance(args.instance, args.scale)
    best, ranked = select_strategy(
        inst.grid(), inst.points(), args.threads,
        memory_budget_bytes=inst.memory_budget_bytes if args.memory_budget else None,
    )
    print(f"instance: {inst.describe()}")
    print(f"model's pick for P={args.threads}:\n  {best.describe()}\n")
    print("full ranking:")
    for p in ranked:
        print(f"  {p.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stkde",
        description="Parallel space-time kernel density estimation "
        "(reproduction of Saule et al., ICPP 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instances", help="list the Table 2 instances")
    p.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p.set_defaults(fn=_cmd_instances)

    p = sub.add_parser("run", help="run an algorithm on an instance")
    p.add_argument("--instance", required=True, choices=instance_names(), metavar="NAME")
    p.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p.add_argument("--algorithm", default="pb-sym", choices=available_algorithms(), metavar="ALGO")
    p.add_argument("--kernel", default="epanechnikov")
    p.add_argument("-P", "--threads", type=int, default=4)
    p.add_argument("--backend", default="simulated", choices=("serial", "threads", "simulated"))
    p.add_argument("--decomposition", type=_parse_decomposition, default=None, metavar="AxBxC")
    p.add_argument("--memory-budget", action="store_true",
                   help="enforce the instance's paper-proportional memory budget")
    p.add_argument("--out", default=None, help="save the volume as .npy")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("estimate", help="estimate density from a CSV of events")
    p.add_argument("--points", required=True)
    p.add_argument("--hs", type=float, required=True)
    p.add_argument("--ht", type=float, required=True)
    p.add_argument("--sres", type=float, default=1.0)
    p.add_argument("--tres", type=float, default=1.0)
    p.add_argument("--kernel", default="epanechnikov")
    p.add_argument("--algorithm", default="auto")
    p.add_argument("-P", "--threads", type=int, default=1)
    p.add_argument("--backend", default="simulated", choices=("serial", "threads", "simulated"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("render", help="ASCII-render a saved volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--time", type=int, default=None, help="voxel time index (default: densest)")
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--height", type=int, default=28)
    p.set_defaults(fn=_cmd_render)

    def add_query_io_args(p):
        p.add_argument("--points", required=True, help="events CSV (x,y,t[,w])")
        p.add_argument("--hs", type=float, required=True)
        p.add_argument("--ht", type=float, required=True)
        p.add_argument("--sres", type=float, default=1.0)
        p.add_argument("--tres", type=float, default=1.0)
        p.add_argument("--kernel", default="epanechnikov")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--queries", default=None,
                           help="CSV of query locations (x,y,t)")
        group.add_argument("--slice", type=int, default=None, metavar="T",
                           help="serve the full spatial slice at voxel time T")
        group.add_argument("--region", type=int, nargs=6, default=None,
                           metavar=("X0", "X1", "Y0", "Y1", "T0", "T1"),
                           help="serve the voxel window [X0:X1)x[Y0:Y1)x[T0:T1)")
        p.add_argument("--out", default=None,
                       help="write densities CSV (--queries) or .npy "
                            "(--slice/--region)")
        p.add_argument("--eps", type=float, default=None, metavar="EPS",
                       help="relative error budget for --queries: admits "
                            "the importance-sampling approximate tier "
                            "where the planner prices it below the exact "
                            "plans (default: serve exactly)")
        p.add_argument("--seed", type=int, default=0,
                       help="sampler seed for --eps (same batch, budget "
                            "and seed is bit-reproducible)")
        p.add_argument("--calibration-file", default=None, metavar="PATH",
                       help="machine-model JSON: load the saved unit "
                            "costs if PATH exists, else calibrate once "
                            "and save them there (the REPRO_CALIBRATION "
                            "env var sets a default path)")
        p.add_argument("--stats", action="store_true",
                       help="print a JSON blob of serving stats (cache "
                            "hit/miss ratios, index segments, planner "
                            "decisions, approximate-tier realised error, "
                            "per-worker gauges; with --frontend also the "
                            "frontend blob: lane depths, batch histogram, "
                            "latency percentiles, shed counts)")
        p.add_argument("--frontend", action="store_true",
                       help="serve through the asyncio traffic front end "
                            "(micro-batching coalescer, priority lanes, "
                            "cost-priced admission): each --queries row "
                            "becomes its own concurrent loopback client, "
                            "port-free; use '--queries -' to stream x,y,t "
                            "lines from stdin")

    def add_fault_args(p):
        p.add_argument("--max-restarts", type=int, default=3, metavar="K",
                       help="per-shard restart budget before the shard is "
                            "declared down (default 3; 0 disables recovery)")
        p.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request deadline on shard replies; a "
                            "wedged worker is declared failed and respawned "
                            "after this long (default 30)")
        p.add_argument("--on-shard-failure", default="raise",
                       choices=("raise", "partial"),
                       help="point-query policy when a shard exhausts its "
                            "restart budget: 'raise' a typed ShardDown, or "
                            "serve 'partial' coverage-tagged results from "
                            "the surviving shards (default raise)")
        p.add_argument("--faults", default=None, metavar="JSON",
                       help="fault-injection plan (JSON list of specs, or "
                            "'@file' to read one) applied to the shard "
                            "workers — the chaos harness; see "
                            "repro.serve.FaultPlan")

    p = sub.add_parser("query", help="serve density queries from a CSV of events")
    add_query_io_args(p)
    p.add_argument("--backend", default="auto",
                   choices=("auto", "direct", "lookup", "approx"))
    p.add_argument("--workers", type=_parse_workers, default=None, metavar="N",
                   help="serve through N shard-owning worker processes "
                        "(multi-process scatter/gather; 'auto' = CPU count)")
    add_fault_args(p)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "serve",
        help="multi-process sharded serving (shard-owning workers, "
             "scatter/gather fan-out)",
    )
    add_query_io_args(p)
    p.add_argument("--backend", default="auto", choices=("auto", "sharded", "local"))
    p.add_argument("--workers", type=_parse_workers, default="auto", metavar="N",
                   help="worker process count = shard count ('auto' = CPU count)")
    add_fault_args(p)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("select", help="cost-model strategy selection (Section 6.5)")
    p.add_argument("--instance", required=True, choices=instance_names(), metavar="NAME")
    p.add_argument("--scale", choices=sorted(SCALES), default="bench")
    p.add_argument("-P", "--threads", type=int, default=4)
    p.add_argument("--memory-budget", action="store_true")
    p.set_defaults(fn=_cmd_select)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
