"""The traced run: spans around each layer's public functions.

Every workload's trace run measures **every** layer on that workload's own
inputs (grid, events, stream, query batches): a layer the workload's
end-to-end ops do not touch still has a cost on its data, and a time that
were reported as a constant would say nothing.  README.md lists which
layer metric should move which end-to-end metric on which workload.

Spans are recorded here, around calls into the library's public functions
(:mod:`perfbench.trace`); counts come from the ``WorkCounter`` /
``PhaseTimer`` objects the library already accepts.  All times are
reference-normalised like the end-to-end ones.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    STKDE,
    DensityService,
    IncrementalSTKDE,
    PhaseTimer,
    ShardedDensityService,
    WorkCounter,
)
from repro.analysis.model import CostModel, MachineModel, select_strategy
from repro.core.backends import get_backend
from repro.core.grid import VoxelWindow
from repro.core.kernels import get_kernel
from repro.core.regions import accumulate_voxel_tile, plan_stamp_shards
from repro.core.stamping import stamp_batch
from repro.serve import (
    BucketIndex,
    QueryPlanner,
    approx_sum,
    calibrate_ipc,
    calibrate_serving,
    digest_queries,
    direct_region,
    direct_sum,
    plan_shards,
    sample_volume,
)

from . import oracle
from .clock import Meter, median, normalise, quantile, summarise
from .inputs import Inputs
from .trace import Tracer, self_seconds
from .workloads import (
    EXACT,
    MACHINE_JSON,
    REASSOC,
    WARM_CYCLES,
    WORKLOAD_CLASSES,
    ServeLive,
)

__all__ = ["PER_LAYER_UNITS", "STRATEGIES", "trace_run"]

#: ``analysis.model.selected`` is an index into this list.
STRATEGIES = ["pb-sym-dr", "pb-sym-threads", "pb-sym-dd", "pb-sym-pd",
              "pb-sym-pd-sched", "pb-sym-pd-rep"]

#: Point-batch sizes the planner's choice is audited on.
LADDER = (1, 4, 16, 64, 256)

#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "algorithms.pb_sym.init_ms": "ms",
    "algorithms.pb_sym.compute_ms": "ms",
    "algorithms.pb_sym.madds": "count",
    "algorithms.pb_sym.stamp_cohorts": "count",
    "core.stamping.stamp_batch_ms": "ms",
    "core.stamping.cells_per_s": "1/s",
    "core.backends.ref_mkp_ms": "ms",
    "core.backends.fused_mkp_ms": "ms",
    "core.backends.fused_over_ref": "ratio",
    "core.regions.plan_stamp_shards_ms": "ms",
    "core.regions.buffer_cells": "count",
    "core.regions.tile_ms": "ms",
    "core.incremental.add_ms": "ms",
    "core.incremental.slide_ms": "ms",
    "core.incremental.volume_ms": "ms",
    "core.incremental.cached_buffer_cells": "count",
    "parallel.pd_sched.bin_ms": "ms",
    "parallel.pd_sched.color_ms": "ms",
    "parallel.pd_sched.plan_ms": "ms",
    "parallel.pd_sched.compute_ms": "ms",
    "parallel.threads_p2_ms": "ms",
    "parallel.threads_p2_speedup": "ratio",
    "analysis.model.select_strategy_ms": "ms",
    "analysis.model.selected": "id",
    "analysis.model.pb_sym_residual": "ratio",
    "serve.index.build_ms": "ms",
    "serve.index.candidate_counts_ms": "ms",
    "serve.index.candidates_per_query": "count",
    "serve.index.add_segment_ms": "ms",
    "serve.index.remove_segment_ms": "ms",
    "serve.index.consolidate_ms": "ms",
    "serve.index.segments": "count",
    "serve.engine.direct_sum_ms": "ms",
    "serve.engine.pairs_per_s": "1/s",
    "serve.engine.useful_pair_share": "ratio",
    "serve.engine.sample_volume_ms": "ms",
    "serve.engine.direct_region_ms": "ms",
    "serve.engine.approx_sum_ms": "ms",
    "serve.engine.approx_rows_drawn": "count",
    "serve.engine.approx_rel_err_p95": "ratio",
    "serve.planner.plan_points_us": "us",
    "serve.planner.plan_mix.direct": "count",
    "serve.planner.plan_mix.lookup": "count",
    "serve.planner.auto_regret": "ratio",
    "serve.cache.digest_us": "us",
    "serve.cache.hit_ms": "ms",
    "serve.cache.hit_share": "ratio",
    "serve.service.query_points_self_ms": "ms",
    "serve.service.sync_ms": "ms",
    "serve.service.materialize_ms": "ms",
    "serve.frontend.hop_ms": "ms",
    "serve.frontend.mean_batch_rows": "count",
    "serve.frontend.batches": "count",
    "serve.frontend.deferred": "count",
    "serve.frontend.read_p95_ms": "ms",
    "serve.frontend.mixed_rps": "1/s",
    "serve.shard.partition_ms": "ms",
    "serve.worker.roundtrip_us": "us",
    "serve.worker.query_ms": "ms",
    "serve.worker.messages": "count",
    "serve.worker.rows_shipped": "count",
    "serve.supervisor.spawn_ready_ms": "ms",
    "serve.calibrate.serving_s": "s",
    "serve.calibrate.ipc_s": "s",
    "machine.ref_tick_ms_min": "ms",
    "machine.ref_tick_ms_p50": "ms",
    "machine.slow_share": "ratio",
    "trace.overhead_share": "ratio",
}


@dataclass
class Run:
    """One bracketed, span-recorded call."""

    out: object
    span: dict
    scale: float  # raw seconds * scale = normalised seconds

    @property
    def seconds(self) -> float:
        return Tracer.seconds(self.span) * self.scale


class Probe:
    """What every layer probe needs: the inputs as library objects, the
    meter and tracer, and the op accounting."""

    def __init__(self, inp: Inputs) -> None:
        self.inp = inp
        self.spec = inp.spec
        # One workload object supplies grid, points and oracle helpers.
        self.wl = WORKLOAD_CLASSES[inp.spec.name](inp)
        self.grid, self.dom, self.pts = self.wl.grid, self.wl.dom, self.wl.pts
        self.kernel = get_kernel("epanechnikov")
        self.norm = self.grid.normalization(self.spec.n_events)
        self.machine = MachineModel.load(MACHINE_JSON)
        self.meter = Meter()
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        #: name -> (value, samples behind it)
        self.metrics: Dict[str, tuple] = {}

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (float(value), n)

    def put_ms(self, name: str, runs: List[Run], scale: float = 1e3) -> float:
        """Median normalised duration of ``runs`` (ms unless scaled)."""
        value = median([r.seconds for r in runs]) * scale
        self.put(name, value, len(runs))
        return value

    def runs(self, name: str, fn: Callable[[int], object], repeat: int = 3,
             setup: Optional[Callable[[int], None]] = None,
             parent: Optional[int] = None, keep_last: bool = False,
             **counts) -> List[Run]:
        """``repeat`` bracketed calls ``fn(i)``, one span each.

        ``keep_last`` drops each result before the next call: holding
        several volume-sized results alive makes every further allocation
        touch fresh pages, which this VM serves ~5x slower than recycled
        ones — the end-to-end loop frees its result each cycle too.
        """
        out: List[Run] = []
        for i in range(repeat):
            if keep_last and out:
                out[-1].out = None
            if setup is not None:
                setup(i)
            self.attempted += 1
            before = self.meter.open()
            with self.tracer.span(name, parent=parent, **counts) as span:
                result = fn(i)
            ref = self.meter.close(name, Tracer.seconds(span), before)
            out.append(Run(result, span, normalise(1.0, ref)))
        return out

    def expect(self, got, want, rtol: float) -> None:
        """Count an oracle miss as one failed op."""
        if oracle.mismatches(got, want, rtol):
            self.failed += 1


# ----------------------------------------------------------------------
# Volume side: algorithms, core, parallel, analysis
# ----------------------------------------------------------------------
def volume_layers(c: Probe) -> None:
    s, coords = c.spec, c.inp.events
    vox = c.wl.sample_voxels(coords)
    pick = tuple(vox.T)
    want = c.wl.density(coords, oracle.voxel_centres(vox))

    def estimate(**kwargs):
        est = STKDE(hs=s.hs, ht=s.ht, **kwargs)

        def fn(_i):
            counter, timer = WorkCounter(), PhaseTimer()
            res = est.estimate(c.pts, c.dom, counter=counter, timer=timer)
            return res.data[pick], counter, timer
        return fn

    def phase_ms(name: str, runs: List[Run], phase: str) -> float:
        value = 1e3 * median([r.out[2].seconds[phase] * r.scale for r in runs])
        c.put(name, value, len(runs))
        return value

    sym = c.runs("algorithms.pb_sym.estimate", estimate(algorithm="pb-sym"))
    for r in sym:
        c.expect(r.out[0], want, EXACT)
        c.tracer.record_phases("algorithms.pb_sym", r.span, r.out[2].seconds)
    phase_ms("algorithms.pb_sym.init_ms", sym, "init")
    phase_ms("algorithms.pb_sym.compute_ms", sym, "compute")
    c.put("algorithms.pb_sym.madds", sym[-1].out[1].madds)
    c.put("algorithms.pb_sym.stamp_cohorts", sym[-1].out[1].stamp_cohorts)
    sym_ms = median([r.seconds for r in sym]) * 1e3

    vol = c.grid.allocate()

    def stamp(_i):
        counter = WorkCounter()
        stamp_batch(vol, c.grid, c.kernel, coords, c.norm, counter)
        return counter

    stamps = c.runs("core.stamping.stamp_batch", stamp,
                    setup=lambda _i: vol.fill(0.0))
    c.expect(vol[pick], want, EXACT)
    c.put_ms("core.stamping.stamp_batch_ms", stamps)
    c.put("core.stamping.cells_per_s",
          median([r.out.madds / r.seconds for r in stamps]), len(stamps))
    del vol

    # One (voxel chunk x point block) tile of the workload's own pairs:
    # a 2x2x4 brick of voxels under each sampled event, against 512 events.
    brick = np.array(list(np.ndindex(2, 2, 4)))
    tile = np.unique(np.clip(
        (c.wl.sample_voxels(coords)[:, None, :] + brick[None]).reshape(-1, 3),
        0, np.array(s.shape) - 1), axis=0)
    cx, cy, ct = oracle.voxel_centres(tile).T
    block = coords[:512]
    dx = cx[:, None] - block[None, :, 0]
    dy = cy[:, None] - block[None, :, 1]
    dt = ct[:, None] - block[None, :, 2]
    mkp = {}
    for short, name in (("ref", "numpy-ref"), ("fused", "numpy-fused")):
        backend = get_backend(name)
        mkp[short] = c.put_ms(f"core.backends.{short}_mkp_ms", c.runs(
            f"core.backends.{short}_mkp",
            lambda _i: backend.masked_kernel_product(
                c.grid, c.kernel, dx, dy, dt, WorkCounter()),
            pairs=int(dx.size)))
    c.put("core.backends.fused_over_ref", mkp["fused"] / mkp["ref"])

    plans = c.runs("core.regions.plan_stamp_shards",
                   lambda _i: plan_stamp_shards(c.grid, coords, 2))
    c.put_ms("core.regions.plan_stamp_shards_ms", plans)
    c.put("core.regions.buffer_cells", plans[-1].out.buffer_cells)
    flat = np.zeros(c.grid.n_voxels)
    flat_index = np.ravel_multi_index(tuple(tile.T), s.shape)
    c.put_ms("core.regions.tile_ms", c.runs(
        "core.regions.accumulate_voxel_tile",
        lambda _i: accumulate_voxel_tile(
            flat, flat_index, cx, cy, ct, block[:, 0], block[:, 1],
            block[:, 2], c.grid, c.kernel, c.norm, WorkCounter())))
    del flat

    inc = IncrementalSTKDE(c.grid)
    w = s.window_batches
    c.put_ms("core.incremental.add_ms", c.runs(
        "core.incremental.add", lambda i: inc.add(c.inp.stream_batch(i)),
        repeat=w))
    slides = c.runs(
        "core.incremental.slide_window",
        lambda i: inc.slide_window(c.inp.stream_batch(w + i),
                                   c.inp.window_start(i + 1)))
    c.put_ms("core.incremental.slide_ms", slides)
    volumes = c.runs("core.incremental.volume", lambda _i: inc.volume(),
                     keep_last=True)
    live = c.inp.live_events(len(slides))
    lvox = c.wl.sample_voxels(live)
    c.expect(volumes[-1].out.data[tuple(lvox.T)],
             c.wl.density(live, oracle.voxel_centres(lvox)), EXACT)
    c.put_ms("core.incremental.volume_ms", volumes)
    c.put("core.incremental.cached_buffer_cells", inc.cached_buffer_cells)
    del inc, volumes

    sched = c.runs("parallel.pd_sched.estimate", estimate(
        algorithm="pb-sym-pd-sched", P=4, backend="simulated",
        decomposition=(4, 4, 4)))
    for r in sched:
        c.expect(r.out[0], want, EXACT)
        c.tracer.record_phases("parallel.pd_sched", r.span, r.out[2].seconds)
    plan_ms = (phase_ms("parallel.pd_sched.bin_ms", sched, "bin")
               + phase_ms("parallel.pd_sched.color_ms", sched, "color"))
    c.put("parallel.pd_sched.plan_ms", plan_ms, len(sched))
    phase_ms("parallel.pd_sched.compute_ms", sched, "compute")

    threads = c.runs("parallel.threads_p2.estimate", estimate(
        algorithm="pb-sym", P=2, backend="threads"))
    c.expect(threads[-1].out[0], want, EXACT)
    threads_ms = c.put_ms("parallel.threads_p2_ms", threads)
    c.put("parallel.threads_p2_speedup", sym_ms / threads_ms, len(threads))

    picks = c.runs(
        "analysis.model.select_strategy",
        lambda _i: select_strategy(c.grid, c.pts, 4, machine=c.machine)[0])
    c.put_ms("analysis.model.select_strategy_ms", picks)
    c.put("analysis.model.selected",
          STRATEGIES.index(picks[-1].out.algorithm))
    predicted = CostModel(c.grid, c.pts, c.machine).predict_pb_sym()
    c.put("analysis.model.pb_sym_residual", predicted / (sym_ms / 1e3),
          len(sym))


# ----------------------------------------------------------------------
# Serving side, synchronous: index, engine, planner, cache, service,
# shard/worker/supervisor, calibrate
# ----------------------------------------------------------------------
def serving_layers(c: Probe) -> None:
    s = c.spec
    coords, q = c.inp.events, c.inp.query_batch(0)
    rows = c.wl.rng.choice(len(q), min(len(q), oracle.SAMPLE), replace=False)
    want = c.wl.density(coords, q[rows])
    w = s.window_batches

    builds = c.runs("serve.index.build",
                    lambda _i: BucketIndex(c.grid, coords))
    index = builds[-1].out
    c.put_ms("serve.index.build_ms", builds)
    counts = c.runs("serve.index.candidate_counts",
                    lambda _i: index.candidate_counts(q))
    c.put_ms("serve.index.candidate_counts_ms", counts)
    c.put("serve.index.candidates_per_query", counts[-1].out.mean())

    live_index = BucketIndex(c.grid)
    c.put_ms("serve.index.add_segment_ms", c.runs(
        "serve.index.add_segment",
        lambda i: live_index.add_segment(i, c.inp.stream_batch(i)), repeat=w))
    c.put_ms("serve.index.remove_segment_ms", c.runs(
        "serve.index.remove_segment",
        lambda i: live_index.remove_segment(i), repeat=min(3, w - 2)))
    merge = list(live_index.segment_ids)[:4]
    c.put_ms("serve.index.consolidate_ms", c.runs(
        "serve.index.consolidate_segments",
        lambda _i: live_index.consolidate_segments(merge), repeat=1))
    c.put("serve.index.segments", live_index.segment_count)

    def summed(_i):
        counter = WorkCounter()
        return direct_sum(index, q, c.kernel, c.norm, counter), counter

    sums = c.runs("serve.engine.direct_sum", summed, rows=len(q))
    exact = sums[-1].out[0]
    c.expect(exact[rows], want, EXACT)
    c.put_ms("serve.engine.direct_sum_ms", sums)
    c.put("serve.engine.pairs_per_s",
          median([r.out[1].distance_tests / r.seconds for r in sums]),
          len(sums))
    # Waste ratio: pairs inside the kernel support over pairs gathered.
    c.put("serve.engine.useful_pair_share",
          oracle.in_support(coords, q[rows], s.hs, s.ht).sum()
          / max(1, index.candidate_counts(q[rows]).sum()), len(rows))

    builds = c.runs(
        "serve.service.materialize",
        lambda _i: DensityService(c.pts, c.grid).materialize().data,
        keep_last=True)
    volume = builds[-1].out
    materialize_ms = c.put_ms("serve.service.materialize_ms", builds)
    del builds
    qc = c.inp.centre_batch(0)
    looks = c.runs("serve.engine.sample_volume",
                   lambda _i: sample_volume(volume, c.grid, qc), rows=len(qc))
    c.expect(looks[-1].out[rows], c.wl.density(coords, qc[rows]), EXACT)
    c.put_ms("serve.engine.sample_volume_ms", looks)
    win = VoxelWindow(*c.inp.region_window(0))
    regions = c.runs("serve.engine.direct_region", lambda _i: direct_region(
        c.grid, c.kernel, coords, win, c.norm, WorkCounter()))
    lo = np.array([win.x0, win.y0, win.t0])
    rvox = c.wl.sample_voxels(coords, lo, np.array([win.x1, win.y1, win.t1]))
    c.expect(regions[-1].out.data[tuple((rvox - lo).T)],
             c.wl.density(coords, oracle.voxel_centres(rvox)), EXACT)
    c.put_ms("serve.engine.direct_region_ms", regions)

    # The eps tier on the dense half of the batch (the rows near events).
    dense, truth, eps = q[len(q) // 2:], exact[len(q) // 2:], 0.1

    def sampled(_i):
        counter = WorkCounter()
        out = approx_sum(index, dense, c.kernel, c.norm, counter,
                         eps=eps, seed=c.inp.seed)
        return out, counter

    approx = c.runs("serve.engine.approx_sum", sampled, rows=len(dense))
    rel = (np.abs(approx[-1].out[0] - truth)[truth > 0] / truth[truth > 0])
    if np.mean(rel <= eps) < 0.95:  # the tier's statistical contract
        c.failed += 1
    c.put_ms("serve.engine.approx_sum_ms", approx)
    c.put("serve.engine.approx_rows_drawn",
          approx[-1].out[1].sample_rows_drawn)
    c.put("serve.engine.approx_rel_err_p95", quantile(rel, 0.95), len(rel))

    planner = QueryPlanner(CostModel(c.grid, c.pts, c.machine))
    c.put_ms("serve.planner.plan_points_us", c.runs(
        "serve.planner.plan_points",
        lambda _i: planner.plan_points(index, q, volume_ready=False)), 1e6)
    # Audit the auto plan on a ladder of batch sizes against both pinned
    # plans measured right here (lookup pays the build: no volume yet).
    mix = {"direct": 0, "lookup": 0}
    sizes = [n for n in LADDER if n < len(q)] + [len(q)]
    regret = 0
    for n in sizes:
        plan = planner.plan_points(index, qc[:n], volume_ready=False)
        mix[plan.backend] += 1
        t_direct = median([r.seconds for r in c.runs(
            "serve.planner.pinned_direct",
            lambda _i: direct_sum(index, qc[:n], c.kernel, c.norm), rows=n)])
        t_lookup = materialize_ms / 1e3 + median([r.seconds for r in c.runs(
            "serve.planner.pinned_lookup",
            lambda _i: sample_volume(volume, c.grid, qc[:n]), rows=n)])
        regret += plan.backend != ("direct" if t_direct <= t_lookup
                                   else "lookup")
    c.put("serve.planner.plan_mix.direct", mix["direct"], len(sizes))
    c.put("serve.planner.plan_mix.lookup", mix["lookup"], len(sizes))
    c.put("serve.planner.auto_regret", regret / len(sizes), len(sizes))
    del volume

    c.put_ms("serve.cache.digest_us", c.runs(
        "serve.cache.digest_queries", lambda _i: digest_queries(q)), 1e6)
    static = DensityService(c.pts, c.grid, backend="direct")
    static.query_points(q)
    c.put_ms("serve.cache.hit_ms", c.runs(
        "serve.cache.hit", lambda _i: static.query_points(q)))

    # The service call, then its lower layers replayed on the same batch:
    # what is left is the facade's own time (validation, keys, bookkeeping).
    # On 16-row batches: it is a per-call cost, and under a full batch's
    # kernel time it would drown in that time's own jitter.
    own = []
    for i in range(1, 10):
        qi = c.inp.query_batch(i)[:16]
        call = c.runs("serve.service.query_points",
                      lambda _i: static.query_points(qi), 1, rows=len(qi))[0]
        c.runs("serve.cache.digest_queries", lambda _i: digest_queries(qi), 1,
               parent=call.span["id"])
        c.runs("serve.engine.direct_sum", lambda _i: direct_sum(
            static.index(), qi, c.kernel, c.norm), 1, parent=call.span["id"])
        own.append(self_seconds(c.tracer.spans, call.span) * call.scale)
    c.put("serve.service.query_points_self_ms", 1e3 * median(own), len(own))

    inc = IncrementalSTKDE(c.grid)
    for i in range(w):
        inc.add(c.inp.stream_batch(i))
    live = DensityService(inc, backend="direct")
    live.index()
    # ``volume_ready`` is the cheapest public call that re-syncs the
    # derived state (index segments, cache) after the source moved on.
    c.put_ms("serve.service.sync_ms", c.runs(
        "serve.service.sync", lambda _i: live.volume_ready,
        setup=lambda i: inc.slide_window(c.inp.stream_batch(w + i),
                                         c.inp.window_start(i + 1))))
    del inc, live

    plan = plan_shards(c.grid, coords, 2)
    c.put_ms("serve.shard.partition_ms", c.runs(
        "serve.shard.partition", lambda _i: plan.partition(coords)))
    spawn = c.runs(
        "serve.supervisor.spawn_ready", lambda _i: ShardedDensityService(
            c.pts, c.grid, workers=2, backend="sharded", machine=c.machine),
        repeat=1)
    sharded = spawn[0].out
    try:
        c.put_ms("serve.supervisor.spawn_ready_ms", spawn)
        c.put_ms("serve.worker.roundtrip_us", c.runs(
            "serve.worker.roundtrip", lambda _i: sharded.stats(), 5), 1e6)
        sent = (sharded.counter.shard_messages,
                sharded.counter.shard_rows_shipped)
        scattered = c.runs("serve.worker.query_points",
                           lambda _i: sharded.query_points(q), rows=len(q))
        c.expect(scattered[-1].out, exact, REASSOC)
        c.put_ms("serve.worker.query_ms", scattered)
        c.put("serve.worker.messages", (
            sharded.counter.shard_messages - sent[0]) / len(scattered))
        c.put("serve.worker.rows_shipped", (
            sharded.counter.shard_rows_shipped - sent[1]) / len(scattered))
    finally:
        sharded.close()

    serving = c.runs("serve.calibrate.calibrate_serving",
                     lambda _i: calibrate_serving(), repeat=1)
    c.put_ms("serve.calibrate.serving_s", serving, 1.0)
    c.put_ms("serve.calibrate.ipc_s", c.runs(
        "serve.calibrate.calibrate_ipc",
        lambda _i: calibrate_ipc(serving[0].out), repeat=1), 1.0)


# ----------------------------------------------------------------------
# Serving side, asynchronous: the front end over a live window
# ----------------------------------------------------------------------
async def frontend_layers(c: Probe) -> None:
    live = ServeLive(c.inp)
    await live.open()
    try:
        latencies, mixed_rps = [], []
        for k in range(4):
            pool = c.inp.point_pool(k)
            before = c.meter.open()
            with c.tracer.span("serve.frontend.epoch", rows=len(pool)) as ep:
                lat, ans = await live.epoch(pool, c.tracer)
            ref = c.meter.close("serve.frontend.epoch", Tracer.seconds(ep),
                                before)
            scale = normalise(1.0, ref)
            c.attempted += len(pool)
            c.failed += int(np.isnan(ans).sum())
            c.expect(np.nan_to_num(ans[live.idx]), live.density(
                np.vstack(live.window), pool[live.idx]), EXACT)
            if k:  # epoch 0 warms the stack
                latencies.extend((lat * scale).tolist())
            # Mixed epoch: the same clients while the window slides under
            # them (answers depend on the interleaving: not oracle-checked).
            batch, horizon = live.slide_inputs(k)
            # Other points than the next plain epoch's (x moved one voxel),
            # or that epoch would find its batches in the cache.
            moved = c.inp.point_pool(k + 1)
            moved[:, 0] = (moved[:, 0] + 1.0) % c.spec.shape[0]
            with c.tracer.span("serve.frontend.mixed_epoch") as mx:
                (_, ans), _ = await asyncio.gather(
                    live.epoch(moved), live.fe.slide_window(batch, horizon))
            c.attempted += len(pool)
            c.failed += int(np.isnan(ans).sum())
            mixed_rps.append(len(pool) / (Tracer.seconds(mx) * scale))
        c.put("serve.frontend.read_p95_ms", quantile(latencies, 0.95) * 1e3,
              len(latencies))
        c.put("serve.frontend.mixed_rps", median(mixed_rps), len(mixed_rps))
        stats = live.fe.frontend_stats()
        c.put("serve.frontend.mean_batch_rows", stats["mean_batch_rows"],
              stats["batches"])
        c.put("serve.frontend.batches", stats["batches"])
        c.put("serve.frontend.deferred", stats["deferred"])
        cache = live.svc.cache.stats()
        c.put("serve.cache.hit_share", cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
            cache["hits"] + cache["misses"])

        # One client, one row at a time: through the front end, then the
        # same rows straight into the service.  The difference is the hop.
        rows = c.inp.point_pool(4)[:32]
        before = c.meter.open()
        via_frontend, direct = [], []
        for row in rows.tolist():
            t0 = time.perf_counter()
            await live.fe.query_point(*row)
            via_frontend.append(time.perf_counter() - t0)
            c.tracer.record("serve.frontend.request", t0,
                            t0 + via_frontend[-1],
                            request=c.tracer.new_request())
        live.svc.cache.clear()
        for row in rows:
            t0 = time.perf_counter()
            live.svc.query_points(row[None, :])
            direct.append(time.perf_counter() - t0)
        hop = median(via_frontend) - median(direct)
        ref = c.meter.close("serve.frontend.hop", hop, before)
        c.put("serve.frontend.hop_ms", normalise(hop, ref) * 1e3, len(rows))
    finally:
        await live.close()


def overhead(c: Probe, seconds: float) -> None:
    """Alternate the workload's plain and traced read for ``seconds``: the
    ratio of their medians is what tracing costs."""
    wl = c.wl

    async def go() -> None:
        await wl.open()
        try:
            k, end = 0, time.perf_counter() + seconds
            while k < WARM_CYCLES + 3 or (
                    time.perf_counter() < end and k < wl.max_cycles):
                meter = Meter() if k < WARM_CYCLES else c.meter
                await wl.cycle(k, meter, tracer=c.tracer)
                k += 1
        finally:
            await wl.close()

    asyncio.run(go())
    traced = c.meter.normalised("read.traced")
    c.put("trace.overhead_share",
          median(traced) / median(c.meter.normalised("read")) - 1.0,
          len(traced))
    c.attempted += wl.attempted
    c.failed += wl.failed


def trace_run(inp: Inputs, seconds: float, trace_path: str) -> dict:
    """Everything ``--trace 1`` reports for one workload."""
    c = Probe(inp)
    for step in (
        lambda: overhead(c, 0.4 * seconds),
        lambda: volume_layers(c),
        lambda: serving_layers(c),
        lambda: asyncio.run(frontend_layers(c)),
    ):
        c.attempted += 1
        try:
            step()
        except Exception:  # report the layer as failed, keep the rest
            traceback.print_exc(file=sys.stderr)
            c.failed += 1
    machine = summarise(c.meter.ticks)
    for name, value in machine.items():
        c.put(name, value, len(c.meter.ticks))
    c.tracer.write(trace_path)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name not in c.metrics:  # its layer raised above
            c.failed += 1
        value, n = c.metrics.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit, "n": n}
    return {"metrics": metrics, "machine": machine,
            "attempted": c.attempted, "failed": c.failed}
