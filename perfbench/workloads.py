"""The four workloads: what each one's read, alt and update ops are.

Every op is one bracketed sample (:class:`~perfbench.clock.Meter`) followed
by an untimed oracle check of :data:`~perfbench.oracle.SAMPLE` rows or
voxels.  An op that raises, is shed, or misses the oracle counts as failed.
A workload runs warm-up cycles, then timed cycles — one read, one alt and
one update each — until its time is up.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import os
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from repro import (
    STKDE,
    DensityService,
    DomainSpec,
    GridSpec,
    IncrementalSTKDE,
    PhaseTimer,
    PointSet,
    ShardedDensityService,
    WorkCounter,
)
from repro.analysis.model import MachineModel
from repro.serve import TrafficFrontend

from . import oracle
from .clock import Meter, median
from .inputs import Inputs
from .trace import Tracer

__all__ = ["Workload", "WORKLOAD_CLASSES", "MACHINE_JSON", "E2E_UNITS"]

#: The pinned machine model every ``"auto"`` plan is priced with.
MACHINE_JSON = os.path.join(os.path.dirname(__file__), "machine.json")

WARM_CYCLES = 2
EXACT = 1e-9       # exact paths against the oracle
REASSOC = 1e-12    # sharded against single-process: pure re-association

E2E_UNITS = {
    "setup_s": "s", "read_p50_ms": "ms", "alt_p50_ms": "ms",
    "update_p50_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB",
}


class Workload:
    """Shared run loop, op accounting and result assembly."""

    def __init__(self, inp: Inputs) -> None:
        self.inp = inp
        s = inp.spec
        self.dom = DomainSpec.from_voxels(*s.shape)
        self.grid = GridSpec(self.dom, hs=s.hs, ht=s.ht)
        self.pts = PointSet(inp.events)
        self.rng = np.random.default_rng([inp.seed, 2])
        self.attempted = 0
        self.failed = 0
        #: Stream batches currently inside the live window.
        self.window: List[np.ndarray] = [
            inp.stream_batch(i) for i in range(s.window_batches)
        ]

    # -- what a workload defines ----------------------------------------
    @property
    def units_per_read(self) -> int:
        raise NotImplementedError

    @property
    def max_cycles(self) -> int:
        """Every cycle slides the live window once, and the window must
        stay on the grid."""
        return self.inp.spec.max_slides

    def first_answer(self):
        """Cold path from constructed inputs to the first read answer."""
        raise NotImplementedError

    def check_first(self, answer) -> int:
        """Oracle misses in :meth:`first_answer`'s result."""
        raise NotImplementedError

    async def open(self) -> None:
        """Build the state the timed cycles run against."""

    async def cycle(self, k: int, meter: Meter,
                    tracer: Optional[Tracer] = None) -> None:
        """One read, one alt, one update; window ``k`` -> ``k + 1``.

        With a ``tracer`` the read runs a second time, traced, on the same
        inputs (sample ``read.traced``): the trace run compares the two.
        """
        raise NotImplementedError

    async def close(self) -> None:
        """Release what :meth:`open` built."""

    # -- helpers ------------------------------------------------------------
    def density(self, events: np.ndarray, rows: np.ndarray) -> np.ndarray:
        s = self.inp.spec
        return oracle.kernel_sum(events, rows, s.hs, s.ht)

    def sample_voxels(self, events: np.ndarray, lo=None, hi=None) -> np.ndarray:
        """Voxels to check: three quarters under events, the rest anywhere
        in ``[lo, hi)`` (so empty space is checked too)."""
        lo = np.zeros(3, dtype=np.int64) if lo is None else np.asarray(lo)
        hi = np.array(self.inp.spec.shape) if hi is None else np.asarray(hi)
        n_any = oracle.SAMPLE // 4
        under = np.floor(
            events[self.rng.integers(0, len(events), oracle.SAMPLE - n_any)]
        ).astype(np.int64)
        anywhere = self.rng.integers(lo, hi, (n_any, 3))
        return np.clip(np.vstack([under, anywhere]), lo, hi - 1)

    def slide_inputs(self, k: int):
        """Arriving batch and horizon of slide ``k`` -> ``k + 1``; the
        oracle's window moves with it."""
        s = self.inp.spec
        batch = self.inp.stream_batch(s.window_batches + k)
        self.window = self.window[1:] + [batch]
        return batch, self.inp.window_start(k + 1)

    async def sample(self, meter: Meter, name: str, fn, check):
        """One timed op.  ``fn`` may return an awaitable; ``check(out)``
        returns the number of oracle misses."""
        self.attempted += 1
        try:
            before = meter.open()
            t0 = time.perf_counter()
            out = fn()
            if inspect.isawaitable(out):
                out = await out
            raw = time.perf_counter() - t0
            meter.close(name, raw, before)
            if check(out):
                self.failed += 1
            return out
        except Exception:  # the run must go on and report the failure
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    # -- run loop -----------------------------------------------------------
    def run(self, meter: Meter, seconds: float) -> None:
        asyncio.run(self._run(meter, seconds))

    async def _run(self, meter: Meter, seconds: float) -> None:
        await self.open()
        gc.disable()
        try:
            for k in range(WARM_CYCLES):
                await self.cycle(k, Meter())
            k, end = WARM_CYCLES, time.perf_counter() + seconds
            while k < self.max_cycles and time.perf_counter() < end:
                await self.cycle(k, meter)
                gc.collect()
                k += 1
        finally:
            gc.enable()
            await self.close()

    # -- results ------------------------------------------------------------
    def read_seconds(self, meter: Meter) -> Dict[str, List[float]]:
        """Per-read latencies, normalised and raw."""
        return {"norm": meter.normalised("read"), "raw": meter.raw("read")}

    def results(self, meter: Meter) -> Dict[str, dict]:
        """The run's end-to-end metrics except ``setup_s``."""
        def stat(name, norm, raw, scale=1.0):
            return {"value": median(norm) * scale, "unit": E2E_UNITS[name],
                    "n": len(norm), "raw": median(raw) * scale}

        reads = self.read_seconds(meter)
        out = {"read_p50_ms": stat("read_p50_ms", reads["norm"], reads["raw"],
                                   1e3)}
        for op in ("alt", "update"):
            name = f"{op}_p50_ms"
            out[name] = stat(name, meter.normalised(op), meter.raw(op), 1e3)
        u = self.units_per_read
        out["throughput_per_s"] = stat(
            "throughput_per_s", [u / s for s in meter.normalised("read")],
            [u / s for s in meter.raw("read")],
        )
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = stat("peak_rss_mb", [rss], [rss])
        return out


class Volume(Workload):
    """Whole-volume estimation; ``volume_dense`` and ``volume_sparse``
    differ only in their sizes.  Throughput counts events."""

    def __init__(self, inp: Inputs) -> None:
        super().__init__(inp)
        s = inp.spec
        self.read_est = STKDE(hs=s.hs, ht=s.ht, algorithm="pb-sym")
        # The paper's best parallel strategy, its total work on one thread.
        self.alt_est = STKDE(
            hs=s.hs, ht=s.ht, algorithm="pb-sym-pd-sched", P=4,
            backend="simulated", decomposition=(4, 4, 4),
        )

    @property
    def units_per_read(self) -> int:
        return self.inp.spec.n_events

    def first_answer(self):
        return self.read_est.estimate(self.pts, self.dom).data

    def check_first(self, data) -> int:
        vox = self.sample_voxels(self.inp.events)
        want = self.density(self.inp.events, oracle.voxel_centres(vox))
        return oracle.mismatches(data[tuple(vox.T)], want, EXACT)

    async def open(self) -> None:
        vox = self.sample_voxels(self.inp.events)
        self.pick = tuple(vox.T)
        self.want = self.density(self.inp.events, oracle.voxel_centres(vox))
        self.inc = IncrementalSTKDE(self.grid)
        for batch in self.window:
            self.inc.add(batch)

    def traced_read(self, tracer: Tracer):
        """The read with the library's own instruments switched on."""
        counter, timer = WorkCounter(), PhaseTimer()
        with tracer.span("algorithms.pb_sym.estimate") as span:
            result = self.read_est.estimate(
                self.pts, self.dom, counter=counter, timer=timer
            )
        span["counts"].update(madds=counter.madds,
                              stamp_cohorts=counter.stamp_cohorts)
        tracer.record_phases("algorithms.pb_sym", span, timer.seconds)
        return result

    async def cycle(self, k: int, meter: Meter,
                    tracer: Optional[Tracer] = None) -> None:
        def matches(result) -> int:
            return oracle.mismatches(result.data[self.pick], self.want, EXACT)

        await self.sample(
            meter, "read",
            lambda: self.read_est.estimate(self.pts, self.dom), matches,
        )
        if tracer is not None:
            await self.sample(
                meter, "read.traced", lambda: self.traced_read(tracer), matches
            )
        await self.sample(
            meter, "alt",
            lambda: self.alt_est.estimate(self.pts, self.dom), matches,
        )
        batch, horizon = self.slide_inputs(k)

        def update():
            self.inc.slide_window(batch, horizon)
            return self.inc.volume()

        def reflects_write(volume) -> int:
            live = np.vstack(self.window)
            vox = self.sample_voxels(live)
            want = self.density(live, oracle.voxel_centres(vox))
            return oracle.mismatches(volume.data[tuple(vox.T)], want, EXACT)

        await self.sample(meter, "update", update, reflects_write)


class ServeStatic(Workload):
    """Big point batches over a static snapshot: index gather and pair
    kernels, in process and scattered to a shard worker process.
    Throughput counts query rows."""

    @property
    def units_per_read(self) -> int:
        return self.inp.spec.query_rows

    @property
    def max_cycles(self) -> int:
        return sys.maxsize  # nothing slides here

    def _service(self, backend: str) -> DensityService:
        return DensityService(self.pts, self.grid, backend=backend)

    def _expect(self, rows: np.ndarray) -> np.ndarray:
        return self.density(self.inp.events, rows)

    def first_answer(self):
        return self._service("direct").query_points(self.inp.query_batch(0))

    def check_first(self, out) -> int:
        idx = self.rng.choice(len(out), oracle.SAMPLE, replace=False)
        return oracle.mismatches(
            out[idx], self._expect(self.inp.queries[idx]), EXACT
        )

    async def open(self) -> None:
        m = self.inp.spec.query_rows
        self.idx = self.rng.choice(m, oracle.SAMPLE, replace=False)
        base = self.inp.queries[self.idx]
        self.want = self._expect(base)
        self.want_centre = self._expect(np.floor(base) + 0.5)
        machine = MachineModel.load(MACHINE_JSON)
        # The pinned read never plans; the machine is there for the traced
        # read, which asks for its plan and must not trigger a calibration.
        self.svc = DensityService(
            self.pts, self.grid, backend="direct", machine=machine
        )
        # One worker, not nproc = 2: with two, the kernel now and then
        # wakes both on the same core and the op takes 90 ms instead of
        # 47 ms for whole runs.  One worker keeps scatter, pipe, pickle and
        # gather around the same engine and leaves out only the overlap;
        # the two-worker timing is the layer metric serve.worker.query_ms.
        self.sharded = ShardedDensityService(
            self.pts, self.grid, workers=1, backend="sharded", machine=machine
        )

    def traced_read(self, tracer: Tracer, q: np.ndarray):
        """The read again (cache dropped), its plan recorded on the span."""
        self.svc.cache.clear()
        plan: list = []
        with tracer.span("serve.service.query_points", rows=len(q)) as span:
            out = self.svc.query_points(q, plan_out=plan)
        span["counts"].update(plan=plan[0].backend, compute=plan[0].compute,
                              candidates=plan[0].est_candidates)
        return out

    async def cycle(self, k: int, meter: Meter,
                    tracer: Optional[Tracer] = None) -> None:
        q = self.inp.query_batch(k)
        at = (self.idx + k) % self.inp.spec.query_rows

        def matches(out) -> int:
            return oracle.mismatches(out[at], self.want, EXACT)

        direct = await self.sample(
            meter, "read", lambda: self.svc.query_points(q), matches
        )
        if tracer is not None:
            await self.sample(
                meter, "read.traced", lambda: self.traced_read(tracer, q),
                matches,
            )
        await self.sample(
            meter, "alt", lambda: self.sharded.query_points(q),
            lambda out: direct is None
            or oracle.mismatches(out, direct, REASSOC),
        )
        qc = self.inp.centre_batch(k)

        def update():
            fresh = self._service("lookup")
            fresh.materialize()
            return fresh.query_points(qc)

        await self.sample(
            meter, "update", update,
            lambda out: oracle.mismatches(out[at], self.want_centre, EXACT),
        )

    async def close(self) -> None:
        # Every timed read must have missed the result cache: a hit would
        # have measured a dictionary lookup, so it counts as a failed op.
        self.failed += self.svc.cache.stats()["hits"]
        self.sharded.close()


class ServeLive(Workload):
    """Single-point traffic through the asyncio front end over a sliding
    window: coalescer, planner, cache digest and executor hop dominate.
    Throughput counts requests."""

    @property
    def units_per_read(self) -> int:
        return self.inp.spec.epoch_requests

    async def _start(self) -> None:
        self.inc = IncrementalSTKDE(self.grid)
        for batch in self.window:
            self.inc.add(batch)
        self.svc = DensityService(
            self.inc, backend="auto", machine=MachineModel.load(MACHINE_JSON)
        )
        # Closed-loop clients wait for their answer; none may be shed.
        # The front end sizes bulk quanta from *measured* dispatch times,
        # so its default 25 ms quantum splits the same region into 1 to 20
        # chunks from run to run; a quantum above any region here pins one.
        self.fe = TrafficFrontend(
            self.svc, overload="defer", bulk_quantum_seconds=1.0
        )
        await self.fe.start()

    def first_answer(self):
        async def go():
            await self._start()
            try:
                x, y, t = self.inp.point_pool(0)[0].tolist()
                return await self.fe.query_point(x, y, t)
            finally:
                await self.fe.aclose()

        return np.array([asyncio.run(go())])

    def check_first(self, answer) -> int:
        want = self.density(np.vstack(self.window), self.inp.point_pool(0)[:1])
        return oracle.mismatches(answer, want, EXACT)

    async def open(self) -> None:
        r = self.inp.spec.epoch_requests
        self.idx = self.rng.choice(r, min(r, oracle.SAMPLE), replace=False)
        await self._start()

    async def epoch(self, pool: np.ndarray, tracer: Optional[Tracer] = None):
        """All of ``pool`` as single-point requests from the closed-loop
        clients; per-request seconds and answers (NaN where one failed).
        A ``tracer`` gets one span per request under the open span."""
        r, c = len(pool), self.inp.spec.clients
        parent = tracer.spans[-1]["id"] if tracer is not None else None
        rows = pool.tolist()
        lat = np.full(r, np.nan)
        ans = np.full(r, np.nan)

        async def client(start: int) -> None:
            for j in range(start, r, c):
                x, y, t = rows[j]
                t0 = time.perf_counter()
                try:
                    ans[j] = await self.fe.query_point(x, y, t)
                except Exception:  # shed or failed: counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    continue
                lat[j] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.record("serve.frontend.request", t0, t0 + lat[j],
                                  parent=parent, request=tracer.new_request())

        await asyncio.gather(*(client(i) for i in range(c)))
        return lat, ans

    async def read_epoch(self, meter: Meter, name: str, pool: np.ndarray,
                         want: np.ndarray, tracer: Optional[Tracer] = None):
        """One bracketed epoch; its requests are checked and counted."""
        before = meter.open()
        t0 = time.perf_counter()
        if tracer is None:
            lat, ans = await self.epoch(pool)
        else:
            with tracer.span("serve.frontend.epoch", rows=len(pool)):
                lat, ans = await self.epoch(pool, tracer)
        ref = meter.close(name, time.perf_counter() - t0, before)
        self.attempted += len(pool)
        self.failed += int(np.isnan(ans).sum()) + oracle.mismatches(
            np.nan_to_num(ans[self.idx]), want, EXACT
        )
        return lat, ref

    async def cycle(self, k: int, meter: Meter,
                    tracer: Optional[Tracer] = None) -> None:
        pool = self.inp.point_pool(k)
        live = np.vstack(self.window)
        want = self.density(live, pool[self.idx])

        lat, ref = await self.read_epoch(meter, "read", pool, want)
        meter.samples.setdefault("request", []).extend(
            (s, ref) for s in lat[~np.isnan(lat)].tolist()
        )
        if tracer is not None:
            self.svc.cache.clear()  # same points again, same work
            await self.read_epoch(meter, "read.traced", pool, want, tracer)

        win = self.inp.region_window(k)
        lo = np.array(win[0::2])
        vox = self.sample_voxels(live, lo, np.array(win[1::2]))
        await self.sample(
            meter, "alt",
            lambda: self.fe.query_region(win, backend="direct"),
            lambda reg: oracle.mismatches(
                reg.data[tuple((vox - lo).T)],
                self.density(live, oracle.voxel_centres(vox)), EXACT,
            ),
        )

        batch, horizon = self.slide_inputs(k)
        probe = self.inp.point_pool(k + 1)[:1]
        x, y, t = probe[0].tolist()

        async def update():
            await self.fe.slide_window(batch, horizon)
            return await self.fe.query_point(x, y, t)

        await self.sample(
            meter, "update", update,
            lambda v: oracle.mismatches(
                np.array([v]), self.density(np.vstack(self.window), probe),
                EXACT,
            ),
        )

    async def close(self) -> None:
        self.failed += self.svc.cache.stats()["hits"]
        await self.fe.aclose()

    def read_seconds(self, meter: Meter) -> Dict[str, List[float]]:
        return {"norm": meter.normalised("request"),
                "raw": meter.raw("request")}


WORKLOAD_CLASSES = {
    "volume_dense": Volume,
    "volume_sparse": Volume,
    "serve_static": ServeStatic,
    "serve_live": ServeLive,
}
