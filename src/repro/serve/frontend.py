"""Async traffic front end: coalesce, prioritise, and admit requests.

The serving stack below this module is batch-shaped: the ragged
direct-sum engine, the sharded scatter/gather tier, and the ε-budgeted
sampler all amortise per-dispatch overhead over many rows, which is the
source paper's core throughput lesson.  Real traffic is the opposite
shape — many small concurrent requests.  :class:`TrafficFrontend` is the
adapter between the two: an asyncio facade over a
:class:`~repro.serve.service.DensityService` (or
:class:`~repro.serve.service.ShardedDensityService`) that turns awaited
per-request calls into planner-priced cohort batches.

Three mechanisms, in dispatch order:

**Request coalescing.**  Point queries accumulate in per-``(eps, seed)``
buckets (approximate and exact requests never share a batch — their
answers are not interchangeable) and flush as one ``query_points``
cohort batch.  The flush policy is *batch-while-busy*: a bucket seals
when it fills (``max_batch``), when its hold window expires
(``max_delay_ms``), or eagerly the moment the dispatcher goes idle — so
an unloaded front end adds ~zero hold latency while a busy one
accumulates whole cohorts during each in-flight dispatch.

**Priority lanes with critical-ratio dispatch.**  Ready work sits in
three lanes — interactive (sealed point batches), bulk (slice/region
extracts), mutation (window slides) — and the dispatcher picks the item
with the smallest *critical ratio* ``slack / predicted_cost`` (the
Parallel SGS priority rule: deadline-aware age against
:class:`~repro.analysis.model.CostModel`-predicted work).  Bulk region
extracts are additionally chunked into cost-bounded sub-window quanta
along ``t``, and the scheduler re-evaluates between quanta — a 200k-cell
region build therefore cannot head-of-line-block a 1-point lookup for
more than one quantum.  Mutations drain FIFO (version order) and never
preempt a started bulk extract, so a stitched region is never torn
across a version change; every dispatched batch runs on a single-worker
executor, so no query ever observes a half-applied slide.

**Admission control.**  Pending work is budgeted in *predicted seconds*
(cost-model estimates, EWMA-corrected by measured dispatch times), not
request counts — a thousand cheap point probes and five dense region
builds are both priced at what they will actually cost.  Past the
budget the front end sheds with a typed :class:`Overloaded`
(``overload="shed"``) or defers admission until capacity frees
(``overload="defer"``).

**Fault handling.**  Service failures resolve each coalesced future with
the *typed* exception (never a bucket-wide cancel); a retryable
:class:`~repro.serve.errors.ServeError` — a worker died and the
supervisor below may already have recovered it — re-enqueues the batch
exactly once within a bounded retry window.  A
:class:`~repro.serve.errors.ShardFailed` additionally opens a per-shard
circuit breaker: reads whose scatter span touches the broken shard are
shed with :class:`~repro.serve.errors.CircuitOpen` (or deferred, per
the ``overload`` policy) for a cooldown instead of piling onto a
recovering worker, while traffic to healthy shards flows on.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.grid import VoxelWindow, empty_volume
from ..core.instrument import LatencyHistogram, WorkCounter
from .engine import (
    RegionResult,
    slice_window,
    uniform_candidates,
    validate_queries,
)
from .errors import CircuitOpen, ServeError, ShardFailed

__all__ = ["TrafficFrontend", "Overloaded"]

# Critical-ratio denominators are floored so a ~free item cannot divide
# the slack into meaninglessly huge ratios.
_COST_FLOOR = 1e-4

# Lane deadlines (seconds) for the critical-ratio rule: how long after it
# arrives a region request, or a mutation, is due.
_BULK_DEADLINE = 2.0
_MUTATION_DEADLINE = 0.5

# Extra time (seconds) past an item's lane deadline inside which a
# *retryable* ServeError re-enqueues the read once (mutations never
# retry: double-apply risk).
_RETRY_WINDOW = 1.0


class Overloaded(RuntimeError):
    """Admission control rejected a request: the pending-work budget is full.

    Carries the prices involved so callers (and the load harness) can
    reason about the rejection: ``est_seconds`` is what this request
    would have added, ``pending_seconds`` the work already admitted,
    ``budget_seconds`` the ceiling.
    """

    def __init__(
        self, kind: str, est_seconds: float,
        pending_seconds: float, budget_seconds: float,
    ) -> None:
        self.kind = kind
        self.est_seconds = est_seconds
        self.pending_seconds = pending_seconds
        self.budget_seconds = budget_seconds
        super().__init__(
            f"{kind} request shed: pending {pending_seconds * 1e3:.1f} ms "
            f"+ est {est_seconds * 1e3:.2f} ms exceeds the "
            f"{budget_seconds * 1e3:.1f} ms admission budget"
        )


class _WorkItem:
    """One dispatchable unit: a sealed point batch, a region, or a mutation."""

    __slots__ = (
        "kind", "lane", "seq", "deadline", "est_seconds", "rows", "futs",
        "eps", "seed", "window", "backend", "chunks", "chunk_idx",
        "chunk_results", "fut", "fn", "n_requests", "retried",
    )

    def __init__(self, kind: str, lane: str, seq: int, deadline: float,
                 est_seconds: float) -> None:
        self.kind = kind
        self.lane = lane
        self.seq = seq
        self.deadline = deadline
        self.est_seconds = est_seconds
        self.retried = False
        # points lane
        self.rows: List[np.ndarray] = []
        self.futs: List[Tuple[asyncio.Future, slice, float]] = []
        self.eps: Optional[float] = None
        self.seed: int = 0
        self.n_requests = 0
        # bulk lane
        self.window: Optional[VoxelWindow] = None
        self.backend: Optional[str] = None
        self.chunks: Optional[List[VoxelWindow]] = None
        self.chunk_idx = 0
        self.chunk_results: List[RegionResult] = []
        self.fut: Optional[asyncio.Future] = None
        # mutation lane
        self.fn = None

    @property
    def started(self) -> bool:
        return self.chunk_idx > 0

    def ratio(self, now: float) -> float:
        return (self.deadline - now) / max(self.est_seconds, _COST_FLOOR)


class TrafficFrontend:
    """Asyncio micro-batching front end over a density service.

    Parameters
    ----------
    service:
        The wrapped :class:`DensityService` (in process or sharded: one
        surface — ``counter``, ``events``, ``plan``, ``index_segments``,
        ``slide_window`` are plain attributes of it).  All calls into it are
        serialized through a single-worker executor — the concurrency
        lives in the coalescer, not in racing service calls.
    max_delay_ms:
        Hold window: a coalescing bucket seals at most this long after
        its first request (sooner when full or when the dispatcher goes
        idle).  Also the sealed batch's deadline for the critical-ratio
        scheduler.
    max_batch:
        Row cap per coalesced batch; a bucket reaching it seals
        immediately with an already-due deadline.  ``max_batch=1``
        degenerates to per-request dispatch (the bench baseline).
    max_pending_seconds:
        Admission budget: total predicted seconds of admitted-but-
        unfinished work the front end will hold before shedding or
        deferring.
    overload:
        ``"shed"`` raises :class:`Overloaded` at the budget;
        ``"defer"`` suspends the caller until capacity frees.
    bulk_quantum_seconds:
        Cost bound per bulk sub-dispatch: region windows are split
        along ``t`` so each chunk's predicted direct cost stays under
        this, and the scheduler re-picks between chunks.
    breaker_cooldown_ms:
        How long a per-shard circuit breaker stays open after a
        :class:`~repro.serve.errors.ShardFailed` surfaces from a
        dispatch — new traffic touching that shard is shed
        (:class:`~repro.serve.errors.CircuitOpen`) or deferred per the
        overload policy while the shard recovers.
    counter:
        Defaults to the wrapped service's :class:`WorkCounter`, so
        ``frontend_*`` gauges land next to the engine's own counters.
    """

    def __init__(
        self,
        service,
        *,
        max_delay_ms: float = 2.0,
        max_batch: int = 256,
        max_pending_seconds: float = 0.25,
        overload: str = "shed",
        bulk_quantum_seconds: float = 0.025,
        breaker_cooldown_ms: float = 250.0,
        counter: Optional[WorkCounter] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if overload not in ("shed", "defer"):
            raise ValueError(
                f"overload must be 'shed' or 'defer', got {overload!r}"
            )
        self.service = service
        self.max_delay = max_delay_ms / 1e3
        self.max_batch = max_batch
        self.max_pending_seconds = max_pending_seconds
        self.overload = overload
        self.bulk_quantum = bulk_quantum_seconds
        self.breaker_cooldown = breaker_cooldown_ms / 1e3
        self.counter = counter if counter is not None else service.counter
        self.latency = LatencyHistogram()
        self._batch_rows_hist: Dict[int, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._task: Optional[asyncio.Task] = None
        self._buckets: Dict[Tuple, _WorkItem] = {}
        self._ready: List[_WorkItem] = []
        self._wake: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._pending_cost = 0.0
        self._deferred = 0
        self._retries = 0
        # Per-shard circuit breakers: shard_id -> loop time the shard's
        # recovery cooldown expires.  Opened when a dispatch surfaces a
        # ShardFailed; traffic touching that shard is shed or deferred
        # until the cooldown lapses.
        self._breakers: Dict[int, float] = {}
        self._seq = 0
        self._closing = False
        self._started = False
        # Admission pricing state (read in start() and after every
        # mutation, EWMA-corrected).
        self._model = None
        self._events = 0
        self._segments = 1
        self._scale = {"points": 1.0, "region": 1.0}
        self._region_floor = 0.0
        self._mutation_ewma = 0.01

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "TrafficFrontend":
        """Read the pricing gauges and launch the dispatcher task."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="frontend"
        )
        self._wake = asyncio.Event()
        self._space = asyncio.Event()
        self._idle = asyncio.Event()
        self._drained = asyncio.Event()
        await self._refresh_gauges()
        self._task = self._loop.create_task(self._run())
        self._started = True
        return self

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop accepting work; drain (default) or cancel what is pending.

        With ``drain=True`` every admitted request still resolves —
        no orphaned futures; ``drain=False`` cancels pending futures
        (callers see :class:`asyncio.CancelledError`) and stops.
        """
        if not self._started or self._closing:
            self._closing = True
            return
        self._closing = True
        if not drain:
            for item in list(self._buckets.values()) + self._ready:
                self._fail_item(item, None)
            self._buckets.clear()
            self._ready.clear()
            self._pending_cost = 0.0
        self._wake.set()
        await self._drained.wait()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "TrafficFrontend":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose(drain=exc_type is None)

    def _check_started(self) -> None:
        if not self._started:
            raise RuntimeError("TrafficFrontend.start() has not been awaited")
        if self._closing:
            raise RuntimeError("TrafficFrontend is closed")

    async def _call(self, fn):
        """Run ``fn`` on the single service thread (the serialization point)."""
        return await self._loop.run_in_executor(self._executor, fn)

    async def _refresh_gauges(self) -> None:
        """Re-read what admission prices with: the planner's cost model
        (a live service builds a new one per version), the event count
        and the index segments."""
        self._model, self._events, self._segments = await self._call(
            lambda: (
                self.service.planner().model, self.service.events,
                max(1, self.service.index_segments),
            )
        )

    # ------------------------------------------------------------------
    # Admission pricing (predicted cost units)
    # ------------------------------------------------------------------
    def _price_points(self, m: int, eps: Optional[float]) -> float:
        cand = uniform_candidates(self.service.grid, self._events, m)
        if eps is not None:
            raw = self._model.predict_approx_query(
                m, cand, eps, n_segments=self._segments
            )
        else:
            raw = self._model.predict_direct_query(
                m, cand, n_cohorts=1, n_segments=self._segments
            )
        return raw * self._scale["points"]

    def _price_region_variable(self, window: VoxelWindow) -> float:
        """Volume-proportional part of a region's price (no floor)."""
        return (
            self._model.predict_direct_region(window) * self._scale["region"]
        )

    def _price_region(self, window: VoxelWindow) -> float:
        """A region extract costs at least the learned per-dispatch
        floor (sync + setup + the clustered-density miss the uniform
        model can't see): without it, tiny windows look ~free, the
        shared ratio scale whipsaws between slice-sized and tiny
        requests, and admission sheds well-priced traffic."""
        return max(self._price_region_variable(window), self._region_floor)

    def _learn(self, kind: str, raw_est: float, measured: float) -> None:
        """EWMA-blend the measured/predicted ratio into the price scale."""
        if kind == "mutation":
            self._mutation_ewma = (
                0.7 * self._mutation_ewma + 0.3 * measured
            )
            return
        if kind == "region":
            f = self._region_floor
            self._region_floor = (
                measured if f == 0.0 else 0.7 * f + 0.3 * measured
            )
            if raw_est * self._scale["region"] < self._region_floor:
                # Fixed-cost regime: the floor owns this measurement;
                # feeding its ratio to the scale would poison slice-sized
                # prices (ratio ~100 for tiny windows vs ~1 for slices).
                return
        if raw_est <= 0.0:
            return
        ratio = measured / raw_est
        s = 0.7 * self._scale[kind] + 0.3 * min(ratio, 100.0)
        self._scale[kind] = max(s, 1e-3)

    async def _admit(self, kind: str, est: float) -> None:
        """Charge ``est`` against the pending budget; shed or defer past it."""
        while (
            self._pending_cost > 0.0
            and self._pending_cost + est > self.max_pending_seconds
        ):
            if self.overload == "shed":
                self.counter.frontend_shed += 1
                raise Overloaded(
                    kind, est, self._pending_cost, self.max_pending_seconds
                )
            self._deferred += 1
            self._space.clear()
            await self._space.wait()
        if self._closing:
            # aclose() won the race while this request was deferred: the
            # dispatcher is draining or gone, nothing may enqueue now.
            raise RuntimeError("TrafficFrontend is closed")
        self._pending_cost += est

    def _discharge(self, est: float) -> None:
        self._pending_cost = max(0.0, self._pending_cost - est)
        if self._pending_cost < self.max_pending_seconds:
            self._space.set()

    # ------------------------------------------------------------------
    # Per-shard circuit breakers
    # ------------------------------------------------------------------
    def _open_breakers(self, now: float) -> List[int]:
        """Shard ids whose breakers are still open (expired ones lapse)."""
        if not self._breakers:
            return []
        for s in [s for s, t in self._breakers.items() if t <= now]:
            del self._breakers[s]
        return sorted(self._breakers)

    def _breaker_hits(
        self, open_ids: List[int], xs: Optional[np.ndarray]
    ) -> Tuple[int, ...]:
        """Open breakers this request would actually touch.

        With a sharded service and point coordinates, the plan's
        ``scatter_spans`` says exactly which shards a query contacts;
        anything else (regions, unsharded services) gates on any open
        breaker — conservative, but correct.
        """
        plan = self.service.plan
        if xs is None or plan is None:
            return tuple(open_ids)
        lo, hi = plan.scatter_spans(np.ascontiguousarray(xs))
        return tuple(
            s for s in open_ids if bool(np.any((lo <= s) & (s <= hi)))
        )

    async def _gate_breaker(self, xs: Optional[np.ndarray] = None) -> None:
        """Shed or defer a request touching a shard under recovery."""
        while True:
            now = self._loop.time()
            hit = self._breaker_hits(self._open_breakers(now), xs)
            if not hit:
                return
            retry_after = max(self._breakers[s] for s in hit) - now
            if self.overload == "shed":
                self.counter.frontend_shed += 1
                raise CircuitOpen(hit, retry_after)
            await asyncio.sleep(max(retry_after, 0.0))
            if self._closing:
                raise RuntimeError("TrafficFrontend is closed")

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    async def query_point(
        self, x: float, y: float, t: float,
        *, eps: Optional[float] = None, seed: int = 0,
    ) -> float:
        """Density at one location — the interactive unit of traffic."""
        out = await self.query_points(
            np.array([[x, y, t]], dtype=np.float64), eps=eps, seed=seed
        )
        return float(out[0])

    async def query_points(
        self,
        queries: np.ndarray,
        *,
        eps: Optional[float] = None,
        seed: int = 0,
    ) -> np.ndarray:
        """Densities at ``(m, 3)`` locations, coalesced with co-arriving
        requests that share the ``(eps, seed)`` answer policy."""
        self._check_started()
        q = np.ascontiguousarray(validate_queries(queries))
        if q.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        await self._gate_breaker(q[:, 0])
        est = self._price_points(q.shape[0], eps)
        await self._admit("points", est)
        now = self._loop.time()
        key = ("exact",) if eps is None else ("eps", float(eps), int(seed))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._new_item(
                "points", "interactive", deadline=now + self.max_delay,
                est=0.0,
            )
            bucket.eps, bucket.seed = eps, int(seed)
            self._buckets[key] = bucket
        start = sum(r.shape[0] for r in bucket.rows)
        fut = self._loop.create_future()
        bucket.rows.append(q)
        bucket.futs.append(
            (fut, slice(start, start + q.shape[0]), time.perf_counter())
        )
        bucket.est_seconds += est
        bucket.n_requests += 1
        if start + q.shape[0] >= self.max_batch:
            self._seal(key, overdue=True)
        self._wake.set()
        return await fut

    async def query_slice(
        self, T: int, *, backend: Optional[str] = None
    ) -> RegionResult:
        """The full ``(Gx, Gy)`` density slice at voxel time ``T``."""
        return await self.query_region(
            slice_window(self.service.grid, T), backend=backend
        )

    async def query_region(
        self,
        window: Union[VoxelWindow, Tuple[int, int, int, int, int, int]],
        *,
        backend: Optional[str] = None,
    ) -> RegionResult:
        """Density over a voxel window, dispatched on the bulk lane in
        cost-bounded quanta so it cannot monopolise the service thread."""
        self._check_started()
        if not isinstance(window, VoxelWindow):
            window = VoxelWindow(*window)
        window = window.intersect(self.service.grid.full_window())
        if window.empty:
            raise ValueError(f"region window is empty on this grid: {window}")
        await self._gate_breaker()
        est = self._price_region(window)
        await self._admit("region", est)
        now = self._loop.time()
        item = self._new_item(
            "region", "bulk", deadline=now + _BULK_DEADLINE, est=est,
        )
        item.window = window
        item.backend = backend
        item.fut = self._loop.create_future()
        self._ready.append(item)
        self._wake.set()
        return await item.fut

    async def slide_window(self, new_points, t_horizon: float) -> None:
        """Slide the served window: retire events before ``t_horizon``,
        add ``new_points``.  Mutations drain FIFO, in version order."""
        await self.mutate(
            lambda: self.service.slide_window(new_points, t_horizon)
        )

    async def mutate(self, fn) -> object:
        """Run an arbitrary mutation against the service thread via the
        mutation lane (FIFO; never interleaves a started bulk extract)."""
        self._check_started()
        est = self._mutation_ewma
        await self._admit("mutation", est)
        item = self._new_item(
            "mutation", "mutation",
            deadline=self._loop.time() + _MUTATION_DEADLINE, est=est,
        )
        item.fn = fn
        item.fut = self._loop.create_future()
        self._ready.append(item)
        self._wake.set()
        return await item.fut

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def frontend_stats(self) -> Dict[str, object]:
        """The front end's own gauges (no service round-trip)."""
        lanes = {"interactive": 0, "bulk": 0, "mutation": 0}
        for item in self._ready:
            lanes[item.lane] += 1
        holding = sum(
            sum(r.shape[0] for r in b.rows) for b in self._buckets.values()
        )
        c = self.counter
        batches = c.frontend_batches
        return {
            "lanes": lanes,
            "open_buckets": len(self._buckets),
            "holding_rows": holding,
            "pending_cost_seconds": self._pending_cost,
            "budget_seconds": self.max_pending_seconds,
            "overload": self.overload,
            "batches": batches,
            "coalesced_requests": c.frontend_coalesced,
            "shed": c.frontend_shed,
            "deferred": self._deferred,
            "retries": self._retries,
            "open_breakers": (
                self._open_breakers(self._loop.time())
                if self._loop is not None else []
            ),
            "mean_batch_rows": (
                sum(k * v for k, v in self._batch_rows_hist.items())
                / max(1, sum(self._batch_rows_hist.values()))
            ),
            "batch_rows_hist": dict(sorted(self._batch_rows_hist.items())),
            "latency": self.latency.as_dict(),
            "cost_scale": dict(self._scale),
            "region_floor_ms": self._region_floor * 1e3,
        }

    async def stats(self) -> Dict[str, object]:
        """The wrapped service's stats with the ``frontend`` blob merged."""
        self._check_started()
        base = await self._call(self.service.stats)
        base["frontend"] = self.frontend_stats()
        return base

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _new_item(
        self, kind: str, lane: str, *, deadline: float, est: float
    ) -> _WorkItem:
        self._seq += 1
        return _WorkItem(kind, lane, self._seq, deadline, est)

    def _seal(self, key: Tuple, *, overdue: bool = False) -> None:
        """Move a coalescing bucket to the interactive ready lane."""
        bucket = self._buckets.pop(key)
        if overdue:
            bucket.deadline = self._loop.time()
        self._ready.append(bucket)

    def _seal_expired(self, now: float) -> None:
        for key in [
            k for k, b in self._buckets.items() if b.deadline <= now
        ]:
            self._seal(key)

    def _seal_oldest(self) -> None:
        key = min(self._buckets, key=lambda k: self._buckets[k].deadline)
        self._seal(key)

    def _pick(self, now: float) -> _WorkItem:
        """Smallest critical ratio among eligible ready items.

        Mutations are eligible FIFO-only (version order) and only while
        no bulk extract is mid-flight, so stitched regions never span a
        version change.
        """
        bulk_started = any(
            it.kind == "region" and it.started for it in self._ready
        )
        oldest_mut = min(
            (it.seq for it in self._ready if it.lane == "mutation"),
            default=None,
        )
        best = None
        best_key = None
        for it in self._ready:
            if it.lane == "mutation" and (bulk_started or it.seq != oldest_mut):
                continue
            key = (it.ratio(now), it.seq)
            if best_key is None or key < best_key:
                best, best_key = it, key
        if best is None:  # only blocked mutations remain: run the oldest
            best = min(self._ready, key=lambda it: it.seq)
        self._ready.remove(best)
        return best

    async def _run(self) -> None:
        while True:
            now = self._loop.time()
            self._seal_expired(now)
            if not self._ready:
                if self._buckets:
                    # Dispatcher idle: waiting out the hold window buys
                    # nothing, flush the oldest bucket now.
                    self._seal_oldest()
                    continue
                self._idle.set()
                if self._closing:
                    self._drained.set()
                    return
                await self._wake.wait()
                self._wake.clear()
                self._idle.clear()
                continue
            item = self._pick(now)
            try:
                await self._dispatch(item)
            except asyncio.CancelledError:
                self._fail_item(item, None)
                raise
            except Exception as exc:  # route failures to the waiters
                self._note_fault(exc)
                if self._maybe_retry(item, exc):
                    continue
                self._fail_item(item, exc)
                self._discharge(item.est_seconds)

    def _note_fault(self, exc: Exception) -> None:
        """Open the failed shard's breaker for one recovery cooldown."""
        if isinstance(exc, ShardFailed) and self.breaker_cooldown > 0.0:
            until = self._loop.time() + self.breaker_cooldown
            sid = int(exc.shard_id)
            self._breakers[sid] = max(self._breakers.get(sid, 0.0), until)

    def _maybe_retry(self, item: _WorkItem, exc: Exception) -> bool:
        """Re-enqueue a read once after a retryable fault.

        Only reads retry: the supervisor has already respawned (or
        budget-exhausted) the shard by the time the typed error surfaces
        here, so one re-dispatch against the recovered worker is safe
        and usually succeeds.  Mutations never retry — the coordinator
        cannot know how much of a mutation landed before the fault, and
        the supervisor's replay log already completes it exactly once.
        """
        if item.kind not in ("points", "region"):
            return False
        if not (isinstance(exc, ServeError) and exc.retryable):
            return False
        if item.retried or self._closing:
            return False
        if self._loop.time() > item.deadline + _RETRY_WINDOW:
            return False
        item.retried = True
        self._retries += 1
        self.counter.requests_retried += 1
        self._ready.append(item)
        return True

    def _fail_item(self, item: _WorkItem, exc: Optional[Exception]) -> None:
        futs = [f for f, _, _ in item.futs]
        if item.fut is not None:
            futs.append(item.fut)
        for fut in futs:
            if fut.done():
                continue
            if exc is None:
                fut.cancel()
            else:
                fut.set_exception(exc)

    async def _dispatch(self, item: _WorkItem) -> None:
        if item.kind == "points":
            await self._dispatch_points(item)
        elif item.kind == "region":
            await self._dispatch_region_quantum(item)
        else:
            await self._dispatch_mutation(item)

    async def _dispatch_points(self, item: _WorkItem) -> None:
        batch = (
            item.rows[0] if len(item.rows) == 1
            else np.concatenate(item.rows, axis=0)
        )
        t0 = time.perf_counter()
        out = await self._call(
            lambda: self.service.query_points(
                batch, eps=item.eps, seed=item.seed
            )
        )
        done = time.perf_counter()
        dt = done - t0
        self.counter.frontend_batches += 1
        self.counter.frontend_coalesced += item.n_requests
        rows = batch.shape[0]
        self._batch_rows_hist[rows] = self._batch_rows_hist.get(rows, 0) + 1
        for fut, sl, submitted in item.futs:
            self.latency.record(done - submitted)
            if not fut.done():  # timed-out/cancelled callers dropped out
                fut.set_result(out[sl])
        raw = item.est_seconds / max(self._scale["points"], 1e-12)
        self._learn("points", raw, dt)
        self._discharge(item.est_seconds)

    def _plan_chunks(self, window: VoxelWindow) -> List[VoxelWindow]:
        """Split a region along ``t`` into quanta of bounded predicted cost.

        Only the volume-proportional cost divides with the split — every
        chunk pays the per-dispatch floor again — so the step is sized
        from the variable price against the quantum *minus* the floor.
        """
        per_slice = self._price_region_variable(
            VoxelWindow(window.x0, window.x1, window.y0, window.y1,
                        window.t0, window.t0 + 1)
        )
        nt = window.t1 - window.t0
        budget = max(self.bulk_quantum - self._region_floor, 0.0)
        step = max(1, int(budget / max(per_slice, 1e-9)))
        if step >= nt:
            return [window]
        return [
            VoxelWindow(window.x0, window.x1, window.y0, window.y1,
                        t, min(t + step, window.t1))
            for t in range(window.t0, window.t1, step)
        ]

    async def _dispatch_region_quantum(self, item: _WorkItem) -> None:
        if item.chunks is None:
            item.chunks = self._plan_chunks(item.window)
        w = item.chunks[item.chunk_idx]
        t0 = time.perf_counter()
        res = await self._call(
            lambda: self.service.query_region(w, backend=item.backend)
        )
        dt = time.perf_counter() - t0
        self.counter.frontend_batches += 1
        item.chunk_results.append(res)
        item.chunk_idx += 1
        share = item.est_seconds / len(item.chunks)
        self._learn("region", self._model.predict_direct_region(w), dt)
        self._discharge(share)
        if item.chunk_idx < len(item.chunks):
            self._ready.append(item)  # re-enter the scheduler between quanta
            return
        if len(item.chunk_results) == 1:
            result = item.chunk_results[0]
        else:
            W = item.window
            data = empty_volume(W.shape)
            for r in item.chunk_results:
                data[:, :, r.window.t0 - W.t0:r.window.t1 - W.t0] = r.data
            data.flags.writeable = False
            result = RegionResult(
                window=W, data=data, backend=item.chunk_results[0].backend,
            )
        if not item.fut.done():
            item.fut.set_result(result)

    async def _dispatch_mutation(self, item: _WorkItem) -> None:
        t0 = time.perf_counter()
        out = await self._call(item.fn)
        dt = time.perf_counter() - t0
        self.counter.frontend_batches += 1
        self._learn("mutation", item.est_seconds, dt)
        self._discharge(item.est_seconds)
        await self._refresh_gauges()
        if not item.fut.done():
            item.fut.set_result(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closing else (
            "running" if self._started else "new"
        )
        return (
            f"TrafficFrontend({self.service!r}, {state}, "
            f"hold={self.max_delay * 1e3:g}ms, max_batch={self.max_batch})"
        )
