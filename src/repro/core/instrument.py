"""Work accounting and phase timing instrumentation.

The paper's evaluation reasons about three kinds of cost:

* **initialisation** — zeroing the density volume: one store per page
  first-touches it and the kernel zeroes the page at that fault,
  ``Theta(Gx * Gy * Gt)`` bytes (Figure 7 shows instances where this
  dominates);
* **compute** — kernel evaluations and multiply-adds inside the point
  cylinders, ``Theta(n * Hs^2 * Ht)``;
* **reduction** — summing replicated volumes (PB-SYM-DR, PB-SYM-PD-REP).

Every algorithm in this package accepts an optional :class:`WorkCounter`
and reports its operations into it; the parallel schedulers additionally
use per-task :class:`WorkCounter` snapshots as task weights.  A
:class:`PhaseTimer` records wall-clock per phase and is what the Figure 7
benchmark prints.

Counters are plain objects passed explicitly (no globals, no thread-local
magic) so that parallel tasks can own private counters that are merged at
the end — the same pattern the algorithms themselves use for density
volumes.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Tuple

__all__ = ["WorkCounter", "PhaseTimer", "LatencyHistogram", "null_counter"]


@dataclass
class WorkCounter:
    """Operation counters for one algorithm execution (or one task).

    Attributes count *logical* operations, independent of vectorisation:

    ``spatial_evals``
        Evaluations of the spatial kernel ``k_s`` (one per voxel for VB/PB/
        PB-BAR, one per disk cell for PB-DISK/PB-SYM).
    ``temporal_evals``
        Evaluations of the temporal kernel ``k_t``.
    ``distance_tests``
        Point-to-voxel distance tests (the dominant cost of VB).
    ``madds``
        Multiply-accumulate operations into a density volume.  Charged
        from array shapes (the full tabulated window, mask included) so
        accounting stays O(1) per batch — instrumentation must never pay
        a full-array reduction inside the loop it is profiling.
    ``init_writes``
        Voxels zero-initialised (counts every volume allocation, including
        replicas — this is DR's overhead).
    ``reduce_adds``
        Voxel additions performed when merging replicated volumes.
    ``points_processed``
        Number of point cylinders stamped.
    ``stamp_batches``
        Invocations of the batched stamping engine
        (:func:`repro.core.stamping.stamp_batch`): each pays one fixed
        dispatch cost regardless of batch size, which is what the Section
        6.5 cost model's per-batch term charges.
    ``stamp_cohorts``
        Tabulation groups the engine formed across all batches: one per
        shape cohort of the cohort route plus one per chunk of a crowded
        bin reduced on the per-bin GEMM route (``mode="sym"``).  Every
        group costs at least one backend dispatch
        (``sum(backend_dispatches) >= stamp_cohorts``).
    ``tile_batches``
        (Voxel-chunk x point-block) tiles accumulated through the region
        engine (:func:`repro.core.regions.accumulate_voxel_tile`) — the
        dispatch unit of VB/VB-DEC.
    ``shard_bbox_cells``
        Cells of bounding-box region buffers allocated
        (:class:`repro.core.regions.RegionBuffer`): threaded stamping
        shards and incremental batch caches.  Compare against
        ``P * Gx * Gy * Gt`` to see the memory the bbox shards save over
        full private volumes.
    ``query_cohorts``
        Ragged slab dispatches of the direct-sum engine
        (:func:`repro.serve.engine.direct_sum`): flat (query, candidate)
        pair lists of at most 2**16 pairs, each one gather + tabulate +
        segment-sum round — ~``ceil(pairs / 2**16)`` per batch, the unit
        the cost model's ``c_qcohort`` prices.
    ``index_events_bucketed``
        Events bucketed (cell keys computed and sorted) into
        :class:`repro.core.index.BucketIndex` segments.  After a window
        slide this should be ~the arriving batch size, not the live event
        count — the O(batch) index contract.
    ``index_events_retired``
        Events whose index segment was retired (no re-bucketing; rows
        are counted dead until the next repack).
    ``slab_buffers_retired``
        t-slab units retired, whole or in part, by sliding-window
        retirement
        (:meth:`repro.core.incremental.IncrementalSTKDE.slide_window`) —
        a unit's buffer, if a read ever stamped one, goes with it: zero
        kernel evaluations, no pass over any volume.
    ``slab_restamp_points``
        Survivor points re-planned because the window horizon cut
        through their slab (the straddle slab); the next read restamps
        them.  The O(delta) slide contract: this should be ~one slab's
        worth per slide, not the surviving batch.
    ``index_segments_merged``
        Index segments absorbed into consolidated segments by the
        merge policy (:meth:`repro.core.index.BucketIndex.maintain`) — rows
        are copied, never re-bucketed.
    ``index_rows_compacted``
        Storage rows copied by a repack of the bucket index (every
        live segment's slice moved into a fresh store once dead rows
        outnumber live ones) — amortised O(1) per retired row.
    ``shard_messages``
        Request messages a sharded-serving coordinator sent to worker
        processes (:class:`repro.serve.service.ShardedDensityService`).
        The O(affected-shards) routing gauge: a slide that touches one
        shard's events must cost ~one message, not one per worker.
    ``shard_rows_shipped``
        Event/query/result rows serialized across the process boundary
        by the sharded coordinator — what the cost model's per-row
        serialization rate (``c_qser``) prices.
    ``queries_exact``
        Point-query rows answered by an exact backend (direct sum or
        volume lookup) — the denominator of the serving tier's
        exact/approximate traffic mix.
    ``queries_approx``
        Point-query rows answered by the ε-budgeted importance sampler
        (:func:`repro.serve.engine.approx_sum`).
    ``sample_rows_drawn``
        Candidate rows drawn (with replacement) by the approximate
        backend across all queries — the sublinear-work gauge: compare
        against the exact path's candidate count to see what the error
        budget bought.
    ``sample_candidate_rows``
        Candidate rows under the sampler's queries.
    ``sample_exact_fallbacks``
        Sampler queries answered by the exact gather instead.
    ``sample_bounds_evaluated``
        (Query x run) contribution bounds the sampler priced its draws
        with.
    ``sample_rel_se_sum``
        Realised relative standard error summed over the queries the
        sampler's stop rule accepted; over ``queries_approx`` it is the
        realised half of the ε gauge (a row straddling a shard cut adds
        each shard's partial, so sharded it reads high).
    ``eps_requested_sum``
        Requested ``eps`` summed over ``queries_approx`` rows, tallied
        where the service counts them — the requested half.
    ``frontend_batches``
        Cohort batches the async traffic front end
        (:class:`repro.serve.frontend.TrafficFrontend`) dispatched to
        the wrapped service — every flush of a coalescing bucket and
        every bulk/mutation dispatch counts one.
    ``frontend_coalesced``
        Individual point-query requests that were folded into a shared
        cohort batch by the coalescer.  ``frontend_coalesced /
        frontend_batches`` is the mean batch size the hold window
        actually bought — the amortisation gauge of the whole front
        end.
    ``frontend_shed``
        Requests rejected by admission control with ``Overloaded`` —
        the pending-work budget (priced in predicted cost seconds, not
        request counts) was full.
    ``shard_restarts``
        Worker processes respawned by the shard supervisor
        (:class:`repro.serve.supervisor.ShardSupervisor`) after a death
        or a wedged request deadline.
    ``shard_replayed_batches``
        Requests replayed into respawned workers — one ``static``, or one
        ``add`` per live batch of the shard's log: the recovery work
        gauge.
    ``requests_retried``
        Requests that failed against a dying worker and were completed
        against its recovered replacement (queries re-sent once,
        mutations completed by the replay itself).
    ``degraded_queries``
        Point-query rows answered from surviving shards only
        (``on_shard_failure="partial"``) — every one of these returned
        a coverage-tagged :class:`~repro.serve.errors.PartialResult`,
        never a silently incomplete array.
    ``backend_dispatches``
        Per-compute-backend invocation counts (backend name → number of
        primitive calls dispatched through it).  Answers "did the pin
        hold": a service pinned to one backend shows one key, its name.

    The batching statistics are bookkeeping (like ``points_processed``):
    they are excluded from :meth:`total_ops` and :meth:`flop_estimate`,
    as is ``backend_dispatches`` (a dispatch is not a flop).
    """

    spatial_evals: int = 0
    temporal_evals: int = 0
    distance_tests: int = 0
    madds: int = 0
    init_writes: int = 0
    reduce_adds: int = 0
    points_processed: int = 0
    stamp_batches: int = 0
    stamp_cohorts: int = 0
    tile_batches: int = 0
    shard_bbox_cells: int = 0
    query_cohorts: int = 0
    index_events_bucketed: int = 0
    index_events_retired: int = 0
    slab_buffers_retired: int = 0
    slab_restamp_points: int = 0
    index_segments_merged: int = 0
    index_rows_compacted: int = 0
    shard_messages: int = 0
    shard_rows_shipped: int = 0
    queries_exact: int = 0
    queries_approx: int = 0
    sample_rows_drawn: int = 0
    sample_candidate_rows: int = 0
    sample_exact_fallbacks: int = 0
    sample_bounds_evaluated: int = 0
    sample_rel_se_sum: float = 0.0
    eps_requested_sum: float = 0.0
    frontend_batches: int = 0
    frontend_coalesced: int = 0
    frontend_shed: int = 0
    shard_restarts: int = 0
    shard_replayed_batches: int = 0
    requests_retried: int = 0
    degraded_queries: int = 0
    backend_dispatches: Dict[str, int] = field(default_factory=dict)

    def add_dispatch(self, backend: str, n: int = 1) -> None:
        """Record ``n`` primitive dispatches through ``backend`` (O(1))."""
        self.backend_dispatches[backend] = (
            self.backend_dispatches.get(backend, 0) + n
        )

    def merge(self, other: "WorkCounter") -> "WorkCounter":
        """Accumulate another counter into this one (returns self)."""
        for name in _SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, count in other.backend_dispatches.items():
            self.add_dispatch(name, count)
        return self

    def total_ops(self) -> int:
        """Aggregate logical operation count (used as a task weight)."""
        return (
            self.spatial_evals
            + self.temporal_evals
            + self.distance_tests
            + self.madds
            + self.init_writes
            + self.reduce_adds
        )

    def flop_estimate(self, spatial_flops: int = 6, temporal_flops: int = 3) -> int:
        """Rough flop count given per-kernel-evaluation costs."""
        return (
            self.spatial_evals * spatial_flops
            + self.temporal_evals * temporal_flops
            + self.distance_tests * 5
            + self.madds * 2
            + self.reduce_adds
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (declaration key order) for serialisation."""
        d = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        d["backend_dispatches"] = dict(self.backend_dispatches)
        return d

    def copy(self) -> "WorkCounter":
        return WorkCounter(**self.as_dict())


#: The scalar counters, in declaration order.  ``merge``, ``as_dict`` and
#: the null counter derive from the dataclass through these, so a new
#: counter is one field line (plus its docstring entry).
_SCALAR_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(WorkCounter) if f.name != "backend_dispatches"
)
_SCALAR_FIELD_SET = frozenset(_SCALAR_FIELDS)


class _NullCounter(WorkCounter):
    """A counter that ignores all accumulation (zero-overhead default)."""

    def merge(self, other: WorkCounter) -> WorkCounter:  # pragma: no cover
        return self

    def add_dispatch(self, backend: str, n: int = 1) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        # Freeze at zero: attribute writes are dropped.  dataclass __init__
        # also routes through here, which is fine (fields stay unset and the
        # class-level defaults of 0 from WorkCounter's fields apply).
        pass

    def __getattribute__(self, name: str):
        if name in _SCALAR_FIELD_SET:
            return 0
        if name == "backend_dispatches":
            # Fresh throwaway dict: mutations by shared helpers are dropped,
            # matching the zero-frozen scalar fields.
            return {}
        return object.__getattribute__(self, name)


_NULL = _NullCounter()


def null_counter() -> WorkCounter:
    """Shared do-nothing counter used when callers pass ``counter=None``."""
    return _NULL


class PhaseTimer:
    """Wall-clock accumulation per named phase.

    Usage::

        timer = PhaseTimer()
        with timer.phase("init"):
            volume = grid.allocate()
        with timer.phase("compute"):
            ...

    ``timer.seconds`` maps phase name to accumulated seconds;
    ``timer.total`` is their sum.  Phases may be entered repeatedly; nesting
    different phases is allowed (each measures its own span), re-entering
    the *same* phase recursively is rejected because the accounting would
    double-count.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._open: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if name in self._open:
            raise RuntimeError(f"phase {name!r} is already open")
        self._open[name] = time.perf_counter()
        try:
            yield
        finally:
            start = self._open.pop(name)
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def add(self, name: str, seconds: float) -> None:
        """Record an externally measured span (e.g. from a worker)."""
        if seconds < 0:
            raise ValueError("cannot add negative time")
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        """Sum of all phase durations."""
        return sum(self.seconds.values())

    def fraction(self, name: str) -> float:
        """Share of total time spent in ``name`` (0.0 if nothing recorded)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.seconds.get(name, 0.0) / total

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.seconds.items()))
        return f"PhaseTimer({parts})"


class LatencyHistogram:
    """Log-bucketed latency accumulator with bounded memory.

    Records durations (seconds) into geometrically spaced buckets from
    ``lo`` to ``hi`` (defaults 1µs..100s) so a long-running service can
    report p50/p95/p99 without retaining every sample.  Quantiles are
    read from the bucket upper edges — for ``bins_per_decade=20`` the
    edges are ~12% apart, which bounds the relative quantile error at
    one bucket width.  Used by the traffic front end for per-request
    latency, and by the load harness to summarise a run.
    """

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 100.0,
        bins_per_decade: int = 20,
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        self.lo = lo
        self.hi = hi
        self._log_lo = math.log(lo)
        decades = math.log10(hi / lo)
        self.n_bins = max(1, int(round(decades * bins_per_decade)))
        self._scale = self.n_bins / (math.log(hi) - self._log_lo)
        self.counts = [0] * (self.n_bins + 2)  # + underflow/overflow
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        if seconds < self.lo:
            self.counts[0] += 1
        elif seconds >= self.hi:
            self.counts[-1] += 1
        else:
            i = int((math.log(seconds) - self._log_lo) * self._scale)
            self.counts[1 + min(i, self.n_bins - 1)] += 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        if other.n_bins != self.n_bins or other.lo != self.lo:
            raise ValueError("cannot merge histograms with different bins")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)
        return self

    def _edge(self, i: int) -> float:
        """Upper edge of bucket ``i`` (1-based interior index)."""
        return math.exp(self._log_lo + i / self._scale)

    def quantile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if i == 0:
                    return self.lo
                if i == len(self.counts) - 1:
                    return self.max_seconds
                return self._edge(i)
        return self.max_seconds

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Summary view (not the raw buckets) for stats blobs."""
        return {
            "count": self.total,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
            "max_ms": self.max_seconds * 1e3,
        }
