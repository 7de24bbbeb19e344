"""DensityService: the query-serving facade.

One object that answers *point*, *slice*, and *region* density queries
against either a static event snapshot (:class:`~repro.core.grid.PointSet`)
or a live sliding window (:class:`~repro.core.incremental.IncrementalSTKDE`),
choosing the physical plan per batch:

* **direct-sum** — walk the :class:`~repro.serve.index.BucketIndex` and
  evaluate the estimator definition at the query (exact, O(neighbours),
  no volume, honours event weights);
* **volume-lookup** — trilinear sample (points) or zero-copy view
  (slices/regions) of a lazily materialised volume (O(1) per query after
  the build);
* **approx** — ε-budgeted importance sampling over the index's CSR runs
  (:func:`~repro.serve.engine.approx_sum`), available only when the
  request carries an error budget (``query_points(..., eps=0.1)``);
  ``eps=None`` — the default everywhere — keeps the service exact and
  bit-identical to a service without the approximate tier.

The :class:`~repro.serve.planner.QueryPlanner` prices the plans through
the Section 6.5 cost model; ``backend="direct"``/``"lookup"`` (or
``"approx"`` alongside an ``eps``) pins the choice.
Results are cached in a version-keyed LRU (:class:`~repro.serve.cache
.QueryCache`): every mutation of a live source bumps its ``version``
(``add``/``remove``/``slide_window``), which both re-keys and eagerly
drops stale entries — repeat dashboard queries between slides are served
from cache.

Example::

    service = DensityService(points, grid)
    dens = service.query_points(np.array([[x, y, t]]))
    hot = service.query_slice(T).time_slice()
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..analysis.model import CostModel, MachineModel
from ..core.backends import DEFAULT_BACKEND, available_backends, get_backend
from ..core.grid import GridSpec, PointSet, Volume, VoxelWindow
from ..core.incremental import IncrementalSTKDE
from ..core.instrument import WorkCounter
from ..core.kernels import KernelPair, get_kernel
from ..core.stamping import stamp_batch
from ..parallel.executors import resolve_shard_count
from .cache import QueryCache, digest_queries
from .engine import (
    RegionResult,
    approx_sum,
    direct_region,
    direct_sum,
    region_view,
    sample_volume,
    slab_dispatches,
    slice_window,
    validate_queries,
)
from .index import BucketIndex
from .errors import PartialResult
from .faults import FaultPlan
from .planner import QueryPlan, QueryPlanner, ScatterPlan
from .shard import ShardPlan, plan_shards
from .supervisor import ShardSupervisor
from .worker import ShardWorker

__all__ = ["DensityService", "ShardedDensityService"]

Source = Union[PointSet, np.ndarray, IncrementalSTKDE]


class DensityService:
    """Serve density queries for one dataset (static or live).

    Parameters
    ----------
    source:
        A :class:`PointSet` / ``(n, 3)`` array (static snapshot) or an
        :class:`IncrementalSTKDE` (live window; the service re-syncs its
        index, volume, and cache whenever the source's version advances).
    grid:
        Required for static sources; taken from the estimator for live
        ones.
    kernel:
        Kernel pair used for direct sums and materialisation.  Must match
        the live estimator's kernel (checked).
    backend:
        Default physical plan: ``"auto"`` (planner decides per batch),
        ``"direct"``, or ``"lookup"``.  Per-call ``backend=`` overrides.
    compute:
        Registered name of the compute backend (:mod:`repro.core.backends`)
        every kernel sum, region stamp and volume build runs on — a pin.
    cache:
        Result cache; defaults to a 128-entry LRU.  Pass ``None``-ops by
        constructing with ``max_entries=1`` if caching is unwanted.
    machine:
        Calibrated :class:`MachineModel` for the planner; calibrated
        lazily on first ``auto`` plan when omitted.
    index_merge_cap:
        Live-segment cap for the incremental index's merge policy
        (``None`` disables merging) — bounds per-query probe cost under
        sustained tiny-batch slides; see
        :meth:`~repro.analysis.model.CostModel.predict_merge` for the
        trade.
    """

    def __init__(
        self,
        source: Source,
        grid: Optional[GridSpec] = None,
        *,
        kernel: str | KernelPair = "epanechnikov",
        backend: str = "auto",
        compute: str = DEFAULT_BACKEND,
        cache: Optional[QueryCache] = None,
        machine: Optional[MachineModel] = None,
        counter: Optional[WorkCounter] = None,
        index_merge_cap: Optional[int] = 16,
    ) -> None:
        if backend not in ("auto", "direct", "lookup", "approx"):
            raise ValueError(
                f"backend must be 'auto', 'direct', 'lookup' or 'approx', "
                f"got {backend!r}"
            )
        if isinstance(index_merge_cap, str):
            raise ValueError(
                f"index_merge_cap must be an int or None, "
                f"got {index_merge_cap!r}"
            )
        self.kernel = get_kernel(kernel)
        self.backend = backend
        #: Name of the compute backend every kernel sum and stamp of this
        #: service runs on; resolved here so unknown names fail fast.
        self.compute = get_backend(compute).name
        self.index_merge_cap = index_merge_cap
        self.cache = cache if cache is not None else QueryCache()
        self.counter = counter if counter is not None else WorkCounter()
        self._machine = machine
        self._inc: Optional[IncrementalSTKDE] = None
        self._static_coords: Optional[np.ndarray] = None
        self._static_weights: Optional[np.ndarray] = None
        if isinstance(source, IncrementalSTKDE):
            if grid is not None and grid is not source.grid:
                raise ValueError("grid is taken from the live estimator")
            if source.kernel.name != self.kernel.name:
                raise ValueError(
                    f"service kernel {self.kernel.name!r} disagrees with the "
                    f"estimator's {source.kernel.name!r}"
                )
            self.grid = source.grid
            self._inc = source
        else:
            if grid is None:
                raise ValueError("static sources require an explicit grid")
            pts = source if isinstance(source, PointSet) else PointSet(source)
            self.grid = grid
            self._static_coords = pts.coords
            self._static_weights = pts.weights
        # Lazily built, re-synced on version change.
        self._index: Optional[BucketIndex] = None
        self._volume: Optional[np.ndarray] = None
        self._planner: Optional[QueryPlanner] = None
        self._live_coords: Optional[np.ndarray] = None
        self._synced_version: Optional[int] = None
        self._backend_calls: Dict[str, int] = {
            "direct": 0, "lookup": 0, "approx": 0,
        }
        self._plan_decisions: Dict[str, int] = {}
        # Realised-vs-requested ε accounting of the approximate tier.
        self._eps_requested_sum = 0.0
        self._approx_stats: Dict[str, float] = {}
        self._volume_builds = 0
        self._volume_build_backend: Optional[str] = None

    # ------------------------------------------------------------------
    # Source state
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Dataset version currently served (0 forever for static sources)."""
        return self._inc.version if self._inc is not None else 0

    @property
    def weighted(self) -> bool:
        """Whether the served events carry non-uniform weights."""
        return self._static_weights is not None

    @property
    def events(self) -> int:
        """Number of events currently served (live: the window's size)."""
        return int(self._coords().shape[0])

    @property
    def source(self):
        """The live :class:`IncrementalSTKDE` behind this service, or
        ``None`` for static snapshots — how mutation-routing layers (the
        traffic front end) reach ``slide_window`` without reaching into
        privates."""
        return self._inc

    @property
    def volume_ready(self) -> bool:
        """Whether a materialised volume for the current version exists."""
        self._sync()
        return self._volume is not None

    def _coords(self) -> np.ndarray:
        """Current event coordinates (live sources cached per version —
        ``live_coords`` concatenates every tracked batch on each call)."""
        if self._inc is None:
            return self._static_coords  # type: ignore[return-value]
        self._sync()
        if self._live_coords is None:
            self._live_coords = self._inc.live_coords
        return self._live_coords

    def _norm(self) -> float:
        """Estimator prefactor ``1 / (W hs^2 ht)`` (0 for an empty window)."""
        if self._inc is not None:
            w = float(self._inc.n)
        elif self._static_weights is not None:
            w = float(self._static_weights.sum())
        else:
            w = float(self._static_coords.shape[0])  # type: ignore[union-attr]
        if w <= 0.0:
            return 0.0
        return 1.0 / (w * self.grid.hs * self.grid.hs * self.grid.ht)

    def _sync(self) -> None:
        """Re-key derived state when the live source has mutated.

        The ``slide_window`` invalidation wiring: a version change drops
        the materialised volume and every stale cache entry before the
        next query is answered.  The bucket index is **not** dropped — it
        reconciles against the estimator's tracked batches
        (:meth:`BucketIndex.sync`), appending segments for arriving
        batches and retiring departed ones, so keeping it warm across
        versions costs O(changed batches) instead of an O(n) rebuild.
        """
        v = self.version
        if v == self._synced_version:
            return
        if self._index is not None and self._inc is not None:
            self._index.sync(self._inc.live_batches, counter=self.counter)
        self._volume = None
        self._planner = None
        self._live_coords = None
        self.cache.drop_stale(v)
        self._synced_version = v

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def index(self) -> BucketIndex:
        """The bucket index over the current events (built lazily).

        Live sources register one CSR segment per tracked batch, so the
        index stays incrementally maintainable across window slides.
        """
        self._sync()
        if self._index is None:
            if self._inc is not None:
                self._index = BucketIndex(
                    self.grid, merge_segment_cap=self.index_merge_cap
                )
                self._index.sync(self._inc.live_batches, counter=self.counter)
            else:
                self._index = BucketIndex(
                    self.grid, self._coords(), self._static_weights,
                    counter=self.counter,
                    merge_segment_cap=self.index_merge_cap,
                )
        return self._index

    def materialize(self) -> Volume:
        """Force-build (or fetch) the volume backing the lookup plan.

        A static snapshot is stamped with one serial
        :func:`~repro.core.stamping.stamp_batch` (weighted events through
        the engine's weighted mode, normalised by total weight); a live
        source composes its units' buffers, stamping first whichever
        units no earlier read has.  A live source's cold lookup may
        therefore pay the stamp of every pending unit — up to the whole
        window when nothing has read a volume since it was fed — which
        is what :meth:`~repro.analysis.model.CostModel.predict_materialize`
        (a full PB-SYM build) has always charged the lookup plan.
        """
        self._sync()
        if self._volume is None:
            if self._inc is not None:
                self._volume = self._inc.volume().data
                self._volume_build_backend = "incremental"
            else:
                vol = self.grid.allocate()
                self.counter.init_writes += vol.size
                coords = self._coords()
                if coords.shape[0]:
                    stamp_batch(
                        vol, self.grid, self.kernel, coords,
                        self._norm(), self.counter,
                        weights=self._static_weights, compute=self.compute,
                    )
                    self._volume_build_backend = "stamp"
                self._volume = vol
            self._volume_builds += 1
        return Volume(self._volume, self.grid)

    def planner(self) -> QueryPlanner:
        """The query planner (calibrates the machine model on first use).

        Its model prices a cold lookup with the serial build
        :meth:`materialize` runs.
        """
        self._sync()
        if self._planner is None:
            if self._machine is None:
                from .calibrate import calibrate_serving

                self._machine = calibrate_serving()
            model = CostModel(
                self.grid, PointSet(self._coords()), self._machine
            )
            self._planner = QueryPlanner(model)
        return self._planner

    def _resolve_backend(
        self, backend: Optional[str], eps: Optional[float] = None
    ) -> Tuple[Optional[str], Optional[str]]:
        """``(pinned_backend, why)``; ``(None, None)`` = planner's choice.

        Weighted events are no longer pinned to the direct path: the
        engine's weighted stamp mode materialises ``sum w_i k / (W hs^2
        ht)`` volumes, so the planner prices both backends for them too.
        ``"approx"`` is pinnable only alongside an ``eps`` — without a
        budget there is no approximate plan to force.
        """
        choice = backend if backend is not None else self.backend
        if choice == "auto":
            return None, None
        allowed = ("direct", "lookup", "approx") if eps is not None \
            else ("direct", "lookup")
        if choice not in allowed:
            raise ValueError(
                f"backend must be 'auto' or one of {allowed}, got {choice!r}"
            )
        return choice, "forced by caller"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_points(
        self,
        queries: np.ndarray,
        *,
        backend: Optional[str] = None,
        eps: Optional[float] = None,
        seed: int = 0,
        plan_out: Optional[list] = None,
    ) -> np.ndarray:
        """Densities at ``(m, 3)`` query locations.

        ``eps`` is the per-request relative error budget: ``None`` (the
        default) serves exactly; a positive value admits the approximate
        importance-sampling backend wherever the planner prices it below
        both exact plans (``seed`` fixes its sample stream — same batch,
        same budget, same seed is bit-reproducible).  ``plan_out``, when
        a list, receives the :class:`QueryPlan` used — observability
        without changing the return type.
        """
        self._sync()
        q = np.ascontiguousarray(validate_queries(queries))
        if eps is not None and not float(eps) > 0.0:
            raise ValueError(f"eps must be positive or None, got {eps!r}")
        if q.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        force, force_reason = self._resolve_backend(backend, eps)
        # Cache before planning: a hit must not pay the planner's O(n)
        # estimates.  Off voxel centers the two backends differ (exact vs
        # interpolated), so auto mode keys its own entries — a repeated
        # auto query always returns the same answer within a version,
        # never a pinned call's value from the other physical plan.  The
        # error-budget policy is part of the key: an exact request can
        # never alias an approximate result for the same batch (nor one
        # sampled under a different budget or seed).
        digest = digest_queries(q)
        cache_tag = force if force is not None else "auto"
        eps_key: Tuple = (
            ("exact",) if eps is None else ("eps", float(eps), int(seed))
        )
        # The backend name joins the key: backends agree only to
        # rtol=1e-12, so a shared cache must never serve one backend's
        # ulps for another's request.
        key = QueryCache.make_key(
            self.version, "points", cache_tag, self.compute, digest, *eps_key
        )
        cached = self.cache.get(key)
        if cached is not None and plan_out is None:
            return cached
        plan = self.planner().plan_points(
            self.index(), q, volume_ready=self._volume is not None,
            eps=eps, force=force, force_reason=force_reason,
            compute=self.compute,
        ) if force is None or plan_out is not None else None
        if plan is not None:
            self._record_plan(plan)
            if plan_out is not None:
                plan_out.append(plan)
        if cached is not None:
            return cached
        chosen = plan.backend if plan is not None else force
        if chosen == "approx":
            out = approx_sum(
                self.index(), q, self.kernel, self._norm(), self.counter,
                eps=float(eps), seed=seed, stats_out=self._approx_stats,
                compute=self.compute,
            )
            self.counter.queries_approx += q.shape[0]
            self._eps_requested_sum += float(eps) * q.shape[0]
        elif chosen == "direct":
            out = direct_sum(
                self.index(), q, self.kernel, self._norm(), self.counter,
                compute=self.compute,
            )
            self.counter.queries_exact += q.shape[0]
        else:
            out = sample_volume(self.materialize().data, self.grid, q)
            out = self._patch_off_domain(q, out)
            self.counter.queries_exact += q.shape[0]
        self._backend_calls[chosen] += 1
        out.flags.writeable = False
        self.cache.put(key, out, out.nbytes)
        return out

    def _patch_off_domain(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Direct-sum the queries outside the domain box on the lookup path.

        Trilinear sampling clamps to the edge voxel, which would serve the
        boundary plateau forever off-domain while the direct backend
        returns the true (decaying-to-zero) estimator value — the same
        sentinel would flip answers with the planner's choice.  Routing
        the off-domain rows through the index keeps the two backends
        interchangeable everywhere.
        """
        d = self.grid.domain
        outside = (
            (q[:, 0] < d.x0) | (q[:, 0] > d.x0 + d.gx)
            | (q[:, 1] < d.y0) | (q[:, 1] > d.y0 + d.gy)
            | (q[:, 2] < d.t0) | (q[:, 2] > d.t0 + d.gt)
        )
        if outside.any():
            out = out.copy()
            out[outside] = direct_sum(
                self.index(), q[outside], self.kernel, self._norm(),
                self.counter, compute=self.compute,
            )
        return out

    def query_slice(
        self, T: int, *, backend: Optional[str] = None
    ) -> RegionResult:
        """The full ``(Gx, Gy)`` density slice at voxel time ``T``."""
        return self.query_region(slice_window(self.grid, T), backend=backend)

    def query_region(
        self,
        window: VoxelWindow | Tuple[int, int, int, int, int, int],
        *,
        backend: Optional[str] = None,
        plan_out: Optional[list] = None,
    ) -> RegionResult:
        """Density over a voxel window ``[x0:x1) x [y0:y1) x [t0:t1)``.

        Lookup plans return a **view** of the materialised volume (zero
        copy); direct plans stamp a fresh
        :class:`~repro.core.regions.RegionBuffer` covering only the
        window.  Both are read-only and cache-shared.
        """
        self._sync()
        if not isinstance(window, VoxelWindow):
            window = VoxelWindow(*window)
        window = window.intersect(self.grid.full_window())
        if window.empty:
            raise ValueError(f"region window is empty on this grid: {window}")
        force, force_reason = self._resolve_backend(backend)
        # Cache before planning (see query_points): hits skip the
        # planner's O(n) region estimate entirely.  Unlike point queries,
        # region extracts are bit-identical across backends (both are the
        # stamped grid values), so auto mode may reuse any variant.
        wkey = (window.x0, window.x1, window.y0, window.y1, window.t0, window.t1)
        variants = (force,) if force is not None else ("direct", "lookup")
        cached = self.cache.get_first(
            [QueryCache.make_key(self.version, "region", b, wkey)
             for b in variants]
        )
        if cached is not None and plan_out is None:
            return cached
        plan = self.planner().plan_region(
            window, volume_ready=self._volume is not None,
            force=force, force_reason=force_reason,
        ) if force is None or plan_out is not None else None
        if plan is not None:
            self._record_plan(plan)
            if plan_out is not None:
                plan_out.append(plan)
        if cached is not None:
            return cached
        chosen = plan.backend if plan is not None else force
        if chosen == "direct":
            result = direct_region(
                self.grid, self.kernel, self._coords(), window,
                self._norm(), self.counter, weights=self._static_weights,
                compute=self.compute,
            )
        else:
            result = region_view(self.materialize().data, window)
        self._backend_calls[chosen] += 1
        # Views alias the materialised volume: no extra payload bytes.
        self.cache.put(
            QueryCache.make_key(self.version, "region", chosen, wkey),
            result, 0 if result.is_view else result.data.nbytes,
        )
        return result

    # ------------------------------------------------------------------
    def _record_plan(self, plan: QueryPlan) -> None:
        """Tally a planner verdict for the observability stats."""
        key = f"{plan.kind}:{plan.backend}"
        self._plan_decisions[key] = self._plan_decisions.get(key, 0) + 1

    def _compute_stats(self) -> Dict[str, object]:
        """The ``compute`` observability blob: the service's backend, the
        registry, the dispatches each backend actually ran (one key when
        the pin held) and JIT warmup — one-time compile cost paid on first
        touch, reported separately so steady-state rates stay honest."""
        warmup = {
            name: get_backend(name).warmup_seconds
            for name in available_backends()
            if get_backend(name).warmup_seconds > 0.0
        }
        return {
            "backend": self.compute,
            "available": list(available_backends()),
            "dispatches": dict(self.counter.backend_dispatches),
            "jit_warmup_seconds": warmup,
        }

    def stats(self) -> Dict[str, object]:
        """Serving counters: cache behaviour, backend mix, builds, index
        segment gauges, slide-pipeline work (slab retirement, segment
        merging, index repacks), and planner decisions — the JSON blob
        ``repro query --stats`` prints for load balancers and
        dashboards."""
        cache = self.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        c = self.counter
        work = {
            "index_events_bucketed": c.index_events_bucketed,
            "index_events_retired": c.index_events_retired,
            "index_segments_merged": c.index_segments_merged,
            "index_rows_compacted": c.index_rows_compacted,
            "query_cohorts": c.query_cohorts,
            "queries_exact": c.queries_exact,
            "queries_approx": c.queries_approx,
            "sample_rows_drawn": c.sample_rows_drawn,
        }
        if self._inc is not None:
            # The live source's own slide gauges (slabs dropped vs
            # straddle survivors re-planned — the O(delta) retirement
            # evidence) and how many of its units any read has stamped:
            # 0 of ``units_live`` while every answer comes off the index.
            ic = self._inc.counter
            work["slab_buffers_retired"] = ic.slab_buffers_retired
            work["slab_restamp_points"] = ic.slab_restamp_points
            work["units_live"] = self._inc.units_live
            work["units_stamped"] = self._inc.units_stamped
        # Realised-vs-requested ε of the approximate tier: the mean
        # requested budget against the mean realised relative standard
        # error the sampler's own stop rule recorded per query.
        aq = int(self._approx_stats.get("queries", 0))
        approx = {
            "queries": aq,
            "eps_requested_mean": (
                self._eps_requested_sum / c.queries_approx
                if c.queries_approx else None
            ),
            "eps_realised_mean": (
                self._approx_stats.get("rel_se_sum", 0.0) / aq
                if aq else None
            ),
            "sample_rows_drawn": int(
                self._approx_stats.get("sample_rows_drawn", 0)
            ),
            "candidate_rows": int(
                self._approx_stats.get("candidate_rows", 0)
            ),
            "exact_fallbacks": int(
                self._approx_stats.get("exact_fallbacks", 0)
            ),
        }
        return {
            "version": self.version,
            "events": int(self._coords().shape[0]),
            "weighted": self.weighted,
            "volume_ready": self._volume is not None,
            "volume_builds": self._volume_builds,
            "volume_build_backend": self._volume_build_backend,
            "backend_calls": dict(self._backend_calls),
            "planner_decisions": dict(self._plan_decisions),
            "compute": self._compute_stats(),
            "index_merge_cap": self.index_merge_cap,
            "cache": cache,
            "cache_hit_ratio": (cache["hits"] / lookups) if lookups else None,
            "approx": approx,
            "work": work,
            "index": (
                self._index.stats() if self._index is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = "live" if self._inc is not None else "static"
        return (
            f"DensityService({src}, n={self._coords().shape[0]}, "
            f"grid={self.grid.shape}, backend={self.backend!r})"
        )


class ShardedDensityService:
    """Multi-process sharded serving: shard-owning workers behind one facade.

    Partitions the domain into ``workers`` disjoint x-slabs
    (:class:`~repro.serve.shard.ShardPlan`) and spawns one worker process
    per shard, each owning a private :class:`BucketIndex` (and, in live
    mode, a private :class:`~repro.core.incremental.IncrementalSTKDE`)
    over *its events only*.  Queries are scattered by home cell with a
    one-bandwidth halo — every shard whose owned interval intersects a
    query's kernel support computes an **unnormalised partial sum** — and
    the coordinator gathers, adds, and applies the global ``1 / (W hs^2
    ht)`` prefactor.  Because ownership is disjoint, the gathered sum
    re-associates (never re-weights) the single-process estimator:
    equivalence holds at ``rtol=1e-12``.

    Mutations route **only to affected shards**: ``add``/``remove``
    contact the owners of the touched rows, ``slide_window`` the owners
    of arriving rows plus shards whose earliest live event predates the
    horizon.  :attr:`counter`'s ``shard_messages`` / ``shard_rows_shipped``
    gauge that routing (observability ``stats`` traffic is deliberately
    excluded).

    Per batch the planner prices scatter/gather IPC against a local
    single-process plan (:meth:`~repro.serve.planner.QueryPlanner
    .plan_scatter`): static sources fall back to a lazily built local
    :class:`DensityService` when the batch is too small to amortise the
    round-trips; live sources always serve sharded (the events live in
    the workers — the plan is still recorded).

    Parameters
    ----------
    source:
        A :class:`PointSet` / ``(n, 3)`` array for a static (possibly
        weighted) snapshot, or ``None`` for a live sliding window fed
        through :meth:`add` / :meth:`slide_window`.
    grid:
        The serving grid (always required).
    workers:
        Worker process count (= shard count); ``"auto"`` takes the CPU
        affinity count.
    plan:
        Pre-built :class:`ShardPlan` (cuts are otherwise balanced on the
        snapshot's column histogram, uniform for an empty live start).
    backend:
        ``"auto"`` (planner decides per batch), ``"sharded"``, or
        ``"local"`` (static sources only).
    compute:
        Registered name of the compute backend every worker runs (handed
        over once, at spawn) — a pin.
    machine:
        Calibrated :class:`MachineModel`; calibrated lazily
        (:func:`~repro.serve.calibrate.calibrate_ipc` over
        :func:`~repro.serve.calibrate.calibrate_serving`) on first auto
        plan when omitted.
    max_restarts:
        Per-shard restart budget: how many times a dead or wedged
        worker is respawned (with its state replayed from the
        coordinator's mutation log) before the shard is declared down.
    restart_backoff_s:
        Base respawn backoff; attempt ``k`` waits ``2**k`` times this.
    request_timeout:
        Per-request deadline (seconds) on every worker round-trip, so a
        wedged worker surfaces as a typed
        :class:`~repro.serve.errors.ShardTimeout` (and is recovered)
        instead of hanging the gather.  ``None`` waits forever.
    fault_plan:
        Optional :class:`~repro.serve.faults.FaultPlan` injected into
        the workers (chaos testing); defaults to the plan in the
        ``REPRO_FAULTS`` environment variable, if any.
    on_shard_failure:
        Default read policy when a shard stays failed after recovery:
        ``"raise"`` (typed :class:`~repro.serve.errors.ShardFailed`) or
        ``"partial"`` — gather the surviving shards and return a
        coverage-tagged :class:`~repro.serve.errors.PartialResult`.
        Overridable per call on :meth:`query_points`.

    Use as a context manager (or call :meth:`close`) so the worker pool
    is always torn down::

        with ShardedDensityService(points, grid, workers=4) as svc:
            dens = svc.query_points(queries)
    """

    def __init__(
        self,
        source: Optional[Union[PointSet, np.ndarray]],
        grid: GridSpec,
        *,
        workers: Union[int, str] = "auto",
        plan: Optional[ShardPlan] = None,
        kernel: str | KernelPair = "epanechnikov",
        backend: str = "auto",
        compute: str = DEFAULT_BACKEND,
        machine: Optional[MachineModel] = None,
        counter: Optional[WorkCounter] = None,
        index_merge_cap: Optional[int] = 16,
        t_slab_voxels="auto",
        max_restarts: int = 3,
        restart_backoff_s: float = 0.05,
        request_timeout: Optional[float] = 30.0,
        fault_plan: Optional[FaultPlan] = None,
        on_shard_failure: str = "raise",
    ) -> None:
        if backend not in ("auto", "sharded", "local"):
            raise ValueError(
                f"backend must be 'auto', 'sharded' or 'local', "
                f"got {backend!r}"
            )
        if on_shard_failure not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'raise' or 'partial', "
                f"got {on_shard_failure!r}"
            )
        if isinstance(index_merge_cap, str):
            raise ValueError(
                f"index_merge_cap must be an int or None, "
                f"got {index_merge_cap!r}"
            )
        self.grid = grid
        self.kernel = get_kernel(kernel)
        self.backend = backend
        #: Name of the compute backend of every worker and of the local
        #: fallback; resolved here, before any process is spawned.  Workers
        #: get the *name* at spawn and resolve it in their own registry.
        self.compute = get_backend(compute).name
        self.counter = counter if counter is not None else WorkCounter()
        self._machine = machine
        self._planner: Optional[QueryPlanner] = None
        self._closed = False
        self._version = 0
        self._plan_decisions: Dict[str, int] = {}
        self._backend_calls: Dict[str, int] = {"sharded": 0, "local": 0}
        self._local: Optional[DensityService] = None
        self._static_coords: Optional[np.ndarray] = None
        self._static_weights: Optional[np.ndarray] = None
        if source is None:
            self._live = True
            seed_coords = np.empty((0, 3), dtype=np.float64)
        else:
            self._live = False
            pts = source if isinstance(source, PointSet) else PointSet(source)
            self._static_coords = pts.coords
            self._static_weights = pts.weights
            seed_coords = pts.coords
        P = resolve_shard_count(workers)
        self.plan = plan if plan is not None else plan_shards(
            grid, seed_coords, P
        )
        self.on_shard_failure = on_shard_failure
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()

        def _spawn(s: int, fp: Optional[FaultPlan]) -> ShardWorker:
            # ctx=None: each ShardWorker defaults to the spawn context.
            return ShardWorker(
                s, grid, self.kernel.name,
                merge_cap=index_merge_cap, t_slab=t_slab_voxels, ctx=None,
                fault_plan=fp, compute=self.compute,
            )

        self._sup = ShardSupervisor(
            self.plan.n_shards, _spawn,
            counter=self.counter,
            max_restarts=max_restarts,
            backoff_s=restart_backoff_s,
            request_timeout=request_timeout,
            fault_plan=fault_plan,
            gauges_cb=self._apply_gauges,
        )
        # Coordinator routing state, refreshed from every mutation reply.
        self._shard_events = [0] * self.n_shards
        self._shard_weight = [0.0] * self.n_shards
        self._shard_min_t = [float("inf")] * self.n_shards
        if not self._live:
            self._distribute_static()

    @property
    def _workers(self):
        """The live worker handles (owned and replaced by the supervisor)."""
        return self._sup.workers

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def version(self) -> int:
        """Bumped by every mutation (mirrors the live estimator's)."""
        return self._version

    @property
    def weighted(self) -> bool:
        return self._static_weights is not None

    @property
    def events(self) -> int:
        """Total live events across all shards."""
        return int(sum(self._shard_events))

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedDensityService is closed")

    def _norm(self) -> float:
        """Global estimator prefactor over the gathered partial sums."""
        w = float(sum(self._shard_weight))
        if w <= 0.0:
            return 0.0
        return 1.0 / (w * self.grid.hs * self.grid.hs * self.grid.ht)

    def _apply_gauges(self, s: int, gauges) -> None:
        events, weight, min_t = gauges
        self._shard_events[s] = events
        self._shard_weight[s] = weight
        self._shard_min_t[s] = min_t

    def _distribute_static(self) -> None:
        coords = self._static_coords
        weights = self._static_weights
        parts = self.plan.partition(coords)
        sends = []
        for s in range(self.n_shards):
            part_w = None if weights is None else weights[parts[s]]
            payload = (coords[parts[s]], part_w)
            self._sup.record(s, "static", payload)
            sends.append((s, "static", payload))
            self.counter.shard_messages += 1
            self.counter.shard_rows_shipped += int(parts[s].size)
        results, _ = self._sup.scatter(sends, on_failure="raise")
        for s in range(self.n_shards):
            self._apply_gauges(s, results[s])

    # ------------------------------------------------------------------
    # Planner
    # ------------------------------------------------------------------
    def planner(self) -> QueryPlanner:
        """The scatter planner (calibrates IPC rates on first use)."""
        if self._planner is None:
            if self._machine is None:
                from .calibrate import calibrate_ipc, calibrate_serving

                self._machine = calibrate_ipc(calibrate_serving())
            model = CostModel(
                self.grid, PointSet(np.empty((0, 3))), self._machine
            )
            self._planner = QueryPlanner(model)
        return self._planner

    def _est_candidates(self, m: int) -> int:
        """Crude candidate estimate: events under a uniform density times
        the 27-cell (one-bandwidth) neighbourhood's domain fraction."""
        n = self.events
        d = self.grid.domain
        vol = d.gx * d.gy * d.gt
        if vol <= 0.0 or n == 0:
            return 0
        frac = min(
            1.0,
            (27.0 * self.grid.hs * self.grid.hs * self.grid.ht) / vol,
        )
        return int(m * n * frac)

    def _resolve_backend(self, backend: Optional[str]):
        choice = backend if backend is not None else self.backend
        if choice == "auto":
            if self._live:
                # The events live in the workers: a live window has no
                # local fallback, only the recorded plan.
                return "sharded", "live source serves sharded"
            return None, None
        if choice not in ("sharded", "local"):
            raise ValueError(
                f"backend must be 'auto', 'sharded' or 'local', "
                f"got {choice!r}"
            )
        if choice == "local" and self._live:
            raise ValueError(
                "live sources cannot serve locally — the events are "
                "owned by the worker processes"
            )
        return choice, "forced by caller"

    def _local_service(self) -> DensityService:
        """Lazily built single-process fallback over the static snapshot."""
        if self._local is None:
            src = PointSet(self._static_coords, self._static_weights)
            self._local = DensityService(
                src, self.grid, kernel=self.kernel,
                compute=self.compute,
                machine=self._machine, counter=self.counter,
            )
        return self._local

    def _record_plan(self, plan: ScatterPlan) -> None:
        key = f"scatter:{plan.backend}"
        self._plan_decisions[key] = self._plan_decisions.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_points(
        self,
        queries: np.ndarray,
        *,
        backend: Optional[str] = None,
        eps: Optional[float] = None,
        seed: int = 0,
        plan_out: Optional[list] = None,
        on_shard_failure: Optional[str] = None,
    ) -> np.ndarray:
        """Densities at ``(m, 3)`` query locations (scatter/gather).

        ``eps`` threads the per-request error budget down to the workers:
        each shard answers its scattered rows with an *unnormalised
        partial estimate* (exact when ``eps`` is ``None``, importance-
        sampled otherwise).  Ownership is disjoint, so partial
        Hansen–Hurwitz estimates over disjoint event subsets add exactly
        like exact partials — unbiasedness and the combined variance
        budget survive the gather, the same re-association argument as
        the sharded exact path.

        ``on_shard_failure`` picks the degraded-read policy when a shard
        stays failed after supervised recovery: ``"raise"`` surfaces the
        typed :class:`~repro.serve.errors.ShardFailed`; ``"partial"``
        returns the surviving shards' gather as a
        :class:`~repro.serve.errors.PartialResult` whose ``coverage`` is
        the mass-weighted fraction of total event weight that answered
        (the missing shards are a hole of exactly ``1 - coverage`` of
        the estimator's mass — a typed lower bound, never a silent
        error).  ``None`` uses the service default.
        """
        self._check_open()
        policy = (
            self.on_shard_failure
            if on_shard_failure is None else on_shard_failure
        )
        if policy not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'raise' or 'partial', "
                f"got {policy!r}"
            )
        q = np.ascontiguousarray(validate_queries(queries))
        if eps is not None and not float(eps) > 0.0:
            raise ValueError(f"eps must be positive or None, got {eps!r}")
        m = q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.float64)
        lo, hi = self.plan.scatter_spans(q[:, 0])
        fanout = int((hi - lo + 1).sum())
        force, force_reason = self._resolve_backend(backend)
        plan = None
        if force is None or plan_out is not None:
            cand = self._est_candidates(m)
            plan = self.planner().plan_scatter(
                m, cand, self.n_shards, fanout,
                n_cohorts=slab_dispatches(cand),
                force=force, force_reason=force_reason,
            )
            self._record_plan(plan)
            if plan_out is not None:
                plan_out.append(plan)
        chosen = plan.backend if plan is not None else force
        if chosen == "local":
            self._backend_calls["local"] += 1
            return self._local_service().query_points(q, eps=eps, seed=seed)
        out = np.zeros(m, dtype=np.float64)
        sends = []
        shard_rows: Dict[int, np.ndarray] = {}
        for s in range(self.n_shards):
            rows = np.flatnonzero((lo <= s) & (s <= hi))
            if rows.size == 0:
                continue
            sends.append((
                s, "query_points",
                (q[rows], None if eps is None else float(eps), int(seed)),
            ))
            shard_rows[s] = rows
            self.counter.shard_messages += 1
            self.counter.shard_rows_shipped += int(rows.size)
        results, failed = self._sup.scatter(sends, on_failure=policy)
        for s, partial in results.items():
            out[shard_rows[s]] += partial
            self.counter.shard_rows_shipped += int(shard_rows[s].size)
        out *= self._norm()
        self._backend_calls["sharded"] += 1
        if eps is not None:
            self.counter.queries_approx += m
        else:
            self.counter.queries_exact += m
        if failed:
            if not results:
                # Nothing survived: there is no partial to return.
                raise next(iter(failed.values()))
            self.counter.degraded_queries += m
            return PartialResult(
                out, self._coverage(failed), sorted(failed)
            )
        return out

    def _coverage(self, failed) -> float:
        """Mass-weighted surviving fraction for a degraded gather."""
        total = float(sum(self._shard_weight))
        if total <= 0.0:
            return 1.0
        lost = float(sum(self._shard_weight[s] for s in failed))
        return max(0.0, 1.0 - lost / total)

    def query_slice(
        self, T: int, *, backend: Optional[str] = None
    ) -> RegionResult:
        """The full ``(Gx, Gy)`` density slice at voxel time ``T``."""
        return self.query_region(slice_window(self.grid, T), backend=backend)

    def query_region(
        self,
        window: VoxelWindow | Tuple[int, int, int, int, int, int],
        *,
        backend: Optional[str] = None,
    ) -> RegionResult:
        """Density over a voxel window, summed from per-shard stamps.

        Every shard owning events within one halo of the window stamps
        them (unnormalised) into a window-covering region buffer; the
        coordinator sums the arrays and applies the prefactor — the same
        partition-exactness argument as point queries, per voxel.
        """
        self._check_open()
        if not isinstance(window, VoxelWindow):
            window = VoxelWindow(*window)
        window = window.intersect(self.grid.full_window())
        if window.empty:
            raise ValueError(f"region window is empty on this grid: {window}")
        force, _ = self._resolve_backend(backend)
        if force == "local":
            self._backend_calls["local"] += 1
            return self._local_service().query_region(window)
        shards = self.plan.shards_for_window(window)
        wkey = (window.x0, window.x1, window.y0, window.y1,
                window.t0, window.t1)
        sends = []
        for s in shards:
            sends.append((int(s), "query_region", wkey))
            self.counter.shard_messages += 1
        results, _ = self._sup.scatter(sends, on_failure="raise")
        data = np.zeros(window.shape, dtype=np.float64)
        for s in shards:
            part = results[int(s)]
            data += part
            self.counter.shard_rows_shipped += int(part.size)
        data *= self._norm()
        data.flags.writeable = False
        self._backend_calls["sharded"] += 1
        return RegionResult(window, data, "sharded")

    # ------------------------------------------------------------------
    # Mutations (live sources)
    # ------------------------------------------------------------------
    def _check_live(self, op: str) -> None:
        if not self._live:
            raise RuntimeError(
                f"{op} requires a live source; this service serves a "
                f"static snapshot"
            )

    def _route_rows(self, op: str, coords: np.ndarray) -> int:
        """Send ``op`` with each shard's owned rows to owners only.

        Each routed batch is recorded into the supervisor's mutation log
        *before* the send — the invariant replay-based recovery rests
        on: a worker that dies mid-mutation is respawned and the replay
        itself completes the mutation.
        """
        parts = self.plan.partition(coords)
        contacted = [s for s in range(self.n_shards) if parts[s].size]
        sends = []
        for s in contacted:
            payload = coords[parts[s]]
            self._sup.record(s, op, payload)
            sends.append((s, op, payload))
            self.counter.shard_messages += 1
            self.counter.shard_rows_shipped += int(parts[s].size)
        results, _ = self._sup.scatter(sends, on_failure="raise")
        for s in contacted:
            self._apply_gauges(s, results[s])
        self._version += 1
        return len(contacted)

    def add(self, points: Union[PointSet, np.ndarray]) -> None:
        """Insert events, routed to their owning shards only."""
        self._check_open()
        self._check_live("add")
        coords = IncrementalSTKDE._coerce_unweighted(points)
        if coords.shape[0] == 0:
            return
        self._route_rows("add", np.asarray(coords, dtype=np.float64))

    def remove(self, points: Union[PointSet, np.ndarray]) -> None:
        """Retire events, routed to their owning shards only.

        Ownership is a pure function of the x coordinate, so a removed
        row always reaches the shard that holds it.
        """
        self._check_open()
        self._check_live("remove")
        coords = IncrementalSTKDE._coerce_unweighted(points)
        if coords.shape[0] == 0:
            return
        self._route_rows("remove", np.asarray(coords, dtype=np.float64))

    def slide_window(
        self, new_points: Union[PointSet, np.ndarray], t_horizon: float
    ) -> int:
        """Advance the window: O(affected shards), not O(workers).

        Contacts only shards that receive arriving rows or whose
        earliest live event predates ``t_horizon`` — an idle shard
        (nothing arriving, nothing expiring) gets **no message**, which
        is the routing contract ``shard_messages`` gauges.
        """
        self._check_open()
        self._check_live("slide_window")
        coords = np.asarray(
            IncrementalSTKDE._coerce_unweighted(new_points), dtype=np.float64
        )
        t_horizon = float(t_horizon)
        parts = self.plan.partition(coords)
        contacted = [
            s for s in range(self.n_shards)
            if parts[s].size or self._shard_min_t[s] < t_horizon
        ]
        sends = []
        for s in contacted:
            payload = (coords[parts[s]], t_horizon)
            self._sup.record(s, "slide", payload)
            sends.append((s, "slide", payload))
            self.counter.shard_messages += 1
            self.counter.shard_rows_shipped += int(parts[s].size)
        results, _ = self._sup.scatter(sends, on_failure="raise")
        retired = 0
        for s in contacted:
            reply = results[s]
            retired += int(reply[0])
            self._apply_gauges(s, reply[1:])
        self._version += 1
        return retired

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Coordinator and per-worker serving gauges.

        ``work`` is the coordinator's counter merged with every worker's
        (one :class:`WorkCounter` per process, merged here — the
        cross-process analogue of the threaded schedulers' per-task
        counter merge); ``workers`` keeps the per-shard views.  The
        ``stats`` round-trips themselves are *not* counted into
        ``shard_messages`` so the routing gauge stays about serving
        traffic.
        """
        self._check_open()
        sends = [(s, "stats", None) for s in range(self.n_shards)]
        results, failed = self._sup.scatter(sends, on_failure="partial")
        per_worker = [
            results.get(s, {"down": True, "events": 0, "weight": 0.0})
            for s in range(self.n_shards)
        ]
        merged = self.counter.copy()
        for ws in per_worker:
            if "work" in ws:
                merged.merge(WorkCounter(**ws["work"]))
        recovery = self._sup.stats()
        recovery["down_shards"] = sorted(
            set(recovery["down_shards"]) | set(failed)
        )
        return {
            "version": self._version,
            "events": self.events,
            "weighted": self.weighted,
            "n_shards": self.n_shards,
            "cuts": [float(c) for c in self.plan.cuts],
            "shard_events": list(self._shard_events),
            "backend_calls": dict(self._backend_calls),
            "planner_decisions": dict(self._plan_decisions),
            "compute": {
                "backend": self.compute,
                "available": list(available_backends()),
                # Dispatches merged across worker processes, so sharded
                # backend traffic stays observable at the coordinator.
                "dispatches": dict(merged.backend_dispatches),
            },
            "work": merged.as_dict(),
            "workers": per_worker,
            "recovery": recovery,
            "local": (
                self._local.stats() if self._local is not None else None
            ),
        }

    def close(self, grace: Optional[float] = None) -> None:
        """Shut every worker down (idempotent; errors don't leak workers).

        Safe after any fault: dead workers are reaped without secondary
        pipe errors, survivors get a graceful close within ``grace``.
        """
        if self._closed:
            return
        self._closed = True
        self._sup.close(grace=grace)

    def __enter__(self) -> "ShardedDensityService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except BaseException:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = "live" if self._live else "static"
        return (
            f"ShardedDensityService({src}, shards={self.n_shards}, "
            f"events={self.events}, grid={self.grid.shape})"
        )
