"""One service: :class:`DensityService`, hosted in process or sharded.

A normalised sum of kernel stamps over disjoint event subsets can be taken
subset by subset and added; the serving tier is that fact applied to
queries.  A :class:`~repro.serve.shard.Shard` holds one subset behind its
index and returns kernel sums over it; whoever knows the total weight
``W`` supplies the prefactor ``1 / (W hs^2 ht)`` — as an *argument*, never
a post-multiply (see :mod:`repro.serve.shard`).

* :class:`DensityService` hosts **one shard in process** — the one-subset
  partition — and owns the request skeleton: constructor and request
  validation, the prefactor, backend resolution, the planner and its
  machine model, the plan tally, the result cache, the ``stats()`` frame
  and the ``add`` / ``remove`` / ``slide_window`` mutation surface.
* :class:`ShardedDensityService` **is** a :class:`DensityService` and adds
  only what differs: spawn and supervise one worker process per shard
  (each hosting the same ``Shard`` class, :mod:`repro.serve.worker`),
  partition and route, a log of each shard's live rows (gauges, remove
  checks and replay all read it), scatter / gather of **unnormalised**
  partials with degraded reads, merged worker stats, ``close``.  Its
  ``local`` arm is the inherited in-process path; the scatter arm has no
  result cache.

In process, each batch is answered by one of the three physical plans of
:mod:`repro.serve.engine`: **direct-sum** over the bucket index (exact,
no volume), **volume-lookup** of a lazily materialised volume (O(1) per
query after the build), or **approx** — only when the request carries an
error budget (``query_points(..., eps=0.1)``); ``eps=None``, the default
everywhere, keeps the service exact and bit-identical to a service
without the approximate tier.

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

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..analysis.model import CostModel, MachineModel
from ..core.grid import GridSpec, PointSet, Volume, VoxelWindow
from ..core.incremental import IncrementalSTKDE
from ..core.index import BucketIndex
from ..core.instrument import WorkCounter
from ..core.kernels import KernelPair, get_kernel
from ..core.stamping import stamp_batch
from ..core.window import coerce_horizon, coerce_unweighted
from ..parallel.executors import resolve_shard_count
from .cache import QueryCache, digest_queries
from .engine import (
    RegionResult,
    region_view,
    sample_volume,
    slab_dispatches,
    slice_window,
    uniform_candidates,
    validate_queries,
)
from .errors import PartialResult
from .faults import FaultPlan
from .planner import QueryPlanner
from .shard import Shard, ShardPlan, plan_shards
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
        :class:`IncrementalSTKDE` (live window: point sums walk the
        estimator's own index, the service counts on its counter so the
        index work of its mutations shows up in :meth:`stats`, and the
        volume and cache are dropped whenever the source's version
        advances).
    grid:
        Required for static sources; taken from the estimator for live
        ones.
    kernel:
        Kernel pair used for direct sums and materialisation.  Must match
        the live estimator's kernel (checked).
    backend:
        Default physical plan: ``"auto"`` (planner decides per batch),
        ``"direct"``, ``"lookup"``, or ``"approx"`` — which pins the
        sampler for requests that carry an ``eps`` and means ``"auto"``
        for every other.  Per-call ``backend=`` overrides.
    machine:
        Calibrated :class:`MachineModel` for the planner; calibrated
        lazily on first ``auto`` plan when omitted.

    Every kernel sum, region stamp and volume build runs on
    :data:`~repro.core.backends.DEFAULT_BACKEND`, and answers are kept in
    the service's own 128-entry LRU, :attr:`cache`.
    """

    #: What ``backend=`` may pin besides ``"auto"``.
    _BACKENDS: Tuple[str, ...] = ("direct", "lookup", "approx")
    #: The :class:`ShardPlan` scattered reads follow; ``None`` in process.
    plan: Optional[ShardPlan] = None

    def __init__(
        self,
        source: Source,
        grid: Optional[GridSpec] = None,
        *,
        kernel: str | KernelPair = "epanechnikov",
        backend: str = "auto",
        machine: Optional[MachineModel] = None,
    ) -> None:
        if backend != "auto" and backend not in self._BACKENDS:
            raise ValueError(
                f"backend must be 'auto' or one of {self._BACKENDS}, "
                f"got {backend!r}"
            )
        self.kernel = get_kernel(kernel)
        self.backend = backend
        self.cache = QueryCache()
        self._machine = machine
        self._live = isinstance(source, IncrementalSTKDE)
        if self._live:
            if grid is not None and grid is not source.grid:
                raise ValueError("grid is taken from the live estimator")
            if source.kernel.name != self.kernel.name:
                raise ValueError(
                    f"service kernel {self.kernel.name!r} disagrees with the "
                    f"estimator's {source.kernel.name!r}"
                )
            grid = source.grid
        elif grid is None:
            raise ValueError("static sources require an explicit grid")
        self.grid = grid
        self.counter = source.counter if self._live else WorkCounter()
        self._inc = source if self._live else None
        #: The events served in process, behind their index.
        self._shard = Shard(
            grid, self.kernel, counter=self.counter,
            window=source.window if self._live else None,
        )
        if not self._live:
            pts = source if isinstance(source, PointSet) else PointSet(source)
            self._shard.load_static(pts.coords, pts.weights)
        # Lazily built, dropped when the version moves.
        self._volume: Optional[np.ndarray] = None
        self._planner: Optional[QueryPlanner] = None
        self._synced_version: Optional[int] = None
        self._backend_calls = dict.fromkeys(DensityService._BACKENDS, 0)
        self._plan_decisions: Dict[str, int] = {}
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
        return self._shard.weights is not None

    @property
    def events(self) -> int:
        """Number of events currently served (live: the window's size)."""
        return self._shard.events

    @property
    def index_segments(self) -> int:
        """Segments a point probe walks in the index it is answered from."""
        return self.index().segment_count

    @property
    def volume_ready(self) -> bool:
        """Whether a materialised volume for the current version exists."""
        self._sync()
        return self._volume is not None

    def _norm(self, weight: Optional[float] = None) -> float:
        """Estimator prefactor ``1 / (W hs^2 ht)`` for total weight ``W``
        (default: the events served in process); 0 for an empty window."""
        w = self._shard.weight() if weight is None else weight
        if w <= 0.0:
            return 0.0
        return 1.0 / (w * self.grid.hs * self.grid.hs * self.grid.ht)

    def _sync(self) -> None:
        """Re-key derived state when the live source has mutated.

        The ``slide_window`` invalidation wiring: a version change drops
        the materialised volume and every stale cache entry before the
        next query is answered.  There is no index to catch up: a live
        window's index is the estimator's own, which every mutation
        leaves current.
        """
        v = self.version
        if v != self._synced_version:
            self._volume = None
            self._planner = None
            self.cache.drop_stale(v)
            self._synced_version = v

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def index(self) -> BucketIndex:
        """The bucket index over the current events (built lazily)."""
        self._sync()
        return self._shard.index()

    def materialize(self) -> Volume:
        """Force-build (or fetch) the volume backing the lookup plan.

        A static snapshot is stamped with one serial
        :func:`~repro.core.stamping.stamp_batch` (weighted events through
        the engine's weighted mode, normalised by total weight); a live
        source composes its units' buffers, stamping first whichever
        units no earlier read has, and scales only the t-planes they
        cover.  A live source's cold lookup may therefore pay the stamp
        of every pending unit — up to the whole window when nothing has
        read a volume since it was fed — which is what :meth:`~repro.analysis.model.CostModel.predict_materialize`
        (a full PB-SYM build) has always charged the lookup plan.  No
        index is built here.
        """
        self._sync()
        if self._volume is None:
            if self._live:
                self._volume = self._inc.volume().data
                self._volume_build_backend = "incremental"
            else:
                vol = self.grid.allocate()
                self.counter.init_writes += vol.size
                coords = self._shard.rows()
                if coords.shape[0]:
                    stamp_batch(
                        vol, self.grid, self.kernel, coords,
                        self._norm(), self.counter,
                        weights=self._shard.weights,
                    )
                    self._volume_build_backend = "stamp"
                self._volume = vol
            self._volume_builds += 1
        return Volume(self._volume, self.grid)

    def _calibrate(self) -> MachineModel:
        from .calibrate import calibrate_serving

        return calibrate_serving()

    def planner(self) -> QueryPlanner:
        """The query planner (calibrates the machine model on first use).

        Its model prices a cold lookup with the serial build
        :meth:`materialize` runs.
        """
        self._sync()
        if self._planner is None:
            if self._machine is None:
                self._machine = self._calibrate()
            model = CostModel(self.grid, PointSet(self._rows()), self._machine)
            self._planner = QueryPlanner(model)
        return self._planner

    def _rows(self) -> np.ndarray:
        """The served events' coordinates: what the planner's model prices."""
        return self._shard.rows()

    def _resolve_backend(
        self, backend: Optional[str], eps: Optional[float] = None
    ) -> Tuple[Optional[str], Optional[str]]:
        """``(pinned_backend, why)``; ``(None, None)`` = planner's choice.

        ``"approx"`` is pinnable only alongside an ``eps`` — without a
        budget there is no approximate plan to force, so a per-call
        ``"approx"`` raises and a service default of it stands aside.
        """
        choice = backend if backend is not None else self.backend
        if choice == "auto" or (
            choice == "approx" and backend is None and eps is None
        ):
            return None, None
        allowed = tuple(
            b for b in self._BACKENDS if b != "approx" or eps is not None
        )
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
        **arm,
    ) -> np.ndarray:
        """Densities at ``(m, 3)`` query locations.

        ``eps`` is the per-request relative error budget: ``None`` (the
        default) serves exactly; a positive value admits the approximate
        importance-sampling backend wherever the planner prices it below
        both exact plans (``seed`` fixes its sample stream — same batch,
        same budget, same seed is bit-reproducible).  ``plan_out``, when
        a list, receives the plan used — observability without changing
        the return type.  ``arm`` carries a host's own read options (the
        sharded tier's ``on_shard_failure``).
        """
        self._sync()
        q = np.ascontiguousarray(validate_queries(queries))
        if eps is not None and not float(eps) > 0.0:
            raise ValueError(f"eps must be positive or None, got {eps!r}")
        if q.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        force, why = self._resolve_backend(backend, eps)
        return self._answer_points(q, force, why, eps, seed, plan_out, **arm)

    def _answer_points(
        self, q: np.ndarray, force: Optional[str], why: Optional[str],
        eps: Optional[float], seed: int, plan_out: Optional[list],
    ) -> np.ndarray:
        """A validated batch answered in process: cache, plan, one of
        direct / lookup / approx over the hosted shard."""
        # Cache before planning: a hit must not pay the planner's O(n)
        # estimates.  Off voxel centers the two backends differ (exact vs
        # interpolated), so auto mode keys its own entries — a repeated
        # auto query always returns the same answer within a version,
        # never a pinned call's value from the other physical plan.  The
        # error-budget policy is part of the key: an exact request can
        # never alias an approximate result for the same batch (nor one
        # sampled under a different budget or seed).
        eps_key: Tuple = (
            ("exact",) if eps is None else ("eps", float(eps), int(seed))
        )
        key = QueryCache.make_key(
            self.version, "points", force if force is not None else "auto",
            digest_queries(q), *eps_key,
        )
        cached = self.cache.get(key)
        if cached is not None and plan_out is None:
            return cached
        if force is None or plan_out is not None:
            plan = self.planner().plan_points(
                self.index(), q, volume_ready=self._volume is not None,
                eps=eps, force=force, force_reason=why,
            )
            self._record_plan("points", plan, plan_out)
            force = plan.backend
        if cached is not None:
            return cached
        if force == "lookup":
            out = sample_volume(self.materialize().data, self.grid, q)
            out = self._patch_off_domain(q, out)
        else:
            out = self._shard.points(
                q, self._norm(), eps if force == "approx" else None, seed
            )
        if force == "approx":
            self.counter.queries_approx += q.shape[0]
            self.counter.eps_requested_sum += float(eps) * q.shape[0]
        else:
            self.counter.queries_exact += q.shape[0]
        self._backend_calls[force] += 1
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
            out[outside] = self._shard.points(q[outside], self._norm())
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
        window.  Both are read-only and cache-shared.  ``plan_out``
        receives the :class:`QueryPlan` when one is made.
        """
        self._sync()
        if not isinstance(window, VoxelWindow):
            window = VoxelWindow(*window)
        window = window.intersect(self.grid.full_window())
        if window.empty:
            raise ValueError(f"region window is empty on this grid: {window}")
        force, why = self._resolve_backend(backend)
        return self._answer_region(window, force, why, plan_out)

    def _answer_region(
        self, window: VoxelWindow, force: Optional[str], why: Optional[str],
        plan_out: Optional[list],
    ) -> RegionResult:
        """A clipped window answered in process: cache, plan, stamp or view."""
        # Cache before planning (see _answer_points): hits skip the
        # planner's O(n) region estimate entirely.  Both backends stamp
        # the same events, summed in different orders, so their regions
        # agree at rtol=1e-12 (not bit for bit) and auto mode may reuse
        # whichever variant is cached.
        wkey = (window.x0, window.x1, window.y0, window.y1, window.t0, window.t1)
        variants = (force,) if force is not None else ("direct", "lookup")
        cached = self.cache.get_first(
            [QueryCache.make_key(self.version, "region", b, wkey)
             for b in variants]
        )
        if cached is not None and plan_out is None:
            return cached
        if force is None or plan_out is not None:
            plan = self.planner().plan_region(
                window, volume_ready=self._volume is not None,
                force=force, force_reason=why,
            )
            self._record_plan("region", plan, plan_out)
            force = plan.backend
        if cached is not None:
            return cached
        if force == "direct":
            result = self._shard.region(window, self._norm())
        else:
            result = region_view(self.materialize().data, window)
        self._backend_calls[force] += 1
        # Views alias the materialised volume: no extra payload bytes.
        self.cache.put(
            QueryCache.make_key(self.version, "region", force, wkey),
            result, 0 if result.is_view else result.data.nbytes,
        )
        return result

    # ------------------------------------------------------------------
    # Mutations (live sources)
    # ------------------------------------------------------------------
    def _check_live(self, op: str) -> None:
        if not self._live:
            raise RuntimeError(
                f"{op} requires a live source; this service serves a "
                f"static snapshot"
            )

    def add(self, points: Union[PointSet, np.ndarray]) -> None:
        """Insert events into the live window."""
        self._check_live("add")
        self._inc.add(points)

    def remove(self, points: Union[PointSet, np.ndarray]) -> None:
        """Retire live events; rows that are not live raise ``ValueError``
        before anything changes."""
        self._check_live("remove")
        self._inc.remove(points)

    def slide_window(
        self, new_points: Union[PointSet, np.ndarray], t_horizon: float
    ) -> int:
        """Add ``new_points`` and retire every event with ``t <
        t_horizon``; returns the number retired."""
        self._check_live("slide_window")
        return self._inc.slide_window(new_points, t_horizon)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def _record_plan(
        self, kind: str, plan, plan_out: Optional[list]
    ) -> None:
        """Tally a planner verdict and hand it to the caller's list."""
        key = f"{kind}:{plan.backend}"
        self._plan_decisions[key] = self._plan_decisions.get(key, 0) + 1
        if plan_out is not None:
            plan_out.append(plan)

    def stats(self) -> Dict[str, object]:
        """Serving counters: cache behaviour, backend mix, builds, index
        segment gauges, slide-pipeline work (slab retirement, segment
        merging, index repacks), and planner decisions — the JSON blob
        ``repro query --stats`` prints for load balancers and
        dashboards."""
        return self._stats(self.counter)

    def _stats(self, c: WorkCounter) -> Dict[str, object]:
        """The stats frame over work counter ``c`` (the service's own, or
        a sharded tier's merged with its workers')."""
        cache = self.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        work = c.as_dict()
        inc = self._inc
        if inc is not None:
            # How many of the live source's units any read has stamped:
            # 0 of ``units_live`` while every answer comes off the index.
            work.update(
                units_live=inc.units_live, units_stamped=inc.units_stamped
            )
        # Realised-vs-requested ε of the approximate tier: the mean
        # requested budget against the mean realised relative standard
        # error the sampler's own stop rule recorded per query.
        aq = c.queries_approx
        return {
            "version": self.version,
            "events": self.events,
            "weighted": self.weighted,
            "volume_ready": self._volume is not None,
            "volume_builds": self._volume_builds,
            "volume_build_backend": self._volume_build_backend,
            "backend_calls": dict(self._backend_calls),
            "planner_decisions": dict(self._plan_decisions),
            "cache": cache,
            "cache_hit_ratio": (cache["hits"] / lookups) if lookups else None,
            "approx": {
                "queries": aq,
                "eps_requested_mean": c.eps_requested_sum / aq if aq else None,
                "eps_realised_mean": c.sample_rel_se_sum / aq if aq else None,
                "sample_rows_drawn": c.sample_rows_drawn,
                "candidate_rows": c.sample_candidate_rows,
                "exact_fallbacks": c.sample_exact_fallbacks,
            },
            "work": work,
            "index": self._shard.index_stats(),
        }

    def close(self, grace: Optional[float] = None) -> None:
        """Release what the service holds (nothing, in process)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({'live' if self._live else 'static'}, "
            f"events={self.events}, grid={self.grid.shape}, "
            f"backend={self.backend!r})"
        )


class ShardedDensityService(DensityService):
    """:class:`DensityService` plus a sharded arm: shard-owning workers.

    Partitions the domain into ``workers`` disjoint x-slabs
    (:class:`~repro.serve.shard.ShardPlan`) and spawns one worker process
    per shard, each hosting a :class:`~repro.serve.shard.Shard` over *its
    events only*.  Queries are scattered by home cell with a
    one-bandwidth halo; the coordinator adds the unnormalised partials
    and applies the global prefactor.  Ownership is disjoint, so the
    gathered sum re-associates (never re-weights) the single-process
    estimator: equivalence holds at ``rtol=1e-12``.

    Mutations route **only to affected shards** (:meth:`slide_window`);
    :attr:`counter`'s ``shard_messages`` / ``shard_rows_shipped`` gauge
    that routing.  The coordinator keeps each shard's live rows in a
    :class:`~repro.serve.supervisor.ShardLog`: the per-shard events,
    weight ``W`` and earliest event it routes and normalises by are read
    off the logs, a ``remove`` is checked against them before it is
    sent, a slide's retired count is theirs, and a respawned worker is
    replayed from them.

    Everything else is inherited.  Per batch the planner prices
    scatter/gather IPC against a single-process plan
    (:meth:`~repro.serve.planner.QueryPlanner.plan_scatter`); a batch too
    small to amortise the round-trips takes the ``local`` arm.  Live
    sources always serve sharded (the events live in the workers — the
    plan is still recorded).

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
        affinity count.  The cuts are balanced on the snapshot's column
        histogram (uniform for an empty live start).
    backend:
        ``"auto"`` (planner decides per batch), ``"sharded"``, or
        ``"local"`` (static sources only).
    machine:
        Calibrated :class:`MachineModel`; calibrated lazily
        (:func:`~repro.serve.calibrate.calibrate_ipc` over
        :func:`~repro.serve.calibrate.calibrate_serving`) on first auto
        plan when omitted.
    max_restarts:
        Per-shard restart budget: how many times a dead or wedged
        worker is respawned (with its rows replayed from the
        coordinator's log of them) before the shard is declared down.
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

    _BACKENDS = ("sharded", "local")

    def __init__(
        self,
        source: Optional[Union[PointSet, np.ndarray]],
        grid: GridSpec,
        *,
        workers: Union[int, str] = "auto",
        kernel: str | KernelPair = "epanechnikov",
        backend: str = "auto",
        machine: Optional[MachineModel] = None,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.05,
        request_timeout: Optional[float] = 30.0,
        fault_plan: Optional[FaultPlan] = None,
        on_shard_failure: str = "raise",
    ) -> None:
        self._closed = False
        self.on_shard_failure = self._check_policy(on_shard_failure)
        if isinstance(source, IncrementalSTKDE):
            raise ValueError(
                "a sharded live window is fed through add / slide_window "
                "(source=None), not handed in as an estimator"
            )
        # The in-process host keeps the static snapshot (the ``local``
        # arm answers from it); a live window lives in the workers only.
        super().__init__(
            np.empty((0, 3)) if source is None else source, grid,
            kernel=kernel, backend=backend, machine=machine,
        )
        self._live = source is None
        self._version = 0
        self._static_coords = None if self._live else self._shard.rows()
        self._backend_calls.update(dict.fromkeys(self._BACKENDS, 0))
        self.plan = plan_shards(
            grid, self._shard.rows(), resolve_shard_count(workers)
        )
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()

        def _spawn(s: int, fp: Optional[FaultPlan]) -> ShardWorker:
            # ctx=None: each ShardWorker defaults to the spawn context.
            return ShardWorker(
                s, grid, self.kernel.name, ctx=None, fault_plan=fp
            )

        self._sup = ShardSupervisor(
            self.plan.n_shards, _spawn,
            counter=self.counter,
            max_restarts=max_restarts,
            backoff_s=restart_backoff_s,
            request_timeout=request_timeout,
            fault_plan=fault_plan,
        )
        if not self._live:
            parts = self.plan.partition(self._static_coords)
            weights = self._shard.weights
            self._route("static", {
                s: (self._static_coords[rows],
                    None if weights is None else weights[rows])
                for s, rows in enumerate(parts)
            })
            self._version = 0  # loading the snapshot is not a mutation

    @staticmethod
    def _check_policy(policy: str) -> str:
        if policy not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'raise' or 'partial', "
                f"got {policy!r}"
            )
        return policy

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
    def events(self) -> int:
        """Total live events across all shards."""
        return sum(log.n for log in self._sup.logs)

    def _weight(self) -> float:
        """Total event weight ``W`` across all shards."""
        return sum(log.weight for log in self._sup.logs)

    def _rows(self) -> np.ndarray:
        """Every shard's live rows, read off the coordinator's logs (a
        live window's events are in the workers, not the in-process
        shard)."""
        return np.concatenate([np.empty((0, 3))] + [
            rows for log in self._sup.logs for _, rows in log.batches()
        ])

    @property
    def index_segments(self) -> int:
        """Each worker probes its own index; the coordinator walks none."""
        return 1

    def _sync(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedDensityService is closed")
        super()._sync()

    def _calibrate(self) -> MachineModel:
        from .calibrate import calibrate_ipc

        return calibrate_ipc(super()._calibrate())

    def _resolve_backend(
        self, backend: Optional[str], eps: Optional[float] = None
    ) -> Tuple[Optional[str], Optional[str]]:
        force, why = super()._resolve_backend(backend)
        if self._live and force == "local":
            raise ValueError(
                "live sources cannot serve locally — the events are "
                "owned by the worker processes"
            )
        if self._live and force is None:
            # No local fallback to weigh: only the recorded plan.
            return "sharded", "live source serves sharded"
        return force, why

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_points(
        self, q, force, why, eps, seed, plan_out, on_shard_failure=None
    ) -> np.ndarray:
        """A validated batch by scatter/gather (or the ``local`` arm).

        ``eps`` threads down to the workers: each shard answers its
        scattered rows with an *unnormalised partial estimate* (exact when
        ``eps`` is ``None``, importance-sampled otherwise), and partial
        Hansen–Hurwitz estimates over disjoint event subsets add exactly
        like exact partials — unbiasedness and the combined variance
        budget survive the gather.

        ``on_shard_failure`` (``query_points``' extra keyword here; ``None``
        = the service default) picks the degraded-read policy when a shard
        stays failed after supervised recovery: ``"raise"`` surfaces the
        typed :class:`~repro.serve.errors.ShardFailed`; ``"partial"``
        returns the surviving shards' gather as a
        :class:`~repro.serve.errors.PartialResult` whose ``coverage`` is
        the mass-weighted fraction of total event weight that answered —
        a typed lower bound, never a silent error.
        """
        policy = self._check_policy(
            self.on_shard_failure
            if on_shard_failure is None else on_shard_failure
        )
        m = q.shape[0]
        lo, hi = self.plan.scatter_spans(q[:, 0])
        if force is None or plan_out is not None:
            cand = uniform_candidates(self.grid, self.events, m)
            plan = self.planner().plan_scatter(
                m, cand, self.n_shards, int((hi - lo + 1).sum()),
                n_cohorts=slab_dispatches(cand),
                force=force, force_reason=why,
            )
            self._record_plan("scatter", plan, plan_out)
            force = plan.backend
        self._backend_calls[force] += 1
        if force == "local":
            return super()._answer_points(q, None, None, eps, seed, None)
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
        out *= self._norm(self._weight())
        if eps is not None:
            self.counter.queries_approx += m
            self.counter.eps_requested_sum += float(eps) * m
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
        total = self._weight()
        if total <= 0.0:
            return 1.0
        lost = sum(self._sup.logs[s].weight for s in failed)
        return max(0.0, 1.0 - lost / total)

    def _answer_region(self, window, force, why, plan_out) -> RegionResult:
        """Density over a voxel window, summed from per-shard stamps.

        Every shard owning events within one halo of the window stamps
        them (unnormalised) into a window-covering region buffer; the
        coordinator sums the arrays and applies the prefactor — the same
        partition-exactness argument as point queries, per voxel.  No
        scatter plan is priced for regions: ``plan_out`` hears only from
        the ``local`` arm.
        """
        force = force or "sharded"
        self._backend_calls[force] += 1
        if force == "local":
            return super()._answer_region(window, None, None, plan_out)
        shards = self.plan.shards_for_window(window)
        wkey = (window.x0, window.x1, window.y0, window.y1,
                window.t0, window.t1)
        self.counter.shard_messages += len(shards)
        results, _ = self._sup.scatter(
            [(int(s), "query_region", wkey) for s in shards],
            on_failure="raise",
        )
        data = np.zeros(window.shape, dtype=np.float64)
        for s in shards:
            part = results[int(s)]
            data += part
            self.counter.shard_rows_shipped += int(part.size)
        data *= self._norm(self._weight())
        data.flags.writeable = False
        return RegionResult(window, data, "sharded")

    # ------------------------------------------------------------------
    # Mutations (live sources)
    # ------------------------------------------------------------------
    def _route(self, op: str, payloads: Dict[int, Any]) -> Dict[int, Any]:
        """Send one mutation to the shards it touches; per shard, what
        its log returned (a slide's retired count).

        The supervisor logs the mutation for every shard that applied it
        — or whose replay will — so the logs, and every gauge read off
        them, stay what the workers hold even when the scatter raises
        after some shards applied their part.  Nothing to send (a quiet
        slide) changes nothing, and ``version`` stays.
        """
        if not payloads:
            return {}
        for payload in payloads.values():
            self.counter.shard_messages += 1
            self.counter.shard_rows_shipped += len(
                payload if op in ("add", "remove") else payload[0]
            )
        try:
            results, _ = self._sup.scatter(
                [(s, op, payload) for s, payload in payloads.items()]
            )
        finally:
            self._version += 1
        return results

    def _route_rows(self, op: str, points) -> None:
        """``add`` / ``remove``: each row goes to the shard that owns it
        (ownership is a pure function of x, so a removed row always
        reaches the shard that holds it).

        A ``remove`` is first checked against every owner's log — the
        single-process contract: rows that are not live raise
        ``ValueError`` with workers, ``version`` and logs untouched,
        whichever shard would have refused.
        """
        self._sync()
        self._check_live(op)
        coords = coerce_unweighted(points)
        payloads = {
            s: coords[rows]
            for s, rows in enumerate(self.plan.partition(coords)) if rows.size
        }
        if op == "remove":
            for s, rows in payloads.items():
                self._sup.logs[s].claims(rows)
        self._route(op, payloads)

    def add(self, points: Union[PointSet, np.ndarray]) -> None:
        """Insert events, routed to their owning shards only."""
        self._route_rows("add", points)

    def remove(self, points: Union[PointSet, np.ndarray]) -> None:
        """Retire events, routed to their owning shards only; rows that
        are not live raise ``ValueError`` before anything changes."""
        self._route_rows("remove", points)

    def slide_window(
        self, new_points: Union[PointSet, np.ndarray], t_horizon: float
    ) -> int:
        """Advance the window: O(affected shards), not O(workers).

        Contacts only shards that receive arriving rows or whose
        earliest live event predates ``t_horizon`` — an idle shard
        (nothing arriving, nothing expiring) gets **no message**, which
        is the routing contract ``shard_messages`` gauges.
        """
        self._sync()
        self._check_live("slide_window")
        coords = coerce_unweighted(new_points)
        t_horizon = coerce_horizon(t_horizon)
        retired = self._route("slide", {
            s: (coords[rows], t_horizon)
            for s, rows in enumerate(self.plan.partition(coords))
            if rows.size or self._sup.logs[s].min_t < t_horizon
        })
        return sum(retired.values())

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The service's stats frame plus the sharded tier's gauges.

        ``work`` is the coordinator's counter merged with every
        worker's; ``workers`` keeps the per-shard views.  The ``stats`` round-trips themselves are *not*
        counted into ``shard_messages`` so the routing gauge stays about
        serving traffic.
        """
        self._sync()
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
            **self._stats(merged),
            "n_shards": self.n_shards,
            "cuts": [float(c) for c in self.plan.cuts],
            "shard_events": [log.n for log in self._sup.logs],
            "workers": per_worker,
            "recovery": recovery,
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

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except BaseException:
            pass
