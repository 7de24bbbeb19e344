"""Query planner: price direct-sum against volume-lookup, pick per batch.

The serving layer has two physical plans for every logical query (see
:mod:`repro.serve.engine`) with opposite cost shapes:

* **direct-sum** costs O(candidates) per query and needs no volume;
* **volume-lookup** costs O(1) per query *after* an O(n * stamp + voxels)
  materialisation (already paid when the service holds a fresh volume).

A third plan exists only when the request carries an error budget
(``eps`` — ``None`` keeps every default exact): **approx** answers by the
ε-budgeted importance sampler (:func:`repro.serve.engine.approx_sum`),
O(runs + 1/ε²) per query — sublinear in candidate count, priced by
:meth:`~repro.analysis.model.CostModel.predict_approx_query` against the
two exact plans per batch.

Which wins is exactly the kind of combinatorial question the paper's
Section 6.5 model answers for the compute strategies, so the planner
reuses :class:`repro.analysis.model.CostModel` — same calibrated machine
constants, same batched-cost shapes — extended with the query-side
predictors (``predict_direct_query``, ``predict_volume_lookup``,
``predict_direct_region``, ``predict_lookup_region``).  The decision is
per query batch: a handful of probes against a sparse window stays on the
index walk; a dense 10k-query batch triggers materialisation and serves
from the volume (and every batch thereafter rides the already-built
volume for near-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.model import CostModel
from ..core.backends import DEFAULT_BACKEND
from ..core.grid import VoxelWindow
from ..core.index import BucketIndex
from .engine import slab_dispatches

__all__ = ["QueryPlan", "QueryPlanner", "ScatterPlan"]


@dataclass(frozen=True)
class ScatterPlan:
    """The planner's verdict for one sharded-vs-local query batch.

    ``sharded_seconds`` is the :meth:`~repro.analysis.model.CostModel
    .predict_scatter_gather` estimate (IPC round-trips plus the balanced
    per-worker compute share); ``local_seconds`` the single-process
    direct-query estimate over the full candidate set.  ``fanout_rows``
    is the *exact* scattered row count (each query counted once per
    contacted shard, from the halo-widened spans) — the coordinator
    computes it before planning, so the IPC term is priced on real
    fan-out, not a guess.
    """

    backend: str  # "sharded" | "local"
    n_queries: int
    n_shards: int
    fanout_rows: int
    sharded_seconds: float
    local_seconds: float
    reason: str

    @property
    def speedup(self) -> float:
        """Predicted advantage of the chosen backend over the other."""
        lo = min(self.sharded_seconds, self.local_seconds)
        hi = max(self.sharded_seconds, self.local_seconds)
        return hi / max(lo, 1e-12)

    def describe(self) -> str:
        return (
            f"scatter[{self.n_queries}x{self.n_shards}] -> {self.backend}  "
            f"(sharded {self.sharded_seconds * 1e3:.3f} ms vs local "
            f"{self.local_seconds * 1e3:.3f} ms, fanout {self.fanout_rows} "
            f"rows; {self.reason})"
        )


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one query batch.

    ``approx_seconds`` is the sampler's estimate when the batch carried an
    error budget (``eps``); infinite otherwise, so exact requests can
    never route to the approximate tier.

    ``compute`` names the pair-evaluation backend the service runs
    (:mod:`repro.core.backends`) — recorded for observability, never
    chosen or priced here.
    """

    backend: str  # "direct" | "lookup" | "approx"
    kind: str  # "points" | "region"
    n_queries: int
    est_candidates: int  # total candidate pairs a direct plan would touch
    direct_seconds: float
    lookup_seconds: float
    volume_ready: bool
    reason: str
    approx_seconds: float = float("inf")
    eps: Optional[float] = None
    compute: str = DEFAULT_BACKEND

    @property
    def speedup(self) -> float:
        """Predicted advantage of the chosen backend over the best rival."""
        costs = sorted(
            [self.direct_seconds, self.lookup_seconds, self.approx_seconds]
        )[:2]
        return costs[1] / max(costs[0], 1e-12)

    def describe(self) -> str:
        approx = (
            f" vs approx(eps={self.eps:g}) {self.approx_seconds * 1e3:.3f} ms"
            if self.eps is not None
            else ""
        )
        return (
            f"{self.kind}[{self.n_queries}] -> {self.backend}  "
            f"(direct {self.direct_seconds * 1e3:.3f} ms vs lookup "
            f"{self.lookup_seconds * 1e3:.3f} ms{approx}, volume "
            f"{'ready' if self.volume_ready else 'cold'}; {self.reason})"
        )


class QueryPlanner:
    """Chooses the physical plan for each query batch via the cost model.

    ``force`` short-circuits planning for callers that pin a backend
    (benchmarks, tests, operators); the estimates are still reported so a
    pinned plan stays observable.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model

    # ------------------------------------------------------------------
    def plan_points(
        self,
        index: BucketIndex,
        queries: np.ndarray,
        *,
        volume_ready: bool,
        eps: Optional[float] = None,
        force: Optional[str] = None,
        force_reason: Optional[str] = None,
        compute: Optional[str] = None,
    ) -> QueryPlan:
        """Plan a point-query batch against the given index.

        ``eps`` opens the approximate arm: the sampler is priced against
        both exact plans and wins only where its O(runs + 1/ε²) shape
        beats them.  ``eps=None`` (the default) never routes approximate.

        ``compute`` is the caller's backend name, copied into
        :attr:`QueryPlan.compute` (``None``: the default); prices come
        from the machine model's one set of ``c_q*`` rates whatever it
        says.
        """
        q = np.asarray(queries, dtype=np.float64)
        m = q.shape[0]
        # Candidate counts are box-table reads at the home cells; the slab
        # dispatch count is arithmetic on their total.
        cand = int(index.candidate_counts(q).sum())
        n_segments = index.segment_count

        direct = self.model.predict_direct_query(
            m, cand, n_cohorts=slab_dispatches(cand), n_segments=n_segments,
        )
        approx = (
            self.model.predict_approx_query(
                m, cand, eps, n_segments=n_segments
            )
            if eps is not None
            else float("inf")
        )
        lookup = self.model.predict_volume_lookup(m, volume_ready)
        return self._verdict("points", m, cand, direct, lookup,
                             volume_ready, force, force_reason,
                             approx=approx, eps=eps,
                             compute=compute or DEFAULT_BACKEND)

    def plan_region(
        self,
        window: VoxelWindow,
        *,
        volume_ready: bool,
        force: Optional[str] = None,
        force_reason: Optional[str] = None,
    ) -> QueryPlan:
        """Plan a region (or slice) extract over a voxel window."""
        direct = self.model.predict_direct_region(window)
        lookup = self.model.predict_lookup_region(window, volume_ready)
        return self._verdict("region", window.volume, 0, direct, lookup,
                             volume_ready, force, force_reason)

    def plan_scatter(
        self,
        n_queries: int,
        est_candidates: int,
        n_shards: int,
        fanout_rows: int,
        *,
        n_cohorts: Optional[int] = None,
        n_segments: int = 1,
        force: Optional[str] = None,
        force_reason: Optional[str] = None,
    ) -> ScatterPlan:
        """Price sharded scatter/gather against local single-process.

        The sharded side pays two messages per contacted shard plus the
        serialization of every scattered query row and gathered partial
        (:meth:`~repro.analysis.model.CostModel.predict_scatter_gather`);
        its compute is the balanced ``1/P`` share.  The local side is the
        plain :meth:`~repro.analysis.model.CostModel
        .predict_direct_query` over the whole batch.  Small batches lose
        to the per-message cost; large scattered batches win on the
        divided candidate work.
        """
        sharded = self.model.predict_scatter_gather(
            n_queries, est_candidates, n_shards,
            fanout_rows=fanout_rows, n_cohorts=n_cohorts,
            n_segments=n_segments,
        )
        local = self.model.predict_direct_query(
            n_queries, est_candidates, n_cohorts=n_cohorts,
            n_segments=n_segments,
        )
        if force is not None:
            if force not in ("sharded", "local"):
                raise ValueError(
                    f"backend must be 'sharded' or 'local', got {force!r}"
                )
            backend, reason = force, (force_reason or "forced by caller")
        elif sharded.seconds <= local:
            backend = "sharded"
            reason = "divided candidate work beats IPC round-trips"
        else:
            backend = "local"
            reason = "batch too small to amortise scatter/gather IPC"
        return ScatterPlan(
            backend=backend,
            n_queries=n_queries,
            n_shards=n_shards,
            fanout_rows=fanout_rows,
            sharded_seconds=sharded.seconds,
            local_seconds=local,
            reason=reason,
        )

    # ------------------------------------------------------------------
    def _verdict(
        self,
        kind: str,
        n_queries: int,
        cand: int,
        direct: float,
        lookup: float,
        volume_ready: bool,
        force: Optional[str],
        force_reason: Optional[str] = None,
        approx: float = float("inf"),
        eps: Optional[float] = None,
        compute: str = DEFAULT_BACKEND,
    ) -> QueryPlan:
        if force is not None:
            allowed = ("direct", "lookup", "approx") if eps is not None \
                else ("direct", "lookup")
            if force not in allowed:
                raise ValueError(
                    f"backend must be one of {allowed}, got {force!r}"
                )
            backend, reason = force, (force_reason or "forced by caller")
        elif approx < min(direct, lookup):
            backend = "approx"
            reason = "sampler meets the eps budget below both exact plans"
        elif direct <= lookup:
            backend = "direct"
            reason = (
                "index walk beats lookup"
                if volume_ready
                else "batch too small to amortise materialisation"
            )
        else:
            backend = "lookup"
            reason = (
                "volume already materialised"
                if volume_ready
                else "batch amortises materialisation"
            )
        return QueryPlan(
            backend=backend,
            kind=kind,
            n_queries=n_queries,
            est_candidates=cand,
            direct_seconds=direct,
            lookup_seconds=lookup,
            volume_ready=volume_ready,
            reason=reason,
            approx_seconds=approx,
            eps=eps,
            compute=compute,
        )
