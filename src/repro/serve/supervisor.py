"""Supervision and replay-based recovery for the sharded worker pool.

The coordinator already routes every mutation to the shard that owns it;
:class:`ShardLog` keeps what those mutations leave behind — each shard's
**live rows**, as the batches that brought them — which makes the
coordinator the authoritative copy of each worker's state.  The logs are
also where the coordinator reads a shard's size, weight and earliest
event from, and what a ``remove`` is checked against before anything is
sent.  When a worker dies (pipe EOF / sentinel) or wedges (request
deadline), :class:`ShardSupervisor` reaps the process, respawns it with
exponential backoff, and replays the shard's log into the fresh child:
one ``static``, or one ``add`` per live batch (window inserts).  The
replayed worker holds the dead one's rows (the chaos tests pin
``rtol=1e-12`` against a cold single-process rebuild).  A restart budget
bounds the flapping: once exhausted the shard is declared **down** and
every subsequent request against it raises a typed
:class:`~repro.serve.errors.ShardDown` — at which point degraded reads
(:meth:`ShardedDensityService.query_points` with
``on_shard_failure="partial"``) are the caller's remaining option.

The scatter/gather entry point (:meth:`ShardSupervisor.scatter`) keeps
the pool sane under partial failure: every pending reply is drained
before any failure is acted on (raising mid-gather would leave unread
replies poisoning later requests — the PR 6 fault-path bug), failed
*queries* are retried exactly once against the recovered worker, and
failed *mutations* are completed by the replay itself.  A mutation is
logged after the drain, for every shard that applied it or is about to
be recovered — never for one whose healthy worker rejected it, which
never applied it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.incremental import IncrementalSTKDE, match_live
from ..core.instrument import WorkCounter
from .errors import ShardDown, ShardFailed
from .faults import FaultPlan
from .worker import ShardWorker

__all__ = ["ShardLog", "ShardSupervisor"]

#: Ops whose payloads mutate worker state (and are therefore logged).
MUTATION_OPS = frozenset({"static", "add", "remove", "slide"})


class _Batch(NamedTuple):
    """One arrival batch's live rows and their t-range."""

    coords: np.ndarray
    t_lo: float
    t_hi: float


def _batch(coords: np.ndarray) -> _Batch:
    t = coords[:, 2]
    return _Batch(coords, float(t.min()), float(t.max()))


class ShardLog:
    """The live rows of one shard, as the batches that brought them.

    A ``static`` snapshot is one batch with its weights and replaces the
    log; ``add`` appends a batch; ``slide`` retires rows before the
    horizon by the estimator's rule (only the batches the horizon cuts
    are read) and appends the arrivals; ``remove`` deletes rows as a
    multiset through :func:`~repro.core.incremental.match_live`, the
    matcher the estimator uses.  The log therefore holds exactly the rows
    the worker holds — bounded by the live window, not its history —
    with running ``n`` and ``weight`` totals.  A snapshot takes no
    ``add`` / ``remove`` / ``slide`` (a static service refuses them).
    """

    def __init__(self) -> None:
        self.batches: List[_Batch] = []
        self.static = False
        self.weights: Optional[np.ndarray] = None  # the snapshot's
        self.n = 0
        self.weight = 0.0

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def rows(self) -> int:
        """Total coordinate rows a replay would ship."""
        return self.n

    @property
    def min_t(self) -> float:
        """Earliest live event time (``inf`` for an empty shard)."""
        return min((b.t_lo for b in self.batches), default=np.inf)

    def apply(self, op: str, payload: Any) -> Any:
        """Log one mutation the worker applied; a slide's retired count."""
        if op == "static":
            return self.load_static(*payload)
        if op == "slide":
            return self.slide(*payload)
        if op == "add":
            return self.add(payload)
        if op == "remove":
            return self.remove(payload)
        raise ValueError(f"unloggable op {op!r}")

    def load_static(
        self, coords: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> None:
        """Replace the log with one snapshot."""
        self.batches = [_batch(coords)] if len(coords) else []
        self.static, self.weights = True, weights
        self.n = len(coords)
        self.weight = (
            float(self.n) if weights is None else float(weights.sum())
        )

    def _count(self, rows: int) -> None:
        if self.static:
            raise ValueError("a static snapshot takes no live mutation")
        self.n += rows
        self.weight += rows

    def add(self, coords: np.ndarray) -> None:
        self._count(len(coords))
        if len(coords):
            self.batches.append(_batch(coords))

    def slide(self, coords: np.ndarray, t_horizon: float) -> int:
        """Retire rows with ``t < t_horizon``, then add ``coords``; the
        count retired.  A NaN horizon raises before anything changes."""
        t_horizon = IncrementalSTKDE._coerce_horizon(t_horizon)
        kept: List[_Batch] = []
        retired = 0
        for b in self.batches:
            if b.t_lo >= t_horizon:
                kept.append(b)
            elif b.t_hi >= t_horizon:
                rows = b.coords[b.coords[:, 2] >= t_horizon]
                kept.append(_batch(rows))
                retired += len(b.coords) - len(rows)
            else:
                retired += len(b.coords)
        self._count(-retired)
        self.batches = kept
        self.add(coords)
        return retired

    def remove(self, coords: np.ndarray) -> None:
        """Delete rows as a multiset; rows that are not live raise
        ``ValueError`` with the log untouched."""
        drops = self.claims(coords)
        self._count(-len(coords))
        kept: List[_Batch] = []
        for i, b in enumerate(self.batches):
            drop = drops.get(i)
            if drop is None:
                kept.append(b)
            elif not drop.all():
                kept.append(_batch(b.coords[~drop]))
        self.batches = kept

    def claims(self, coords: np.ndarray) -> Dict[int, np.ndarray]:
        """Per batch, the rows a ``remove`` of ``coords`` would delete
        (pure; raises ``ValueError`` when a row is not live)."""
        return match_live(
            coords, [(b.t_lo, b.t_hi) for b in self.batches],
            lambda i: self.batches[i].coords, self.n,
        )

    def replay(self) -> List[Tuple[str, Any]]:
        """The requests that rebuild this shard in a fresh worker."""
        if self.static:
            return [("static", (b.coords, self.weights)) for b in self.batches]
        return [("add", b.coords) for b in self.batches]


class ShardSupervisor:
    """Owns the worker pool: spawn, supervise, respawn-and-replay.

    Parameters
    ----------
    n_shards:
        Pool size.
    factory:
        ``factory(shard_id, fault_plan) -> ShardWorker`` — the service
        closes its grid/kernel/tuning over this, the supervisor decides
        *when* to call it and with which (respawn-filtered) fault plan.
    counter:
        The coordinator's :class:`WorkCounter`; recovery moves
        ``shard_restarts`` / ``shard_replayed_batches`` /
        ``requests_retried`` on it.
    max_restarts:
        Restart budget **per shard** before it is declared down.
    backoff_s:
        Base respawn delay; attempt ``k`` sleeps ``backoff_s * 2**k``.
    request_timeout:
        Per-request deadline handed to every worker send/recv (``None``
        = wait forever, the pre-supervision behaviour).
    fault_plan:
        Optional fault-injection plan; respawned workers receive its
        :meth:`~repro.serve.faults.FaultPlan.respawn_view`.
    """

    def __init__(
        self,
        n_shards: int,
        factory: Callable[[int, Optional[FaultPlan]], ShardWorker],
        *,
        counter: WorkCounter,
        max_restarts: int = 3,
        backoff_s: float = 0.05,
        request_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.counter = counter
        self.max_restarts = int(max_restarts)
        self.backoff_s = float(backoff_s)
        self.request_timeout = request_timeout
        self._factory = factory
        self._fault_plan = fault_plan
        self._closed = False
        self.workers: List[ShardWorker] = [
            factory(s, fault_plan) for s in range(n_shards)
        ]
        self.logs: List[ShardLog] = [ShardLog() for _ in range(n_shards)]
        self.restarts: List[int] = [0] * n_shards
        self._down: Dict[int, ShardDown] = {}

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.workers)

    def down_shards(self) -> List[int]:
        return sorted(self._down)

    def is_down(self, s: int) -> bool:
        return s in self._down

    def _down_error(self, s: int, op: str) -> ShardDown:
        return ShardDown(
            s, op,
            f"shard is down (restart budget of {self.max_restarts} "
            f"exhausted)",
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, s: int, op: str = "recover") -> None:
        """Respawn shard ``s`` and replay its log into the fresh worker.

        Retries the respawn within the restart budget when the replay
        itself faults (a persistent injected fault, a crashing machine);
        past the budget the shard is marked down and :class:`ShardDown`
        raises.
        """
        if s in self._down:
            raise self._down_error(s, op)
        self.workers[s].kill()
        while True:
            attempt = self.restarts[s]
            if attempt >= self.max_restarts:
                self._down[s] = self._down_error(s, op)
                raise self._down[s]
            delay = self.backoff_s * (2.0 ** attempt)
            if delay > 0.0:
                time.sleep(delay)
            self.restarts[s] += 1
            self.counter.shard_restarts += 1
            plan = (
                self._fault_plan.respawn_view()
                if self._fault_plan is not None else None
            )
            worker = self._factory(s, plan)
            self.workers[s] = worker
            try:
                for rop, payload in self.logs[s].replay():
                    worker.request(rop, payload, timeout=self.request_timeout)
                    self.counter.shard_replayed_batches += 1
            except ShardFailed as exc:
                if not exc.retryable:
                    raise
                worker.kill()
                continue  # burn another restart
            return

    # ------------------------------------------------------------------
    # Supervised scatter/gather
    # ------------------------------------------------------------------
    def scatter(
        self,
        sends: List[Tuple[int, str, Any]],
        *,
        on_failure: str = "raise",
    ) -> Tuple[Dict[int, Any], Dict[int, ShardFailed]]:
        """Send every request, gather every reply, recover what failed.

        ``sends`` is ``[(shard, op, payload), ...]`` with at most one
        request per shard (the service's scatter shape).  Returns
        ``(results, failed)`` keyed by shard.  All pending replies are
        drained before any recovery or raise — a mid-gather raise would
        strand unread replies in surviving workers' pipes and poison the
        next request.  A mutation's result is what the shard's log
        returned for it (see :meth:`ShardLog.apply`).  Retryable
        failures recover the shard and retry the request once (mutations
        are completed by the replay itself); terminal failures raise when
        ``on_failure="raise"`` and populate ``failed`` when
        ``"partial"``.
        """
        if on_failure not in ("raise", "partial"):
            raise ValueError(
                f"on_failure must be 'raise' or 'partial', "
                f"got {on_failure!r}"
            )
        results: Dict[int, Any] = {}
        failed: Dict[int, ShardFailed] = {}
        pending: List[Tuple[int, str, Any]] = []
        retry: List[Tuple[int, str, Any, ShardFailed]] = []
        for s, op, payload in sends:
            if s in self._down:
                failed[s] = self._down_error(s, op)
                continue
            try:
                self.workers[s].send_op(op, payload)
            except ShardFailed as exc:
                if exc.retryable:
                    retry.append((s, op, payload, exc))
                else:
                    failed[s] = exc
                continue
            pending.append((s, op, payload))
        # Drain phase: every fired request gets its reply read (or its
        # failure recorded) before anything else happens.
        app_error: Optional[ShardFailed] = None
        for s, op, payload in pending:
            try:
                results[s] = self.workers[s].recv_reply(
                    op, timeout=self.request_timeout
                )
            except ShardFailed as exc:
                if exc.retryable:
                    retry.append((s, op, payload, exc))
                else:
                    # A healthy worker rejected the request: that is an
                    # application error, never maskable by "partial".
                    app_error = app_error or exc
        # Log phase: a mutation joins a shard's log once its worker
        # applied it or the replay is about to; a rejected one never
        # does.  What the log returns is the reply (a slide's count).
        recovering = {s for s, *_ in retry}
        for s, op, payload in sends:
            if op in MUTATION_OPS and (s in results or s in recovering):
                results[s] = self.logs[s].apply(op, payload)
        if app_error is not None:
            raise app_error
        # Recovery phase: respawn + replay, then retry each failed
        # query exactly once against the recovered worker.
        for s, op, payload, exc in retry:
            try:
                self.recover(s, op)
                if op not in MUTATION_OPS:  # the replay applied a mutation
                    results[s] = self.workers[s].request(
                        op, payload, timeout=self.request_timeout
                    )
                self.counter.requests_retried += 1
            except ShardFailed as exc2:
                results.pop(s, None)
                failed[s] = exc2
        if failed and on_failure == "raise":
            raise next(iter(failed.values()))
        return results, failed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, grace: Optional[float] = None) -> None:
        """Close every worker (idempotent; survivors reaped cleanly)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.close(grace=grace)

    def stats(self) -> Dict[str, object]:
        """Supervision gauges for the service's ``stats()`` blob."""
        return {
            "max_restarts": self.max_restarts,
            "request_timeout": self.request_timeout,
            "restarts_per_shard": list(self.restarts),
            "down_shards": self.down_shards(),
            "log_entries": [len(log) for log in self.logs],
            "log_rows": [log.rows for log in self.logs],
        }
