"""Supervision and replay-based recovery for the sharded worker pool.

The coordinator routes every mutation to the shard that owns it, and
:class:`ShardLog` — the same :class:`~repro.core.window.Window` rule the
worker runs, over plain arrays — keeps each shard's **live rows**: the
coordinator's authoritative copy of each worker's state, where it reads a
shard's size, weight and earliest event and checks a ``remove`` before
anything is sent.  When a worker dies (pipe EOF / sentinel) or wedges
(request deadline), :class:`ShardSupervisor` reaps the process, respawns
it with exponential backoff, and replays the shard's log into the fresh
child:
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
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.instrument import WorkCounter
from ..core.window import RowDict, Window
from .errors import ShardDown, ShardFailed
from .faults import FaultPlan
from .worker import ShardWorker

__all__ = ["ShardLog", "ShardSupervisor"]

#: Ops whose payloads mutate worker state (and are therefore logged).
MUTATION_OPS = frozenset({"static", "add", "remove", "slide"})


class ShardLog(Window):
    """The live rows of one shard: a :class:`~repro.core.window.Window` of
    the arrival batches that brought them, over a
    :class:`~repro.core.window.RowDict`, plus the ``static`` snapshot flag
    and its ``weights``.

    Its rule is the estimator's, so it holds exactly the rows the worker
    holds — bounded by the live window, not its history.  A ``static``
    snapshot is one batch with its weights and replaces the log; it takes
    no live mutation (a static service refuses them before they reach a
    shard).
    """

    def __init__(self) -> None:
        super().__init__(RowDict())
        self.static = False
        self.weights: Optional[np.ndarray] = None  # the snapshot's

    def __len__(self) -> int:
        return len(self.units)

    @property
    def weight(self) -> float:
        """This shard's share of the total weight ``W``."""
        return float(self.n if self.weights is None else self.weights.sum())

    def apply(self, op: str, payload: Any) -> Any:
        """Log one mutation the worker applied; a slide's retired count."""
        if op == "static":
            return self.load_static(*payload)
        if self.static:
            raise ValueError("a static snapshot takes no live mutation")
        if op == "slide":
            return self.slide(*payload)
        return getattr(self, op)(payload)  # add / remove

    def load_static(self, coords: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> None:
        """Replace the log with one snapshot."""
        self.__init__()
        self.add(coords)
        self.static, self.weights = True, weights

    def replay(self) -> List[Tuple[str, Any]]:
        """The requests that rebuild this shard in a fresh worker."""
        if self.static:
            return [("static", (rows, self.weights)) for _, rows in self.batches()]
        return [("add", rows) for _, rows in self.batches()]


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
            "log_rows": [log.n for log in self.logs],
        }
