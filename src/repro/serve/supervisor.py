"""Supervision and replay-based recovery for the sharded worker pool.

The coordinator already routes every mutation to the shard that owns it;
:class:`ShardLog` simply *keeps* those routed batches — per shard, in
arrival order, truncated to the live horizon — which makes the
coordinator the authoritative copy of each worker's state.  When a
worker dies (pipe EOF / sentinel) or wedges (request deadline),
:class:`ShardSupervisor` reaps the process, respawns it with exponential
backoff, and replays the shard's log into the fresh child; the replayed
worker is state-equivalent to the dead one (the chaos tests pin
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
failed *mutations* are completed by the replay itself — the log entry is
recorded before the send, so the respawned child has already applied it.
An ``add``/``remove`` a healthy worker *rejected* is the opposite case:
it was never applied, so its entry leaves that shard's log.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.instrument import WorkCounter
from .errors import ShardDown, ShardFailed
from .faults import FaultPlan
from .worker import ShardWorker

__all__ = ["ShardLog", "ShardSupervisor"]

#: Ops whose payloads mutate worker state (and are therefore logged).
MUTATION_OPS = frozenset({"static", "add", "remove", "slide"})

#: Gauges of an empty shard: ``(events, weight, min_t)``.
_EMPTY_GAUGES = (0, 0.0, float("inf"))


def _truncate_coords(coords: np.ndarray, horizon: float) -> np.ndarray:
    """Rows at or after the horizon (the live part of a batch)."""
    if coords.shape[0] == 0 or horizon == -np.inf:
        return coords
    keep = coords[:, 2] >= horizon
    return coords if bool(keep.all()) else coords[keep]


class ShardLog:
    """Horizon-truncated mutation log for one shard.

    Entries are the exact ``(op, payload)`` tuples the coordinator
    routed to the worker, in order.  Truncation drops rows whose time
    coordinate predates the newest slide horizon — those events are
    retired on the worker too, so replaying the truncated log rebuilds
    the *live* state only.  Row order is preserved, so ``remove``
    semantics (match-by-value against prior adds) survive replay.  The
    log is bounded by the window's live traffic, not its lifetime:
    every slide truncates, and entries emptied by truncation are
    dropped.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[str, Any]] = []
        self.horizon: float = -np.inf

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> int:
        """Total coordinate rows a replay would ship."""
        total = 0
        for op, payload in self.entries:
            if op in ("static", "slide"):
                total += int(payload[0].shape[0])
            else:
                total += int(payload.shape[0])
        return total

    def record(self, op: str, payload: Any) -> None:
        if op == "static":
            # A snapshot *is* the state: it replaces any prior log.
            self.entries = [(op, payload)]
            return
        if op == "slide":
            coords, horizon = payload
            if np.isnan(horizon):
                # truncate() would keep ``t >= nan`` — no row of any
                # entry — and the next replay would rebuild an empty shard.
                raise ValueError("a slide horizon must not be NaN")
            self.entries.append((op, payload))
            self.truncate(float(horizon))
            return
        if op in ("add", "remove"):
            self.entries.append((op, payload))
            return
        raise ValueError(f"unloggable op {op!r}")

    def truncate(self, horizon: float) -> None:
        """Drop rows (and emptied entries) retired by ``horizon``."""
        if horizon <= self.horizon:
            return
        self.horizon = horizon
        kept: List[Tuple[str, Any]] = []
        for op, payload in self.entries:
            if op == "static":
                coords, weights = payload
                live = coords[:, 2] >= horizon if coords.shape[0] else None
                if live is None or bool(live.all()):
                    kept.append((op, payload))
                else:
                    kept.append((op, (
                        coords[live],
                        None if weights is None else weights[live],
                    )))
                continue
            if op == "slide":
                coords, h = payload
                coords = _truncate_coords(coords, horizon)
                # The horizon itself is subsumed by the truncation: a
                # replayed slide over already-truncated entries retires
                # nothing, so an emptied slide carries no information.
                if coords.shape[0]:
                    kept.append((op, (coords, h)))
                continue
            coords = _truncate_coords(payload, horizon)
            if coords.shape[0]:
                kept.append((op, coords))
        self.entries = kept


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
    gauges_cb:
        ``gauges_cb(shard_id, (events, weight, min_t))`` — called after
        every recovery so the service's routing state tracks the
        replayed worker.
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
        gauges_cb: Optional[Callable[[int, tuple], None]] = None,
    ) -> None:
        self.counter = counter
        self.max_restarts = int(max_restarts)
        self.backoff_s = float(backoff_s)
        self.request_timeout = request_timeout
        self._factory = factory
        self._fault_plan = fault_plan
        self._gauges_cb = gauges_cb
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

    def record(self, s: int, op: str, payload: Any) -> None:
        """Log one routed mutation (call *before* sending it)."""
        self.logs[s].record(op, payload)

    def _raise_down(self, s: int, op: str) -> None:
        raise ShardDown(
            s, op,
            f"shard is down (restart budget of {self.max_restarts} "
            f"exhausted)",
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self, s: int, op: str = "recover"
    ) -> Tuple[tuple, Optional[str], Any]:
        """Respawn shard ``s`` and replay its log into the fresh worker.

        Returns ``(gauges, last_op, last_reply)`` where ``last_*``
        describe the final replayed entry (``None`` for an empty log) —
        the caller uses them to synthesise the reply of a mutation the
        replay completed.  Retries the respawn within the restart budget
        when the replay itself faults (a persistent injected fault, a
        crashing machine); past the budget the shard is marked down and
        :class:`ShardDown` raises.
        """
        if s in self._down:
            self._raise_down(s, op)
        self.workers[s].kill()
        while True:
            attempt = self.restarts[s]
            if attempt >= self.max_restarts:
                exc = ShardDown(
                    s, op,
                    f"shard is down (restart budget of "
                    f"{self.max_restarts} exhausted)",
                )
                self._down[s] = exc
                raise exc
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
                gauges, last_op, last_reply = self._replay(s, worker)
            except ShardFailed as exc:
                if not exc.retryable:
                    raise
                worker.kill()
                continue  # burn another restart
            if self._gauges_cb is not None:
                self._gauges_cb(s, gauges)
            return gauges, last_op, last_reply

    def _replay(
        self, s: int, worker: ShardWorker
    ) -> Tuple[tuple, Optional[str], Any]:
        last_op: Optional[str] = None
        last_reply: Any = None
        for op, payload in self.logs[s].entries:
            last_reply = worker.request(
                op, payload, timeout=self.request_timeout
            )
            last_op = op
            self.counter.shard_replayed_batches += 1
        if last_op is None:
            return _EMPTY_GAUGES, None, None
        gauges = tuple(last_reply[1:]) if last_op == "slide" \
            else tuple(last_reply)
        return gauges, last_op, last_reply

    @staticmethod
    def _synth_reply(op: str, gauges: tuple, last_op: Optional[str],
                     last_reply: Any) -> Any:
        """Reply for a mutation the replay completed.

        When the failed mutation is the log's final entry (the common
        case — it was recorded just before the send), its replay reply
        is the real one.  Otherwise (the entry was merged or emptied by
        truncation, i.e. it was a no-op) synthesise from the gauges.
        """
        if last_op == op:
            return last_reply
        return (0,) + tuple(gauges) if op == "slide" else tuple(gauges)

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
        next request.  Retryable failures recover the shard and retry
        the request once (mutations are completed by the replay itself);
        terminal failures raise when ``on_failure="raise"`` and populate
        ``failed`` when ``"partial"``.
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
                failed[s] = ShardDown(
                    s, op,
                    f"shard is down (restart budget of "
                    f"{self.max_restarts} exhausted)",
                )
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
                    # A rejected add/remove was logged before the send
                    # but never applied: replaying it would fail every
                    # later recovery of this shard.  (Not a slide:
                    # recording one already truncated the log.)
                    log = self.logs[s].entries
                    if op in ("add", "remove") and log and log[-1][1] is payload:
                        log.pop()
        if app_error is not None:
            raise app_error
        # Recovery phase: respawn + replay, then retry each failed
        # request exactly once against the recovered worker.
        for s, op, payload, exc in retry:
            try:
                gauges, last_op, last_reply = self.recover(s, op)
                if op in MUTATION_OPS:
                    # Logged before the send: the replay applied it.
                    results[s] = self._synth_reply(
                        op, gauges, last_op, last_reply
                    )
                else:
                    results[s] = self.workers[s].request(
                        op, payload, timeout=self.request_timeout
                    )
                self.counter.requests_retried += 1
            except ShardFailed as exc2:
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
