"""Worker processes: each hosts one :class:`~repro.serve.shard.Shard`.

A worker process builds a :class:`~repro.serve.shard.Shard` — the same
class a :class:`~repro.serve.service.DensityService` hosts in process —
over its shard's events only and answers requests against it over a
duplex pipe (:func:`_serve` is the whole op table: ``query_points``,
``query_region`` and ``stats`` read; ``static``, ``add``, ``remove`` and
``slide`` mutate and reply ``None`` — the coordinator reads each shard's
size, weight and earliest event off its own log of the shard's rows, and
checks a ``remove`` there before sending it).  A live shard is a
:class:`~repro.core.window.Window` over the bucket index its point sums
walk, and no estimator: a worker never stamps.  Workers compute
**unnormalised partial sums** (``norm=1.0``): only the coordinator knows
the window's total weight, so it applies the ``1 / (W hs^2 ht)``
prefactor after gathering — which is also what makes the partition
exact, since the per-shard partials are plain kernel sums over disjoint
event subsets.

The protocol is a synchronous request/reply over ``(op, payload)`` tuples,
answered with ``("ok", result)`` or ``("err", message)``.  The
coordinator-side :class:`ShardWorker` waits on *both* the pipe and the
process sentinel — and, when given a ``timeout``, on a per-request
deadline — so a worker dying mid-request surfaces as a typed
:class:`~repro.serve.errors.ShardFailed` and a wedged-but-alive worker
as a :class:`~repro.serve.errors.ShardTimeout` instead of a hang.  Those
are the fault contracts the chaos tests pin, and what
:class:`~repro.serve.supervisor.ShardSupervisor` acts on to respawn and
replay.

Everything a worker needs is passed through the spawn-safe
:func:`_worker_main` entry point (module-level, picklable arguments:
grid spec, kernel *name*, optional :class:`~repro.serve.faults.FaultPlan`).
The ``spawn`` start method is used unconditionally: it is the only method
available everywhere and it guarantees workers never inherit the
coordinator's (possibly multi-threaded) state.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Optional

from ..core.grid import GridSpec, VoxelWindow
from .errors import ShardFailed, ShardTimeout
from .faults import FaultPlan, apply_fault
from .shard import Shard

__all__ = ["ShardWorker"]

#: Seconds a closing coordinator waits for a worker to exit gracefully
#: before escalating to terminate() (a deadline shared by the close
#: handshake and the join, not two stacked waits).
_CLOSE_GRACE = 5.0


def _serve(shard: Shard, op: str, payload: Any) -> Any:
    """Answer one request against the hosted shard.

    Reads return unnormalised partials (``norm=1.0``: only the coordinator
    knows the total weight).  Mutations reply ``None``: the coordinator
    reads every gauge off its own log of the shard's rows.
    """
    if op == "query_points":
        queries, eps, seed = payload
        return shard.points(queries, 1.0, eps, seed)
    if op == "query_region":
        return shard.region(VoxelWindow(*payload), 1.0).data
    if op == "stats":
        return shard.stats()
    if op == "static":
        shard.load_static(*payload)
    elif op == "slide":
        shard.slide(*payload)
    elif op == "add":
        shard.add(payload)
    elif op == "remove":
        shard.remove(payload)
    else:
        raise ValueError(f"unknown op {op!r}")
    return None


def _worker_main(
    conn: Connection,
    shard_id: int,
    grid: GridSpec,
    kernel_name: str,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Worker process entry point: serve requests until ``close``/EOF."""
    shard = Shard(grid, kernel_name)
    injector = (
        fault_plan.injector(shard_id) if fault_plan is not None else None
    )
    while True:
        try:
            op, payload = conn.recv()
        except EOFError:
            break  # coordinator went away: exit quietly
        if op == "close":
            conn.send(("ok", None))
            break
        if op == "crash":
            # Test hook: die without replying, as a segfaulting or
            # OOM-killed worker would.
            os._exit(1)
        if injector is not None:
            spec = injector.on_request(op)
            if spec is not None and not apply_fault(spec, conn):
                continue  # reply skipped (drop/wedge/error)
        try:
            conn.send(("ok", _serve(shard, op, payload)))
        except Exception as exc:  # surface, don't kill the worker
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
    conn.close()


class ShardWorker:
    """Coordinator-side handle to one shard-owning worker process."""

    def __init__(
        self,
        shard_id: int,
        grid: GridSpec,
        kernel_name: str,
        *,
        ctx: Optional[mp.context.BaseContext] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.shard_id = shard_id
        ctx = ctx if ctx is not None else mp.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child, shard_id, grid, kernel_name, fault_plan),
            name=f"shard-worker-{shard_id}",
            daemon=True,
        )
        self._proc.start()
        child.close()  # the child's end lives in the child only
        self._closed = False

    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.is_alive()

    def send_op(self, op: str, payload: Any = None) -> None:
        """Fire one request without waiting (pair with :meth:`recv_reply`).

        The coordinator scatters a batch by sending to every contacted
        worker first and only then gathering, so the workers compute
        their partials concurrently.
        """
        if self._closed:
            raise ShardFailed(
                self.shard_id, op, "worker handle is closed",
                retryable=False,
            )
        try:
            self._conn.send((op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardFailed(
                self.shard_id, op,
                "worker died (pipe closed while sending)",
                exitcode=self._proc.exitcode,
            ) from exc

    def recv_reply(self, op: str, timeout: Optional[float] = None) -> Any:
        """Block for one reply to a previously sent request.

        Waits on the reply pipe *and* the process sentinel, so a worker
        that dies mid-request raises a typed :class:`ShardFailed` naming
        the shard instead of blocking forever.  With a ``timeout``, a
        worker that is alive but unresponsive raises
        :class:`ShardTimeout` when the deadline expires — a wedged child
        must not hang the coordinator's gather.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise ShardTimeout(self.shard_id, op, float(timeout))
            ready = wait([self._conn, self._proc.sentinel], remaining)
            if not ready:
                raise ShardTimeout(self.shard_id, op, float(timeout))
            if self._conn in ready:
                try:
                    tag, result = self._conn.recv()
                except (EOFError, OSError):
                    # EOF or a reset: the worker's end is gone.
                    self._proc.join()
                    raise ShardFailed(
                        self.shard_id, op, "worker died mid-request",
                        exitcode=self._proc.exitcode,
                    ) from None
                if tag == "err":
                    # The worker is healthy; the *request* failed.  An
                    # application error replays identically, so a retry
                    # cannot help.
                    raise ShardFailed(
                        self.shard_id, op, str(result), retryable=False
                    )
                return result
            # Sentinel fired with no reply pending: the process is gone.
            self._proc.join()
            raise ShardFailed(
                self.shard_id, op, "worker died mid-request",
                exitcode=self._proc.exitcode,
            )

    def request(
        self, op: str, payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Send one request and block for its reply (deadline-capped)."""
        self.send_op(op, payload)
        return self.recv_reply(op, timeout=timeout)

    def close(self, grace: Optional[float] = None) -> None:
        """Shut the worker down (graceful close, then terminate).

        ``grace`` caps the *total* wall time spent waiting: the close
        handshake and the join share one monotonic deadline, so a wedged
        worker delays shutdown by at most ``grace`` seconds before being
        terminated (and killed if it ignores SIGTERM).
        """
        if self._closed:
            return
        self._closed = True
        grace = _CLOSE_GRACE if grace is None else max(0.0, float(grace))
        deadline = time.monotonic() + grace
        try:
            if self._proc.is_alive():
                self._conn.send(("close", None))
                # Drain the ack if the worker is still healthy.
                if self._conn.poll(
                    max(0.0, deadline - time.monotonic())
                ):
                    try:
                        self._conn.recv()
                    except EOFError:
                        pass
        except (BrokenPipeError, OSError):
            pass  # already dead: nothing to hand-shake with
        self._proc.join(max(0.0, deadline - time.monotonic()))
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(1.0)
            if self._proc.is_alive():  # pragma: no cover - ignores TERM
                self._proc.kill()
                self._proc.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def kill(self) -> None:
        """Reap the worker immediately — no handshake, no grace.

        The supervisor uses this on a dead or wedged worker before
        respawning: there is nothing worth waiting for, and the pipe may
        hold a stale half-reply that must not leak into the respawn.
        """
        self.close(grace=0.0)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        # During interpreter shutdown half the world may already be
        # gone; a destructor must never raise, whatever close() hits.
        try:
            self.close()
        except BaseException:
            pass
