"""Dependency DAGs, critical paths, and Graham list scheduling (Section 5.2).

A colouring of the occupied-block conflict graph induces a dependency DAG:
every stencil edge is oriented from the lower colour to the higher colour
(Figure 6; :func:`repro.parallel.color.block_task_graph` builds it).
Executing tasks in any order consistent with that DAG is safe;
how *fast* it runs is bounded by Graham's list-scheduling guarantee

.. math::  T_P \\le (T_1 - T_\\infty) / P + T_\\infty

where ``T_1`` is the total weight and ``T_infty`` the weighted critical
path.  The paper reasons about its parallel strategies entirely through
this bound (Figure 12 plots ``T_infty / T_1``), and so do we.

This module provides:

* :class:`TaskGraph` — weighted DAG with successor/predecessor lists;
* :func:`critical_path` — weighted longest path (``T_infty``), and
  :func:`grahams_bound` over it;
* :func:`list_schedule` — event-driven greedy scheduler on ``P``
  processors with a pluggable priority (PD-SCHED's "heaviest first");
* :func:`barrier_schedule` — the colour-class-by-colour-class execution of
  the first PD implementation (eight OpenMP parallel-for constructs);
* a **memory-bandwidth saturation model** for memory-bound phases:
  Section 6.3 observes that volume initialisation speeds up by only ~3x
  regardless of thread count because it saturates DRAM bandwidth; the
  simulated executors reproduce that with a configurable cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "TaskGraph",
    "ScheduleResult",
    "critical_path",
    "list_schedule",
    "barrier_schedule",
    "grahams_bound",
    "saturated_makespan",
    "BandwidthModel",
]

#: Default memory-bandwidth saturation: parallel memory-bound phases
#: (volume init, replica reduction) scale to at most this factor.  The
#: paper measures ~3 on its dual-socket Xeon ("the speedup of the
#: initialization phase using 16 threads is about 3", Section 6.3).
DEFAULT_BANDWIDTH_CAP = 3.0


@dataclass(frozen=True)
class BandwidthModel:
    """Effective parallelism model for memory-bound phases."""

    cap: float = DEFAULT_BANDWIDTH_CAP

    def effective_procs(self, P: int) -> float:
        if P < 1:
            raise ValueError("P must be >= 1")
        return min(float(P), self.cap)


@dataclass
class TaskGraph:
    """A weighted dependency DAG over integer task ids ``0..n-1``."""

    weights: List[float]
    succs: List[List[int]]
    preds: List[List[int]]
    labels: List[object] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        """``T_1``: the serial execution time of all tasks."""
        return sum(self.weights)

    def topological_order(self) -> List[int]:
        """Kahn topological order; raises on cycles."""
        indeg = [len(p) for p in self.preds]
        ready = [i for i in range(self.n) if indeg[i] == 0]
        out: List[int] = []
        while ready:
            v = ready.pop()
            out.append(v)
            for s in self.succs[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(out) != self.n:
            raise ValueError("task graph contains a cycle")
        return out


def critical_path(graph: TaskGraph) -> Tuple[float, List[int]]:
    """Weighted longest path ``T_infty`` and one path realising it."""
    order = graph.topological_order()
    dist = [0.0] * graph.n
    parent = [-1] * graph.n
    for v in order:
        best = 0.0
        for p in graph.preds[v]:
            if dist[p] > best:
                best = dist[p]
                parent[v] = p
        dist[v] = best + graph.weights[v]
    if not order:
        return 0.0, []
    end = max(range(graph.n), key=lambda v: dist[v])
    path = []
    v = end
    while v != -1:
        path.append(v)
        v = parent[v]
    path.reverse()
    return dist[end], path


@dataclass
class ScheduleResult:
    """Outcome of a (simulated) parallel execution."""

    makespan: float
    start: List[float]
    end: List[float]
    proc: List[int]
    P: int

    @property
    def busy_time(self) -> float:
        return sum(e - s for s, e in zip(self.start, self.end))

    @property
    def efficiency(self) -> float:
        """Busy fraction of the ``P * makespan`` processor-time budget."""
        if self.makespan == 0:
            return 1.0
        return self.busy_time / (self.P * self.makespan)


def list_schedule(
    graph: TaskGraph,
    P: int,
    priority: Optional[Callable[[int], Tuple]] = None,
) -> ScheduleResult:
    """Event-driven greedy list scheduling on ``P`` identical processors.

    Whenever a processor is idle and tasks are ready, the ready task with
    the smallest ``priority(task)`` tuple starts immediately (Graham's
    algorithm — no deliberate idling).  The default priority is task id;
    PB-SYM-PD-SCHED passes heaviest-first.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    n = graph.n
    indeg = [len(p) for p in graph.preds]
    prio = priority if priority is not None else (lambda v: (v,))
    ready: List[Tuple[Tuple, int]] = [
        (prio(v), v) for v in range(n) if indeg[v] == 0
    ]
    heapq.heapify(ready)
    # Processors as a heap of (free_at_time, proc_id).
    procs = [(0.0, p) for p in range(P)]
    heapq.heapify(procs)
    running: List[Tuple[float, int]] = []  # (finish_time, task)
    start = [0.0] * n
    end = [0.0] * n
    proc_of = [0] * n
    now = 0.0
    done = 0
    while done < n:
        if ready and procs and procs[0][0] <= now:
            _, v = heapq.heappop(ready)
            free_at, p = heapq.heappop(procs)
            s = max(now, free_at)
            start[v] = s
            end[v] = s + graph.weights[v]
            proc_of[v] = p
            heapq.heappush(procs, (end[v], p))
            heapq.heappush(running, (end[v], v))
            continue
        if not running:
            # No task ready and nothing running: the DAG had a cycle or we
            # are waiting on a processor; advance to next processor event.
            if ready and procs:
                now = max(now, procs[0][0])
                continue
            raise ValueError("deadlock: tasks remain but none ready/running")
        finish, v = heapq.heappop(running)
        now = max(now, finish)
        done += 1
        for s_ in graph.succs[v]:
            indeg[s_] -= 1
            if indeg[s_] == 0:
                heapq.heappush(ready, (prio(s_), s_))
    makespan = max(end) if n else 0.0
    return ScheduleResult(makespan, start, end, proc_of, P)


def barrier_schedule(
    class_weights: Sequence[Sequence[float]],
    P: int,
    *,
    lpt: bool = False,
) -> float:
    """Makespan of colour-class-by-colour-class execution with barriers.

    Models the first PB-SYM-PD implementation: one parallel-for per colour
    class, classes strictly in sequence.  Within a class, tasks are
    greedily assigned to the earliest-free processor, in index order (an
    OpenMP ``schedule(dynamic)`` loop) or in longest-processing-time order
    when ``lpt`` is set.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    total = 0.0
    for weights in class_weights:
        if not len(weights):
            continue
        ws = sorted(weights, reverse=True) if lpt else list(weights)
        procs = [0.0] * P
        for w in ws:
            i = min(range(P), key=procs.__getitem__)
            procs[i] += w
        total += max(procs)
    return total


def grahams_bound(T1: float, Tinf: float, P: int) -> float:
    """Graham's list-scheduling upper bound ``(T1 - Tinf)/P + Tinf``."""
    if P < 1:
        raise ValueError("P must be >= 1")
    return (T1 - Tinf) / P + Tinf


def saturated_makespan(
    weights: Sequence[float],
    P: int,
    bandwidth: Optional[BandwidthModel] = None,
) -> float:
    """Makespan of an independent, memory-bound phase under saturation.

    Memory-bound phases (volume initialisation, replica reduction) do not
    scale with processor count but with available DRAM bandwidth; the
    model caps effective parallelism at ``bandwidth.cap`` (Section 6.3
    measures ~3 on the paper's machine).  Compute-bound phases should use
    :func:`list_schedule` / :func:`barrier_schedule` instead.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    ws = [float(w) for w in weights if w > 0]
    if not ws:
        return 0.0
    eff = (bandwidth or BandwidthModel()).effective_procs(P)
    return max(max(ws), sum(ws) / eff)
