"""One runner for the parallel STKDE strategies.

The paper describes every strategy the same way: barrier-separated steps
(zero the volume, stamp, reduce; Algorithms 4-6), each either
memory-bound or a task set handed to a parallel-for, to colour classes,
or to a dependency DAG (Section 5.2).  A strategy therefore only *builds*
its steps, as a list of :class:`Phase` objects, and :func:`run_phases`
is the one place that executes and clocks them.  A phase carries

``bound``
    ``"memory"`` for steps that stream the volume (zero-fill, replica
    reduction) and saturate DRAM bandwidth — "the speedup of the
    initialization phase using 16 threads is about 3", Section 6.3 —
    ``"compute"`` for stamping tasks;
``graph``
    the dependency DAG among the tasks (``None``: independent tasks).
    For the point decompositions the colour-oriented stencil edges are
    the *safety* constraint — two neighbouring blocks never stamp the
    shared volume at once — and they also fix the serial execution order;
``classes``
    task indices grouped into colour classes that run one after another
    with a barrier in between (PB-SYM-PD's eight parallel-for loops).

The three backends are three interpreters of the same phase list:

``serial``
    Runs every task on the calling thread in dependency order and
    reports, per phase, the plain sum of the measured task times.
``simulated``
    The *same* execution as ``serial`` — one run, two clocks, hence
    bit-identical volumes — then replays the measured task costs on ``P``
    virtual processors: :func:`~repro.parallel.schedule.saturated_makespan`
    for a memory-bound phase, a barrier schedule over ``classes`` in index
    order, otherwise Graham list scheduling over ``graph``,
    heaviest-measured first.  This is how the 16-thread figures of
    Section 6 are regenerated on small machines; only the clock is
    virtual.
``threads``
    Runs each phase on ``P`` real Python threads (the calling thread and
    ``P - 1`` started ones) and reports its wall time: one
    dependency-aware pool over ``graph`` (heaviest ``weight_hint``
    first), or one pool per colour class, in order.
    Phases are barrier-separated on every backend; a barrier between
    steps only regroups a sum of per-point contributions, so it never
    changes the volume.

Real threads run exactly where a caller writes ``backend="threads"``:
the five strategies and PB-SYM's bounding-box shards
(:func:`repro.algorithms.pb_sym.pb_sym`), all through :func:`run_phases`.
Nothing in the library selects them from a cost prediction.

Memory budgets: strategies check planned allocations against an optional
budget, reproducing the paper's 128 GB OOM outcomes (Figures 8 and 14)
via :class:`MemoryBudgetExceeded`.
"""

from __future__ import annotations

import functools
import heapq
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.grid import first_touch, zeros_volume
from ..core.instrument import PhaseTimer, WorkCounter
from .schedule import (
    BandwidthModel,
    TaskGraph,
    barrier_schedule,
    list_schedule,
    saturated_makespan,
)

__all__ = [
    "ExecTask",
    "MemoryBudgetExceeded",
    "Phase",
    "check_memory_budget",
    "resolve_shard_count",
    "run_phases",
    "run_serial",
    "run_threaded",
    "slab_slices",
    "zero_fill_phase",
    "BACKENDS",
]

BACKENDS = ("serial", "threads", "simulated")


class MemoryBudgetExceeded(RuntimeError):
    """Planned allocations exceed the emulated machine memory (cf. the
    128 GB ceiling that kills PB-SYM-DR on Flu-Hr and eBird-Hr)."""

    def __init__(self, needed: int, budget: int, what: str) -> None:
        super().__init__(
            f"{what}: needs {needed / 1e6:.1f} MB but the memory budget is "
            f"{budget / 1e6:.1f} MB"
        )
        self.needed = needed
        self.budget = budget


def check_memory_budget(
    needed_bytes: int, budget_bytes: Optional[int], what: str
) -> None:
    """Raise :class:`MemoryBudgetExceeded` if ``needed > budget``."""
    if budget_bytes is not None and needed_bytes > budget_bytes:
        raise MemoryBudgetExceeded(needed_bytes, budget_bytes, what)


@dataclass
class ExecTask:
    """A unit of parallel work: a closure plus scheduling metadata."""

    fn: Callable[[], None]
    weight_hint: float = 1.0  # scheduling priority before measurement
    label: object = None
    measured: float = 0.0  # wall seconds, filled by the backends


def run_serial(tasks: Sequence[ExecTask], graph: Optional[TaskGraph] = None) -> float:
    """Execute tasks on the calling thread in dependency order.

    Measures each task's wall time into ``task.measured``; returns the
    total.  With no graph, tasks run in sequence order.
    """
    order = graph.topological_order() if graph is not None else range(len(tasks))
    total = 0.0
    for i in order:
        t = tasks[i]
        t0 = time.perf_counter()
        t.fn()
        t.measured = time.perf_counter() - t0
        total += t.measured
    return total


def run_threaded(
    tasks: Sequence[ExecTask],
    graph: TaskGraph,
    P: int,
    priority: Optional[Callable[[int], Tuple]] = None,
) -> float:
    """Dependency-aware thread-pool execution; returns wall-clock time.

    Ready tasks are dispatched highest-priority-first (smallest priority
    tuple) to ``P`` workers: the calling thread and ``P - 1`` started
    threads, which run the task closures directly; NumPy's GIL-releasing
    kernels give true overlap for the stamping work.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if graph.n != len(tasks):
        raise ValueError("graph/task size mismatch")
    prio = priority if priority is not None else (lambda v: (v,))
    indeg = [len(p) for p in graph.preds]
    ready: List[Tuple[Tuple, int]] = [
        (prio(v), v) for v in range(graph.n) if indeg[v] == 0
    ]
    heapq.heapify(ready)
    lock = threading.Lock()
    work_available = threading.Condition(lock)
    remaining = graph.n
    failures: List[BaseException] = []

    def worker(v: Optional[int] = None) -> None:
        nonlocal remaining
        while True:
            if v is None:
                with work_available:
                    while not ready and remaining > 0 and not failures:
                        work_available.wait()
                    if remaining <= 0 or failures:
                        return
                    _, v = heapq.heappop(ready)
            t = tasks[v]
            t0 = time.perf_counter()
            try:
                t.fn()
            except BaseException as exc:  # propagate to caller
                with work_available:
                    failures.append(exc)
                    work_available.notify_all()
                return
            t.measured = time.perf_counter() - t0
            with work_available:
                remaining -= 1
                for s in graph.succs[v]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, (prio(s), s))
                work_available.notify_all()
            v = None

    t_start = time.perf_counter()
    # The calling thread is worker 0 and takes the first ready task before
    # the others start, so a task that allocates (the zero-fill phase's
    # first) gets memory the caller's earlier frees left for reuse; a
    # fresh thread's allocator arena would fault in new pages instead.
    first = heapq.heappop(ready)[1] if ready else None
    threads = [
        threading.Thread(target=worker, name=f"stkde-worker-{i}", daemon=True)
        for i in range(1, min(P, max(1, graph.n)))
    ]
    for th in threads:
        th.start()
    worker(first)
    for th in threads:
        th.join()
    if failures:
        raise failures[0]
    if remaining != 0:
        raise RuntimeError("threaded execution deadlocked (cyclic graph?)")
    return time.perf_counter() - t_start


def _edgeless(weights: List[float]) -> TaskGraph:
    n = len(weights)
    return TaskGraph(weights, [[] for _ in range(n)], [[] for _ in range(n)])


@dataclass
class Phase:
    """One barrier-separated step of a strategy (see the module docstring)."""

    name: str
    tasks: Sequence[ExecTask]
    bound: str = "compute"
    graph: Optional[TaskGraph] = None
    classes: Optional[Sequence[Sequence[int]]] = None

    def __post_init__(self) -> None:
        if self.bound not in ("compute", "memory"):
            raise ValueError(f"unknown phase bound {self.bound!r}")

    def simulate(self, P: int, bandwidth: Optional[BandwidthModel] = None) -> float:
        """Makespan of the measured task costs on ``P`` virtual processors."""
        measured = [t.measured for t in self.tasks]
        if self.bound == "memory":
            return saturated_makespan(measured, P, bandwidth)
        if self.classes is not None:
            return barrier_schedule(
                [[measured[i] for i in cls] for cls in self.classes], P
            )
        graph = (
            _edgeless(measured) if self.graph is None
            else TaskGraph(measured, self.graph.succs, self.graph.preds)
        )
        # Heaviest first: what an OpenMP dynamic loop over tasks sorted by
        # load, or a task-dependency runtime with priorities, achieves.
        return list_schedule(graph, P, priority=lambda v: (-measured[v], v)).makespan

    def run_threaded(self, P: int) -> float:
        """Wall seconds of the phase on ``P`` real threads."""
        hints = [t.weight_hint for t in self.tasks]
        if self.classes is not None:
            # One pool per colour class: the join between two calls is the
            # barrier that keeps differently coloured neighbours apart.
            return sum(
                run_threaded(
                    [self.tasks[i] for i in cls], _edgeless([hints[i] for i in cls]), P
                )
                for cls in self.classes
            )
        graph = self.graph if self.graph is not None else _edgeless(hints)
        return run_threaded(self.tasks, graph, P, priority=lambda v: (-hints[v], v))


def run_phases(
    phases: Sequence[Phase],
    P: int,
    backend: str,
    timer: PhaseTimer,
    bandwidth: Optional[BandwidthModel] = None,
) -> Dict[str, float]:
    """Execute a strategy's phases in order on ``backend``.

    Each phase runs inside ``timer.phase(name)``; returns the phase
    seconds the backend reports (``{name: seconds}``, see the module
    docstring for what each backend clocks).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    seconds: Dict[str, float] = {}
    for ph in phases:
        with timer.phase(ph.name):
            if backend == "threads":
                spent = ph.run_threaded(P)
            else:
                spent = run_serial(ph.tasks, ph.graph)
        seconds[ph.name] = (
            ph.simulate(P, bandwidth) if backend == "simulated" else spent
        )
    return seconds


def slab_slices(n: int, P: int) -> List[slice]:
    """Split ``range(n)`` into ``P`` near-equal contiguous slices."""
    bounds = [(n * p) // P for p in range(P + 1)]
    return [slice(bounds[p], bounds[p + 1]) for p in range(P)]


def zero_fill_phase(
    shape, P: int, counter: WorkCounter
) -> Tuple[List[np.ndarray], Phase]:
    """The shared-volume strategies' ``init`` step: ``P`` tasks that each
    first-touch (:func:`~repro.core.grid.first_touch`) one t-slab, the
    outermost axis of the volume layout (each slab one contiguous block),
    of a zeroed volume of ``shape``.  The first task allocates it and the
    others wait for that task, so ``calloc``'s clear of a block the
    allocator reuses is booked inside the phase, like the page faults of
    fresh memory.  Returns ``(out, phase)``: ``out[0]`` is the volume
    once the phase ran.  Charged to ``counter.init_writes`` here."""
    out: List[np.ndarray] = []
    slabs = slab_slices(shape[2], P)

    def touch(p: int) -> None:
        if p == 0:
            out.append(zeros_volume(shape))
        first_touch(out[0][:, :, slabs[p]])

    counter.init_writes += int(np.prod(shape))
    tasks = [
        ExecTask(functools.partial(touch, p), label=("init", p)) for p in range(P)
    ]
    after_alloc = TaskGraph(
        [1.0] * P,
        [list(range(1, P))] + [[] for _ in range(1, P)],
        [[]] + [[0] for _ in range(1, P)],
    )
    return out, Phase("init", tasks, bound="memory", graph=after_alloc)


def resolve_shard_count(P: "int | str | None") -> int:
    """Resolve a shard/worker count, supporting ``"auto"``.

    ``"auto"`` (or ``None``) takes the machine's CPU count — the container
    affinity mask when available, so a 4-core cgroup on a 64-core host
    shards 4 ways.  Integers pass through validated.
    """
    if P == "auto" or P is None:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if isinstance(P, bool) or not isinstance(P, int):
        raise ValueError(f"P must be a positive int or 'auto', got {P!r}")
    if P < 1:
        raise ValueError("P must be >= 1")
    return P
