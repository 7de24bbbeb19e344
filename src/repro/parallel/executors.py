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
    Runs each phase on ``P`` real Python threads and reports its wall
    time: one dependency-aware pool over ``graph`` (heaviest
    ``weight_hint`` first), or one pool per colour class, in order.
    Phases are barrier-separated on every backend; a barrier between
    steps only regroups a sum of per-point contributions, so it never
    changes the volume.

Real threads run exactly where a caller writes ``backend="threads"`` —
the five strategies through :func:`run_phases`, and sequential PB-SYM
through :func:`run_threaded_stamping` (bounding-box shard buffers
merged into the volume).  Nothing in the library selects them from a
cost prediction.

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

from ..core.grid import GridSpec, VoxelWindow, first_touch, zeros_volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.regions import RegionBuffer, plan_stamp_shards
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
    "run_threaded_stamping",
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
    tuple).  Worker threads run the task closures directly; NumPy's
    GIL-releasing kernels give true overlap for the stamping work.
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

    def worker() -> None:
        nonlocal remaining
        while True:
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

    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"stkde-worker-{i}", daemon=True)
        for i in range(min(P, max(1, graph.n)))
    ]
    for th in threads:
        th.start()
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


def zero_fill_phase(shape, P: int, counter: WorkCounter) -> Tuple[np.ndarray, Phase]:
    """The shared-volume strategies' zeroed volume of ``shape`` and its
    ``init`` step: ``P`` tasks that each first-touch
    (:func:`~repro.core.grid.first_touch`) one t-slab, the outermost axis
    of the volume layout (each slab one contiguous block), so the
    kernel's page zeroing is the phase's memory-bound work; charged to
    ``counter.init_writes`` here.  (A block the allocator reuses is
    cleared by ``calloc`` at this call instead.)"""
    vol = zeros_volume(shape)
    counter.init_writes += vol.size
    tasks = [
        ExecTask(functools.partial(first_touch, vol[:, :, sl]), label=("init", p))
        for p, sl in enumerate(slab_slices(shape[2], P))
    ]
    return vol, Phase("init", tasks, bound="memory")


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


def _windows_pairwise_disjoint(windows: Sequence[VoxelWindow]) -> bool:
    """Whether no two shard bounding boxes share a voxel (O(P^2), tiny P).

    Pairwise-disjoint boxes admit the per-shard merge: concurrent
    whole-buffer merges can never write the same output voxel.
    """
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            if not windows[i].intersect(windows[j]).empty:
                return False
    return True


def run_threaded_stamping(
    vol: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    coords: np.ndarray,
    norm: float,
    counter: WorkCounter,
    P: "int | str",
    *,
    mode: str = "sym",
    clip: Optional[VoxelWindow] = None,
    memory_budget_bytes: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Stamp a point batch on ``P`` threads through the region engine.

    The scaling path the engine enables: the batch is partitioned by
    :func:`repro.core.regions.plan_stamp_shards` into ``P`` shards balanced
    by stamped-cell count and ordered by stamp-window origin, each worker
    accumulates its shard into a **bounding-box** :class:`RegionBuffer`
    covering only the grid region its stamps can touch (so concurrent
    stamps never race, and every heavy operation is a GIL-releasing NumPy
    kernel), and the buffers are merged into ``vol``: **per shard** when
    the bounding boxes are pairwise disjoint (one merge task per buffer,
    released the moment its own stamp finishes — no slab sweep over empty
    intersections), otherwise by a slab-parallel reduction over the union
    of the boxes in which each slab visits only the shards whose x-extent
    reaches it.  This keeps the no-shared-write
    structure of the DR trade while shrinking its memory tax from ``P``
    full volumes to the shards' joint bounding boxes — on clustered data a
    small fraction of the grid — and shrinking the reduction traffic by
    the same factor.

    Work accounting mirrors DR at buffer granularity: buffer zeroing is
    charged to ``init_writes`` (and recorded in ``shard_bbox_cells``), the
    merge to ``reduce_adds``.  ``P="auto"`` shards by the machine's CPU
    count.  ``memory_budget_bytes`` bounds the *actual* planned footprint
    (output volume + shard buffers), raising :class:`MemoryBudgetExceeded`
    before anything is allocated.  Returns the wall-clock seconds of the
    threaded region.
    """
    P = resolve_shard_count(P)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return 0.0
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (coords.shape[0],):
            raise ValueError("weights must be (n,) matching coords")
    plan = plan_stamp_shards(grid, coords, P, clip)
    n_shards = plan.n_shards
    if n_shards == 0:
        return 0.0
    check_memory_budget(
        vol.nbytes + plan.buffer_bytes, memory_budget_bytes,
        f"threaded stamping with {n_shards} bbox shards",
    )

    buffers: List[Optional[RegionBuffer]] = [None] * n_shards
    shard_counters = [WorkCounter() for _ in range(n_shards)]

    def make_shard(p: int):
        chunk = coords[plan.shards[p]]
        chunk_w = weights[plan.shards[p]] if weights is not None else None
        window = plan.windows[p]

        def fn() -> None:
            buf = RegionBuffer(window)
            shard_counters[p].init_writes += buf.cells
            shard_counters[p].shard_bbox_cells += buf.cells
            buf.stamp(
                grid, kernel, chunk, norm, shard_counters[p],
                mode=mode, clip=clip, weights=chunk_w,
            )
            buffers[p] = buf

        return fn

    # Reduction strategy.  Shard bounding boxes that are pairwise disjoint
    # (the normal shape for clustered data under origin-ordered sharding)
    # can be merged **per shard**: one task per buffer, each writing only
    # its own box — no slab sweep over the union extent, no empty
    # intersections visited.  Overlapping boxes fall back to the
    # slab-parallel reduction over the union x-extent (each reducer owns
    # an x-slab, so concurrent merges never write the same voxel), where
    # each slab pre-filters to the shards that actually reach it.
    per_shard_merge = n_shards > 1 and _windows_pairwise_disjoint(plan.windows)
    if per_shard_merge:
        reduce_counters = [WorkCounter() for _ in range(n_shards)]

        def make_reduce(r: int):
            def fn() -> None:
                added = buffers[r].add_into(vol)  # type: ignore[union-attr]
                reduce_counters[r].reduce_adds += added

            return fn

        n_merges = n_shards
    else:
        ux0, ux1 = plan.union_x_range()
        span = ux1 - ux0
        slab_bounds = [ux0 + (span * p) // P for p in range(P + 1)]
        slabs = [
            (slab_bounds[p], slab_bounds[p + 1])
            for p in range(P)
            if slab_bounds[p + 1] > slab_bounds[p]
        ]
        # Shards whose x-extent misses a slab contribute nothing to it;
        # skip them instead of bouncing off add_into's empty check.
        slab_shards = [
            [
                q
                for q in range(n_shards)
                if plan.windows[q].x0 < hi and plan.windows[q].x1 > lo
            ]
            for lo, hi in slabs
        ]
        reduce_counters = [WorkCounter() for _ in slabs]

        def make_reduce(r: int):
            def fn() -> None:
                lo, hi = slabs[r]
                added = 0
                for q in slab_shards[r]:
                    added += buffers[q].add_into(vol, lo, hi)  # type: ignore[union-attr]
                reduce_counters[r].reduce_adds += added

            return fn

        n_merges = len(slabs)

    tasks = [ExecTask(make_shard(p), label=("stamp", p)) for p in range(n_shards)]
    tasks += [ExecTask(make_reduce(r), label=("merge", r)) for r in range(n_merges)]
    n_t = len(tasks)
    succs: List[List[int]] = [[] for _ in range(n_t)]
    preds: List[List[int]] = [[] for _ in range(n_t)]
    # A merge waits only on the stamps whose buffers it reads: its own
    # shard on the per-shard path (so disjoint merges start the moment
    # their shard finishes), the slab's reaching shards otherwise.
    for r in range(n_merges):
        readers = [r] if per_shard_merge else slab_shards[r]
        for p in readers:
            succs[p].append(n_shards + r)
            preds[n_shards + r].append(p)
    wall = run_threaded(tasks, TaskGraph([t.weight_hint for t in tasks], succs, preds), P)
    for c in shard_counters:
        counter.merge(c)
    for c in reduce_counters:
        counter.merge(c)
    return wall
