"""PB-SYM-DR: domain replication (Section 4.1, Algorithm 4).

The simplest parallelisation: split the points evenly over ``P`` workers,
give each worker a *private copy of the whole volume* (so concurrent
cylinder stamps can never race), then sum the ``P`` copies.  Three
pleasingly-parallel phases:

1. **init** — each worker zeroes its private volume (memory-bound);
2. **compute** — each worker stamps its point chunk with PB-SYM;
3. **reduce** — the ``P`` copies are summed slab-by-slab (memory-bound).

The price is work inflation: ``Theta(P * Gx*Gy*Gt + n*Hs^2*Ht)`` and
``Theta(P * Gx*Gy*Gt)`` memory.  On init-dominated instances the extra
volume traffic *exceeds* the parallel gain (speedups below 1 in Figure 8),
and on large grids the replicas simply do not fit — Flu-Hr dies at 8
threads, eBird-Hr cannot run at all.  Both behaviours reproduce here via
the memory-budget check and the bandwidth-saturated phase model.

Worker chunks stamp through the batched engine (one
:func:`~repro.core.stamping.stamp_batch` call per chunk: DR has no binning
to share across its chunks).  PB-SYM's own ``backend="threads"``
(:func:`repro.algorithms.pb_sym.pb_sym`) runs these three phases with
bounding-box buffers in place of the full private volumes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..algorithms.base import STKDEResult, register_algorithm
from ..core.grid import GridSpec, PointSet, Volume, empty_volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.stamping import stamp_batch
from .executors import ExecTask, Phase, check_memory_budget, run_phases, slab_slices
from .schedule import BandwidthModel

__all__ = ["pb_sym_dr"]


@register_algorithm("pb-sym-dr", parallel=True)
def pb_sym_dr(
    points: PointSet,
    grid: GridSpec,
    *,
    P: int = 4,
    backend: str = "simulated",
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    memory_budget_bytes: Optional[int] = None,
    bandwidth: Optional[BandwidthModel] = None,
) -> STKDEResult:
    """Domain-replication parallel STKDE (PB-SYM-DR).

    Parameters
    ----------
    P:
        Worker count (virtual processors under the ``simulated`` backend).
    backend:
        ``"serial"``, ``"threads"`` or ``"simulated"`` (see
        :mod:`repro.parallel.executors`).
    memory_budget_bytes:
        Emulated machine memory; DR needs ``P + 1`` volume copies and
        raises :class:`~repro.parallel.executors.MemoryBudgetExceeded`
        when they do not fit (the paper's Figure 8 OOMs).

    Returns a result whose ``meta`` carries the parallel makespan the
    backend reports under ``meta["makespan"]`` and its per-phase
    breakdown (``init`` / ``compute`` / ``reduce``) under
    ``meta["phase_makespans"]``.
    """
    check_memory_budget(
        (P + 1) * grid.grid_bytes, memory_budget_bytes, f"PB-SYM-DR with P={P}"
    )

    norm = grid.normalization(points.n)
    locals_: List[Optional[np.ndarray]] = [None] * P
    # The output volume is one of the P+1 copies; it is *not* zeroed here —
    # the reduce phase overwrites it (as Algorithm 4's final loop does), so
    # its first touch is accounted to the reduce tasks.
    out = empty_volume(grid.shape)
    chunks = slab_slices(points.n, P)
    slabs = slab_slices(grid.Gt, P)  # t: the volume layout's outermost axis
    counters = [WorkCounter() for _ in range(P)]

    def make_init(p: int):
        def fn() -> None:
            locals_[p] = grid.allocate()
            counters[p].init_writes += grid.n_voxels

        return fn

    def make_compute(p: int):
        def fn() -> None:
            assert locals_[p] is not None
            stamp_batch(
                locals_[p], grid, kernel, points.coords[chunks[p]], norm, counters[p]
            )
            counters[p].points_processed += chunks[p].stop - chunks[p].start

        return fn

    def make_reduce(p: int):
        def fn() -> None:
            sl = slabs[p]
            acc = out[:, :, sl]
            np.copyto(acc, locals_[0][:, :, sl])  # type: ignore[index]
            for q in range(1, P):
                acc += locals_[q][:, :, sl]  # type: ignore[index]
            counters[p].reduce_adds += P * acc.size

        return fn

    def step(name: str, make, bound: str = "compute") -> Phase:
        tasks = [ExecTask(make(p), label=(name, p)) for p in range(P)]
        return Phase(name, tasks, bound)

    phase_ms = run_phases(
        [
            step("init", make_init, "memory"),
            step("compute", make_compute),
            step("reduce", make_reduce, "memory"),
        ],
        P, backend, timer, bandwidth,
    )

    for c in counters:
        counter.merge(c)

    return STKDEResult(
        Volume(out, grid),
        "pb-sym-dr",
        timer,
        counter,
        meta={
            "P": P,
            "backend": backend,
            "makespan": sum(phase_ms.values()),
            "phase_makespans": phase_ms,
            "memory_bytes": (P + 1) * grid.grid_bytes,
        },
    )
