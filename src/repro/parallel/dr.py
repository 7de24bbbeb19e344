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

DR is a :class:`~repro.parallel.executors.StrategySpec`: one group per
point chunk, each writing a private whole-grid buffer, reduced by ``P``
t-slab tasks, and no zero-fill of the output.  Each chunk builds its own
:class:`~repro.core.stamping.StampPlan` inside its compute task, as a
:func:`~repro.core.stamping.stamp_batch` call would: DR has no binning to
share across its chunks, and a serial whole-batch plan would cap its
speedup.  PB-SYM's own ``backend="threads"``
(:func:`repro.algorithms.pb_sym.pb_sym`) runs the same spec with
bounding-box buffers in place of the full private volumes.
"""

from __future__ import annotations

from typing import Optional

from ..algorithms.base import STKDEResult, register_algorithm
from ..core.grid import GridSpec, PointSet, Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from .executors import StrategySpec, check_memory_budget, run_strategy, slab_slices
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
    # One private whole-grid buffer per point chunk, each chunk planning
    # its own rows in its task; the output volume is one of the P + 1
    # copies, *not* zeroed: the reduce overwrites it (Algorithm 4's final
    # loop), so its first touch is accounted to the reduce tasks.
    spec = StrategySpec(
        grid, kernel, grid.normalization(points.n),
        blocks=[[(points.coords[chunk], grid.full_window())]
                for chunk in slab_slices(points.n, P)],
        slab_reduce=True, zero_volume=False,
    )
    vol, meta, _, _ = run_strategy(spec, P, backend, timer, counter, bandwidth)
    meta["memory_bytes"] = (P + 1) * grid.grid_bytes
    return STKDEResult(Volume(vol, grid), "pb-sym-dr", timer, counter, meta=meta)
