"""Algorithm protocol, result container, and registry.

Every STKDE algorithm in this package — sequential (Sections 2-3 of the
paper) and parallel (Sections 4-5) — is a callable

``algo(points, grid, *, kernel=..., counter=None, timer=None, **options)``

returning an :class:`STKDEResult`.  Algorithms self-register under their
paper name (``"vb"``, ``"pb-sym"``, ``"pb-sym-dd"``, ...) so the CLI, the
benchmark harness, and the strategy-selection model can enumerate and invoke
them uniformly.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..core.grid import Volume
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import get_kernel

__all__ = [
    "RUN_OPTIONS",
    "STKDEResult",
    "AlgorithmFn",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "sequential_algorithms",
    "parallel_algorithms",
]


@dataclass
class STKDEResult:
    """Outcome of one STKDE computation.

    Attributes
    ----------
    volume:
        The density volume with its grid.
    algorithm:
        Registry name of the algorithm that produced it.
    timer:
        Per-phase wall-clock (``init`` / ``compute`` / ``bin`` /
        ``reduce`` ...) — what Figure 7 plots.
    counter:
        Logical work performed — what the overhead analyses (Figures 9, 12)
        are computed from.
    meta:
        Algorithm-specific extras (decomposition used, colouring stats,
        simulated makespan, replication factors, ...).
    """

    volume: Volume
    algorithm: str
    timer: PhaseTimer
    counter: WorkCounter
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def data(self) -> np.ndarray:
        """The raw density array (shape ``(Gx, Gy, Gt)``)."""
        return self.volume.data

    @property
    def elapsed(self) -> float:
        """Total measured wall-clock across phases."""
        return self.timer.total


AlgorithmFn = Callable[..., STKDEResult]

#: The run options shared by the strategies: worker count, execution
#: backend, block decomposition and memory budget (Sections 4-6.5).
RUN_OPTIONS = ("P", "backend", "decomposition", "memory_budget_bytes")

_SEQUENTIAL: Dict[str, AlgorithmFn] = {}
_PARALLEL: Dict[str, AlgorithmFn] = {}


def register_algorithm(
    name: str, *, parallel: bool = False
) -> Callable[[AlgorithmFn], AlgorithmFn]:
    """Class of decorators registering an algorithm under its paper name.

    The registered callable is where every entry — a direct call, the
    registry, the :class:`~repro.core.stkde.STKDE` facade, the CLI —
    passes, so the prologue the algorithms share lives here: a weighted
    :class:`~repro.core.grid.PointSet` raises (the grid algorithms
    estimate unit-weight events); ``kernel`` is resolved (the signature's
    default when omitted); a ``None`` counter / timer becomes a fresh
    one; a given ``P`` is checked by
    :func:`~repro.parallel.executors.resolve_shard_count`.  Other keywords
    pass as given, so one the signature lacks raises :class:`TypeError`.
    The signature's :data:`RUN_OPTIONS` are recorded as ``run_options``
    (what :class:`~repro.core.stkde.STKDE` binds).
    """

    def deco(fn: AlgorithmFn) -> AlgorithmFn:
        table = _PARALLEL if parallel else _SEQUENTIAL
        if name in _SEQUENTIAL or name in _PARALLEL:
            raise ValueError(f"algorithm {name!r} already registered")
        params = inspect.signature(fn).parameters
        default_kernel = params["kernel"].default

        @functools.wraps(fn)
        def checked(points, grid, *, kernel=default_kernel, counter=None,
                    timer=None, **options: Any) -> STKDEResult:
            if getattr(points, "weights", None) is not None:
                raise ValueError(
                    f"algorithm {name!r} estimates unit-weight events and would "
                    "drop PointSet.weights; serve weighted events through "
                    "repro.serve.DensityService"
                )
            if "P" in options:
                from ..parallel.executors import resolve_shard_count

                options["P"] = resolve_shard_count(options["P"])
            return fn(
                points, grid, kernel=get_kernel(kernel),
                counter=counter if counter is not None else WorkCounter(),
                timer=timer if timer is not None else PhaseTimer(),
                **options,
            )

        table[name] = checked
        checked.algorithm_name = name  # type: ignore[attr-defined]
        checked.run_options = tuple(  # type: ignore[attr-defined]
            o for o in RUN_OPTIONS if o in params
        )
        return checked

    return deco


def get_algorithm(name: str) -> AlgorithmFn:
    """Look up any registered algorithm by name."""
    if name in _SEQUENTIAL:
        return _SEQUENTIAL[name]
    if name in _PARALLEL:
        return _PARALLEL[name]
    known = ", ".join(sorted((*_SEQUENTIAL, *_PARALLEL)))
    raise KeyError(f"unknown algorithm {name!r}; available: {known}")


def available_algorithms() -> Tuple[str, ...]:
    """All registered algorithm names (sequential first, then parallel)."""
    return tuple(sorted(_SEQUENTIAL)) + tuple(sorted(_PARALLEL))


def sequential_algorithms() -> Tuple[str, ...]:
    return tuple(sorted(_SEQUENTIAL))


def parallel_algorithms() -> Tuple[str, ...]:
    return tuple(sorted(_PARALLEL))
