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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..core.grid import Volume
from ..core.instrument import PhaseTimer, WorkCounter

__all__ = [
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

_SEQUENTIAL: Dict[str, AlgorithmFn] = {}
_PARALLEL: Dict[str, AlgorithmFn] = {}


def register_algorithm(
    name: str, *, parallel: bool = False
) -> Callable[[AlgorithmFn], AlgorithmFn]:
    """Class of decorators registering an algorithm under its paper name.

    The registered callable is where every entry — a direct call, the
    registry, the :class:`~repro.core.stkde.STKDE` facade, the CLI —
    passes, so the one input check the grid algorithms share lives here:
    they estimate unit-weight events, and a weighted
    :class:`~repro.core.grid.PointSet` raises instead of silently losing
    its weights.
    """

    def deco(fn: AlgorithmFn) -> AlgorithmFn:
        table = _PARALLEL if parallel else _SEQUENTIAL
        if name in _SEQUENTIAL or name in _PARALLEL:
            raise ValueError(f"algorithm {name!r} already registered")

        @functools.wraps(fn)
        def checked(points, *args: Any, **kwargs: Any) -> STKDEResult:
            if getattr(points, "weights", None) is not None:
                raise ValueError(
                    f"algorithm {name!r} estimates unit-weight events and would "
                    "drop PointSet.weights; serve weighted events through "
                    "repro.serve.DensityService"
                )
            return fn(points, *args, **kwargs)

        table[name] = checked
        checked.algorithm_name = name  # type: ignore[attr-defined]
        checked.is_parallel = parallel  # type: ignore[attr-defined]
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
