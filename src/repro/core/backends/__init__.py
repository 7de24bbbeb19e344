"""Pluggable compute backends for the pair-evaluation hot paths.

The package exports a tiny registry: backends register under a name,
callers resolve them with :func:`get_backend` (``None`` → the default
:data:`DEFAULT_BACKEND`, a :class:`ComputeBackend` instance passes
through), and :func:`available_backends` lists what is registered.

``compute=`` on the engines, the services and the CLI is a *name pin*,
never a policy: nothing in the library chooses between backends.  The
two NumPy backends have different jobs:

``numpy-fused``
    The default: the paper's Figure 3 factorisation applied to every
    pair kernel.  PB-SYM, the parallel strategies, the incremental
    estimator and everything under :mod:`repro.serve` run it.
``numpy-ref``
    The paper's Table 3 cost profiles, and the oracle.  Its per-voxel
    ``pb`` / ``disk`` / ``bar`` tables and evaluate-everything voxel
    tiles *are* the work PB, PB-DISK, PB-BAR, VB and VB-DEC are timed
    for (the default gives every mode PB-SYM's tables and skips
    masked-out pairs), so those five algorithms and the tile probe that
    prices them name it; the parity suite compares against it.  Nothing
    else selects it.

Adding a backend: subclass :class:`ComputeBackend`, implement the three
primitives under the contracts in ``base.py`` (masks, rtol=1e-12 vs
``numpy-ref``, O(1) logical accounting), then ``register_backend(lambda:
MyBackend())``.  The parity suite in ``tests/core/test_backends.py`` runs
every registered backend automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from .base import ComputeBackend
from .numpy_fused import NumpyFusedBackend
from .numpy_ref import NumpyRefBackend

__all__ = [
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "NumpyFusedBackend",
    "NumpyRefBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: The one backend a process runs unless a caller pins another by name:
#: ``array_equal`` to itself, rtol=1e-12 to the ``numpy-ref`` oracle.
DEFAULT_BACKEND = "numpy-fused"

#: name -> factory.  Factories defer construction to the first use.
_FACTORIES: Dict[str, Callable[[], ComputeBackend]] = {}

#: name -> constructed singleton (backends are stateless, so one
#: instance per process serves every caller).
_INSTANCES: Dict[str, ComputeBackend] = {}


def register_backend(
    name: str, factory: Callable[[], ComputeBackend], *, overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``."""
    if name in _FACTORIES and not overwrite:
        raise ValueError(f"compute backend {name!r} already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Names of the backends this process can construct, sorted."""
    return tuple(sorted(_FACTORIES))


def get_backend(
    name: Union[str, ComputeBackend, None] = None
) -> ComputeBackend:
    """Resolve a backend by name (idempotent on instances).

    ``None`` resolves to :data:`DEFAULT_BACKEND`.  Unknown names raise
    ``KeyError`` with the available set.
    """
    if isinstance(name, ComputeBackend):
        return name
    if name is None:
        name = DEFAULT_BACKEND
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown compute backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    inst = factory()
    _INSTANCES[name] = inst
    return inst


register_backend("numpy-ref", NumpyRefBackend)
register_backend("numpy-fused", NumpyFusedBackend)
