"""Kernel functions for space-time kernel density estimation.

The STKDE estimator (Saule et al., ICPP 2017, Section 2.1) combines a
*spatial* kernel ``k_s(u, v)`` supported on the unit disk with a *temporal*
kernel ``k_t(w)`` supported on ``[-1, 1]``:

.. math::

   \\hat f(x, y, t) = \\frac{1}{n h_s^2 h_t}
       \\sum_{i : d_i < h_s,\\ |t - t_i| \\le h_t}
       k_s\\!\\left(\\frac{x - x_i}{h_s}, \\frac{y - y_i}{h_s}\\right)
       k_t\\!\\left(\\frac{t - t_i}{h_t}\\right)

Every algorithm in this package is parameterised by a :class:`KernelPair`.
The algorithms only rely on two structural properties (Figure 3 of the
paper):

* ``k_s`` depends only on the spatial offset of a voxel from the point
  (it is *temporally invariant*), and
* ``k_t`` depends only on the temporal offset (it is *spatially invariant*).

Three kernel pairs are registered:

``"epanechnikov"`` (default)
    ``k_s(u, v) = 2/pi * (1 - (u^2 + v^2))`` on the unit disk and
    ``k_t(w) = 3/4 * (1 - w^2)`` on ``[-1, 1]``.  Both integrate to one
    over their support, so interior cylinders conserve unit mass.

``"quartic"``
    ``k_s(u, v) = 3/pi * (1 - (u^2 + v^2))^2`` — the biweight form used by
    Nakaya & Yano [NY10], the paper's reference for the STKDE method.

``"as_printed"``
    The literal product form appearing in the arXiv rendering of the paper,
    ``k_s(u, v) = pi/2 * (1 - u)^2 (1 - v)^2`` and
    ``k_t(w) = 3/4 * (1 - w)^2``.  It is kept for completeness; see
    DESIGN.md for why we believe this is an OCR artifact of the standard
    kernels above.  It exercises the same code paths and satisfies the same
    invariance structure.

Kernel evaluation is by far the dominant floating-point cost of the
point-based algorithms (the paper estimates ~40 flops per voxel for PB), so
the spatial kernels here are deliberately written as straightforward NumPy
expressions: the *relative* cost of evaluating ``k_s`` on a full cylinder
(PB, PB-BAR) versus once per disk (PB-DISK, PB-SYM) is what Table 3
measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "KernelPair",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "epanechnikov_spatial",
    "epanechnikov_temporal",
    "quartic_spatial",
    "as_printed_spatial",
    "as_printed_temporal",
]

#: Signature of a spatial kernel: ``f(u, v) -> values`` where ``u = dx/h_s``
#: and ``v = dy/h_s`` are normalised offsets.  The function must be valid for
#: any offsets inside the unit disk; masking of the exterior is the caller's
#: responsibility (algorithms apply the paper's ``d < h_s`` test explicitly).
SpatialKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Signature of a temporal kernel: ``f(w) -> values`` with ``w = dt/h_t``.
TemporalKernel = Callable[[np.ndarray], np.ndarray]


def epanechnikov_spatial(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2-D Epanechnikov kernel ``2/pi * (1 - (u^2 + v^2))``.

    Integrates to one over the unit disk:
    ``int_0^1 2/pi (1 - r^2) * 2 pi r dr = 1``.
    """
    return (2.0 / math.pi) * (1.0 - (u * u + v * v))


def epanechnikov_temporal(w: np.ndarray) -> np.ndarray:
    """1-D Epanechnikov kernel ``3/4 * (1 - w^2)``, unit mass on [-1, 1]."""
    return 0.75 * (1.0 - w * w)


def quartic_spatial(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2-D quartic (biweight) kernel ``3/pi * (1 - (u^2 + v^2))^2``.

    This is the spatial kernel of Nakaya & Yano's space-time cube work
    [NY10]; it also integrates to one over the unit disk.
    """
    s = 1.0 - (u * u + v * v)
    return (3.0 / math.pi) * s * s


def as_printed_spatial(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Literal spatial kernel from the arXiv text: ``pi/2 (1-u)^2 (1-v)^2``.

    Not a probability kernel (it is asymmetric in the sign of ``u``/``v``
    and does not integrate to one) but retained so the reproduction can be
    run against the exact formula as printed.
    """
    a = 1.0 - u
    b = 1.0 - v
    return (math.pi / 2.0) * (a * a) * (b * b)


def as_printed_temporal(w: np.ndarray) -> np.ndarray:
    """Literal temporal kernel from the arXiv text: ``3/4 (1-w)^2``."""
    a = 1.0 - w
    return 0.75 * (a * a)


@dataclass(frozen=True)
class KernelPair:
    """A named (spatial, temporal) kernel pair used by all algorithms.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"epanechnikov"``.
    spatial:
        Vectorised ``k_s(u, v)``.
    temporal:
        Vectorised ``k_t(w)``.
    spatial_radial:
        Optional fast path for radially symmetric spatial kernels:
        ``f(r2) == spatial(u, v)`` with ``r2 = u^2 + v^2`` already in hand.
        The disk tabulation computes ``r2`` anyway for the bandwidth test,
        so radial kernels (Epanechnikov, quartic) skip re-deriving it from
        broadcast offsets.  ``None`` for non-radial kernels.
    clamp_profile:
        ``(c, p)`` when the *product* of the two kernels is the polynomial
        ``k_s * k_t == c * (1 - r^2)^p * (1 - w^2)`` on the support
        (``r^2 = u^2 + v^2``).  A fact about the kernel, not a knob: it
        lets a backend evaluate the masked product in clamp form,
        ``max(hs^2 - d^2, 0)^p * max(ht^2 - dt^2, 0)`` times one scalar,
        where the clamp is the mask (``d^2 >= hs^2`` and ``|dt| > ht``
        clamp to zero).  ``None`` (the default, and every user kernel
        that does not set it) keeps the generic mask-and-evaluate path.
    spatial_flops / temporal_flops:
        Approximate floating-point operations per evaluation, used by the
        parametric execution model (Section 6.5) and by the work counters
        to translate kernel-evaluation counts into flop estimates.
    """

    name: str
    spatial: SpatialKernel
    temporal: TemporalKernel
    spatial_radial: Callable[[np.ndarray], np.ndarray] | None = None
    clamp_profile: Tuple[float, int] | None = None
    spatial_flops: int = 6
    temporal_flops: int = 3

    def spatial_scalar(self, u: float, v: float) -> float:
        """Evaluate ``k_s`` on scalars (used by scalar reference paths)."""
        return float(self.spatial(np.float64(u), np.float64(v)))

    def temporal_scalar(self, w: float) -> float:
        """Evaluate ``k_t`` on a scalar."""
        return float(self.temporal(np.float64(w)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelPair({self.name!r})"


_REGISTRY: Dict[str, KernelPair] = {}


def register_kernel(pair: KernelPair, *, overwrite: bool = False) -> KernelPair:
    """Register a kernel pair under ``pair.name``.

    Raises
    ------
    ValueError
        If the name is already registered and ``overwrite`` is false.
    """
    if pair.name in _REGISTRY and not overwrite:
        raise ValueError(f"kernel {pair.name!r} already registered")
    _REGISTRY[pair.name] = pair
    return pair


def get_kernel(name: str | KernelPair = "epanechnikov") -> KernelPair:
    """Look up a kernel pair by name (idempotent on KernelPair inputs)."""
    if isinstance(name, KernelPair):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown kernel {name!r}; available: {known}") from None


def available_kernels() -> Tuple[str, ...]:
    """Names of all registered kernel pairs, sorted."""
    return tuple(sorted(_REGISTRY))


def _epanechnikov_radial(r2: np.ndarray) -> np.ndarray:
    return (2.0 / math.pi) * (1.0 - r2)


def _quartic_radial(r2: np.ndarray) -> np.ndarray:
    s = 1.0 - r2
    return (3.0 / math.pi) * s * s


register_kernel(
    KernelPair(
        name="epanechnikov",
        spatial=epanechnikov_spatial,
        temporal=epanechnikov_temporal,
        spatial_radial=_epanechnikov_radial,
        clamp_profile=(2.0 / math.pi * 0.75, 1),
        spatial_flops=6,
        temporal_flops=3,
    )
)
register_kernel(
    KernelPair(
        name="quartic",
        spatial=quartic_spatial,
        temporal=epanechnikov_temporal,
        spatial_radial=_quartic_radial,
        clamp_profile=(3.0 / math.pi * 0.75, 2),
        spatial_flops=8,
        temporal_flops=3,
    )
)
register_kernel(
    KernelPair(
        name="as_printed",
        spatial=as_printed_spatial,
        temporal=as_printed_temporal,
        spatial_radial=None,
        spatial_flops=7,
        temporal_flops=4,
    )
)
