"""``numpy-fused``: the default backend (always available).

Same primitives as ``numpy-ref``, three optimisations:

* **Clamp form** — for kernels that declare a ``clamp_profile``
  (``k_s * k_t == c * (1 - r^2)^p * (1 - w^2)``: Epanechnikov, quartic)
  the masked product is ``max(hs^2 - d^2, 0)^p * max(ht^2 - dt^2, 0)``
  times one scalar: the clamp *is* the mask, so PB-SYM's disk table
  costs one batched matrix product for ``d^2`` (:func:`~repro.core.
  backends.base.disk_d2`) and two or three passes (subtract, clamp,
  square when ``p == 2``), and the point-query pair kernel a handful,
  against the reference's seven-pass mask, scale, evaluate and multiply.
  ``hs^2 - d^2`` rounds correctly, so it is ``<= 0`` exactly where
  ``d^2 >= hs^2``: the strict spatial mask holds bit for bit.  Other
  radial kernels reuse the mask's squared distance for
  ``spatial_radial``; non-radial ones take the reference path.
* **Factorised tables** — the per-voxel stamp modes (``pb``/``disk``/
  ``bar``) exploit the paper's Figure 3 invariance structure: ``k_s`` is
  temporally invariant and ``k_t`` spatially invariant, so the masked
  product over an ``(m, wx, wy, wt)`` cylinder *is* the outer product of a
  masked ``(m, wx, wy)`` disk table and a masked ``(m, wt)`` bar table.
  The tables are built once per slab and expanded by one broadcast
  multiply — cutting the per-voxel kernel evaluations by the factor the
  reference mode deliberately pays.
* **Mask-first sparse evaluation** — masked products whose inside mask
  is mostly empty (voxel tiles against scattered points) evaluate the
  kernels only on the surviving pairs and scatter them back, instead of
  evaluating everything and multiplying by the mask.

Equivalence to ``numpy-ref`` is elementwise ``rtol=1e-12`` (the fusions
only reassociate scalar factors at the ulp level; a value within a few
ulps of the kernel's rim, where ``1 - r^2`` or ``1 - w^2`` cancels in
either form, is held to ``atol=1e-18`` instead); work counters charge
the identical logical operation counts — the *mode's* cost profile, not
the backend's physical op count — so profiles stay comparable.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..grid import GridSpec
from ..instrument import WorkCounter, null_counter
from ..kernels import KernelPair
from .base import ComputeBackend, cylinder_product, disk_d2
from .numpy_ref import NumpyRefBackend

__all__ = ["NumpyFusedBackend"]

#: Mask-first threshold: evaluate sparsely when fewer than this fraction
#: of the tabulated pairs survive the cylinder mask.  Gathering costs ~2
#: passes (count + fancy-index); the dense path costs ~4 full passes of
#: kernel arithmetic, so the crossover sits well below one half.
_SPARSE_FRACTION = 1.0 / 8.0


def _clamp(bound2: float, sq: np.ndarray, p: int = 1) -> np.ndarray:
    """``max(bound2 - sq, 0) ** p`` in place in ``sq`` (``p`` is 1 or 2).

    The subtraction rounds correctly, so the result is 0 exactly where
    ``sq >= bound2`` — and where ``sq`` overflowed to inf.
    """
    np.subtract(bound2, sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    if p == 2:
        sq *= sq
    return sq


def _clamp_product(
    grid: GridSpec,
    kernel: KernelPair,
    d2: np.ndarray,
    dt2: np.ndarray,
    weights: Optional[np.ndarray],
) -> np.ndarray:
    """Clamp-form weighted contributions from squared offsets ``d2`` and
    ``dt2``, in place in both (the result is ``d2``)."""
    c, p = kernel.clamp_profile
    hs2 = grid.hs * grid.hs
    ht2 = grid.ht * grid.ht
    contrib = _clamp(hs2, d2, p)
    contrib *= _clamp(ht2, dt2)
    contrib *= c / (hs2**p * ht2)
    if weights is not None:
        contrib *= weights
    return contrib


class NumpyFusedBackend(ComputeBackend):
    """Fused/factorised NumPy fast path (no extra dependencies)."""

    name = "numpy-fused"

    def __init__(self) -> None:
        # Non-radial custom kernels keep reference semantics exactly.
        self._ref = NumpyRefBackend()

    # -- primitives ----------------------------------------------------

    def masked_kernel_product(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        DX: np.ndarray,
        DY: np.ndarray,
        DT: np.ndarray,
        counter: WorkCounter,
    ) -> np.ndarray:
        if kernel.spatial_radial is None:
            return self._ref.masked_kernel_product(
                grid, kernel, DX, DY, DT, counter
            )
        hs2 = grid.hs * grid.hs
        d2 = DX * DX + DY * DY
        inside = (d2 < hs2) & (np.abs(DT) <= grid.ht)
        self._charge_pairs(counter, d2.size)
        n_in = int(np.count_nonzero(inside))
        if n_in == 0:
            return np.zeros(d2.shape, dtype=np.float64)
        if n_in < _SPARSE_FRACTION * d2.size:
            # Mask-first: kernels only on surviving pairs.
            out = np.zeros(d2.shape, dtype=np.float64)
            r2 = d2[inside]
            r2 *= 1.0 / hs2
            vals = kernel.spatial_radial(r2)
            vals *= kernel.temporal(
                np.broadcast_to(DT, d2.shape)[inside] / grid.ht
            )
            out[inside] = vals
            return out
        d2 *= 1.0 / hs2
        out = kernel.spatial_radial(d2)
        out *= kernel.temporal(DT / grid.ht)
        out *= inside
        return out

    def cohort_tables(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        mode: str,
        norm: float,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        counter: WorkCounter,
    ) -> np.ndarray:
        m, wx = dx.shape
        wy = dy.shape[1]
        wt = dt.shape[1]
        self._charge_mode(counter, mode, m, wx, wy, wt)

        # All four cost profiles produce the same factorised *values*:
        # masked-disk (x) masked-bar, with the normalisation folded into
        # the smaller factor.  The modes differ in the work they charge
        # (above) — the values agree with the reference at rtol=1e-12.
        disk, bar = self._factor_tables(grid, kernel, norm, dx, dy, dt)
        return cylinder_product(disk, bar)

    def _factor_tables(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        norm: float,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The clamp form: ``max(hs**2 - d2, 0)**p`` and ``max(ht**2 -
        dt**2, 0)``, every constant on the bar.  ``d2`` is the base form's
        :func:`~repro.core.backends.base.disk_d2` product, whose cells are
        two exact terms rounded once, the broadcast sum's bits; ``hs**2``
        stays a separate subtraction (folded into the product it would
        round twice), which rounds correctly, so the clamp is 0 exactly
        where ``d2 >= hs**2``: the strict mask, bit for bit."""
        if kernel.clamp_profile is None:
            return super()._factor_tables(grid, kernel, norm, dx, dy, dt)
        c, p = kernel.clamp_profile
        hs2 = grid.hs * grid.hs
        ht2 = grid.ht * grid.ht
        # The base form's d2 bits, so the clamp is its strict mask.
        disk = _clamp(hs2, disk_d2(dx, dy), p)
        # Every constant rides on the (m, wt) bar.
        bar = _clamp(ht2, dt * dt)
        bar *= norm * c / (hs2**p * ht2)
        return disk, bar

    def query_segment_sums_in_place(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        weights: Optional[np.ndarray],
        seg_starts: np.ndarray,
        counter: WorkCounter,
    ) -> np.ndarray:
        if kernel.clamp_profile is None:
            return super().query_segment_sums_in_place(
                grid, kernel, dx, dy, dt, weights, seg_starts, counter
            )
        # :meth:`sampled_contributions`' clamp form, op for op, with every
        # square and clamp written into the caller's rows.
        self._charge_pairs(counter, dx.size)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            dx += dy
            np.multiply(dt, dt, out=dt)
            contrib = _clamp_product(grid, kernel, dx, dt, weights)
        return np.add.reduceat(contrib, seg_starts)

    def reduced_contributions(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        weights: Optional[np.ndarray],
        counter: WorkCounter,
        reduce: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        out = super().reduced_contributions(
            grid, kernel, dx, dy, dt, weights, counter, reduce
        )
        if kernel.clamp_profile is None and not np.isfinite(out).all():
            # An offset that overflowed to inf met the mask's
            # multiply-by-zero (inf * 0 is NaN); the reference selects
            # instead.  The pairs were charged above.  The clamp form
            # cannot: hs^2 - inf clamps to 0 and meets no mask.
            out = self._ref.reduced_contributions(
                grid, kernel, dx, dy, dt, weights, null_counter(), reduce
            )
        return out

    def sampled_contributions(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        weights: Optional[np.ndarray],
        counter: WorkCounter,
    ) -> np.ndarray:
        if kernel.spatial_radial is None:
            return self._ref.sampled_contributions(
                grid, kernel, dx, dy, dt, weights, counter
            )
        hs2 = grid.hs * grid.hs
        d2 = dx * dx + dy * dy
        self._charge_pairs(counter, d2.size)
        if kernel.clamp_profile is not None:
            return _clamp_product(grid, kernel, d2, dt * dt, weights)
        inside = (d2 < hs2) & (np.abs(dt) <= grid.ht)
        d2 *= 1.0 / hs2
        contrib = kernel.spatial_radial(d2)
        contrib *= kernel.temporal(dt / grid.ht)
        contrib *= inside
        if weights is not None:
            contrib *= weights
        return contrib
