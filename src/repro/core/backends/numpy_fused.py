"""``numpy-fused``: the default backend (always available).

Same primitives as ``numpy-ref``, three optimisations:

* **Radial profiles** — for kernels with a ``spatial_radial`` form the
  squared distance computed for the cylinder mask is reused for the kernel
  value, instead of re-deriving ``u^2 + v^2`` from normalised offsets
  inside ``kernel.spatial`` (the reference squares every offset twice).
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
only reassociate scalar factors at the ulp level); work counters charge
the identical logical operation counts — the *mode's* cost profile, not
the backend's physical op count — so profiles stay comparable.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..grid import GridSpec
from ..instrument import WorkCounter, null_counter
from ..kernels import KernelPair
from .base import ComputeBackend
from .numpy_ref import NumpyRefBackend

__all__ = ["NumpyFusedBackend"]

#: Mask-first threshold: evaluate sparsely when fewer than this fraction
#: of the tabulated pairs survive the cylinder mask.  Gathering costs ~2
#: passes (count + fancy-index); the dense path costs ~4 full passes of
#: kernel arithmetic, so the crossover sits well below one half.
_SPARSE_FRACTION = 1.0 / 8.0


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
        return disk[:, :, :, None] * bar[:, None, None, :]

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
        if not np.isfinite(out).all():
            # An offset that overflowed to inf met the mask's
            # multiply-by-zero (inf * 0 is NaN); the reference selects
            # instead.  The pairs were charged above.
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
        inside = (d2 < hs2) & (np.abs(dt) <= grid.ht)
        self._charge_pairs(counter, d2.size)
        d2 *= 1.0 / hs2
        contrib = kernel.spatial_radial(d2)
        contrib *= kernel.temporal(dt / grid.ht)
        contrib *= inside
        if weights is not None:
            contrib *= weights
        return contrib
