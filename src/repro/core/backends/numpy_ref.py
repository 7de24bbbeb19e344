"""``numpy-ref``: the paper's cost profiles, and the oracle.

This is the pre-seam NumPy code moved verbatim behind
:class:`~repro.core.backends.base.ComputeBackend` — the same expressions in
the same order, element by element, so routing through this backend is
**bit-identical** to the historical paths by construction (its cohort
tables are stored t-outermost, like every backend's, which changes no
value).  The five
Table 3 algorithms whose cost profile is this evaluation name it (see the
package docstring); every other backend is pinned against it at
``rtol=1e-12``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..grid import GridSpec
from ..instrument import WorkCounter, null_counter
from ..kernels import KernelPair
from .base import ComputeBackend, cylinder_product

__all__ = ["NumpyRefBackend"]


class NumpyRefBackend(ComputeBackend):
    """Today's NumPy hot-path code, unchanged, behind the seam."""

    name = "numpy-ref"

    def masked_kernel_product(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        DX: np.ndarray,
        DY: np.ndarray,
        DT: np.ndarray,
        counter: WorkCounter,
    ) -> np.ndarray:
        inside = ((DX * DX + DY * DY) < grid.hs * grid.hs) & (
            np.abs(DT) <= grid.ht
        )
        ks = kernel.spatial(DX / grid.hs, DY / grid.hs)
        kt = kernel.temporal(DT / grid.ht)
        self._charge_pairs(counter, DX.size)
        return np.where(inside, ks * kt, 0.0)

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
        hs2 = grid.hs * grid.hs
        # Every table is built t-outermost, (m, wt, wx, wy) in memory, and
        # returned indexed [i, x, y, t]: the cohort tables' layout contract.
        shape = (m, wt, wx, wy)
        counter.add_dispatch(self.name)

        if mode == "sym":
            d2 = dx[:, :, None] ** 2 + dy[:, None, :] ** 2
            inside_s = d2 < hs2
            if kernel.spatial_radial is not None:
                disk = kernel.spatial_radial(d2 * (1.0 / hs2))
            else:
                u = dx[:, :, None] / grid.hs
                v = dy[:, None, :] / grid.hs
                disk = kernel.spatial(
                    np.broadcast_to(u, d2.shape), np.broadcast_to(v, d2.shape)
                )
            disk *= norm
            disk *= inside_s
            w = dt / grid.ht
            bar = kernel.temporal(w)
            bar *= np.abs(dt) <= grid.ht
            return cylinder_product(disk, bar)

        if mode == "pb":
            DX = np.broadcast_to(dx[:, None, :, None], shape)
            DY = np.broadcast_to(dy[:, None, None, :], shape)
            DT = np.broadcast_to(dt[:, :, None, None], shape)
            out = self.masked_kernel_product(grid, kernel, DX, DY, DT,
                                             null_counter())
            out *= norm  # in place: the product above is a fresh array
            return out.transpose(0, 2, 3, 1)

        if mode == "disk":
            d2 = dx[:, :, None] ** 2 + dy[:, None, :] ** 2
            inside_s = d2 < hs2
            if kernel.spatial_radial is not None:
                disk = kernel.spatial_radial(d2 * (1.0 / hs2))
            else:
                u = dx[:, :, None] / grid.hs
                v = dy[:, None, :] / grid.hs
                disk = kernel.spatial(
                    np.broadcast_to(u, d2.shape), np.broadcast_to(v, d2.shape)
                )
            disk *= norm
            disk *= inside_s
            DT = np.broadcast_to(dt[:, :, None, None], shape)
            inside_t = np.abs(DT) <= grid.ht
            kt = kernel.temporal(DT / grid.ht)
            out = disk[:, None] * np.where(inside_t, kt, 0.0)
            return out.transpose(0, 2, 3, 1)

        if mode == "bar":
            w = dt / grid.ht
            bar = kernel.temporal(w)
            bar *= np.abs(dt) <= grid.ht
            DX = np.broadcast_to(dx[:, None, :, None], shape)
            DY = np.broadcast_to(dy[:, None, None, :], shape)
            inside_s = (DX * DX + DY * DY) < hs2
            ks = kernel.spatial(DX / grid.hs, DY / grid.hs)
            out = np.where(inside_s, ks * norm, 0.0) * bar[:, :, None, None]
            return out.transpose(0, 2, 3, 1)

        from ..stamping import STAMP_MODES

        raise ValueError(
            f"unknown stamp mode {mode!r}; expected one of {STAMP_MODES}"
        )

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
        contrib = self.masked_kernel_product(grid, kernel, dx, dy, dt, counter)
        if weights is not None:
            contrib = contrib * weights
        return contrib
