"""``numba``: JIT-compiled pair-evaluation kernels (import-guarded).

The module is always importable; :data:`HAVE_NUMBA` records whether the
``numba`` package itself is.  When it is absent the backend class still
exists but is *not registered*, callers see it missing from
``available_backends()``, and benches/tests follow the skip-or-measure
convention (a ``skipped: true`` row with a reason, never an extrapolated
number).

Compiled semantics are pinned to the reference at ``rtol=1e-12``:

* The scalar kernel bodies are transliterations of the registered NumPy
  expressions (same IEEE-754 double ops; ``fastmath`` stays **off** so
  LLVM cannot reassociate or contract them into FMAs).
* The compiled loops are elementwise; the per-query reduction of the
  exact query path is the shared ``ComputeBackend.query_segment_sums``,
  so summation order is the reference's.
* Only the registered kernels are compiled (name → integer id baked into
  the jitted branches).  ``supports()`` returns ``False`` for
  user-registered pairs — callers fall back to an always-available
  backend for those, exactly like the non-radial fallback in
  ``numpy-fused``.

First-call compilation cost is paid eagerly per primitive on tiny dummy
arrays and accumulated into :attr:`ComputeBackend.warmup_seconds`, so the
service stats can report JIT warmup separately from steady-state time.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ..grid import GridSpec
from ..instrument import WorkCounter
from ..kernels import KernelPair
from .base import ComputeBackend
from .numpy_fused import NumpyFusedBackend

__all__ = ["HAVE_NUMBA", "NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - the usual path in slim envs
    HAVE_NUMBA = False

#: Kernel ids baked into the jitted branches (compile-time dispatch).
_KERNEL_IDS = {"epanechnikov": 0, "quartic": 1, "as_printed": 2}


if HAVE_NUMBA:  # pragma: no cover - compiled paths are CI-gated

    @njit(inline="always")
    def _ks(kid, u, v):
        # Transliterations of repro.core.kernels — same double ops.
        if kid == 0:
            return (2.0 / math.pi) * (1.0 - (u * u + v * v))
        elif kid == 1:
            s = 1.0 - (u * u + v * v)
            return (3.0 / math.pi) * s * s
        else:
            a = 1.0 - u
            b = 1.0 - v
            return (math.pi / 2.0) * (a * a) * (b * b)

    @njit(inline="always")
    def _kt(kid, w):
        if kid == 0 or kid == 1:
            return 0.75 * (1.0 - w * w)
        else:
            a = 1.0 - w
            return 0.75 * (a * a)

    @njit(parallel=True)
    def _cohort_tables_jit(kid, hs, ht, norm, dx, dy, dt, out):
        m, wx = dx.shape
        wy = dy.shape[1]
        wt = dt.shape[1]
        hs2 = hs * hs
        for i in prange(m):
            bar = np.empty(wt, dtype=np.float64)
            for c in range(wt):
                if abs(dt[i, c]) <= ht:
                    bar[c] = _kt(kid, dt[i, c] / ht)
                else:
                    bar[c] = 0.0
            for a in range(wx):
                xa = dx[i, a]
                for b in range(wy):
                    yb = dy[i, b]
                    if xa * xa + yb * yb < hs2:
                        ks = _ks(kid, xa / hs, yb / hs) * norm
                        for c in range(wt):
                            out[i, a, b, c] = ks * bar[c]
                    else:
                        for c in range(wt):
                            out[i, a, b, c] = 0.0

    @njit(parallel=True)
    def _elementwise_jit(kid, hs, ht, dx, dy, dt, w, has_w, out):
        q_n, k_n = dx.shape
        hs2 = hs * hs
        for q in prange(q_n):
            for k in range(k_n):
                xa = dx[q, k]
                yb = dy[q, k]
                if xa * xa + yb * yb < hs2 and abs(dt[q, k]) <= ht:
                    val = _ks(kid, xa / hs, yb / hs) * _kt(
                        kid, dt[q, k] / ht
                    )
                    if has_w:
                        val = val * w[q, k]
                    out[q, k] = val
                else:
                    out[q, k] = 0.0


def _as_2d(a: np.ndarray) -> np.ndarray:
    """Contiguous float64 2-D view for the jitted loops."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a[None, :] if a.ndim == 1 else a


class NumbaBackend(ComputeBackend):  # pragma: no cover - CI-gated
    """``@njit(parallel=True)`` pair evaluation for registered kernels.

    Broadcast-shaped masked products (region tiles feed arbitrary
    broadcastable offsets) delegate to ``numpy-fused`` — the compiled wins
    live in the dense cohort tables and the elementwise query loop, and
    dispatch accounting stays honest about which backend actually ran.
    """

    name = "numba"

    def __init__(self) -> None:
        if not HAVE_NUMBA:
            raise RuntimeError(
                "numba is not importable in this environment; "
                "use backends from available_backends() instead"
            )
        self._fused = NumpyFusedBackend()
        self._warm: set = set()

    def supports(self, kernel: KernelPair) -> bool:
        return kernel.name in _KERNEL_IDS

    def _warmup(self, key: str, thunk) -> None:
        """Compile ``key``'s jit function on dummy inputs, timing it."""
        if key in self._warm:
            return
        t0 = time.perf_counter()
        thunk()
        self.warmup_seconds += time.perf_counter() - t0
        self._warm.add(key)

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
        # Arbitrary broadcast shapes: the fused NumPy path handles them;
        # the dispatch is recorded under the backend that actually ran.
        return self._fused.masked_kernel_product(
            grid, kernel, DX, DY, DT, counter
        )

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
        if not self.supports(kernel):
            return self._fused.cohort_tables(
                grid, kernel, mode, norm, dx, dy, dt, counter
            )
        m, wx = dx.shape
        wy = dy.shape[1]
        wt = dt.shape[1]
        self._charge_mode(counter, mode, m, wx, wy, wt)
        kid = _KERNEL_IDS[kernel.name]
        one = np.zeros((1, 1), dtype=np.float64)
        self._warmup(
            "cohort",
            lambda: _cohort_tables_jit(
                0, 1.0, 1.0, 1.0, one, one, one,
                np.empty((1, 1, 1, 1), dtype=np.float64),
            ),
        )
        out = np.empty((m, wx, wy, wt), dtype=np.float64)
        _cohort_tables_jit(
            kid,
            float(grid.hs),
            float(grid.ht),
            float(norm),
            _as_2d(dx),
            _as_2d(dy),
            _as_2d(dt),
            out,
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
        if not self.supports(kernel):
            return self._fused.sampled_contributions(
                grid, kernel, dx, dy, dt, weights, counter
            )
        self._charge_pairs(counter, dx.size)
        kid = _KERNEL_IDS[kernel.name]
        one = np.zeros((1, 1), dtype=np.float64)
        self._warmup(
            "sampled",
            lambda: _elementwise_jit(
                0, 1.0, 1.0, one, one, one, one, False,
                np.empty((1, 1), dtype=np.float64),
            ),
        )
        was_1d = dx.ndim == 1
        DX, DY, DT = _as_2d(dx), _as_2d(dy), _as_2d(dt)
        has_w = weights is not None
        W = _as_2d(weights) if has_w else DX
        out = np.empty(DX.shape, dtype=np.float64)
        _elementwise_jit(
            kid, float(grid.hs), float(grid.ht), DX, DY, DT, W, has_w, out
        )
        return out[0] if was_1d else out
