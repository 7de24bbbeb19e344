"""The compute-backend seam: pair-evaluation primitives behind one interface.

Every hot path in the system funnels through a narrow waist of three
primitives — the masked kernel product over broadcastable offset arrays,
cohort table construction for the stamp modes, and the elementwise
weighted contribution evaluation behind both query tiers (the approximate
tier's sampled draws and, reduced per query by the shared
:meth:`ComputeBackend.query_segment_sums`, the exact ragged gather).
:class:`ComputeBackend` owns exactly that waist, so a compiled
implementation accelerates stamping, VB/VB-DEC tiles, ``direct_sum`` and
``approx_sum`` at once without any caller changing shape.

Contracts every implementation must honour:

* **Masks**: the cylinder condition is ``dx^2 + dy^2 < hs^2`` (strict) and
  ``|dt| <= ht`` (closed) — identical to the legacy per-point paths.
* **Equivalence**: results agree with the ``numpy-ref`` backend at
  ``rtol=1e-12`` elementwise (the reference itself is bit-identical to the
  pre-seam code by construction).  The one reduction of the query path,
  ``np.add.reduceat`` in :meth:`ComputeBackend.query_segment_sums` and
  its in-place twin, is the same everywhere, so backends cannot differ
  in summation order.
* **Accounting**: work counters report the *logical* operation counts —
  identical across backends, charged in O(1) from array shapes (never by
  reducing a mask), so instrumentation does not show up in the profile it
  measures.  Each primitive invocation additionally records one dispatch
  under the backend's name (``WorkCounter.backend_dispatches``).

Two more functions are shared rather than overridden:
:meth:`ComputeBackend.query_segment_sums` (above) and
:meth:`ComputeBackend.factor_tables`, PB-SYM's masked disk and bar tables
for the stamping engine's per-bin GEMM route.  They are ``n * W^2`` work
feeding ``n * W^2 * Wt`` multiply-adds that BLAS performs, yet they are
not free: NumPy ran the broadcast add of their squared distances,
``dx^2[:, :, None] + dy^2[:, None, :]``, at 1.4-3 ns per cell against
0.22 ns for a contiguous pass (2-core Xeon VM, NumPy 2.4), about half of
building the tables.  So every form takes its ``d^2`` from one batched
matrix product, :func:`disk_d2`, to the same bits.  Only their
arithmetic (``_factor_tables``) varies: ``numpy-fused`` builds them in
clamp form for kernels that declare a ``clamp_profile``; ``numpy-ref``
and every other kernel keep the generic NumPy form, the oracle.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..grid import GridSpec
from ..instrument import WorkCounter
from ..kernels import KernelPair

__all__ = ["ComputeBackend", "cylinder_product", "disk_d2"]


def cylinder_product(disk: np.ndarray, bar: np.ndarray) -> np.ndarray:
    """Each point's cylinder ``disk[i] (x) bar[i]`` from ``(m, wx, wy)``
    disks and ``(m, wt)`` bars, in the layout of
    :meth:`ComputeBackend.cohort_tables`: a fresh ``(m, wt, wx, wy)``
    C-order block seen through ``transpose(0, 2, 3, 1)``."""
    return (disk[:, None] * bar[:, :, None, None]).transpose(0, 2, 3, 1)


def disk_d2(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Squared distances ``d2[i, x, y] = dx[i, x]**2 + dy[i, y]**2`` of
    ``(m, wx)`` and ``(m, wy)`` offsets, as one batched matrix product
    ``[dx**2, 1] @ [1; dy**2]`` of inner dimension 2.

    The bits of the broadcast sum ``dx[:, :, None]**2 + dy[:, None, :]**2``:
    each cell is a two-term dot product whose products are exact (one
    factor is 1.0), so whatever order the BLAS adds them in, fused or
    not, the cell rounds once, to ``dx**2 + dy**2``.  A square is never
    ``-0``, and inf and NaN propagate as in the sum.  On tables 12-40
    cells wide the product is 2-3x faster than the broadcast add; on
    5-wide cohort disks the two tie.

    A sum of two squares is never invalid, but a BLAS kernel may multiply
    an inf by the zero padding of a partial tile, raising the flag on a
    value it discards: ``invalid`` is ignored, so the product warns where
    the sum would (``overflow``) and nowhere else.
    """
    m, wx = dx.shape
    a = np.empty((m, wx, 2))
    np.multiply(dx, dx, out=a[:, :, 0])
    a[:, :, 1] = 1.0
    b = np.empty((m, 2, dy.shape[1]))
    b[:, 0] = 1.0
    np.multiply(dy, dy, out=b[:, 1])
    with np.errstate(invalid="ignore"):
        return a @ b


class ComputeBackend:
    """Interface of a pair-evaluation backend.

    Subclasses set :attr:`name` and implement the three primitives.  The
    scatter/gather plumbing around them (slab planning, the indexed-add
    scatter, CSR run flattening, the Hansen–Hurwitz estimator arithmetic)
    stays in the callers — it is index bookkeeping, not pair arithmetic,
    and keeping it shared is what guarantees every backend answers the
    same candidate sets in the same order.
    """

    #: Registry name (``"numpy-ref"``, ``"numpy-fused"``).
    name: str = "abstract"

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
        """Masked ``k_s * k_t`` over broadcastable voxel/point offsets."""
        raise NotImplementedError

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
        """Contribution cylinders ``(m, wx, wy, wt)`` for one cohort slab.

        ``mode`` is one of :data:`repro.core.stamping.STAMP_MODES`; ``dx``
        is ``(m, wx)``, ``dy`` ``(m, wy)``, ``dt`` ``(m, wt)`` per-axis
        voxel-center offsets, ``norm`` the normalisation folded into the
        tables exactly where the reference folds it.

        Layout contract: the result is indexed ``[i, x, y, t]``, like a
        volume, and stored t-outermost like one — a fresh ``(m, wt, wx,
        wy)`` C-order block seen through ``transpose(0, 2, 3, 1)``, so
        ``.transpose(0, 3, 1, 2)`` is C-contiguous.  The scatter walks
        each stamp's cells in that order (the target's memory order) and
        hands the block to ``np.add.at`` without a copy.
        """
        raise NotImplementedError

    def query_segment_sums(
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
        """Per-query candidate sums over one ragged slab of the direct sum.

        ``dx/dy/dt`` are 1-D query-to-candidate offsets of a flat (query,
        candidate) pair list, ``weights`` the gathered per-candidate
        weights of the same shape or ``None``, and ``seg_starts`` the
        ascending first pair of each query's segment (no segment is
        empty).  Returns one sum per segment.

        Shared by every backend: the elementwise evaluation is
        :meth:`sampled_contributions`, the reduction one
        ``np.add.reduceat`` — so a query's sum depends only on its own
        segment, never on how the batch was cut into slabs.
        """
        return self.reduced_contributions(
            grid, kernel, dx, dy, dt, weights, counter,
            lambda contrib: np.add.reduceat(contrib, seg_starts),
        )

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
        """:meth:`query_segment_sums` on offsets the caller hands over as
        scratch: the evaluation may overwrite ``dx/dy/dt`` (never
        ``weights``), and the sums are the same bits.

        What the engine's ragged gather calls on its reused slab rows, so
        a backend can evaluate there instead of allocating slab-sized
        temporaries.  This one writes nothing.
        """
        return self.query_segment_sums(
            grid, kernel, dx, dy, dt, weights, seg_starts, counter
        )

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
        """``reduce(sampled_contributions(...))`` for any finite offsets.

        What both query tiers call (the exact tier through
        :meth:`query_segment_sums`, the sampler with its per-query
        moments).  Any finite offset is legal input, and one beyond
        ~1e154 overflows when squared — outside the mask, where the value
        is discarded — so overflow is not reported from here.  A backend
        whose mask can turn such a pair into NaN overrides this to check
        the *reduced* values (O(queries), not O(pairs)) and redo them on
        one that cannot.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return reduce(self.sampled_contributions(
                grid, kernel, dx, dy, dt, weights, counter
            ))

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
        """Per-pair weighted contributions for the query tiers.

        Elementwise: the masked kernel product with the gathered event
        weights folded in (unit weights when ``weights is None``).  The
        importance sampler's caller owns the Hansen–Hurwitz reweighting
        and the variance bookkeeping — they are estimator arithmetic over
        these values; the exact tier reduces them per query in
        :meth:`query_segment_sums`.
        """
        raise NotImplementedError

    # -- shared factor tables ------------------------------------------

    def factor_tables(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        norm: float,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        counter: WorkCounter,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """PB-SYM's two invariants for ``m`` points: ``(disk, bar)``.

        ``disk`` is the masked spatial table ``(m, wx, wy)`` and ``bar``
        the masked temporal table ``(m, wt)`` with ``norm`` folded in, so
        a point's cylinder is ``disk[i] (x) bar[i]`` and a whole bin of
        points reduces as one ``disk.reshape(m, -1).T @ bar``.  The
        offsets may span any frame containing the points' windows: cells
        outside a point's kernel support are zeroed by the masks.

        Shared by every backend: the tables are ``m * wx * wy`` work
        against the ``m * wx * wy * wt`` multiply-adds they feed.  Records
        one dispatch; the caller charges the logical counts (it knows the
        clipped windows, which a shared frame hides).  The arithmetic is
        :meth:`_factor_tables`: the generic form here, which
        ``numpy-fused`` overrides with the clamp form for kernels that
        declare a ``clamp_profile``.
        """
        counter.add_dispatch(self.name)
        return self._factor_tables(grid, kernel, norm, dx, dy, dt)

    def _factor_tables(
        self,
        grid: GridSpec,
        kernel: KernelPair,
        norm: float,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The generic form: kernel values masked by ``d2 < hs**2`` and
        ``|dt| <= ht``.  ``d2`` is :func:`disk_d2`'s product, the bits of
        the broadcast sum ``dx**2 + dy**2`` (each cell is a dot product of
        two exact terms, rounded once), so the strict mask and the radial
        values are the sum's."""
        hs2 = grid.hs * grid.hs
        # One d2 serves both the mask and the radial value.
        d2 = disk_d2(dx, dy)
        inside_s = d2 < hs2
        if kernel.spatial_radial is not None:
            d2 *= 1.0 / hs2
            disk = kernel.spatial_radial(d2)
        else:
            u = dx[:, :, None] / grid.hs
            v = dy[:, None, :] / grid.hs
            disk = kernel.spatial(
                np.broadcast_to(u, d2.shape), np.broadcast_to(v, d2.shape)
            )
        disk *= inside_s
        bar = kernel.temporal(dt / grid.ht)
        bar *= np.abs(dt) <= grid.ht
        bar *= norm
        return disk, bar

    # -- shared accounting ---------------------------------------------

    def _charge_mode(
        self,
        counter: WorkCounter,
        mode: str,
        m: int,
        wx: int,
        wy: int,
        wt: int,
    ) -> None:
        """Charge one cohort-table build with ``mode``'s logical profile.

        The counts are the *mode's* cost profile (what the reference
        evaluates), identical across backends and O(1) from the table
        shape — backends that factorise or compile the evaluation still
        charge the same logical work; their advantage shows up only in
        seconds.
        """
        cells = m * wx * wy * wt
        disk_cells = m * wx * wy
        bar_cells = m * wt
        if mode == "sym":
            counter.spatial_evals += disk_cells
            counter.temporal_evals += bar_cells
            counter.distance_tests += disk_cells + bar_cells
            counter.madds += cells
        elif mode == "pb":
            counter.spatial_evals += cells
            counter.temporal_evals += cells
            counter.distance_tests += cells
            counter.madds += cells
        elif mode == "disk":
            counter.spatial_evals += disk_cells
            counter.temporal_evals += cells
            counter.distance_tests += disk_cells + cells
            counter.madds += cells
        elif mode == "bar":
            counter.spatial_evals += cells
            counter.temporal_evals += bar_cells
            counter.distance_tests += bar_cells + cells
            counter.madds += cells
        else:
            from ..stamping import STAMP_MODES

            raise ValueError(
                f"unknown stamp mode {mode!r}; expected one of {STAMP_MODES}"
            )
        counter.add_dispatch(self.name)

    def _charge_pairs(self, counter: WorkCounter, pairs: int) -> None:
        """Charge one tabulation of ``pairs`` kernel-product pairs.

        O(1): the logical counts come from array shapes, so charging costs
        the same whether the counter records or discards.
        """
        counter.distance_tests += pairs
        counter.spatial_evals += pairs
        counter.temporal_evals += pairs
        counter.madds += pairs
        counter.add_dispatch(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ComputeBackend {self.name}>"
