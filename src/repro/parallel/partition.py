"""Spatial partitioning substrate: A x B x C block decompositions.

Both domain decomposition (PB-SYM-DD, Section 4.2) and point decomposition
(PB-SYM-PD, Section 5.1) carve the voxel grid into ``A x B x C`` blocks.
Block ``a`` along an axis of ``G`` voxels spans
``[floor(a*G/A), floor((a+1)*G/A))`` — the same fractional boundaries the
paper's Algorithm 5 uses — so blocks tile the grid exactly and differ in
size by at most one voxel.

The two strategies need different point-to-block relations, both provided
here:

* **ownership** (PD): each point belongs to exactly one block — the one
  containing its voxel;
* **replication** (DD): each point is attached to *every* block its
  density cylinder intersects; the replication factor (Figure 9's
  overhead) falls out of :meth:`BlockDecomposition.bin_points_replicated`.

PD additionally requires blocks larger than twice the bandwidth so that
same-parity blocks never have overlapping cylinders (Figure 5);
:meth:`BlockDecomposition.adjusted_for_pd` clamps a requested
decomposition to that constraint, exactly as the paper adjusts its
experiments ("decompositions of subdomain smaller than twice the
bandwidths are adjusted", Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.grid import GridSpec, PointSet, VoxelWindow

__all__ = ["BlockDecomposition", "PointBinning"]


def _boundaries(G: int, A: int) -> np.ndarray:
    """Block boundaries ``floor(a * G / A)`` for ``a = 0..A`` (length A+1)."""
    return (np.arange(A + 1, dtype=np.int64) * G) // A


@dataclass
class PointBinning:
    """Point-to-block assignment in CSR-like form.

    ``order`` holds point indices grouped by block; block ``k``'s points
    are ``order[offsets[k]:offsets[k+1]]``.  For replicated binnings a
    point index may appear under several blocks.
    """

    n_blocks: int
    order: np.ndarray
    offsets: np.ndarray
    replicas: int  # total assignments (== n for ownership binning)

    def points_in(self, block_id: int) -> np.ndarray:
        """Indices of the points assigned to a linear block id."""
        return self.order[self.offsets[block_id] : self.offsets[block_id + 1]]

    def counts(self) -> np.ndarray:
        """Number of assigned points per block (length ``n_blocks``)."""
        return np.diff(self.offsets)

    def occupied(self) -> np.ndarray:
        """Linear ids of blocks holding at least one point."""
        return np.nonzero(self.counts() > 0)[0]

    def replication_factor(self, n_points: int) -> float:
        """Average number of blocks per point (1.0 = no replication)."""
        if n_points == 0:
            return 1.0
        return self.replicas / n_points


class BlockDecomposition:
    """An ``A x B x C`` partition of a grid's voxels into blocks."""

    def __init__(self, grid: GridSpec, A: int, B: int, C: int) -> None:
        if min(A, B, C) < 1:
            raise ValueError(f"block counts must be >= 1, got {(A, B, C)}")
        if A > grid.Gx or B > grid.Gy or C > grid.Gt:
            raise ValueError(
                f"more blocks than voxels: {(A, B, C)} vs grid {grid.shape}"
            )
        self.grid = grid
        self.A, self.B, self.C = A, B, C
        self.xb = _boundaries(grid.Gx, A)
        self.yb = _boundaries(grid.Gy, B)
        self.tb = _boundaries(grid.Gt, C)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.A, self.B, self.C)

    @property
    def n_blocks(self) -> int:
        return self.A * self.B * self.C

    def linear_id(self, a: int, b: int, c: int) -> int:
        """Linear block id for block coordinates ``(a, b, c)``."""
        return (a * self.B + b) * self.C + c

    def block_coords(self, block_id: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`linear_id`."""
        a, rem = divmod(block_id, self.B * self.C)
        b, c = divmod(rem, self.C)
        return a, b, c

    def block_window(self, a: int, b: int, c: int) -> VoxelWindow:
        """Voxel window of block ``(a, b, c)``."""
        return VoxelWindow(
            int(self.xb[a]), int(self.xb[a + 1]),
            int(self.yb[b]), int(self.yb[b + 1]),
            int(self.tb[c]), int(self.tb[c + 1]),
        )

    def halo_window(self, a: int, b: int, c: int) -> VoxelWindow:
        """Block window grown by ``(Hs, Hs, Ht)`` and clipped to the grid.

        This is the region a block's own points can write into — the
        buffer extent PB-SYM-PD-REP replicas allocate.
        """
        g = self.grid
        return VoxelWindow(
            max(0, int(self.xb[a]) - g.Hs),
            min(g.Gx, int(self.xb[a + 1]) + g.Hs),
            max(0, int(self.yb[b]) - g.Hs),
            min(g.Gy, int(self.yb[b + 1]) + g.Hs),
            max(0, int(self.tb[c]) - g.Ht),
            min(g.Gt, int(self.tb[c + 1]) + g.Ht),
        )

    # ------------------------------------------------------------------
    # Point assignment
    # ------------------------------------------------------------------
    def _owner_axis(self, coords: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, coords, side="right") - 1

    def owners(self, points: PointSet) -> np.ndarray:
        """Linear block id owning each point (by its voxel)."""
        vox = self.grid.voxels_of(points.coords)
        a = self._owner_axis(vox[:, 0], self.xb)
        b = self._owner_axis(vox[:, 1], self.yb)
        c = self._owner_axis(vox[:, 2], self.tb)
        return (a * self.B + b) * self.C + c

    def bin_points_owner(self, points: PointSet) -> PointBinning:
        """Ownership binning (PB-SYM-PD): each point in exactly one block."""
        owner = self.owners(points)
        order = np.argsort(owner, kind="stable")
        offsets = np.searchsorted(
            owner[order], np.arange(self.n_blocks + 1)
        ).astype(np.int64)
        return PointBinning(self.n_blocks, order, offsets, replicas=points.n)

    def count_replicas(self, points: PointSet) -> int:
        """Total point-to-block assignments of the replication binning.

        Vectorised (no lists built): used to predict the cost of a DD
        configuration before committing to it — the paper skips its most
        expensive decomposition sweeps the same way (eBird Hr-Hb in
        Figure 9).
        """
        vox = self.grid.voxels_of(points.coords)
        counts = np.ones(points.n, dtype=np.int64)
        for axis, (bounds, H, G) in enumerate(
            (
                (self.xb, self.grid.Hs, self.grid.Gx),
                (self.yb, self.grid.Hs, self.grid.Gy),
                (self.tb, self.grid.Ht, self.grid.Gt),
            )
        ):
            lo = np.maximum(vox[:, axis] - H, 0)
            hi = np.minimum(vox[:, axis] + H, G - 1)
            b_lo = np.searchsorted(bounds, lo, side="right") - 1
            b_hi = np.searchsorted(bounds, hi, side="right") - 1
            counts *= b_hi - b_lo + 1
        return int(counts.sum())

    def bin_points_replicated(self, points: PointSet) -> PointBinning:
        """Replication binning (PB-SYM-DD): every intersected block.

        A point is attached to each block whose window meets the point's
        (grid-clipped) cylinder window; Algorithm 5's
        ``(X, Y, T) +- (Hs, Hs, Ht)`` intersection test.  Fully
        vectorised: per-point block *ranges* come from searchsorted on the
        block boundaries, and the cartesian expansion is index arithmetic
        on flat replica ids — the binning phase is part of DD's measured
        overhead (Figure 9), so its constant matters.
        """
        vox = self.grid.voxels_of(points.coords)
        lo = np.empty((points.n, 3), dtype=np.int64)
        hi = np.empty((points.n, 3), dtype=np.int64)
        for axis, (bounds, H, G) in enumerate(
            (
                (self.xb, self.grid.Hs, self.grid.Gx),
                (self.yb, self.grid.Hs, self.grid.Gy),
                (self.tb, self.grid.Ht, self.grid.Gt),
            )
        ):
            w_lo = np.maximum(vox[:, axis] - H, 0)
            w_hi = np.minimum(vox[:, axis] + H, G - 1)
            lo[:, axis] = np.searchsorted(bounds, w_lo, side="right") - 1
            hi[:, axis] = np.searchsorted(bounds, w_hi, side="right") - 1
        spans = hi - lo + 1  # blocks intersected per axis, per point
        per_point = spans[:, 0] * spans[:, 1] * spans[:, 2]
        replicas = int(per_point.sum())
        # Expand each point into its replica slots, then decode the slot's
        # (a, b, c) offset from its within-point rank j:
        #   a = lo_a + j // (cb*cc); b = lo_b + (j // cc) % cb; c = lo_c + j % cc
        owner = np.repeat(np.arange(points.n, dtype=np.int64), per_point)
        starts = np.concatenate(([0], np.cumsum(per_point)[:-1]))
        j = np.arange(replicas, dtype=np.int64) - np.repeat(starts, per_point)
        cb = spans[owner, 1]
        cc = spans[owner, 2]
        a = lo[owner, 0] + j // (cb * cc)
        b = lo[owner, 1] + (j // cc) % cb
        c = lo[owner, 2] + j % cc
        block_ids = (a * self.B + b) * self.C + c
        order_by_block = np.argsort(block_ids, kind="stable")
        order = owner[order_by_block]
        offsets = np.searchsorted(
            block_ids[order_by_block], np.arange(self.n_blocks + 1)
        ).astype(np.int64)
        return PointBinning(self.n_blocks, order, offsets, replicas=replicas)

    # ------------------------------------------------------------------
    # PD constraint
    # ------------------------------------------------------------------
    @classmethod
    def adjusted_for_pd(
        cls, grid: GridSpec, A: int, B: int, C: int
    ) -> "BlockDecomposition":
        """Clamp a requested decomposition to PD's minimum block size.

        Safe concurrency of same-parity blocks needs every block to span at
        least ``2*Hs + 1`` voxels spatially and ``2*Ht + 1`` temporally
        (Section 5.1; Figure 5).  The smallest block of an ``A``-way split
        of ``G`` voxels is ``floor(G/A)``, so we clamp
        ``A <= G // (2H + 1)`` (at least 1).
        """
        max_A = max(1, grid.Gx // (2 * grid.Hs + 1))
        max_B = max(1, grid.Gy // (2 * grid.Hs + 1))
        max_C = max(1, grid.Gt // (2 * grid.Ht + 1))
        return cls(grid, min(A, max_A), min(B, max_B), min(C, max_C))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockDecomposition({self.A}x{self.B}x{self.C} on {self.grid.shape})"
