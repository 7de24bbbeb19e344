"""Voxel-based algorithms: VB (Algorithm 1) and VB-DEC (Section 6.2).

VB is the paper's gold-standard implementation: *for every voxel*, scan
*every point*, test the cylinder condition, and accumulate the kernel
product.  Its cost is ``Theta(Gx * Gy * Gt * n)`` distance tests, which is
why Table 3 shows it orders of magnitude slower than the point-based family.

VB-DEC keeps the voxel-based structure but first bins the points into
blocks whose edge equals the bandwidth, so each voxel only tests points
from its own and adjacent blocks — points farther away cannot pass the
cylinder test.  This reduces the constant enormously on clustered data but
remains voxel-based (it cannot exploit the PB-SYM symmetries, as Section
3.2 notes).

Both are vectorised with NumPy over (voxel-chunk x point-block) tiles
routed through the shared region-accumulation engine
(:func:`repro.core.regions.accumulate_voxel_tile`) on the ``numpy-ref``
backend (named: see :mod:`repro.core.backends`); the tiling changes
memory traffic, not the operation count, which the
:class:`~repro.core.instrument.WorkCounter` reports faithfully.  The
historical private tile loop is retained verbatim as
:func:`accumulate_tile_legacy` — the reference the engine-equivalence
suite pins against at ``rtol=1e-12``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.grid import GridSpec, PointSet, Volume, flat_view
from ..core.instrument import PhaseTimer, WorkCounter
from ..core.kernels import KernelPair
from ..core.regions import accumulate_voxel_tile, accumulate_voxel_tile_batch
from .base import STKDEResult, register_algorithm

__all__ = ["vb", "vb_dec", "accumulate_tile_legacy"]

#: Tile sizes bounding temporary arrays to a few tens of MB.
_VOXEL_CHUNK = 2048
_POINT_BLOCK = 512


def accumulate_tile_legacy(
    out_flat: np.ndarray,
    vox_index: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    ct: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pt: np.ndarray,
    grid: GridSpec,
    kernel: KernelPair,
    norm: float,
    counter: WorkCounter,
) -> None:
    """Legacy private tile loop (reference implementation).

    Kept verbatim from before the region engine unified the tile path:
    ``out_flat`` is the flattened density volume; ``vox_index`` the flat
    indices of the chunk; ``cx/cy/ct`` the chunk's voxel-center coordinates;
    ``px/py/pt`` the point block coordinates.  Production callers go
    through :func:`repro.core.regions.accumulate_voxel_tile`.
    """
    dx = cx[:, None] - px[None, :]
    dy = cy[:, None] - py[None, :]
    dt = ct[:, None] - pt[None, :]
    inside = ((dx * dx + dy * dy) < grid.hs * grid.hs) & (
        np.abs(dt) <= grid.ht
    )
    # VB evaluates the kernels per (voxel, point) pair after the distance
    # test; vectorised we evaluate on the full tile and mask, preserving the
    # Theta(voxels * points) operation profile.
    ks = kernel.spatial(dx / grid.hs, dy / grid.hs)
    kt = kernel.temporal(dt / grid.ht)
    contrib = np.where(inside, ks * kt, 0.0).sum(axis=1)
    out_flat[vox_index] += contrib * norm
    counter.distance_tests += dx.size
    counter.spatial_evals += dx.size
    counter.temporal_evals += dx.size
    # Charged from the tile shape (mask included), matching the engine's
    # O(1) accounting rule — instrumentation never reduces the mask.
    counter.madds += dx.size


def _voxel_chunk_coords(grid: GridSpec, flat_idx: np.ndarray):
    """Voxel-center coordinates (cx, cy, ct) for positions in a volume's
    :func:`~repro.core.grid.flat_view`."""
    X, Y, T = grid.voxels_at(flat_idx)
    cx = grid.domain.x0 + (X + 0.5) * grid.domain.sres
    cy = grid.domain.y0 + (Y + 0.5) * grid.domain.sres
    ct = grid.domain.t0 + (T + 0.5) * grid.domain.tres
    return cx, cy, ct


@register_algorithm("vb")
def vb(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    voxel_chunk: int = _VOXEL_CHUNK,
    point_block: int = _POINT_BLOCK,
) -> STKDEResult:
    """Gold-standard voxel-based STKDE (Algorithm 1).

    Complexity ``Theta(Gx*Gy*Gt*n)`` time, ``Theta(Gx*Gy*Gt)`` memory.
    """
    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size
    norm = grid.normalization(points.n)
    flat = flat_view(vol)
    px, py, pt = points.xs, points.ys, points.ts
    with timer.phase("compute"):
        for start in range(0, flat.size, voxel_chunk):
            idx = np.arange(start, min(start + voxel_chunk, flat.size))
            cx, cy, ct = _voxel_chunk_coords(grid, idx)
            for pstart in range(0, points.n, point_block):
                sl = slice(pstart, min(pstart + point_block, points.n))
                accumulate_voxel_tile(
                    flat, idx, cx, cy, ct, px[sl], py[sl], pt[sl],
                    grid, kernel, norm, counter, compute="numpy-ref",
                )
    counter.points_processed += points.n
    return STKDEResult(Volume(vol, grid), "vb", timer, counter)


@register_algorithm("vb-dec")
def vb_dec(
    points: PointSet,
    grid: GridSpec,
    *,
    kernel: str | KernelPair = "epanechnikov",
    counter: Optional[WorkCounter] = None,
    timer: Optional[PhaseTimer] = None,
    voxel_chunk: int = _VOXEL_CHUNK,
) -> STKDEResult:
    """Voxel-based STKDE with bandwidth-sized point blocking (VB-DEC).

    Points are binned into blocks of ``Hs x Hs x Ht`` voxels.  A voxel in
    block ``(a, b, c)`` can only receive density from points in the 27
    neighbouring blocks, so only those candidates are tested.  Structure
    and results are identical to VB; only the number of (hopeless) distance
    tests shrinks.

    Dispatch is cohort-batched: blocks sharing a voxel count and a
    power-of-two-padded candidate width are stacked through one
    ``(B, V, K)`` tile batch
    (:func:`~repro.core.regions.accumulate_voxel_tile_batch`) — edge
    blocks, whose truncated shapes recur along each face, collapse from
    one dispatch each into a handful of cohort dispatches, exactly like
    the stamping engine's shape cohorts.  Padded candidate lanes point at
    an off-domain sentinel, so they mask to exactly ``0.0``; blocks whose
    padded tile would overrun the pair budget keep the voxel-chunked
    per-block dispatch.
    """
    with timer.phase("init"):
        vol = grid.allocate()
        counter.init_writes += vol.size
    norm = grid.normalization(points.n)
    # Blocks must be at least one bandwidth wide for the 27-neighbourhood
    # candidate argument; *larger* blocks are always correct, and a floor
    # keeps the block count (pure loop overhead) from exploding when the
    # bandwidth is a voxel or two.
    bx = max(8, grid.Hs)
    bt = max(8, grid.Ht)
    nbx = -(-grid.Gx // bx)
    nby = -(-grid.Gy // bx)
    nbt = -(-grid.Gt // bt)

    with timer.phase("bin"):
        vox = grid.voxels_of(points.coords)
        block_of = (
            (vox[:, 0] // bx) * (nby * nbt)
            + (vox[:, 1] // bx) * nbt
            + (vox[:, 2] // bt)
        )
        order = np.argsort(block_of, kind="stable")
        sorted_blocks = block_of[order]
        # Start offset of every block id in the sorted order.
        boundaries = np.searchsorted(
            sorted_blocks, np.arange(nbx * nby * nbt + 1)
        )

    def block_points(a: int, b: int, c: int) -> np.ndarray:
        bid = a * (nby * nbt) + b * nbt + c
        return order[boundaries[bid] : boundaries[bid + 1]]

    px, py, pt = points.xs, points.ys, points.ts
    # Candidate-padding sentinel: one point outside every cylinder, so a
    # padded lane's masked kernel product is exactly 0.0.
    d = grid.domain
    px_ext = np.append(px, d.x0 - d.gx - 4.0 * grid.hs)
    py_ext = np.append(py, d.y0 - d.gy - 4.0 * grid.hs)
    pt_ext = np.append(pt, d.t0 - d.gt - 4.0 * grid.ht)
    sentinel = points.n
    pair_budget = voxel_chunk * _POINT_BLOCK
    flat = flat_view(vol)
    cohorts: dict = {}
    n_cohort_tiles = 0
    with timer.phase("compute"):
        for a in range(nbx):
            for b in range(nby):
                for c in range(nbt):
                    # Candidate points: the 27-neighbourhood of this block.
                    cand = [
                        block_points(aa, bb, cc)
                        for aa in range(max(0, a - 1), min(nbx, a + 2))
                        for bb in range(max(0, b - 1), min(nby, b + 2))
                        for cc in range(max(0, c - 1), min(nbt, c + 2))
                    ]
                    cand_idx = np.concatenate(cand) if cand else np.empty(0, np.int64)
                    if cand_idx.size == 0:
                        continue
                    # Voxels of this block, as flat_view positions in
                    # memory order.
                    xs = np.arange(a * bx, min((a + 1) * bx, grid.Gx))
                    ys = np.arange(b * bx, min((b + 1) * bx, grid.Gy))
                    tss = np.arange(c * bt, min((c + 1) * bt, grid.Gt))
                    T, X, Y = np.meshgrid(tss, xs, ys, indexing="ij")
                    idx = grid.flat_index(X.ravel(), Y.ravel(), T.ravel())
                    Kp = 1 << (int(cand_idx.size) - 1).bit_length()
                    if idx.size * Kp > pair_budget:
                        # Padding this block to its cohort width would
                        # overrun the pair budget: keep the per-block
                        # voxel-chunked dispatch (no padded lanes).
                        cx, cy, ct = _voxel_chunk_coords(grid, idx)
                        for start in range(0, idx.size, voxel_chunk):
                            sl = slice(start, min(start + voxel_chunk, idx.size))
                            accumulate_voxel_tile(
                                flat, idx[sl], cx[sl], cy[sl], ct[sl],
                                px[cand_idx], py[cand_idx], pt[cand_idx],
                                grid, kernel, norm, counter, compute="numpy-ref",
                            )
                    else:
                        cohorts.setdefault((idx.size, Kp), []).append(
                            (idx, cand_idx)
                        )
        for (V, Kp) in sorted(cohorts):
            blocks = cohorts[(V, Kp)]
            per = max(1, pair_budget // (V * Kp))
            for i in range(0, len(blocks), per):
                chunk = blocks[i : i + per]
                B = len(chunk)
                vox = np.stack([blk for blk, _ in chunk])
                cand_mat = np.full((B, Kp), sentinel, dtype=np.int64)
                for j, (_, ci) in enumerate(chunk):
                    cand_mat[j, : ci.size] = ci
                cx, cy, ct = _voxel_chunk_coords(grid, vox.ravel())
                accumulate_voxel_tile_batch(
                    flat, vox,
                    cx.reshape(B, V), cy.reshape(B, V), ct.reshape(B, V),
                    px_ext[cand_mat], py_ext[cand_mat], pt_ext[cand_mat],
                    grid, kernel, norm, counter, compute="numpy-ref",
                )
                n_cohort_tiles += 1
    counter.points_processed += points.n
    return STKDEResult(
        Volume(vol, grid),
        "vb-dec",
        timer,
        counter,
        meta={
            "blocks": (nbx, nby, nbt),
            "block_voxels": (bx, bx, bt),
            "tile_cohorts": len(cohorts),
            "cohort_tile_batches": n_cohort_tiles,
        },
    )
