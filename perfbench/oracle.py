"""Brute-force oracle: the estimator's definition, O(rows x events).

Deliberately shares no code with :mod:`repro`: the Epanechnikov pair and
the ``d < hs``, ``|dt| <= ht`` masks are restated here from the paper's
Section 2.1, so an error in the library's kernels, masks or normalisation
cannot cancel against the same error in the check.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kernel_sum", "in_support", "voxel_centres", "mismatches", "SAMPLE"]

#: Rows / voxels checked per op kind.
SAMPLE = 64


def kernel_sum(events: np.ndarray, rows: np.ndarray, hs: float, ht: float,
               chunk: int = 2048) -> np.ndarray:
    """Density at ``rows`` (``(m, 3)`` domain points) from ``events``.

    Chunked small: the temporaries must stay far below the workload's own
    footprint, which ``peak_rss_mb`` reports.
    """
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros(rows.shape[0])
    n = events.shape[0]
    if n == 0:
        return out
    for lo in range(0, n, chunk):
        ev = events[lo:lo + chunk]
        u = (rows[:, None, 0] - ev[None, :, 0]) / hs
        v = (rows[:, None, 1] - ev[None, :, 1]) / hs
        w = (rows[:, None, 2] - ev[None, :, 2]) / ht
        r2 = u * u + v * v
        ks = (2.0 / math.pi) * (1.0 - r2)
        kt = 0.75 * (1.0 - w * w)
        inside = (r2 < 1.0) & (np.abs(w) <= 1.0)
        out += np.where(inside, ks * kt, 0.0).sum(axis=1)
    return out / (n * hs * hs * ht)


def in_support(events: np.ndarray, rows: np.ndarray, hs: float, ht: float,
               chunk: int = 2048) -> np.ndarray:
    """How many ``events`` lie inside each row's kernel cylinder."""
    out = np.zeros(rows.shape[0], dtype=np.int64)
    for lo in range(0, events.shape[0], chunk):
        d = rows[:, None, :] - events[None, lo:lo + chunk, :]
        out += ((d[..., 0] ** 2 + d[..., 1] ** 2 < hs * hs)
                & (np.abs(d[..., 2]) <= ht)).sum(axis=1)
    return out


def voxel_centres(voxels: np.ndarray) -> np.ndarray:
    """Domain coordinates of integer voxels on a unit-resolution grid."""
    return np.asarray(voxels, dtype=np.float64) + 0.5


def mismatches(got: np.ndarray, want: np.ndarray, rtol: float) -> int:
    """Rows of ``got`` that miss ``want`` (NaNs and shape errors miss).

    The absolute floor is relative to the largest expected value: voxels
    where the true density is zero may carry cancellation residue from the
    incremental path's subtractions, never a kernel's worth.
    """
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return int(want.size)
    atol = 1e-12 * float(np.max(want, initial=0.0))
    ok = np.isclose(got, want, rtol=rtol, atol=atol)
    return int(ok.size - ok.sum())
