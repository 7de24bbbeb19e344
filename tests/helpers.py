"""Shared test-data builders, importable from every test package.

These used to live in ``tests/conftest.py`` and were pulled in with
relative imports (``from ..conftest import make_points``), which only
works when the test modules are imported as a package — under the plain
rootdir invocation (``python -m pytest``) collection died with
``ImportError: attempted relative import with no known parent package``.
Keeping the builders in a regular module (with ``__init__.py`` files
making ``tests`` a real package) lets every test import them absolutely::

    from tests.helpers import make_clustered_points, make_points

``conftest.py`` re-exports both names for backwards compatibility.
"""

from __future__ import annotations

import numpy as np

from repro.core import GridSpec, PointSet
from repro.core.kernels import KernelPair

__all__ = ["CUSTOM_KERNEL", "make_points", "make_clustered_points"]

#: A non-radial, asymmetric kernel pair that is NOT in any registry —
#: exercises the ``spatial_radial is None`` fallbacks (and, for numba,
#: the ``supports() is False`` delegation).
CUSTOM_KERNEL = KernelPair(
    name="custom-nonradial",
    spatial=lambda u, v: (1.0 - 0.5 * u) * (1.0 - 0.25 * v),
    temporal=lambda w: 1.0 - 0.4 * w,
    spatial_radial=None,
)


def make_points(grid: GridSpec, n: int, seed: int = 0) -> PointSet:
    """Uniform random points spanning the whole domain box."""
    rng = np.random.default_rng(seed)
    d = grid.domain
    lo = [d.x0, d.y0, d.t0]
    hi = [d.x0 + d.gx, d.y0 + d.gy, d.t0 + d.gt]
    return PointSet(rng.uniform(lo, hi, size=(n, 3)))


def make_clustered_points(grid: GridSpec, n: int, k: int = 3, seed: int = 0) -> PointSet:
    """Clustered points (mixture of Gaussians), mimicking real datasets."""
    rng = np.random.default_rng(seed)
    d = grid.domain
    lo = np.array([d.x0, d.y0, d.t0])
    span = np.array([d.gx, d.gy, d.gt])
    centers = rng.uniform(lo + 0.2 * span, lo + 0.8 * span, size=(k, 3))
    which = rng.integers(0, k, size=n)
    pts = centers[which] + rng.normal(0, 0.08, size=(n, 3)) * span
    pts = np.clip(pts, lo, lo + span * (1 - 1e-9))
    return PointSet(pts)
