"""Domain and voxel-grid model for STKDE.

Implements the notation of Table 1 of the paper.  Two coordinate systems
coexist and the code keeps the paper's naming convention:

* **domain space** (lowercase): continuous coordinates ``(x, y, t)`` inside a
  box of physical size ``(gx, gy, gt)`` anchored at ``(x0, y0, t0)``, with
  spatial bandwidth ``hs`` and temporal bandwidth ``ht``;
* **voxel space** (uppercase): integer coordinates ``(X, Y, T)`` on a grid of
  ``Gx = ceil(gx / sres)`` by ``Gy = ceil(gy / sres)`` by
  ``Gt = ceil(gt / tres)`` voxels, with bandwidths
  ``Hs = ceil(hs / sres)`` and ``Ht = ceil(ht / tres)``.

Density estimates are sampled at **voxel centers**: the sample coordinate of
voxel ``X`` along x is ``x0 + (X + 0.5) * sres``.  With this choice the
paper's window bound holds exactly: every voxel whose center lies within
``hs`` (resp. ``ht``) of a point is contained in the index window
``[Xi - Hs, Xi + Hs]`` (resp. ``[Ti - Ht, Ti + Ht]``) around the point's
voxel — see :meth:`GridSpec.point_window` and the proof in the tests.

Volumes are ``float64`` arrays indexed ``[x, y, t]`` (shape ``(Gx, Gy, Gt)``)
and stored **t-outermost**: memory holds one ``(Gx, Gy)`` plane per time
step, y contiguous (:func:`empty_volume`).  A t-slab of the grid — the
incremental estimator's retirement unit, the buffer of a time-localised
batch — is then one contiguous run of memory, so composing buffers and
zero-filling slabs stream instead of striding; this is the memory-traffic
argument the paper makes for its init-dominated instances (Section 6.3,
Figure 7).  Indexing never depends on the layout; only code that walks
memory flat (:func:`flat_view`, :meth:`GridSpec.flat_index`) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "DomainSpec", "GridSpec", "PointSet", "Volume", "VoxelWindow",
    "empty_volume", "zeros_volume", "zeroed_volume", "first_touch", "flat_view",
]


def _ceil_div_pos(a: float, b: float) -> int:
    """``ceil(a / b)`` for positive floats, robust to float representation."""
    q = a / b
    r = math.ceil(q)
    # Guard against e.g. 0.30000000000000004 / 0.1 = 3.0000000000000004.
    if r - 1 >= 1 and (r - 1) * b >= a - 1e-9 * max(1.0, abs(a)):
        return r - 1
    return r


@dataclass(frozen=True)
class DomainSpec:
    """Physical extent and discretisation of the computation domain.

    Parameters mirror Table 1: ``gx, gy, gt`` are the real sizes of the
    domain, ``sres`` the spatial and ``tres`` the temporal resolution.
    ``x0, y0, t0`` anchor the box (the paper implicitly uses 0).
    """

    gx: float
    gy: float
    gt: float
    sres: float
    tres: float
    x0: float = 0.0
    y0: float = 0.0
    t0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gx", "gy", "gt", "sres", "tres"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def Gx(self) -> int:
        """Grid size along x in voxels: ``ceil(gx / sres)``."""
        return _ceil_div_pos(self.gx, self.sres)

    @property
    def Gy(self) -> int:
        """Grid size along y in voxels: ``ceil(gy / sres)``."""
        return _ceil_div_pos(self.gy, self.sres)

    @property
    def Gt(self) -> int:
        """Grid size along t in voxels: ``ceil(gt / tres)``."""
        return _ceil_div_pos(self.gt, self.tres)

    @classmethod
    def from_voxels(
        cls,
        Gx: int,
        Gy: int,
        Gt: int,
        *,
        sres: float = 1.0,
        tres: float = 1.0,
        x0: float = 0.0,
        y0: float = 0.0,
        t0: float = 0.0,
    ) -> "DomainSpec":
        """Build a domain whose grid is exactly ``Gx x Gy x Gt`` voxels.

        Convenient for instances specified directly in voxel units
        (Table 2 of the paper lists instances this way).
        """
        if min(Gx, Gy, Gt) < 1:
            raise ValueError("grid dimensions must be >= 1")
        return cls(
            gx=Gx * sres,
            gy=Gy * sres,
            gt=Gt * tres,
            sres=sres,
            tres=tres,
            x0=x0,
            y0=y0,
            t0=t0,
        )


@dataclass(frozen=True)
class VoxelWindow:
    """A clipped axis-aligned box of voxels ``[x0:x1) x [y0:y1) x [t0:t1)``.

    Produced by :meth:`GridSpec.point_window`; consumed by every point-based
    algorithm as the iteration bounds of a point's density cylinder.
    """

    x0: int
    x1: int
    y0: int
    y1: int
    t0: int
    t1: int

    @property
    def empty(self) -> bool:
        return self.x0 >= self.x1 or self.y0 >= self.y1 or self.t0 >= self.t1

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (
            max(0, self.x1 - self.x0),
            max(0, self.y1 - self.y0),
            max(0, self.t1 - self.t0),
        )

    @property
    def volume(self) -> int:
        sx, sy, st = self.shape
        return sx * sy * st

    def slices(self) -> Tuple[slice, slice, slice]:
        """Slices indexing this window inside a full ``(Gx, Gy, Gt)`` array."""
        return (slice(self.x0, self.x1), slice(self.y0, self.y1), slice(self.t0, self.t1))

    def intersect(self, other: "VoxelWindow") -> "VoxelWindow":
        """Intersection window (possibly empty)."""
        return VoxelWindow(
            max(self.x0, other.x0),
            min(self.x1, other.x1),
            max(self.y0, other.y0),
            min(self.y1, other.y1),
            max(self.t0, other.t0),
            min(self.t1, other.t1),
        )

    def contains_voxel(self, X: int, Y: int, T: int) -> bool:
        return (
            self.x0 <= X < self.x1
            and self.y0 <= Y < self.y1
            and self.t0 <= T < self.t1
        )


def empty_volume(shape: Tuple[int, int, int]) -> np.ndarray:
    """Uninitialised ``float64`` array indexed ``[x, y, t]``, stored
    t-outermost: the ``(Gt, Gx, Gy)`` C-order block seen through
    ``transpose(1, 2, 0)``.  Every volume and buffer of the library is
    allocated here (only where the first pass writes every cell) or by
    :func:`zeros_volume` / :func:`zeroed_volume`, so there is one layout."""
    sx, sy, st = shape
    return np.empty((st, sx, sy), dtype=np.float64).transpose(1, 2, 0)


def zeros_volume(shape: Tuple[int, int, int]) -> np.ndarray:
    """:func:`empty_volume` from ``np.zeros``: large arrays come as
    copy-on-write zero pages that the first write materialises, so a
    caller whose first pass writes every page pays no separate fill.
    :func:`zeroed_volume` faults the pages in as well."""
    sx, sy, st = shape
    return np.zeros((st, sx, sy), dtype=np.float64).transpose(1, 2, 0)


def first_touch(vol: np.ndarray) -> np.ndarray:
    """Fault in every page of a :func:`zeros_volume` (or a t-slab of one)
    with one ``+0.0`` store per 4 KiB page, through :func:`flat_view`,
    and return it.  The kernel zeroes each page at its fault; no cell
    changes value."""
    flat = flat_view(vol)
    flat[::512] = 0.0  # 512 doubles: one store per 4 KiB page
    flat[-1:] = 0.0  # the run's last page, if it starts past a stride
    return vol


def zeroed_volume(shape: Tuple[int, int, int]) -> np.ndarray:
    """The zeroing primitive: a :func:`zeros_volume` whose pages are all
    faulted in (:func:`first_touch`) before it is returned.  Fresh
    memory is zeroed once, by the kernel at the fault, instead of a
    second time by a fill; memory the allocator reuses is cleared by
    ``calloc``.  Either way the cost lands here, in the caller's init."""
    return first_touch(zeros_volume(shape))


def flat_view(vol: np.ndarray) -> np.ndarray:
    """1-D view of an :func:`empty_volume`-layout array's memory.

    Voxel ``(X, Y, T)`` of a ``(Gx, Gy, Gt)`` volume sits at
    ``(T * Gx + X) * Gy + Y`` (:meth:`GridSpec.flat_index`).
    ``vol.reshape(-1)`` would *copy* such an array, and writes through
    the copy would be lost; this raises ``ValueError`` instead for any
    array not in the layout (a C-order array, an x- or strided slice).
    """
    mem = vol.transpose(2, 0, 1)
    if not mem.flags.c_contiguous:
        raise ValueError(
            "flat_view needs an array in the volume layout (empty_volume); "
            f"got shape {vol.shape} with strides {vol.strides}"
        )
    return mem.reshape(-1)


def check_bandwidths(hs: float, ht: float) -> None:
    """``ValueError`` unless both bandwidths are finite and positive —
    before any voxel or cell count is derived from them (``ceil`` of a
    NaN or infinite ratio raises from inside the arithmetic instead)."""
    if not (0 < hs < math.inf and 0 < ht < math.inf):
        raise ValueError(
            f"bandwidths must be finite and positive, got hs={hs}, ht={ht}"
        )


class GridSpec:
    """Voxel grid bound to a domain and a bandwidth pair.

    This is the object every algorithm receives: it knows the domain, the
    discretisation, the voxel bandwidths ``Hs``/``Ht``, and how to map points
    to voxels and cylinders to index windows.
    """

    __slots__ = (
        "domain", "hs", "ht", "Gx", "Gy", "Gt", "Hs", "Ht",
        "_xc", "_yc", "_tc",
    )

    def __init__(self, domain: DomainSpec, hs: float, ht: float) -> None:
        check_bandwidths(hs, ht)
        self.domain = domain
        self.hs = float(hs)
        self.ht = float(ht)
        self.Gx = domain.Gx
        self.Gy = domain.Gy
        self.Gt = domain.Gt
        self.Hs = _ceil_div_pos(self.hs, domain.sres)
        self.Ht = _ceil_div_pos(self.ht, domain.tres)
        # Lazily built voxel-center coordinate arrays.  Point-based
        # algorithms slice these millions of times (twice per stamp), so
        # they are built once and handed out as read-only views.
        self._xc: np.ndarray | None = None
        self._yc: np.ndarray | None = None
        self._tc: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Grid shape ``(Gx, Gy, Gt)``."""
        return (self.Gx, self.Gy, self.Gt)

    @property
    def n_voxels(self) -> int:
        """Total voxel count ``Gx * Gy * Gt``."""
        return self.Gx * self.Gy * self.Gt

    @property
    def grid_bytes(self) -> int:
        """Memory footprint of one float64 density volume."""
        return self.n_voxels * 8

    def x_centers(self, x0: int = 0, x1: int | None = None) -> np.ndarray:
        """Sample coordinates of voxel centers along x for ``[x0, x1)``.

        Returns a read-only view of a cached coordinate array; do not
        mutate (derive offsets with ``view - x``, which copies).
        """
        if self._xc is None:
            xc = self.domain.x0 + (np.arange(self.Gx) + 0.5) * self.domain.sres
            xc.setflags(write=False)
            self._xc = xc
        return self._xc[x0 : self.Gx if x1 is None else x1]

    def y_centers(self, y0: int = 0, y1: int | None = None) -> np.ndarray:
        """Sample coordinates of voxel centers along y for ``[y0, y1)``."""
        if self._yc is None:
            yc = self.domain.y0 + (np.arange(self.Gy) + 0.5) * self.domain.sres
            yc.setflags(write=False)
            self._yc = yc
        return self._yc[y0 : self.Gy if y1 is None else y1]

    def t_centers(self, t0: int = 0, t1: int | None = None) -> np.ndarray:
        """Sample coordinates of voxel centers along t for ``[t0, t1)``."""
        if self._tc is None:
            tc = self.domain.t0 + (np.arange(self.Gt) + 0.5) * self.domain.tres
            tc.setflags(write=False)
            self._tc = tc
        return self._tc[t0 : self.Gt if t1 is None else t1]

    def voxel_of(self, x: float, y: float, t: float) -> Tuple[int, int, int]:
        """Voxel ``(Xi, Yi, Ti)`` containing a domain-space point.

        Points exactly on the far boundary are clamped into the last voxel so
        that every point of the closed domain box has an owner voxel.
        """
        Xi = min(self.Gx - 1, max(0, int((x - self.domain.x0) / self.domain.sres)))
        Yi = min(self.Gy - 1, max(0, int((y - self.domain.y0) / self.domain.sres)))
        Ti = min(self.Gt - 1, max(0, int((t - self.domain.t0) / self.domain.tres)))
        return Xi, Yi, Ti

    def voxels_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`voxel_of` for an ``(n, 3)`` point array
        (the transpose of :meth:`voxel_columns`)."""
        return self.voxel_columns(points).T

    def voxel_columns(self, points: np.ndarray) -> np.ndarray:
        """:meth:`voxels_of` as a C-order ``(3, n)`` int64 array, one
        contiguous row per axis x, y, t (NumPy's loops over the columns
        of an ``(n, 3)`` array are several times slower)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        dom = self.domain
        vox = np.subtract(pts.T, [[dom.x0], [dom.y0], [dom.t0]], order="C")
        vox /= [[dom.sres], [dom.sres], [dom.tres]]
        vox = vox.astype(np.int64)
        np.maximum(vox, 0, out=vox)
        np.minimum(vox, np.array(self.shape)[:, None] - 1, out=vox)
        return vox

    def point_window(self, x: float, y: float, t: float) -> VoxelWindow:
        """Clipped voxel window of the density cylinder around a point.

        The window is ``[Xi - Hs, Xi + Hs] x [Yi - Hs, Yi + Hs] x
        [Ti - Ht, Ti + Ht]`` intersected with the grid — exactly the loop
        bounds of Algorithm 2 (PB).  Voxel centers outside this window are
        guaranteed to fail the ``d < hs`` / ``|dt| <= ht`` tests.
        """
        Xi, Yi, Ti = self.voxel_of(x, y, t)
        return VoxelWindow(
            max(0, Xi - self.Hs),
            min(self.Gx, Xi + self.Hs + 1),
            max(0, Yi - self.Hs),
            min(self.Gy, Yi + self.Hs + 1),
            max(0, Ti - self.Ht),
            min(self.Gt, Ti + self.Ht + 1),
        )

    def full_window(self) -> VoxelWindow:
        """Window covering the whole grid."""
        return VoxelWindow(0, self.Gx, 0, self.Gy, 0, self.Gt)

    def normalization(self, n: int) -> float:
        """The estimator's prefactor ``1 / (n * hs^2 * ht)``."""
        if n <= 0:
            raise ValueError("normalization requires n >= 1 points")
        return 1.0 / (n * self.hs * self.hs * self.ht)

    def flat_index(self, X, Y, T) -> np.ndarray:
        """Positions of voxels ``(X, Y, T)`` in a volume's
        :func:`flat_view` (memory order: t outermost, y contiguous)."""
        return np.ravel_multi_index((T, X, Y), (self.Gt, self.Gx, self.Gy))

    def voxels_at(self, flat: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Voxel indices ``(X, Y, T)`` at :func:`flat_view` positions —
        the inverse of :meth:`flat_index`."""
        T, X, Y = np.unravel_index(flat, (self.Gt, self.Gx, self.Gy))
        return X, Y, T

    def allocate(self) -> np.ndarray:
        """Allocate a zero-initialised density volume for this grid, in
        the t-outermost layout of :func:`empty_volume`.

        Uses :func:`zeroed_volume` rather than a bare ``zeros``: ``zeros``
        maps copy-on-write zero pages that are only materialised on first
        write, which would hide the initialisation cost the paper's
        Figure 7 measures (and that dominates sparse instances like Flu).
        One store per page performs the real first-touch the paper's
        Section 6.3 discusses, without writing every cell a second time.
        """
        return zeroed_volume(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridSpec({self.Gx}x{self.Gy}x{self.Gt}, Hs={self.Hs}, Ht={self.Ht}, "
            f"hs={self.hs}, ht={self.ht})"
        )


class PointSet:
    """Immutable collection of space-time events.

    Wraps an ``(n, 3)`` float64 array with columns ``(x, y, t)`` in domain
    coordinates.  All algorithms consume a :class:`PointSet`.

    Events may carry optional non-negative ``weights`` (case multiplicities,
    report confidences).  The registered grid algorithms reject weighted
    events; the query-serving subsystem (:mod:`repro.serve`: direct kernel
    summation and the weighted volume build) honours the weights, and the
    CSV I/O round-trips them so serving snapshots persist multiplicity.
    """

    __slots__ = ("coords", "weights")

    def __init__(self, coords: np.ndarray, weights: np.ndarray | None = None) -> None:
        arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected (n, 3) array of (x, y, t), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point coordinates must be finite")
        arr.setflags(write=False)
        self.coords = arr
        if weights is None:
            self.weights = None
        else:
            w = np.ascontiguousarray(np.asarray(weights, dtype=np.float64)).reshape(-1)
            if w.shape[0] != arr.shape[0]:
                raise ValueError(
                    f"weights length {w.shape[0]} does not match {arr.shape[0]} points"
                )
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and non-negative")
            w.setflags(write=False)
            self.weights = w

    @classmethod
    def from_columns(cls, xs, ys, ts, weights=None) -> "PointSet":
        """Build from separate coordinate columns."""
        return cls(np.column_stack([xs, ys, ts]), weights)

    @property
    def n(self) -> int:
        """Number of events."""
        return self.coords.shape[0]

    @property
    def weighted(self) -> bool:
        """Whether the events carry explicit (possibly non-uniform) weights."""
        return self.weights is not None

    @property
    def total_weight(self) -> float:
        """Sum of event weights (``n`` when unweighted)."""
        if self.weights is None:
            return float(self.n)
        return float(self.weights.sum())

    @property
    def xs(self) -> np.ndarray:
        return self.coords[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.coords[:, 1]

    @property
    def ts(self) -> np.ndarray:
        return self.coords[:, 2]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        for row in self.coords:
            yield (float(row[0]), float(row[1]), float(row[2]))

    def subset(self, index) -> "PointSet":
        """PointSet restricted to the given integer/boolean index."""
        w = None if self.weights is None else self.weights[index]
        return PointSet(self.coords[index], w)

    def concat(self, other: "PointSet") -> "PointSet":
        """Concatenation of two point sets.

        Weights survive when either side carries them; the unweighted side
        contributes unit weights.
        """
        coords = np.vstack([self.coords, other.coords])
        if self.weights is None and other.weights is None:
            return PointSet(coords)
        wa = self.weights if self.weights is not None else np.ones(self.n)
        wb = other.weights if other.weights is not None else np.ones(other.n)
        return PointSet(coords, np.concatenate([wa, wb]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = ", weighted" if self.weights is not None else ""
        return f"PointSet(n={self.n}{tag})"


@dataclass
class Volume:
    """A computed density volume together with its grid specification."""

    data: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"volume shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    @property
    def total_mass(self) -> float:
        """Integral of the density over the domain (voxel-sum quadrature)."""
        cell = self.grid.domain.sres**2 * self.grid.domain.tres
        return float(self.data.sum()) * cell

    def time_slice(self, T: int) -> np.ndarray:
        """The ``(Gx, Gy)`` spatial slice at voxel time ``T``."""
        return self.data[:, :, T]

    def max_voxel(self) -> Tuple[int, int, int]:
        """Voxel index of the density maximum."""
        flat = int(np.argmax(self.data))
        return tuple(int(v) for v in np.unravel_index(flat, self.data.shape))  # type: ignore[return-value]
