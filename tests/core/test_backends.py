"""Backend parity property suite.

Every registered compute backend must answer every pair-evaluation
primitive with the same numbers as the oracle ``numpy-ref`` (rtol=1e-12;
named explicitly, since the default backend is one of the backends under
test), the same logical work counts, and one dispatch record per
primitive call — across
every stamp mode, weighted and unweighted, every registered kernel plus a
``spatial_radial=None`` custom kernel, and the direct/approx query
paths.  The suite parametrises over :func:`available_backends`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms import get_algorithm
from repro.core import DomainSpec, GridSpec, VoxelWindow, WorkCounter
import repro.core.backends.base as backends_base
import repro.core.backends.numpy_fused as backends_fused
from repro.core.backends import (
    DEFAULT_BACKEND,
    ComputeBackend,
    available_backends,
    get_backend,
)
from repro.core.incremental import IncrementalSTKDE
from repro.core.instrument import null_counter
from repro.core.kernels import KernelPair, available_kernels, get_kernel
from repro.core.regions import RegionBuffer, accumulate_voxel_tile
import repro.core.stamping as stamping
from repro.core.stamping import STAMP_MODES, stamp_batch
from repro.serve import DensityService, ShardedDensityService
from repro.serve.engine import approx_sum, direct_sum
from repro.core.index import BucketIndex

from tests.helpers import (
    BOX_KERNEL,
    CUSTOM_KERNEL,
    broadcast_d2,
    make_clustered_points,
    make_points,
)

RTOL = 1e-12
ATOL = 1e-18

#: The oracle every other backend is compared against.
ORACLE = "numpy-ref"

BACKENDS = available_backends()
FAST_BACKENDS = tuple(b for b in BACKENDS if b != ORACLE)

ALL_KERNELS = tuple(available_kernels()) + ("custom",)


def kernel_of(name: str) -> KernelPair:
    return CUSTOM_KERNEL if name == "custom" else get_kernel(name)


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(20, 18, 22), hs=2.9, ht=2.3)


class TestRegistry:
    def test_default_is_numpy_ref(self):
        """Keeps its id; the default is the fused backend since PR 20 and
        ``numpy-ref`` stays registered as the oracle."""
        assert DEFAULT_BACKEND == "numpy-fused"
        assert get_backend().name == DEFAULT_BACKEND
        assert get_backend(None).name == DEFAULT_BACKEND
        assert ORACLE in BACKENDS and ORACLE != DEFAULT_BACKEND

    def test_always_available(self):
        assert "numpy-ref" in BACKENDS
        assert "numpy-fused" in BACKENDS

    def test_idempotent_on_instances(self):
        b = get_backend("numpy-fused")
        assert get_backend(b) is b
        assert get_backend("numpy-fused") is b  # process-wide singleton

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown compute backend"):
            get_backend("cuda")

    def test_two_fixed_singletons(self):
        """The registry is the two NumPy backends, nothing to add to."""
        import repro.core.backends as backends

        assert BACKENDS == ("numpy-fused", "numpy-ref")
        for name in BACKENDS:
            assert get_backend(name).name == name
            assert get_backend(name) is get_backend(name)
        assert not hasattr(backends, "register_backend")


class TestDispatchAccounting:
    def test_counter_records_dispatches(self, grid):
        c = WorkCounter()
        kern = get_kernel("epanechnikov")
        coords = make_points(grid, 30, seed=0).coords
        vol = np.zeros(grid.shape)
        stamp_batch(vol, grid, kern, coords, 1.0, c, mode="sym")
        assert set(c.backend_dispatches) == {DEFAULT_BACKEND}
        # One dispatch per cohort *slab*; every cohort has at least one.
        assert sum(c.backend_dispatches.values()) >= c.stamp_cohorts

    def test_gemm_chunks_are_one_group_one_dispatch_each(self, grid):
        """A batch that is one crowded bin: ``stamp_cohorts`` counts its
        GEMM chunks (one here, though the stamps have two shapes), each
        exactly one ``factor_tables`` dispatch."""
        c = WorkCounter()
        coords = np.repeat([[1.5, 5.4, 5.6], [5.5, 5.4, 5.6]], 20, axis=0)
        stamp_batch(np.zeros(grid.shape), grid, get_kernel("epanechnikov"),
                    coords, 1.0, c, mode="sym")
        assert c.stamp_cohorts == 1
        assert c.backend_dispatches == {DEFAULT_BACKEND: 1}

    def test_null_counter_drops_dispatches(self):
        nc = null_counter()
        nc.add_dispatch("numpy-ref", 5)
        assert nc.backend_dispatches == {}

    def test_merge_and_roundtrip(self):
        a = WorkCounter()
        a.add_dispatch("numpy-ref", 2)
        b = WorkCounter()
        b.add_dispatch("numpy-ref")
        b.add_dispatch("numpy-fused", 3)
        a.merge(b)
        assert a.backend_dispatches == {"numpy-ref": 3, "numpy-fused": 3}
        rt = WorkCounter(**a.as_dict())
        assert rt.backend_dispatches == a.backend_dispatches
        cp = a.copy()
        cp.add_dispatch("numpy-ref")
        assert a.backend_dispatches["numpy-ref"] == 3  # copy is independent

    def test_o1_madds_from_shapes(self, grid):
        """madds charges the tabulated window, mask included — no mask
        reduction inside the hot path."""
        c = WorkCounter()
        kern = get_kernel("epanechnikov")
        dx = np.linspace(-4.0, 4.0, 7)[None, :].repeat(3, axis=0)
        get_backend(ORACLE).masked_kernel_product(grid, kern, dx, dx, dx, c)
        assert c.madds == dx.size
        assert c.madds == c.distance_tests


class TestStampParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("mode", STAMP_MODES)
    @pytest.mark.parametrize("kname", ALL_KERNELS)
    def test_all_modes_all_kernels(self, grid, backend, mode, kname):
        kern = kernel_of(kname)
        coords = make_clustered_points(grid, 60, seed=3).coords
        ref = np.zeros(grid.shape)
        got = np.zeros(grid.shape)
        c_ref = WorkCounter()
        c_got = WorkCounter()
        stamp_batch(ref, grid, kern, coords, 1.0, c_ref, mode=mode,
                    compute=ORACLE)
        stamp_batch(got, grid, kern, coords, 1.0, c_got, mode=mode,
                    compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)
        # Logical work counts are backend-independent.
        for key in ("spatial_evals", "temporal_evals", "distance_tests",
                    "madds", "stamp_cohorts"):
            assert getattr(c_got, key) == getattr(c_ref, key), key

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_weighted_stamp(self, grid, backend):
        kern = get_kernel("quartic")
        pts = make_points(grid, 50, seed=4)
        w = np.random.default_rng(7).uniform(0.2, 3.0, size=pts.n)
        ref = np.zeros(grid.shape)
        got = np.zeros(grid.shape)
        stamp_batch(ref, grid, kern, pts.coords, 1.0, None, weights=w,
                    compute=ORACLE)
        stamp_batch(got, grid, kern, pts.coords, 1.0, None, weights=w,
                    compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    def test_default_stays_bit_identical(self, grid):
        """compute=None routes to the default backend and must be
        *bit*-equal to naming it (and rtol=1e-12 to the oracle, above)."""
        kern = get_kernel("epanechnikov")
        coords = make_points(grid, 60, seed=5).coords
        for mode in STAMP_MODES:
            a = np.zeros(grid.shape)
            b = np.zeros(grid.shape)
            stamp_batch(a, grid, kern, coords, 1.0, None, mode=mode)
            stamp_batch(b, grid, kern, coords, 1.0, None, mode=mode,
                        compute=DEFAULT_BACKEND)
            assert np.array_equal(a, b), mode


def c_order_tables(backend, grid, kernel, mode, norm, dx, dy, dt):
    """Each backend's cohort tables as the C-order ``(m, wx, wy, wt)``
    product they were built as before the layout contract: the same
    expressions, in the same order, on C-order temporaries."""
    if backend.name != ORACLE:
        disk, bar = backend._factor_tables(grid, kernel, norm, dx, dy, dt)
        return disk[:, :, :, None] * bar[:, None, None, :]
    hs2 = grid.hs * grid.hs
    shape = (dx.shape[0], dx.shape[1], dy.shape[1], dt.shape[1])
    DX = np.broadcast_to(dx[:, :, None, None], shape)
    DY = np.broadcast_to(dy[:, None, :, None], shape)
    DT = np.broadcast_to(dt[:, None, None, :], shape)
    d2 = dx[:, :, None] ** 2 + dy[:, None, :] ** 2
    if kernel.spatial_radial is not None:
        disk = kernel.spatial_radial(d2 * (1.0 / hs2))
    else:
        disk = kernel.spatial(
            np.broadcast_to(dx[:, :, None] / grid.hs, d2.shape),
            np.broadcast_to(dy[:, None, :] / grid.hs, d2.shape),
        )
    disk = disk * norm * (d2 < hs2)
    bar = kernel.temporal(dt / grid.ht) * (np.abs(dt) <= grid.ht)
    if mode == "sym":
        return disk[:, :, :, None] * bar[:, None, None, :]
    if mode == "pb":
        return backend.masked_kernel_product(
            grid, kernel, DX, DY, DT, WorkCounter()) * norm
    if mode == "disk":
        return disk[:, :, :, None] * np.where(
            np.abs(DT) <= grid.ht, kernel.temporal(DT / grid.ht), 0.0)
    ks = kernel.spatial(DX / grid.hs, DY / grid.hs)
    return np.where((DX * DX + DY * DY) < hs2, ks * norm, 0.0) \
        * bar[:, None, None, :]


class TestCohortTableLayout:
    """``cohort_tables`` returns ``[i, x, y, t]`` tables stored
    t-outermost, and the scatter hands that block to ``np.add.at``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", STAMP_MODES)
    @pytest.mark.parametrize("kname", ALL_KERNELS)
    def test_layout_contract(self, grid, monkeypatch, backend, mode, kname):
        be, kern = get_backend(backend), kernel_of(kname)
        rng = np.random.default_rng(29)
        m, wx, wy, wt = 6, 5, 4, 3
        dx = rng.uniform(-3, 3, (m, wx))
        dy = rng.uniform(-3, 3, (m, wy))
        dt = rng.uniform(-2.5, 2.5, (m, wt))
        tables = be.cohort_tables(grid, kern, mode, 0.37, dx, dy, dt,
                                  WorkCounter())
        assert tables.shape == (m, wx, wy, wt)
        assert tables.transpose(0, 3, 1, 2).flags.c_contiguous
        assert np.array_equal(
            tables, c_order_tables(be, grid, kern, mode, 0.37, dx, dy, dt))

        handed = []

        class SpyNumpy:
            """``np`` as the engine sees it, recording what ``np.add.at``
            receives."""

            class add:
                @staticmethod
                def at(target, index, values):
                    handed.append(values)
                    np.add.at(target, index, values)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(stamping, "np", SpyNumpy())
        vol = grid.allocate()
        origin = np.arange(m)
        stamping._scatter_slab(vol, tables, origin, origin, origin,
                               (0, 0, 0))
        (values,) = handed
        assert np.shares_memory(values, tables)


class TestMaskedProductParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("kname", ALL_KERNELS)
    def test_tile_shapes(self, grid, backend, kname):
        kern = kernel_of(kname)
        rng = np.random.default_rng(11)
        cx = rng.uniform(0, grid.domain.gx, size=40)
        px = rng.uniform(0, grid.domain.gx, size=17)
        dx = cx[:, None] - px[None, :]
        dy = rng.uniform(-4, 4, size=(40, 17))
        dt = rng.uniform(-4, 4, size=(40, 17))
        ref = get_backend("numpy-ref").masked_kernel_product(
            grid, kern, dx, dy, dt, WorkCounter()
        )
        got = get_backend(backend).masked_kernel_product(
            grid, kern, dx, dy, dt, WorkCounter()
        )
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_sparse_mask_first_path(self, grid, backend):
        """Almost-everything-outside masks (the fused mask-first branch)."""
        kern = get_kernel("epanechnikov")
        rng = np.random.default_rng(13)
        dx = rng.uniform(5.0, 50.0, size=(64, 128))  # far outside hs=2.9
        dx[::9, ::17] = rng.uniform(-1.0, 1.0, size=dx[::9, ::17].shape)
        dy = rng.uniform(-1.0, 1.0, size=dx.shape)
        dt = rng.uniform(-6.0, 6.0, size=dx.shape)
        ref = get_backend("numpy-ref").masked_kernel_product(
            grid, kern, dx, dy, dt, WorkCounter()
        )
        got = get_backend(backend).masked_kernel_product(
            grid, kern, dx, dy, dt, WorkCounter()
        )
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_all_outside_returns_zeros(self, grid, backend):
        kern = get_kernel("quartic")
        dx = np.full((8, 9), 40.0)
        out = get_backend(backend).masked_kernel_product(
            grid, kern, dx, dx, dx, WorkCounter()
        )
        assert out.shape == dx.shape
        assert not out.any()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_voxel_tile_route(self, grid, backend):
        kern = get_kernel("epanechnikov")
        rng = np.random.default_rng(17)
        vox = np.arange(30, dtype=np.int64)
        cx = rng.uniform(0, grid.domain.gx, size=30)
        cy = rng.uniform(0, grid.domain.gy, size=30)
        ct = rng.uniform(0, grid.domain.gt, size=30)
        px = rng.uniform(0, grid.domain.gx, size=12)
        py = rng.uniform(0, grid.domain.gy, size=12)
        pt = rng.uniform(0, grid.domain.gt, size=12)
        ref = np.zeros(grid.n_voxels)
        got = np.zeros(grid.n_voxels)
        accumulate_voxel_tile(ref, vox, cx, cy, ct, px, py, pt, grid, kern,
                              0.5, WorkCounter(), compute=ORACLE)
        accumulate_voxel_tile(got, vox, cx, cy, ct, px, py, pt, grid, kern,
                              0.5, WorkCounter(), compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


PROFILED = tuple(k for k in available_kernels()
                 if get_kernel(k).clamp_profile is not None)


class TestClampForm:
    """``numpy-fused`` evaluates kernels that declare a ``clamp_profile``
    as ``max(hs^2 - d^2, 0)^p * max(ht^2 - dt^2, 0)`` times one scalar;
    the clamp must be the strict-in-space, closed-in-time mask, and every
    other kernel must keep the generic path bit for bit."""

    # Dyadic bandwidths and times far from zero (``TestWindowEdge.EXACT``
    # of the engine tests): every offset below subtracts without rounding.
    EXACT = GridSpec(
        DomainSpec(gx=64.0, gy=64.0, gt=16.0, sres=1.0, tres=1.0, t0=64.0),
        hs=4.0, ht=2.0,
    )

    @classmethod
    def edge_offsets(cls):
        """Offsets from a query at (6, 6, 69) to events on the edges of
        its cylinder, and whether each must contribute: at exactly
        ``r == hs`` (no), one float inside the radius (yes), one float
        beyond ``|dt| == ht`` on both sides (no), one float inside (yes)."""
        hs, ht = cls.EXACT.hs, cls.EXACT.ht
        x, y, t = 6.0, 6.0, 69.0
        events = np.array([
            (x + hs, y, t),
            (np.nextafter(x + hs, x), y, t),
            (x, y - hs, t),
            (x, np.nextafter(y - hs, y), t),
            (x + 1.0, y, np.nextafter(t - ht, -np.inf)),
            (x + 1.0, y, np.nextafter(t + ht, np.inf)),
            (x + 1.0, y, np.nextafter(t - ht, t)),
            (x, y + 1.0, np.nextafter(t + ht, t)),
        ])
        counted = np.array([False, True, False, True,
                            False, False, True, True])
        return np.array([x, y, t]) - events, counted

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kname", PROFILED)
    def test_edges_through_factor_tables(self, backend, kname):
        off, counted = self.edge_offsets()
        disk, bar = get_backend(backend).factor_tables(
            self.EXACT, get_kernel(kname), 0.5,
            off[:, :1], off[:, 1:2], off[:, 2:], WorkCounter(),
        )
        value = disk[:, 0, 0] * bar[:, 0]
        assert (value[counted] > 0.0).all()
        assert (value[~counted] == 0.0).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kname", PROFILED)
    def test_edges_through_the_pair_kernel(self, backend, kname):
        off, counted = self.edge_offsets()
        value = get_backend(backend).sampled_contributions(
            self.EXACT, get_kernel(kname), off[:, 0], off[:, 1], off[:, 2],
            np.full(len(off), 2.0), WorkCounter(),
        )
        assert (value[counted] > 0.0).all()
        assert (value[~counted] == 0.0).all()

    @pytest.mark.parametrize("kern", [BOX_KERNEL, CUSTOM_KERNEL],
                             ids=["box", "custom"])
    def test_unprofiled_kernels_keep_the_generic_path(self, grid, kern):
        """No profile, no clamp form: the fused tables are the base
        class's and the fused pair kernel the oracle's, bit for bit."""
        fused = get_backend("numpy-fused")
        rng = np.random.default_rng(23)
        dx = rng.uniform(-4, 4, size=(9, 7))
        dy = rng.uniform(-4, 4, size=(9, 8))
        dt = rng.uniform(-3, 3, size=(9, 6))
        for got, want in zip(
            fused._factor_tables(grid, kern, 0.5, dx, dy, dt),
            ComputeBackend._factor_tables(fused, grid, kern, 0.5, dx, dy, dt),
        ):
            assert np.array_equal(got, want)
        pairs = [rng.uniform(-4, 4, size=200) for _ in range(3)]
        w = rng.uniform(0.5, 2.0, size=200)
        assert np.array_equal(
            fused.sampled_contributions(grid, kern, *pairs, w, WorkCounter()),
            get_backend(ORACLE).sampled_contributions(
                grid, kern, *pairs, w, WorkCounter()),
        )

    @pytest.mark.parametrize("kern", [get_kernel("epanechnikov"), BOX_KERNEL],
                             ids=["clamp", "box"])
    def test_overflowing_offsets_reduce_to_the_oracle(self, grid, kern):
        """An offset that overflows when squared is outside every support:
        the clamp form maps it to 0 outright, and a radial kernel without
        a profile (whose mask multiplies ``inf`` by 0) is redone on the
        oracle.  Either way the reduced sums are finite and exact."""
        rng = np.random.default_rng(29)
        dx, dy, dt = (rng.uniform(-3, 3, size=60) for _ in range(3))
        dx[::7] = 1e200
        dt[3::11] = -1e200
        starts = np.arange(0, 60, 6)
        got, want = (
            get_backend(b).query_segment_sums(
                grid, kern, dx, dy, dt, None, starts, WorkCounter())
            for b in ("numpy-fused", ORACLE)
        )
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


class TestDiskD2:
    """The disk tables' squared distances are one batched matrix product
    ``[dx**2, 1] @ [1; dy**2]``.  Each cell is a two-term dot product of
    exact products, so it must round to the broadcast sum's bits on any
    BLAS — and every volume and counter stamped over it with them."""

    #: Offsets whose squares are ordinary, zero, subnormal, underflow to
    #: zero, or overflow (alone or in the sum) to inf.
    OFFSETS = st.one_of(
        st.floats(-60.0, 60.0),
        st.sampled_from([0.0, -0.0, 5e-324, -1e-170, 1e-160, 2.2e-154,
                         -1.5e-154, 1e154, -1.2e154, 1e155, -1e200, 1.7e308]),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bits_of_the_broadcast_sum(self, data):
        m = data.draw(st.integers(0, 6), label="m")
        wx, wy = (data.draw(st.integers(1, 40), label=w) for w in "xy")
        dx = data.draw(arrays(np.float64, (m, wx), elements=self.OFFSETS))
        dy = data.draw(arrays(np.float64, (m, wy), elements=self.OFFSETS))
        with np.errstate(over="ignore", under="ignore"):
            got, want = backends_base.disk_d2(dx, dy), broadcast_d2(dx, dy)
        assert got.shape == want.shape == (m, wx, wy)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    #: 8 x 8 x 16-voxel bins, 11 x 11 x 7 stamps: ten stamps crowd a bin.
    WIDE = GridSpec(DomainSpec.from_voxels(40, 36, 30), hs=4.6, ht=2.2)

    def stamp(self, backend, kern, mode):
        """A crowded clump and scattered points stamped into a region
        buffer, clipped and weighted: the buffer and the counter."""
        rng = np.random.default_rng(31)
        coords = np.concatenate([
            [20.5, 18.5, 12.5] + rng.uniform(-0.8, 0.8, size=(40, 3)),
            make_points(self.WIDE, 40, seed=32).coords,
        ])
        w = rng.uniform(0.2, 3.0, size=len(coords))
        buf = RegionBuffer(VoxelWindow(3, 38, 2, 33, 1, 27))
        c = WorkCounter()
        buf.stamp(self.WIDE, kern, coords, 0.37, c, mode=mode, weights=w,
                  clip=VoxelWindow(0, 40, 6, 36, 0, 24), compute=backend)
        return buf.data, c.as_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", STAMP_MODES)
    @pytest.mark.parametrize("kname", ALL_KERNELS + ("box",))
    def test_stamps_match_the_broadcast_form(self, monkeypatch, backend,
                                             mode, kname):
        kern = BOX_KERNEL if kname == "box" else kernel_of(kname)
        routes = {"gemm": 0, "cohort": 0}
        gemm = ComputeBackend.factor_tables
        cohort = type(get_backend(backend)).cohort_tables

        def spy_gemm(self, grid, kernel, norm, dx, dy, dt, counter):
            routes["gemm"] += dx.shape[0]
            return gemm(self, grid, kernel, norm, dx, dy, dt, counter)

        def spy_cohort(self, grid, kernel, mode, norm, dx, dy, dt, counter):
            routes["cohort"] += dx.shape[0]
            return cohort(self, grid, kernel, mode, norm, dx, dy, dt, counter)

        monkeypatch.setattr(ComputeBackend, "factor_tables", spy_gemm)
        monkeypatch.setattr(type(get_backend(backend)), "cohort_tables",
                            spy_cohort)
        vol, counts = self.stamp(backend, kern, mode)
        assert routes["cohort"] > 0
        assert (routes["gemm"] > 0) == (mode == "sym")
        for module in (backends_base, backends_fused):
            monkeypatch.setattr(module, "disk_d2", broadcast_d2)
        want_vol, want_counts = self.stamp(backend, kern, mode)
        assert np.array_equal(vol, want_vol)
        assert counts == want_counts


class TestQueryParity:
    @pytest.fixture
    def served(self, grid):
        pts = make_clustered_points(grid, 400, seed=21)
        idx = BucketIndex(grid, pts.coords)
        d = grid.domain
        rng = np.random.default_rng(23)
        q = np.column_stack([
            rng.uniform(0, d.gx, size=120),
            rng.uniform(0, d.gy, size=120),
            rng.uniform(0, d.gt, size=120),
        ]) + [d.x0, d.y0, d.t0]
        return idx, q

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("kname", ALL_KERNELS)
    def test_direct_sum(self, served, backend, kname):
        idx, q = served
        kern = kernel_of(kname)
        ref = direct_sum(idx, q, kern, 0.01, WorkCounter(), compute=ORACLE)
        got = direct_sum(idx, q, kern, 0.01, WorkCounter(), compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_direct_sum_weighted(self, grid, backend):
        pts = make_clustered_points(grid, 300, seed=31)
        w = np.random.default_rng(37).uniform(0.1, 5.0, size=pts.n)
        idx = BucketIndex(grid, pts.coords, w)
        q = pts.coords[:50]
        kern = get_kernel("epanechnikov")
        ref = direct_sum(idx, q, kern, 1.0 / w.sum(), WorkCounter(),
                         compute=ORACLE)
        got = direct_sum(idx, q, kern, 1.0 / w.sum(), WorkCounter(),
                         compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_direct_sum_dense_cluster(self, grid, backend):
        """One dense cluster probed by a few queries: long segments."""
        rng = np.random.default_rng(41)
        coords = np.tile([[5.0, 5.0, 5.0]], (3000, 1)) + rng.uniform(
            -0.4, 0.4, size=(3000, 3)
        )
        idx = BucketIndex(grid, coords)
        q = np.array([[5.0, 5.0, 5.0], [5.2, 4.9, 5.1]])
        kern = get_kernel("quartic")
        ref = direct_sum(idx, q, kern, 1e-3, WorkCounter(), compute=ORACLE)
        got = direct_sum(idx, q, kern, 1e-3, WorkCounter(), compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_approx_sum_same_seed(self, served, backend):
        """Identical draws (same seed, same stream order) + elementwise
        parity of the sampled contributions → identical stop decisions."""
        idx, q = served
        kern = get_kernel("epanechnikov")
        ref = approx_sum(idx, q, kern, 0.01, WorkCounter(), eps=0.2, seed=9,
                         compute=ORACLE)
        got = approx_sum(idx, q, kern, 0.01, WorkCounter(), eps=0.2, seed=9,
                         compute=backend)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_query_counts_backend_independent(self, served, backend):
        idx, q = served
        kern = get_kernel("epanechnikov")
        c_ref = WorkCounter()
        c_got = WorkCounter()
        direct_sum(idx, q, kern, 0.01, c_ref, compute=ORACLE)
        direct_sum(idx, q, kern, 0.01, c_got, compute=backend)
        for key in ("spatial_evals", "temporal_evals", "distance_tests",
                    "madds", "query_cohorts"):
            assert getattr(c_got, key) == getattr(c_ref, key), key
        assert sum(c_got.backend_dispatches.values()) == sum(
            c_ref.backend_dispatches.values()
        )


class TestRoles:
    """Who runs what: the Table 3 cost profiles run the oracle, everything
    else the default — and nothing runs both."""

    #: ``(madds, spatial_evals, temporal_evals, distance_tests)`` on the
    #: fixture below, recorded before the default backend changed; logical
    #: counts are backend-independent by contract.
    LOGICAL = {
        "pb": (20041, 20041, 20041, 20041),
        "pb-disk": (20041, 2877, 20041, 22918),
        "pb-bar": (20041, 20041, 418, 20459),
        "pb-sym": (20041, 2877, 418, 3295),
    }

    @pytest.fixture
    def pts(self, grid):
        return make_clustered_points(grid, 60, seed=3)

    @staticmethod
    def run(name, pts, grid, **kw):
        c = WorkCounter()
        get_algorithm(name)(pts, grid, counter=c, **kw)
        return c

    @pytest.mark.parametrize("name", ["pb", "pb-disk", "pb-bar", "vb", "vb-dec"])
    def test_paper_profiles_run_the_oracle(self, grid, pts, name):
        c = self.run(name, pts, grid)
        assert set(c.backend_dispatches) == {ORACLE}

    def test_pb_sym_and_a_parallel_strategy_run_the_default(self, grid, pts):
        assert set(self.run("pb-sym", pts, grid).backend_dispatches) == {
            DEFAULT_BACKEND
        }
        c = self.run("pb-sym-dd", pts, grid, P=2, decomposition=(2, 2, 2))
        assert set(c.backend_dispatches) == {DEFAULT_BACKEND}

    @pytest.mark.parametrize("name", sorted(LOGICAL))
    def test_logical_counts_did_not_move(self, grid, pts, name):
        c = self.run(name, pts, grid)
        assert (c.madds, c.spatial_evals, c.temporal_evals,
                c.distance_tests) == self.LOGICAL[name]

    def test_incremental_and_the_service_run_the_default(self, grid, pts):
        inc = IncrementalSTKDE(grid)
        inc.add(pts.coords)
        assert not inc.counter.backend_dispatches  # add() runs no kernel
        inc.volume()
        assert set(inc.counter.backend_dispatches) == {DEFAULT_BACKEND}
        svc = DensityService(pts, grid)
        svc.query_points(pts.coords[:10], backend="direct")
        svc.query_region((2, 12, 2, 12, 3, 15), backend="direct")
        svc.materialize()
        assert set(svc.counter.backend_dispatches) == {DEFAULT_BACKEND}
        with ShardedDensityService(
            pts, grid, workers=2, backend="sharded"
        ) as sharded:
            sharded.query_points(pts.coords[:10])
            sharded.query_region((2, 12, 2, 12, 3, 15))
            work = sharded.stats()["work"]
        assert set(work["backend_dispatches"]) == {DEFAULT_BACKEND}
