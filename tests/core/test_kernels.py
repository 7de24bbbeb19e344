"""Tests for the kernel function library."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    KernelPair,
    as_printed_spatial,
    as_printed_temporal,
    available_kernels,
    epanechnikov_spatial,
    epanechnikov_temporal,
    get_kernel,
    quartic_spatial,
    register_kernel,
)


class TestRegistry:
    def test_available_contains_all_three(self):
        names = available_kernels()
        assert {"epanechnikov", "quartic", "as_printed"} <= set(names)

    def test_get_by_name(self):
        k = get_kernel("epanechnikov")
        assert k.name == "epanechnikov"

    def test_get_default_is_epanechnikov(self):
        assert get_kernel().name == "epanechnikov"

    def test_get_is_idempotent_on_pairs(self):
        k = get_kernel("quartic")
        assert get_kernel(k) is k

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="epanechnikov"):
            get_kernel("nope")

    def test_register_duplicate_rejected(self):
        pair = get_kernel("epanechnikov")
        clone = KernelPair("epanechnikov", pair.spatial, pair.temporal)
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(clone)

    def test_register_overwrite_allowed(self):
        pair = get_kernel("epanechnikov")
        clone = KernelPair("epanechnikov", pair.spatial, pair.temporal)
        register_kernel(clone, overwrite=True)
        assert get_kernel("epanechnikov") is clone
        register_kernel(pair, overwrite=True)  # restore


class TestEpanechnikov:
    def test_spatial_max_at_origin(self):
        assert epanechnikov_spatial(np.float64(0), np.float64(0)) == pytest.approx(
            2.0 / math.pi
        )

    def test_spatial_zero_on_unit_circle(self):
        assert epanechnikov_spatial(np.float64(1.0), np.float64(0.0)) == pytest.approx(0.0)
        u = v = np.float64(math.sqrt(0.5))
        assert epanechnikov_spatial(u, v) == pytest.approx(0.0)

    def test_spatial_unit_mass_on_disk(self):
        # Monte-Carlo quadrature over the unit disk.
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(400_000, 2))
        inside = (pts**2).sum(axis=1) < 1
        vals = epanechnikov_spatial(pts[:, 0], pts[:, 1])
        mass = vals[inside].sum() * 4.0 / len(pts)
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_temporal_unit_mass(self):
        w = np.linspace(-1, 1, 200_001)
        mass = np.trapezoid(epanechnikov_temporal(w), w)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_temporal_even(self):
        w = np.linspace(0, 1, 101)
        np.testing.assert_allclose(
            epanechnikov_temporal(w), epanechnikov_temporal(-w)
        )

    def test_spatial_radially_symmetric(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0, 1, 50)
        theta1 = rng.uniform(0, 2 * math.pi, 50)
        theta2 = rng.uniform(0, 2 * math.pi, 50)
        v1 = epanechnikov_spatial(r * np.cos(theta1), r * np.sin(theta1))
        v2 = epanechnikov_spatial(r * np.cos(theta2), r * np.sin(theta2))
        np.testing.assert_allclose(v1, v2, rtol=1e-12)


class TestQuartic:
    def test_max_at_origin(self):
        assert quartic_spatial(np.float64(0), np.float64(0)) == pytest.approx(3.0 / math.pi)

    def test_unit_mass_on_disk(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(400_000, 2))
        inside = (pts**2).sum(axis=1) < 1
        vals = quartic_spatial(pts[:, 0], pts[:, 1])
        mass = vals[inside].sum() * 4.0 / len(pts)
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_smoother_than_epanechnikov_at_edge(self):
        # The quartic kernel approaches zero quadratically at the boundary.
        near = np.float64(0.999)
        assert quartic_spatial(near, np.float64(0)) < epanechnikov_spatial(
            near, np.float64(0)
        )


class TestAsPrinted:
    def test_matches_literal_formula(self):
        u, v = np.float64(0.25), np.float64(-0.5)
        expected = (math.pi / 2) * (1 - 0.25) ** 2 * (1 + 0.5) ** 2
        assert as_printed_spatial(u, v) == pytest.approx(expected)

    def test_temporal_matches_literal_formula(self):
        w = np.float64(0.3)
        assert as_printed_temporal(w) == pytest.approx(0.75 * 0.49)

    def test_not_symmetric(self):
        # Documents why we treat the printed form as an OCR artifact.
        assert as_printed_spatial(np.float64(0.5), np.float64(0)) != pytest.approx(
            as_printed_spatial(np.float64(-0.5), np.float64(0))
        )


class TestClampProfile:
    def test_registered_profiles(self):
        assert get_kernel("epanechnikov").clamp_profile == (1.5 / math.pi, 1)
        assert get_kernel("quartic").clamp_profile == (2.25 / math.pi, 2)
        assert get_kernel("as_printed").clamp_profile is None
        pair = get_kernel("epanechnikov")
        assert KernelPair("user", pair.spatial, pair.temporal).clamp_profile is None

    @pytest.mark.parametrize("name", [
        k for k in available_kernels() if get_kernel(k).clamp_profile
    ])
    def test_profile_is_the_kernel_product(self, name):
        """``c (1 - r^2)^p (1 - w^2) == k_s(r^2) k_t(w)`` on the support."""
        pair = get_kernel(name)
        c, p = pair.clamp_profile
        r2, w = np.meshgrid(np.linspace(0.0, 1.0, 97, endpoint=False),
                            np.linspace(0.0, 1.0, 89, endpoint=False))
        np.testing.assert_allclose(
            c * (1.0 - r2) ** p * (1.0 - w * w),
            pair.spatial_radial(r2) * pair.temporal(w),
            rtol=1e-14, atol=0.0,
        )


class TestKernelPairAPI:
    @pytest.mark.parametrize("name", ["epanechnikov", "quartic", "as_printed"])
    def test_scalar_matches_vectorised(self, name):
        k = get_kernel(name)
        assert k.spatial_scalar(0.3, -0.2) == pytest.approx(
            float(k.spatial(np.array([0.3]), np.array([-0.2]))[0])
        )
        assert k.temporal_scalar(0.4) == pytest.approx(
            float(k.temporal(np.array([0.4]))[0])
        )

    @pytest.mark.parametrize("name", ["epanechnikov", "quartic", "as_printed"])
    def test_vectorised_shapes(self, name):
        k = get_kernel(name)
        u = np.zeros((3, 4))
        v = np.zeros((3, 4))
        assert k.spatial(u, v).shape == (3, 4)
        assert k.temporal(np.zeros(5)).shape == (5,)

    def test_flop_attributes_positive(self):
        for name in available_kernels():
            k = get_kernel(name)
            assert k.spatial_flops > 0
            assert k.temporal_flops > 0


@given(
    u=st.floats(-0.999, 0.999),
    v=st.floats(-0.999, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_property_symmetric_kernels_nonnegative_inside_disk(u, v):
    """Probability kernels are non-negative wherever they may be evaluated."""
    if u * u + v * v >= 1.0:
        return
    assert epanechnikov_spatial(np.float64(u), np.float64(v)) >= 0
    assert quartic_spatial(np.float64(u), np.float64(v)) >= 0


@given(w=st.floats(-1, 1))
@settings(max_examples=200, deadline=None)
def test_property_temporal_bounded(w):
    val = epanechnikov_temporal(np.float64(w))
    assert 0.0 <= val <= 0.75 + 1e-12


@given(
    r=st.floats(0, 0.999),
    theta=st.floats(0, 2 * math.pi),
)
@settings(max_examples=200, deadline=None)
def test_property_radial_decay(r, theta):
    """Spatial kernels decay monotonically along any ray from the origin."""
    u1, v1 = r * math.cos(theta), r * math.sin(theta)
    r2 = min(0.9995, r * 1.1 + 1e-4)
    u2, v2 = r2 * math.cos(theta), r2 * math.sin(theta)
    for f in (epanechnikov_spatial, quartic_spatial):
        assert f(np.float64(u1), np.float64(v1)) >= f(
            np.float64(u2), np.float64(v2)
        ) - 1e-12
