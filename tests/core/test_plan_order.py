"""The stamping plan's linear passes against the comparison sorts.

:class:`~repro.core.stamping.StampPlan` orders its crowded rows and its
cohort rows by stable passes over 16-bit digits; ``reference_plan`` in
``tests/helpers.py`` orders them by ``argsort``/``lexsort``.  Every field
must come out equal — values and dtypes — on batches with scattered and
empty group ids, per-group clips, off-domain rows, and keys that cross a
16-bit digit or 2**32.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DomainSpec, GridSpec, VoxelWindow
from repro.core.stamping import StampPlan

from tests.helpers import reference_plan

FIELDS = ("counts", "_gemm_rows", "_gemm", "_gemm_at", "_cohort_rows",
          "_cohorts", "_cohort_at", "_origins")

GRIDS = {
    # Narrow stamps: few rows crowd a bin.
    "small": GridSpec(DomainSpec.from_voxels(24, 20, 14), hs=2.5, ht=1.5),
    # 2 * n_voxels > 2**16: the cohort key takes two digits.
    "wide": GridSpec(DomainSpec.from_voxels(64, 40, 30), hs=3.2, ht=2.0),
    # One stamp is a crowded bin of its own (the crowd floor).
    "dense": GridSpec(DomainSpec.from_voxels(40, 36, 24), hs=12.0, ht=4.0),
}


def assert_same(plan, want):
    for name in FIELDS:
        got = getattr(plan, name)
        if name == "_origins":
            assert len(got) == 3
            for g, w in zip(got, want[name]):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
        elif isinstance(want[name], np.ndarray):
            assert got.dtype == want[name].dtype, name
            np.testing.assert_array_equal(got, want[name], err_msg=name)
        else:
            assert got == want[name], name


def window(grid, data):
    """A random window over (and past) the grid: possibly empty or off it."""
    bounds = []
    for g in grid.shape:
        a = data.draw(st.integers(-3, g + 2))
        bounds += [a, data.draw(st.integers(a - 1, g + 3))]
    return VoxelWindow(*bounds)


@st.composite
def batches(draw):
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(0, 240))
    hi = np.array(grid.shape, dtype=float)
    # Clumps (crowded bins), uniform rows, and rows off the domain, whose
    # voxels are clamped to its faces.
    centres = rng.uniform(0, 1, (3, 3)) * hi
    rows = centres[rng.integers(0, 3, n)] + rng.normal(0, 1.5, (n, 3))
    uniform = rng.random(n) < draw(st.floats(0, 1))
    rows[uniform] = rng.uniform(-0.2, 1.2, (int(uniform.sum()), 3)) * hi
    groups = clip = None
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
        groups = rng.choice(ids, n) if n else np.zeros(0, dtype=int)
        if draw(st.booleans()):
            clip = [
                None if draw(st.booleans()) else window(grid, draw(st.data()))
                for _ in range(max(ids) + 1 + draw(st.integers(0, 2)))
            ]
    elif draw(st.booleans()):
        clip = [window(grid, draw(st.data()))]
    mode = draw(st.sampled_from(["sym", "sym", "pb"]))
    return grid, rows, groups, clip, mode


@settings(max_examples=150, deadline=None)
@given(batches())
def test_plan_equals_the_comparison_sorts(case):
    grid, coords, groups, clip, mode = case
    plan = StampPlan(grid, coords, mode=mode, clip=clip, groups=groups)
    assert_same(plan, reference_plan(grid, coords, mode=mode, clip=clip,
                                     groups=groups))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_keys_past_two_to_the_32(name):
    """Group ids so large that the cohort key ``2 * groups * n_voxels``
    passes 2**32 and the (group, bin) key passes 2**16: three and two
    digit passes."""
    grid = GRIDS[name]
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, 1, (300, 3)) * grid.shape
    coords[:100] = coords[0] + rng.normal(0, 0.8, (100, 3))  # a crowded clump
    big = 2**33 // (2 * grid.n_voxels) + 1
    groups = rng.choice([0, 3, big - 1, big], coords.shape[0])
    plan = StampPlan(grid, coords, groups=groups)
    assert 2 * plan.counts.size * grid.n_voxels > 2**32
    assert_same(plan, reference_plan(grid, coords, groups=groups))


@settings(max_examples=60, deadline=None)
@given(batches())
def test_no_groups_is_group_zero(case):
    """A batch with ``groups=None`` keys its bins and cohorts without
    group ids; with ``groups`` all zero it takes the group keys, to the
    same fields, clipped or not."""
    grid, coords, _, clip, mode = case
    clip = None if clip is None else clip[:1]
    plain = StampPlan(grid, coords, mode=mode, clip=clip)
    zero = StampPlan(grid, coords, mode=mode, clip=clip,
                     groups=np.zeros(coords.shape[0], dtype=np.int64))
    assert_same(plain, {name: getattr(zero, name) for name in FIELDS})
