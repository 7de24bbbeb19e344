"""Threads-scaling smoke: shard correctness under *real* concurrency.

The tier-1 suite runs everywhere, including single-CPU containers where
``pb_sym(P, backend="threads")`` executes its phases' tasks effectively
one at a time — so races between shard stamps, or between t-slab
reducers reading the shard buffers, would never be exercised.  These
tests are skipped below two CPUs and run in CI's dedicated multi-core job
(and in tier-1 on any multi-core machine), hammering the bbox-shard path
with enough work that the GIL-releasing NumPy kernels genuinely overlap.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.pb_sym import pb_sym
from repro.core import DomainSpec, GridSpec, PointSet
from repro.core.regions import plan_stamp_shards
from repro.parallel.executors import resolve_shard_count

_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)

multicore = pytest.mark.skipif(
    _CPUS < 2, reason="threads-scaling smoke needs >= 2 CPUs"
)


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(48, 48, 32), hs=3.0, ht=2.5)


def _clustered(grid, n, seed):
    rng = np.random.default_rng(seed)
    span = np.array([grid.domain.gx, grid.domain.gy, grid.domain.gt])
    centers = rng.uniform(0.2 * span, 0.8 * span, size=(4, 3))
    pts = centers[rng.integers(0, 4, size=n)] + rng.normal(
        0, 0.06, size=(n, 3)
    ) * span
    return np.clip(pts, 0, span * (1 - 1e-9))


@multicore
class TestRealConcurrency:
    @pytest.mark.parametrize("kernel", ["epanechnikov", "quartic"])
    def test_bbox_shards_match_serial_repeatedly(self, grid, kernel):
        """Several concurrent runs, all compared against one serial run.

        Repetition matters: a racy reduction would be intermittent, and a
        single lucky pass proves nothing.
        """
        pts = PointSet(_clustered(grid, 8000, seed=0))
        serial = pb_sym(pts, grid, kernel=kernel)
        P = min(4, _CPUS)
        plan = plan_stamp_shards(grid, pts.coords, P)
        for rep in range(3):
            res = pb_sym(pts, grid, kernel=kernel, P=P, backend="threads")
            np.testing.assert_allclose(
                res.data, serial.data, rtol=1e-12, atol=1e-18,
                err_msg=f"threads diverged from serial on repetition {rep}",
            )
            c = res.counter
            assert c.madds == serial.counter.madds
            assert c.stamp_batches == plan.n_shards == P
            assert c.shard_bbox_cells == c.reduce_adds == plan.buffer_cells
            assert c.shard_bbox_cells < P * grid.n_voxels

    def test_auto_shard_count_uses_the_cores(self, grid):
        assert resolve_shard_count("auto") == _CPUS
        pts = PointSet(_clustered(grid, 3000, seed=1))
        serial = pb_sym(pts, grid)
        auto = pb_sym(pts, grid, P="auto", backend="threads")
        np.testing.assert_allclose(
            auto.data, serial.data, rtol=1e-12, atol=1e-18
        )
        assert auto.meta["P"] == _CPUS
