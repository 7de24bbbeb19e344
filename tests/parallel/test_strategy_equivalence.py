"""Every parallel strategy against serial PB-SYM, over drawn inputs.

The strategies differ only in how they group the points — DR by worker
chunk, DD by every block a cylinder meets (each piece clipped to its
block), PD, PD-SCHED and PD-REP by owner block and replica — so whatever
the points (clusters, faces, coincident rows), the decomposition and the
worker count, each computes the PB-SYM volume to the house tolerance with
PB-SYM's multiply-adds.  Only DD re-tabulates invariants: a split
cylinder's disk and bar are evaluated again in every block it meets
(Figure 4), so its kernel evaluations alone may exceed PB-SYM's.
"""

from __future__ import annotations

import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm, parallel_algorithms, pb_sym
from repro.core import DomainSpec, GridSpec, PointSet


@st.composite
def strategy_case(draw):
    grid = GridSpec(
        DomainSpec.from_voxels(
            draw(st.integers(8, 30)), draw(st.integers(8, 30)),
            draw(st.integers(8, 24)),
        ),
        hs=draw(st.floats(0.6, 4.0)),
        ht=draw(st.floats(0.6, 3.0)),
    )
    span = np.array(grid.shape, dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Clusters, from tight (crowded GEMM bins) to loose.
    k, per = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    centres = rng.uniform(0.0, span, (k, 3))
    clustered = (np.repeat(centres, per, axis=0)
                 + rng.normal(0.0, draw(st.floats(0.0, 3.0)), (k * per, 3)))
    # Rows on a face of the domain: clipped stamps and edge blocks.
    m = draw(st.integers(0, 12))
    face = rng.uniform(0.0, span, (m, 3))
    axis = rng.integers(0, 3, m)
    face[np.arange(m), axis] = np.where(rng.random(m) < 0.5, 0.0, span[axis])
    # Coincident rows: one voxel, one cohort, one block.
    coincident = np.tile(rng.uniform(0.0, span, (1, 3)),
                         (draw(st.integers(0, 20)), 1))
    coords = np.clip(np.vstack([clustered, face, coincident]), 0.0,
                     span * (1 - 1e-9))
    decomposition = tuple(draw(st.integers(1, 6)) for _ in range(3))
    return grid, PointSet(coords), decomposition, draw(st.sampled_from([1, 2, 3]))


@given(case=strategy_case())
@settings(max_examples=60, deadline=None)
def test_every_strategy_is_pb_sym(case):
    grid, pts, decomposition, P = case
    ref = pb_sym(pts, grid)
    evals = (ref.counter.spatial_evals, ref.counter.temporal_evals)
    for name in parallel_algorithms():
        algo = get_algorithm(name)
        kw = {"P": P, "backend": "simulated"}
        if "decomposition" in inspect.signature(algo).parameters:
            kw["decomposition"] = decomposition
        res = algo(pts, grid, **kw)
        np.testing.assert_allclose(res.data, ref.data, rtol=1e-12, atol=1e-18,
                                   err_msg=name)
        assert res.counter.madds == ref.counter.madds, name
        if name != "pb-sym-dd":
            c = res.counter
            assert (c.spatial_evals, c.temporal_evals) == evals, name
