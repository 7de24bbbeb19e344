"""Serving-side calibration of the machine model's query unit costs.

:meth:`repro.analysis.model.MachineModel.calibrate` probes the *write*
paths (stamping); the serving layer's unit costs are probed here,
next to the code they measure, so the analysis package never reaches up
into ``repro.serve``:

``c_lookup``
    Seconds per trilinear volume sample: slope of
    :func:`~repro.serve.engine.sample_volume` over two batch sizes.
``c_qpair``
    Seconds of :func:`~repro.serve.engine.direct_sum` per *box
    candidate* — per event of a query's 27-cell neighbourhood, which is
    what :meth:`BucketIndex.candidate_counts` counts and the planner
    multiplies by: slope between a small and a large batch over a dense
    index, per extra box candidate.  The engine pairs a query only with
    the candidates inside its time window (about two thirds of the box
    for events uniform in t), so a fresh calibration already carries that
    saving; a machine model recorded before the window cut (the pinned
    ``perfbench/machine.json``) over-prices ``direct`` by the same factor
    on every plan.
``c_qcohort``
    Seconds per ragged slab dispatch of the direct-sum engine
    (:func:`~repro.serve.engine.direct_sum`): the same batch — same
    pairs, same gathers — cut into many small slabs against few large
    ones, per extra slab (counted by ``WorkCounter.query_cohorts``).
``c_qprobe``
    Seconds per (query x segment) run probe — each query's own 18 window
    needles searched in one more segment's keys: slope of the direct-sum
    engine between a single-segment and a many-segment index over the
    same batch — what pricing an *incremental* index costs per extra
    live batch segment.
``c_qsample``
    Seconds per candidate row drawn by the approximate backend
    (:func:`~repro.serve.engine.approx_sum`): slope of the sampler over
    two pinned draw counts on a dense fixture, per drawn row (the row
    counts come from the sampler's own :class:`WorkCounter` tallies).
``c_qbound``
    Seconds per (query x run) contribution bound: slope of the sampler
    between a single-segment and a many-segment index at a fixed draw
    count — the sampling distribution's O(runs) setup per extra segment.

The sharded serving tier adds two process-boundary rates, probed by
:func:`calibrate_ipc`:

``c_msg``
    Seconds of fixed cost per coordinator/worker message (pickle
    framing plus the pipe syscall): the intercept of a payload-size
    sweep over a :func:`multiprocessing.Pipe` — what
    :meth:`~repro.analysis.model.CostModel.predict_scatter_gather`
    charges twice per contacted shard.
``c_qser``
    Seconds per ``(x, y, t)`` row serialized across the boundary: the
    slope of the same sweep — what every scattered query row and
    gathered partial pays on top of ``c_msg``.

Every probe runs on the process's default compute backend
(:data:`repro.core.backends.DEFAULT_BACKEND`) — the one the services run
unless pinned — so each rate has one meaning and one probe.

:class:`~repro.serve.service.DensityService` runs this lazily the first
time its planner is needed; callers with a pre-calibrated write-side
model pass it in to extend rather than re-probe.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp
import os
import time
from typing import Optional, Tuple

import numpy as np

from ..analysis.model import MachineModel
from ..core.grid import DomainSpec, GridSpec
from ..core.index import BucketIndex
from ..core.instrument import WorkCounter
from ..core.kernels import get_kernel
from .engine import approx_sum, direct_sum, sample_volume

__all__ = [
    "calibrate_serving",
    "calibrate_ipc",
    "resolve_machine_model",
]

#: Environment variable naming a persisted calibration file
#: (:meth:`MachineModel.to_json`); honoured by
#: :func:`resolve_machine_model` and the CLI's ``--calibration-file``.
CALIBRATION_ENV = "REPRO_CALIBRATION"


def resolve_machine_model(
    path: Optional[str] = None, *, seed: int = 0
) -> MachineModel:
    """A serving-calibrated machine model, persisted when a path is known.

    Resolution order: an explicit ``path`` argument, then the
    ``REPRO_CALIBRATION`` environment variable.  When the resolved file
    exists it is loaded verbatim (no probes run — deterministic startup);
    otherwise :func:`calibrate_serving` probes this machine and, if a
    path was named, writes the result there so the next process skips
    the probes.  With no path at all this is just ``calibrate_serving``.
    """
    target = path if path is not None else os.environ.get(CALIBRATION_ENV)
    if target and os.path.exists(target):
        return MachineModel.load(target)
    machine = calibrate_serving(seed=seed)
    if target:
        machine.save(target)
    return machine


def calibrate_ipc(
    machine: Optional[MachineModel] = None, seed: int = 0
) -> MachineModel:
    """Fill the process-boundary rates ``c_msg`` / ``c_qser`` (~0.02 s).

    Times pickled ``(m, 3)`` float payloads through a same-process
    :func:`multiprocessing.Pipe` (both payloads stay well under the pipe
    buffer, so a send/recv pair measures serialization plus the syscall,
    never blocking): the slope over two sizes is the per-row rate, the
    small-payload residual the fixed per-message cost.  A same-process
    probe is a deterministic lower bound on the cross-process cost —
    exactly the bias a planner comparing *against* single-process
    serving should have.

    Starts from ``machine`` (or a fresh :meth:`MachineModel.calibrate`);
    other fields pass through untouched.
    """
    machine = machine if machine is not None else MachineModel.calibrate(seed)
    a, b = mp.Pipe()
    try:
        def roundtrip(rows: int) -> float:
            payload = np.zeros((rows, 3), dtype=np.float64)
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                a.send(payload)
                b.recv()
                best = min(best, time.perf_counter() - t0)
            return best

        roundtrip(8)  # warm the pickling path
        m_small, m_large = 16, 2048  # 2048 * 24 B < the 64 KiB pipe buffer
        t_small = roundtrip(m_small)
        t_large = roundtrip(m_large)
        c_qser = max((t_large - t_small) / (m_large - m_small), 1e-12)
        c_msg = max(t_small - m_small * c_qser, 1e-9)
    finally:
        a.close()
        b.close()
    return dataclasses.replace(machine, c_msg=c_msg, c_qser=c_qser)


def calibrate_serving(
    machine: Optional[MachineModel] = None, seed: int = 0
) -> MachineModel:
    """A machine model with the query unit costs probed (~0.1 s).

    Starts from ``machine`` (or a fresh write-side
    :meth:`MachineModel.calibrate`) and fills ``c_lookup`` / ``c_qpair``
    / ``c_qcohort`` / ``c_qprobe`` / ``c_qsample`` / ``c_qbound`` from
    micro-probes of the actual serving code paths; every other field
    passes through untouched.
    """
    machine = machine if machine is not None else MachineModel.calibrate(seed)
    rng = np.random.default_rng(seed)

    # Trilinear lookup rate: two batch sizes, slope = per-query cost.
    g_tile = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=4.0, ht=4.0)
    vol = rng.random(g_tile.shape)
    span = np.array([g_tile.domain.gx, g_tile.domain.gy, g_tile.domain.gt])

    def lookup_probe(n_q: int) -> float:
        qs = rng.uniform(0, span, size=(n_q, 3))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            sample_volume(vol, g_tile, qs)
            best = min(best, time.perf_counter() - t0)
        return best

    lookup_probe(8)  # warm the sampling code path
    q_small, q_large = 256, 4096
    t_lk_small = lookup_probe(q_small)
    t_lk_large = lookup_probe(q_large)
    c_lookup = max((t_lk_large - t_lk_small) / (q_large - q_small), 1e-12)

    # Direct-sum dispatch rates: scattered batches over a shared index.
    g_q = GridSpec(DomainSpec.from_voxels(64, 64, 64), hs=4.0, ht=4.0)
    q_span = np.array([g_q.domain.gx, g_q.domain.gy, g_q.domain.gt])
    events = rng.uniform(0, q_span, size=(2048, 3))
    idx = BucketIndex(g_q, events)
    kern = get_kernel("epanechnikov")
    qs = rng.uniform(0, q_span, size=(512, 3))

    def slab_probe(slab_pairs: int) -> Tuple[float, int]:
        """One batch under a slab cap: best seconds, slab dispatches."""
        best = math.inf
        for _ in range(3):
            c = WorkCounter()
            t0 = time.perf_counter()
            direct_sum(idx, qs, kern, 1.0, c, slab_pairs=slab_pairs)
            best = min(best, time.perf_counter() - t0)
        return best, c.query_cohorts

    slab_probe(1 << 8)  # warm
    t_many, n_many = slab_probe(1 << 8)
    t_few, n_few = slab_probe(1 << 16)
    c_qcohort = max((t_many - t_few) / max(n_many - n_few, 1), 1e-13)

    # Per-(query x segment) probe cost: same batch, same events, the
    # index split into many per-batch segments vs one — the incremental
    # index's marginal cost per live segment.
    n_segs = 8
    idx_multi = BucketIndex(g_q)
    for s in range(n_segs):
        idx_multi.add_segment(s, events[s::n_segs])

    def direct_probe(index: BucketIndex, qs_probe: np.ndarray) -> float:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            direct_sum(index, qs_probe, kern, 1.0)
            best = min(best, time.perf_counter() - t0)
        return best

    direct_probe(idx_multi, qs)  # warm the multi-segment gather shape
    t_multi = direct_probe(idx_multi, qs)
    t_single = direct_probe(idx, qs)
    c_qprobe = max(
        (t_multi - t_single) / max(len(qs) * (n_segs - 1), 1), 1e-12
    )

    # Approximate-tier rates.  A dense fixture — wide bandwidth, queries
    # in the central cell so every one sees the full 27-cell candidate
    # set — keeps the sampler in its sampling regime (no exact
    # fallbacks), and a slack eps with a pinned ``min_sample`` makes the
    # draw count deterministic (one round, immediate convergence): the
    # slope over two pinned sizes is the pure per-drawn-row rate, free of
    # stop-rule noise.  The per-bound rate is the slope between a single-
    # and a many-segment index at a fixed draw count — the sampling
    # distribution's setup cost per extra run.
    g_dense = GridSpec(DomainSpec.from_voxels(48, 48, 48), hs=16.0, ht=16.0)
    dense_events = rng.uniform(0, 48.0, size=(4096, 3))
    idx_dense = BucketIndex(g_dense, dense_events)
    idx_dense_multi = BucketIndex(g_dense)
    for s in range(n_segs):
        idx_dense_multi.add_segment(s, dense_events[s::n_segs])

    def approx_probe(
        index: BucketIndex, qs_probe: np.ndarray, min_sample: int
    ) -> Tuple[float, WorkCounter]:
        best = math.inf
        for _ in range(3):
            c = WorkCounter()
            t0 = time.perf_counter()
            approx_sum(index, qs_probe, kern, 1.0, c, eps=1e6, seed=seed,
                       min_sample=min_sample)
            best = min(best, time.perf_counter() - t0)
        return best, c

    qs_sample = rng.uniform(16.0, 32.0, size=(128, 3))
    qs_bound = rng.uniform(16.0, 32.0, size=(1024, 3))
    approx_probe(idx_dense, qs_sample, 64)  # warm the sampler code path
    t_s_small, st_s_small = approx_probe(idx_dense, qs_sample, 256)
    t_s_large, st_s_large = approx_probe(idx_dense, qs_sample, 2048)
    d_rows = st_s_large.sample_rows_drawn - st_s_small.sample_rows_drawn
    c_qsample = max((t_s_large - t_s_small) / max(d_rows, 1), 1e-12)
    t_b_one, st_b_one = approx_probe(idx_dense, qs_bound, 64)
    t_b_multi, st_b_multi = approx_probe(idx_dense_multi, qs_bound, 64)
    d_bounds = (st_b_multi.sample_bounds_evaluated
                - st_b_one.sample_bounds_evaluated)
    c_qbound = max((t_b_multi - t_b_one) / max(d_bounds, 1), 1e-12)

    # Per-pair rate of the direct sum: two batch sizes over the dense
    # fixture, slope per extra (query, candidate) pair.
    qs_pair_small = rng.uniform(16.0, 32.0, size=(32, 3))
    qs_pair_large = rng.uniform(16.0, 32.0, size=(256, 3))
    direct_probe(idx_dense, qs_pair_small[:4])  # warm the dense shape
    t_p_small = direct_probe(idx_dense, qs_pair_small)
    t_p_large = direct_probe(idx_dense, qs_pair_large)
    d_pairs = int(
        idx_dense.candidate_counts(qs_pair_large).sum()
        - idx_dense.candidate_counts(qs_pair_small).sum()
    )
    c_qpair = max((t_p_large - t_p_small) / max(d_pairs, 1), 1e-13)

    return dataclasses.replace(
        machine, c_lookup=c_lookup, c_qpair=c_qpair, c_qcohort=c_qcohort,
        c_qprobe=c_qprobe, c_qsample=c_qsample, c_qbound=c_qbound,
    )
