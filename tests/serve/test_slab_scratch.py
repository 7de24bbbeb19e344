"""The ragged gather's reused slab scratch.

``direct_sum`` evaluates every slab in its thread's scratch rows
(``engine._SlabScratch``) through ``query_segment_sums_in_place``, instead
of allocating a dozen slab-sized temporaries per slab.  Pinned here:

* the public ``query_segment_sums`` still writes nothing it is given;
* the answers are the bits a freshly allocated pair list gives through
  that public method, for every slab cap, kernel and weighting;
* threads summing at once get the bits serial calls get;
* a process built like a shard worker stops faulting pages in per call.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import threading

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, WorkCounter
from repro.core.backends import ComputeBackend, available_backends, get_backend
from repro.core.index import BucketIndex
from repro.core.kernels import available_kernels, get_kernel
from repro.serve.engine import direct_sum

from tests.core.test_backends import TestClampForm
from tests.helpers import BOX_KERNEL, CUSTOM_KERNEL, make_clustered_points

BACKENDS = available_backends()
SLAB_PAIRS = (1 << 16, 1 << 10, 7)


@pytest.fixture
def grid():
    return GridSpec(DomainSpec.from_voxels(20, 18, 22), hs=2.9, ht=2.3)


def served(grid, weighted, n=400, m=120, seed=21):
    """An index over clustered events, and ``m`` queries: half uniform,
    half next to events."""
    coords = make_clustered_points(grid, n, seed=seed).coords
    rng = np.random.default_rng(seed + 1)
    w = rng.uniform(0.1, 5.0, size=n) if weighted else None
    d = grid.domain
    uniform = rng.uniform(0.0, 1.0, size=(m // 2, 3)) * [d.gx, d.gy, d.gt]
    near = coords[rng.integers(0, n, m - m // 2)] + rng.normal(
        0.0, 1.0, size=(m - m // 2, 3))
    q = np.vstack([uniform + [d.x0, d.y0, d.t0], near])
    return BucketIndex(grid, coords, w), q


def fresh_pair_sums(index, q, kernel, backend):
    """Raw per-query sums from one freshly allocated pair list of the
    whole batch (``np.repeat`` offsets, fancy-index gathers), reduced by
    the public :meth:`ComputeBackend.query_segment_sums`."""
    starts, lengths = index.window_runs(q)
    K = lengths.sum(axis=1)
    live = np.flatnonzero(K)
    out = np.zeros(len(q))
    if live.size == 0:
        return out
    held = lengths[live] > 0
    s, n = starts[live][held], lengths[live][held]
    first = np.cumsum(n) - n
    cand = np.repeat(s - first, n) + np.arange(n.sum())
    k = K[live]
    offs = [np.repeat(q[live, j], k) - index.coords[cand, j] for j in range(3)]
    w = index.weights[cand] if index.weights is not None else None
    out[live] = get_backend(backend).query_segment_sums(
        index.grid, kernel, *offs, w, np.cumsum(k) - k, WorkCounter()
    )
    return out


class TestPublicSumsWriteNothing:
    """``query_segment_sums`` is public: whatever the backend evaluates in
    place, it is never the caller's offsets or weights."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "kern",
        [get_kernel(k) for k in available_kernels()] + [BOX_KERNEL,
                                                         CUSTOM_KERNEL],
        ids=list(available_kernels()) + ["box", "custom"],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_inputs_untouched(self, grid, backend, kern, weighted):
        rng = np.random.default_rng(29)
        dx, dy, dt = (rng.uniform(-3, 3, size=60) for _ in range(3))
        # ``TestClampForm``'s overflow rows: squares that reach inf.
        dx[::7] = 1e200
        dt[3::11] = -1e200
        w = rng.uniform(0.5, 2.0, size=60) if weighted else None
        before = [a.copy() for a in (dx, dy, dt)] + ([w.copy()] if weighted
                                                      else [])
        get_backend(backend).query_segment_sums(
            grid, kern, dx, dy, dt, w, np.arange(0, 60, 6), WorkCounter()
        )
        after = [dx, dy, dt] + ([w] if weighted else [])
        for got, want in zip(after, before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_place_sums_are_the_public_bits(self, backend):
        """The scratch variant may overwrite its offsets, never the
        weights, and reduces to the public method's bits: on the edges of
        the cylinder and on offsets whose squares overflow."""
        grid = TestClampForm.EXACT
        off, _ = TestClampForm.edge_offsets()
        rng = np.random.default_rng(31)
        dx, dy, dt = (np.concatenate([off[:, j], rng.uniform(-5, 5, 40)])
                      for j in range(3))
        dx[9::7] = 1e200
        dt[11::11] = -1e200
        w = rng.uniform(0.5, 2.0, size=dx.size)
        w0 = w.copy()
        seg = np.arange(0, dx.size, 5)
        for kname in available_kernels():
            kern = get_kernel(kname)
            b = get_backend(backend)
            want = b.query_segment_sums(
                grid, kern, dx, dy, dt, w, seg, WorkCounter())
            got = b.query_segment_sums_in_place(
                grid, kern, dx.copy(), dy.copy(), dt.copy(), w, seg,
                WorkCounter())
            assert np.isfinite(got).all()
            assert np.array_equal(got, want)
            assert np.array_equal(w, w0)


class TestAnswers:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kname", available_kernels())
    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_slab_cap_gives_the_fresh_list_bits(
        self, grid, backend, kname, weighted
    ):
        idx, q = served(grid, weighted)
        kern = get_kernel(kname)
        want = fresh_pair_sums(idx, q, kern, backend)
        assert np.count_nonzero(want) > len(q) // 2
        for slab_pairs in SLAB_PAIRS:
            got = direct_sum(idx, q, kern, 1.0, slab_pairs=slab_pairs,
                             compute=backend)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kname", available_kernels())
    def test_only_clamp_kernels_evaluate_in_place(
        self, grid, monkeypatch, kname
    ):
        """``as_printed`` has no clamp form: each of its slabs takes the
        generic public path (with its overflow fallback), on offsets no
        overflow touches; the clamp kernels never do."""
        calls = []
        public = ComputeBackend.query_segment_sums

        def spy(self, *args):
            calls.append(1)
            return public(self, *args)

        monkeypatch.setattr(ComputeBackend, "query_segment_sums", spy)
        idx, q = served(grid, weighted=False)
        kern = get_kernel(kname)
        c = WorkCounter()
        got = direct_sum(idx, q, kern, 1.0, c, slab_pairs=1 << 10)
        generic = kern.clamp_profile is None
        assert len(calls) == (c.query_cohorts if generic else 0)
        assert c.query_cohorts > 1
        assert np.array_equal(got, fresh_pair_sums(idx, q, kern,
                                                   "numpy-fused"))

    def test_threads_at_once_match_serial(self, grid):
        """The scratch is per thread: four threads summing over one index
        at once (more than the cores; different batches and slab caps, so
        one grows its rows while another evaluates; a short switch
        interval) get the bits of serial calls."""
        idx, q = served(grid, weighted=True, n=600, m=240)
        kern = get_kernel("quartic")
        jobs = [(q[::2], 1 << 10), (q[1::2], 37), (q[::3], 7), (q, 1 << 16)]
        serial = [direct_sum(idx, qq, kern, 1.0, slab_pairs=sp)
                  for qq, sp in jobs]
        start = threading.Barrier(len(jobs))
        got = [[] for _ in jobs]

        def run(i):
            qq, sp = jobs[i]
            start.wait()
            for _ in range(10):
                got[i].append(direct_sum(idx, qq, kern, 1.0, slab_pairs=sp))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for answers, want in zip(got, serial):
            assert len(answers) == 10
            for a in answers:
                assert np.array_equal(a, want)


def _faults_per_call(conn) -> None:
    """Spawned child: a shard worker's ``Shard`` over 40 000 clustered
    static events, answering 3 000-row batches; reports the mean minor
    faults per call after two warm-up calls."""
    import resource

    from repro.serve.shard import Shard

    grid = GridSpec(DomainSpec.from_voxels(96, 96, 64), hs=4.0, ht=3.0)
    events = make_clustered_points(grid, 40_000, k=8, seed=5).coords
    rng = np.random.default_rng(6)
    q = np.vstack([
        rng.uniform(0.01, 0.99, size=(1500, 3)) * [96.0, 96.0, 64.0],
        events[rng.integers(0, len(events), 1500)]
        + rng.normal(0.0, 1.0, size=(1500, 3)),
    ])
    shard = Shard(grid, "epanechnikov")
    shard.load_static(events)
    counter = shard.counter
    for _ in range(2):
        shard.points(q, 1.0)
    calls = 4
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        shard.points(q, 1.0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    conn.send((faults / calls, counter.query_cohorts // (calls + 2)))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are read the Linux way")
def test_a_fresh_worker_process_stops_faulting():
    """A process that has never freed a block larger than a slab temporary
    (a shard worker) used to map and fault in each slab's temporaries
    anew: ~6 000 minor faults per 3 000-row batch.  The scratch is faulted
    in once per thread."""
    ctx = mp.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_faults_per_call, args=(send,))
    proc.start()
    send.close()
    try:
        faults, slabs = recv.recv()
    finally:
        proc.join(60)
    assert proc.exitcode == 0
    assert slabs >= 8  # a batch many slabs long: the case being pinned
    assert faults < 300
