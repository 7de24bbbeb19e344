"""Tests for the execution backends (serial / threaded / simulated) and
the one runner that interprets a strategy's phase list on them."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.instrument import PhaseTimer
from repro.parallel.executors import (
    ExecTask,
    MemoryBudgetExceeded,
    Phase,
    check_memory_budget,
    run_phases,
    run_serial,
    run_threaded,
    slab_slices,
    zero_fill_phase,
)
from repro.parallel.schedule import (
    BandwidthModel,
    TaskGraph,
    barrier_schedule,
    list_schedule,
    saturated_makespan,
)


def make_graph(n, edges):
    succs = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    for u, v in edges:
        succs[u].append(v)
        preds[v].append(u)
    return TaskGraph([1.0] * n, succs, preds)


class TestMemoryBudget:
    def test_within_budget_passes(self):
        check_memory_budget(100, 200, "x")

    def test_none_budget_always_passes(self):
        check_memory_budget(10**18, None, "x")

    def test_exceeded_raises_with_sizes(self):
        with pytest.raises(MemoryBudgetExceeded) as ei:
            check_memory_budget(2_000_000, 1_000_000, "DR test")
        assert "DR test" in str(ei.value)
        assert ei.value.needed == 2_000_000
        assert ei.value.budget == 1_000_000


class TestRunSerial:
    def test_executes_all_and_measures(self):
        log = []
        tasks = [ExecTask(lambda i=i: log.append(i)) for i in range(5)]
        total = run_serial(tasks)
        assert sorted(log) == list(range(5))
        assert total >= 0
        assert all(t.measured >= 0 for t in tasks)

    def test_respects_dependencies(self):
        log = []
        tasks = [
            ExecTask(lambda: log.append("a")),
            ExecTask(lambda: log.append("b")),
        ]
        graph = make_graph(2, [(1, 0)])  # task 1 before task 0
        run_serial(tasks, graph)
        assert log.index("b") < log.index("a")


class TestRunThreaded:
    def test_executes_everything(self):
        done = set()
        lock = threading.Lock()

        def work(i):
            with lock:
                done.add(i)

        tasks = [ExecTask(lambda i=i: work(i)) for i in range(20)]
        graph = make_graph(20, [])
        run_threaded(tasks, graph, P=4)
        assert done == set(range(20))

    def test_dependency_order(self):
        order = []
        lock = threading.Lock()

        def work(i):
            with lock:
                order.append(i)

        # Chain 0 -> 1 -> 2 with two stragglers.
        tasks = [ExecTask(lambda i=i: work(i)) for i in range(5)]
        graph = make_graph(5, [(0, 1), (1, 2)])
        run_threaded(tasks, graph, P=3)
        assert order.index(0) < order.index(1) < order.index(2)

    def test_parallel_overlap_happens(self):
        """Two GIL-releasing sleeps on 2 workers take ~1x, not ~2x."""
        tasks = [ExecTask(lambda: time.sleep(0.1)) for _ in range(2)]
        graph = make_graph(2, [])
        t0 = time.perf_counter()
        run_threaded(tasks, graph, P=2)
        assert time.perf_counter() - t0 < 0.19

    def test_worker_failure_propagates(self):
        def boom():
            raise RuntimeError("kaboom")

        tasks = [ExecTask(lambda: None), ExecTask(boom), ExecTask(lambda: None)]
        graph = make_graph(3, [])
        with pytest.raises(RuntimeError, match="kaboom"):
            run_threaded(tasks, graph, P=2)

    def test_rejects_bad_P(self):
        with pytest.raises(ValueError):
            run_threaded([], make_graph(0, []), P=0)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            run_threaded([ExecTask(lambda: None)], make_graph(2, []), P=1)

    def test_priority_order_on_single_worker(self):
        order = []
        tasks = [ExecTask(lambda i=i: order.append(i), weight_hint=w)
                 for i, w in enumerate([1.0, 9.0, 4.0])]
        graph = make_graph(3, [])
        run_threaded(tasks, graph, P=1,
                     priority=lambda v: (-tasks[v].weight_hint, v))
        assert order == [1, 2, 0]


def weighed(weights):
    """Tasks whose measured cost is a literal — no clock involved."""
    return [ExecTask(lambda: None, measured=w) for w in weights]


class TestPhaseSimulate:
    """The replay rule table, on literal weights."""

    W = [5.0, 1.0, 3.0, 2.0, 4.0, 1.0]

    def test_memory_step_saturates(self):
        bw = BandwidthModel(cap=2.5)
        got = Phase("init", weighed(self.W), bound="memory").simulate(4, bw)
        assert got == saturated_makespan(self.W, 4, bw) == 16.0 / 2.5

    def test_classes_are_index_ordered_barriers(self):
        classes = [[0, 1, 2], [3, 4], [5]]
        graph = make_graph(6, [(0, 3), (2, 4), (4, 5)])
        got = Phase("compute", weighed(self.W), graph=graph, classes=classes).simulate(2)
        # Classes win over the graph; index order, not heaviest-first.
        assert got == barrier_schedule([[5.0, 1.0, 3.0], [2.0, 4.0], [1.0]], 2)
        assert got == 5.0 + 4.0 + 1.0

    def test_graph_is_list_scheduled_heaviest_first(self):
        w = [1.0, 1.0, 1.0, 1.0, 6.0]
        graph = make_graph(5, [(0, 1)])
        got = Phase("compute", weighed(w), graph=graph).simulate(2)
        measured = TaskGraph(w, graph.succs, graph.preds)
        want = list_schedule(measured, 2, priority=lambda v: (-w[v], v))
        assert got == want.makespan == 6.0
        assert list_schedule(measured, 2).makespan == 8.0  # id order is worse

    def test_edgeless_step_is_heaviest_first(self):
        got = Phase("compute", weighed(self.W)).simulate(3)
        assert got == barrier_schedule([self.W], 3, lpt=True) == 6.0

    def test_empty_phase(self):
        for ph in (Phase("a", []), Phase("b", [], bound="memory"),
                   Phase("c", [], classes=[])):
            assert ph.simulate(4) == 0.0
            assert ph.run_threaded(4) >= 0.0

    def test_rejects_unknown_bound(self):
        with pytest.raises(ValueError, match="bound"):
            Phase("init", [], bound="disk")


class TestSimulateFromMeasured:
    """The ``simulated`` backend replays the task costs it measured."""

    def test_replays_measured_weights(self):
        ph = Phase("compute", [ExecTask(lambda: time.sleep(0.01)) for _ in range(4)])
        got = run_phases([ph], 4, "simulated", PhaseTimer())["compute"]
        assert got <= sum(t.measured for t in ph.tasks)
        assert got >= max(t.measured for t in ph.tasks) - 1e-9

    def test_chain_cannot_beat_critical_path(self):
        ph = Phase(
            "compute", [ExecTask(lambda: time.sleep(0.005)) for _ in range(3)],
            graph=make_graph(3, [(0, 1), (1, 2)]),
        )
        got = run_phases([ph], 8, "simulated", PhaseTimer())["compute"]
        assert got == pytest.approx(sum(t.measured for t in ph.tasks), rel=1e-6)


class TestRunPhases:
    def _chain_and_classes(self, log):
        lock = threading.Lock()

        def work(tag):
            def fn():
                time.sleep(0.002)
                with lock:
                    log.append(tag)
            return fn

        chain = Phase(
            "chain", [ExecTask(work(("chain", i))) for i in range(4)],
            graph=make_graph(4, [(3, 2), (2, 1), (1, 0)]),
        )
        barrier = Phase(
            "barrier", [ExecTask(work(("barrier", i))) for i in range(6)],
            classes=[[4, 5], [0, 1, 2], [3]],
        )
        return [chain, barrier]

    @pytest.mark.parametrize("backend", ["serial", "simulated", "threads"])
    def test_phases_barriers_and_edges_are_honoured(self, backend):
        log = []
        timer = PhaseTimer()
        seconds = run_phases(self._chain_and_classes(log), 4, backend, timer)
        assert list(seconds) == list(timer.seconds) == ["chain", "barrier"]
        assert log[:4] == [("chain", 3), ("chain", 2), ("chain", 1), ("chain", 0)]
        rest = [i for _, i in log[4:]]
        assert sorted(rest) == list(range(6))
        if backend == "threads":  # class after class, any order within one
            assert set(rest[:2]) == {4, 5} and set(rest[2:5]) == {0, 1, 2}
            assert rest[5] == 3

    def test_serial_reports_the_plain_sum(self):
        phases = self._chain_and_classes([])
        seconds = run_phases(phases, 4, "serial", PhaseTimer())
        for ph in phases:
            assert seconds[ph.name] == pytest.approx(sum(t.measured for t in ph.tasks))

    def test_simulated_replays_the_one_execution(self):
        phases = self._chain_and_classes([])
        seconds = run_phases(phases, 4, "simulated", PhaseTimer())
        assert seconds == {ph.name: ph.simulate(4) for ph in phases}
        assert seconds["barrier"] < sum(t.measured for t in phases[1].tasks)

    def test_bandwidth_reaches_memory_phases(self):
        ph = Phase("init", [ExecTask(lambda: time.sleep(0.002)) for _ in range(4)],
                   bound="memory")
        got = run_phases([ph], 4, "simulated", PhaseTimer(), BandwidthModel(cap=2.0))
        total = sum(t.measured for t in ph.tasks)
        assert got["init"] == pytest.approx(max(total / 2.0, max(t.measured for t in ph.tasks)))

    @pytest.mark.parametrize("backend", ["serial", "simulated", "threads"])
    def test_task_failure_propagates(self, backend):
        def boom():
            raise RuntimeError("kaboom")

        ph = Phase("compute", [ExecTask(lambda: None), ExecTask(boom)])
        with pytest.raises(RuntimeError, match="kaboom"):
            run_phases([ph], 4, backend, PhaseTimer())

    def test_unknown_backend_raises_before_any_task(self):
        ran = []
        timer = PhaseTimer()
        with pytest.raises(ValueError, match="backend"):
            run_phases([Phase("p", [ExecTask(lambda: ran.append(1))])], 2, "quantum", timer)
        assert not ran and not timer.seconds


class TestSharedPieces:
    def test_slab_slices_partition_the_range(self):
        for n, P in [(10, 3), (3, 8), (0, 2), (7, 1)]:
            sl = slab_slices(n, P)
            assert len(sl) == P
            assert [i for s in sl for i in range(s.start, s.stop)] == list(range(n))
            assert max(s.stop - s.start for s in sl) - min(s.stop - s.start for s in sl) <= 1

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("P", [1, 3, 7])
    def test_zero_fill_phase_returns_a_zeroed_volume(self, backend, P):
        """The phase allocates the volume it returns: all ``+0.0`` bits
        once its ``P`` slab tasks ran (P = 7 > Gt = 5 leaves empty slabs),
        with ``init_writes`` charged once."""
        import numpy as np

        from repro.core import WorkCounter
        from repro.core.grid import flat_view

        c = WorkCounter()
        vol, ph = zero_fill_phase((64, 48, 5), P, c)
        assert (ph.name, ph.bound, len(ph.tasks)) == ("init", "memory", P)
        assert vol.shape == (64, 48, 5)
        run_phases([ph], P, backend, PhaseTimer())
        assert not flat_view(vol).view(np.uint64).any()
        assert c.init_writes == vol.size


class TestRunThreadedStamping:
    """The batched engine's sharded threads path (private volumes + merge)."""

    def _setup(self, n=120):
        import numpy as np

        from repro.core import DomainSpec, GridSpec, WorkCounter
        from repro.core.kernels import get_kernel

        grid = GridSpec(DomainSpec.from_voxels(18, 16, 20), hs=2.5, ht=2.1)
        rng = np.random.default_rng(7)
        coords = rng.uniform([0, 0, 0], [18, 16, 20], size=(n, 3))
        return np, grid, get_kernel("epanechnikov"), coords, WorkCounter

    def test_matches_serial_engine(self):
        import numpy as np

        from repro.core.stamping import stamp_batch
        from repro.parallel.executors import run_threaded_stamping

        np_, grid, kern, coords, WC = self._setup()
        serial = np.zeros(grid.shape)
        stamp_batch(serial, grid, kern, coords, 1.0, WC())
        for P in (1, 2, 4):
            vol = np.zeros(grid.shape)
            wall = run_threaded_stamping(vol, grid, kern, coords, 1.0, WC(), P)
            np.testing.assert_allclose(vol, serial, rtol=1e-12, atol=1e-18)
            assert wall >= 0

    def test_accounts_bbox_buffers_and_reduction(self):
        import numpy as np

        from repro.core.regions import plan_stamp_shards
        from repro.parallel.executors import run_threaded_stamping

        np_, grid, kern, coords, WC = self._setup()
        c = WC()
        vol = np.zeros(grid.shape)
        P = 3
        run_threaded_stamping(vol, grid, kern, coords, 1.0, c, P)
        plan = plan_stamp_shards(grid, coords, P)
        # Buffer zeroing is charged per bbox cell (and mirrored in the
        # shard_bbox_cells gauge); the slab reduction touches every buffer
        # cell exactly once.
        assert c.shard_bbox_cells == plan.buffer_cells
        assert c.init_writes == plan.buffer_cells
        assert c.reduce_adds == plan.buffer_cells
        assert c.stamp_batches == plan.n_shards == P
        # The whole point of bbox shards: strictly below P full volumes.
        assert c.shard_bbox_cells < P * grid.n_voxels

    def test_memory_budget_from_planned_buffers(self):
        import numpy as np
        import pytest as _pytest

        from repro.core.regions import plan_stamp_shards
        from repro.parallel.executors import (
            MemoryBudgetExceeded,
            run_threaded_stamping,
        )

        np_, grid, kern, coords, WC = self._setup()
        vol = np.zeros(grid.shape)
        plan = plan_stamp_shards(grid, coords, 3)
        need = vol.nbytes + plan.buffer_bytes
        with _pytest.raises(MemoryBudgetExceeded):
            run_threaded_stamping(
                vol, grid, kern, coords, 1.0, WC(), 3,
                memory_budget_bytes=need - 1,
            )
        assert not vol.any()  # refused before stamping anything
        run_threaded_stamping(
            vol, grid, kern, coords, 1.0, WC(), 3, memory_budget_bytes=need
        )
        assert vol.any()

    def test_auto_shard_count(self):
        import os

        import numpy as np

        from repro.core.stamping import stamp_batch
        from repro.parallel.executors import (
            resolve_shard_count,
            run_threaded_stamping,
        )

        assert resolve_shard_count(3) == 3
        auto = resolve_shard_count("auto")
        assert auto >= 1
        if hasattr(os, "sched_getaffinity"):
            assert auto == len(os.sched_getaffinity(0))
        with np.testing.assert_raises(ValueError):
            resolve_shard_count(0)
        with np.testing.assert_raises(ValueError):
            resolve_shard_count("four")

        np_, grid, kern, coords, WC = self._setup()
        serial = np.zeros(grid.shape)
        stamp_batch(serial, grid, kern, coords, 1.0, WC())
        vol = np.zeros(grid.shape)
        run_threaded_stamping(vol, grid, kern, coords, 1.0, WC(), "auto")
        np.testing.assert_allclose(vol, serial, rtol=1e-12, atol=1e-18)

    def test_clip_respected(self):
        import numpy as np

        from repro.core import VoxelWindow
        from repro.core.stamping import stamp_batch
        from repro.parallel.executors import run_threaded_stamping

        np_, grid, kern, coords, WC = self._setup()
        clip = VoxelWindow(3, 12, 2, 11, 4, 16)
        serial = np.zeros(grid.shape)
        stamp_batch(serial, grid, kern, coords, 1.0, WC(), clip=clip)
        vol = np.zeros(grid.shape)
        run_threaded_stamping(vol, grid, kern, coords, 1.0, WC(), 2, clip=clip)
        np.testing.assert_allclose(vol, serial, rtol=1e-12, atol=1e-18)
        mask = np.ones(grid.shape, dtype=bool)
        mask[clip.slices()] = False
        assert not vol[mask].any()

    def test_empty_batch(self):
        import numpy as np

        from repro.parallel.executors import run_threaded_stamping

        np_, grid, kern, _, WC = self._setup()
        vol = np.zeros(grid.shape)
        wall = run_threaded_stamping(vol, grid, kern, np.empty((0, 3)), 1.0, WC(), 4)
        assert wall == 0.0 and not vol.any()

    def test_pb_sym_threads_backend_matches_serial(self):
        import numpy as np

        from repro.algorithms import pb_sym
        from repro.core import DomainSpec, GridSpec, PointSet

        grid = GridSpec(DomainSpec.from_voxels(18, 16, 20), hs=2.5, ht=2.1)
        rng = np.random.default_rng(11)
        pts = PointSet(rng.uniform([0, 0, 0], [18, 16, 20], size=(90, 3)))
        serial = pb_sym(pts, grid)
        threaded = pb_sym(pts, grid, P=4, backend="threads")
        np.testing.assert_allclose(threaded.data, serial.data, rtol=1e-12, atol=1e-18)
        assert threaded.meta["P"] == 4
        assert threaded.meta["backend"] == "threads"
        assert threaded.counter.points_processed == pts.n

    def test_pb_sym_rejects_unknown_backend(self):
        import numpy as np
        import pytest as _pytest

        from repro.algorithms import pb_sym
        from repro.core import DomainSpec, GridSpec, PointSet

        grid = GridSpec(DomainSpec.from_voxels(10, 10, 10), hs=2.0, ht=2.0)
        pts = PointSet(np.random.default_rng(0).uniform(0, 10, size=(5, 3)))
        with _pytest.raises(ValueError, match="backend"):
            pb_sym(pts, grid, P=4, backend="simulated")
        with _pytest.raises(ValueError, match="backend"):
            pb_sym(pts, grid, backend="thread")  # typo must not run serial

    def test_pb_sym_threads_respects_memory_budget(self):
        import numpy as np
        import pytest as _pytest

        from repro.algorithms import pb_sym
        from repro.core import DomainSpec, GridSpec, PointSet
        from repro.parallel.executors import MemoryBudgetExceeded

        grid = GridSpec(DomainSpec.from_voxels(12, 12, 12), hs=2.0, ht=2.0)
        pts = PointSet(np.random.default_rng(1).uniform(0, 12, size=(20, 3)))
        # The budget is checked against the *planned* footprint: the output
        # volume plus the bbox shard buffers (not P+1 full volumes).
        from repro.core.regions import plan_stamp_shards

        need = grid.grid_bytes + plan_stamp_shards(grid, pts.coords, 4).buffer_bytes
        assert need < 5 * grid.grid_bytes  # bbox shards undercut P+1 volumes
        with _pytest.raises(MemoryBudgetExceeded):
            pb_sym(pts, grid, P=4, backend="threads",
                   memory_budget_bytes=need - 1)
        # A budget covering the planned buffers runs fine and matches serial.
        serial = pb_sym(pts, grid)
        res = pb_sym(pts, grid, P=4, backend="threads",
                     memory_budget_bytes=need)
        np.testing.assert_allclose(res.data, serial.data, rtol=1e-12, atol=1e-18)


class TestPerShardMerge:
    """Disjoint shard boxes merge per shard, not per slab (PR-2 follow-on)."""

    def _two_cluster_setup(self):
        import numpy as np

        from repro.core import DomainSpec, GridSpec, WorkCounter
        from repro.core.kernels import get_kernel

        grid = GridSpec(DomainSpec.from_voxels(96, 64, 48), hs=3.0, ht=2.0)
        rng = np.random.default_rng(21)
        coords = np.vstack([
            rng.normal([20, 20, 20], 1.5, size=(300, 3)),
            rng.normal([76, 44, 38], 1.5, size=(300, 3)),
        ])
        return np, grid, get_kernel("epanechnikov"), coords, WorkCounter

    def test_cluster_shards_are_disjoint(self):
        from repro.core.regions import plan_stamp_shards
        from repro.parallel.executors import _windows_pairwise_disjoint

        np, grid, kern, coords, WC = self._two_cluster_setup()
        plan = plan_stamp_shards(grid, coords, 2)
        assert plan.n_shards == 2
        assert _windows_pairwise_disjoint(plan.windows)

    def test_disjoint_merge_matches_serial(self):
        from repro.core.stamping import stamp_batch
        from repro.parallel.executors import run_threaded_stamping

        np, grid, kern, coords, WC = self._two_cluster_setup()
        serial = np.zeros(grid.shape)
        stamp_batch(serial, grid, kern, coords, 1.0, WC())
        for P in (2, 4):
            vol = np.zeros(grid.shape)
            run_threaded_stamping(vol, grid, kern, coords, 1.0, WC(), P)
            np.testing.assert_allclose(vol, serial, rtol=1e-12, atol=1e-18)

    def test_disjoint_merge_accounting_unchanged(self):
        """Each buffer cell reduces exactly once on either merge path."""
        from repro.core.regions import plan_stamp_shards
        from repro.parallel.executors import run_threaded_stamping

        np, grid, kern, coords, WC = self._two_cluster_setup()
        c = WC()
        run_threaded_stamping(np.zeros(grid.shape), grid, kern, coords, 1.0, c, 2)
        plan = plan_stamp_shards(grid, coords, 2)
        assert c.reduce_adds == plan.buffer_cells
        assert c.init_writes == plan.buffer_cells

    def test_overlapping_shards_still_slab_merge(self):
        """Uniform data has no gaps: the slab path remains and is exact."""
        import numpy as np

        from repro.core import DomainSpec, GridSpec, WorkCounter
        from repro.core.kernels import get_kernel
        from repro.core.regions import plan_stamp_shards
        from repro.core.stamping import stamp_batch
        from repro.parallel.executors import (
            _windows_pairwise_disjoint,
            run_threaded_stamping,
        )

        grid = GridSpec(DomainSpec.from_voxels(32, 24, 20), hs=2.5, ht=2.0)
        coords = np.random.default_rng(22).uniform(
            0, [32, 24, 20], size=(400, 3)
        )
        plan = plan_stamp_shards(grid, coords, 4)
        assert not _windows_pairwise_disjoint(plan.windows)
        serial = np.zeros(grid.shape)
        stamp_batch(serial, grid, kern := get_kernel("epanechnikov"),
                    coords, 1.0, WorkCounter())
        vol = np.zeros(grid.shape)
        c = WorkCounter()
        run_threaded_stamping(vol, grid, kern, coords, 1.0, c, 4)
        np.testing.assert_allclose(vol, serial, rtol=1e-12, atol=1e-18)
        assert c.reduce_adds == plan.buffer_cells
