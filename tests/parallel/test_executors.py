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

    def test_caller_runs_the_first_ready_task(self):
        """The calling thread is one of the ``P`` workers and takes the
        first ready task: the zero-fill phase's allocating task runs
        where the caller's freed memory is reused."""
        ran_on = {}
        tasks = [
            ExecTask(lambda i=i: ran_on.__setitem__(i, threading.current_thread()))
            for i in range(6)
        ]
        run_threaded(tasks, make_graph(6, [(0, k) for k in range(1, 6)]), P=4)
        assert sorted(ran_on) == list(range(6))
        assert ran_on[0] is threading.current_thread()

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
        """The phase allocates the volume it hands out: all ``+0.0`` bits
        once its ``P`` slab tasks ran (P = 7 > Gt = 5 leaves empty slabs),
        with ``init_writes`` charged once."""
        import numpy as np

        from repro.core import WorkCounter
        from repro.core.grid import flat_view

        c = WorkCounter()
        out, ph = zero_fill_phase((64, 48, 5), P, c)
        assert (ph.name, ph.bound, len(ph.tasks)) == ("init", "memory", P)
        assert out == []  # allocated by the phase, not before it
        run_phases([ph], P, backend, PhaseTimer())
        (vol,) = out
        assert vol.shape == (64, 48, 5)
        assert not flat_view(vol).view(np.uint64).any()
        assert c.init_writes == vol.size


class TestZeroFillBooking:
    def test_allocation_is_booked_inside_init(self, monkeypatch):
        """The volume's allocation (a reused block's ``calloc`` clear)
        runs inside the ``init`` phase: a 30 ms allocation shows in both
        the timer and the reported phase makespan."""
        import numpy as np

        import repro.parallel.executors as executors
        from repro.core import DomainSpec, GridSpec, PointSet
        from repro.parallel.pd import pb_sym_pd_sched

        real = executors.zeros_volume

        def slow_zeros_volume(shape):
            time.sleep(0.03)
            return real(shape)

        monkeypatch.setattr(executors, "zeros_volume", slow_zeros_volume)
        grid = GridSpec(DomainSpec.from_voxels(16, 16, 16), hs=2.0, ht=2.0)
        pts = PointSet(np.random.default_rng(3).uniform(0, 16, size=(40, 3)))
        res = pb_sym_pd_sched(pts, grid, P=4, backend="serial",
                              decomposition=(4, 4, 4))
        assert res.timer.seconds["init"] >= 0.03
        assert res.meta["phase_makespans"]["init"] >= 0.03


def _threads_points(kind, n=300):
    """Uniform, clustered, and two tight clusters far apart in x."""
    import numpy as np

    from repro.core import PointSet

    rng = np.random.default_rng({"uniform": 7, "clustered": 8, "two": 9}[kind])
    span = np.array([32.0, 24.0, 20.0])
    if kind == "uniform":
        coords = rng.uniform(0, span, size=(n, 3))
    elif kind == "clustered":
        centers = rng.uniform(0.2 * span, 0.8 * span, size=(4, 3))
        coords = centers[rng.integers(0, 4, size=n)] + rng.normal(
            0, 0.06, size=(n, 3)) * span
    else:
        coords = np.vstack([rng.normal([6, 6, 6], 1.0, size=(n // 2, 3)),
                            rng.normal([26, 18, 14], 1.0, size=(n // 2, 3))])
    return PointSet(np.clip(coords, 0, span * (1 - 1e-9)))


class TestThreadedPbSym:
    """``pb_sym(P, backend="threads")``: bounding-box shards stamped and
    reduced as three phases of ``run_phases``."""

    @pytest.fixture
    def grid(self):
        from repro.core import DomainSpec, GridSpec

        return GridSpec(DomainSpec.from_voxels(32, 24, 20), hs=2.5, ht=2.1)

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "two"])
    @pytest.mark.parametrize("P", [1, 2, 3, 4, "auto"])
    def test_matches_serial(self, grid, kind, P):
        import numpy as np

        from repro.algorithms import pb_sym

        pts = _threads_points(kind)
        serial = pb_sym(pts, grid)
        threaded = pb_sym(pts, grid, P=P, backend="threads")
        np.testing.assert_allclose(threaded.data, serial.data, rtol=1e-12, atol=1e-18)
        assert threaded.counter.madds == serial.counter.madds
        assert threaded.counter.points_processed == pts.n

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "two"])
    @pytest.mark.parametrize("P", [2, 3, 4])
    def test_accounts_bbox_buffers_and_reduction(self, grid, kind, P):
        from repro.algorithms import pb_sym
        from repro.core.regions import plan_stamp_shards

        pts = _threads_points(kind)
        res = pb_sym(pts, grid, P=P, backend="threads")
        plan = plan_stamp_shards(grid, pts.coords, P)
        c = res.counter
        # One engine batch per shard; each buffer cell is zeroed once and
        # reduced once (the t-slabs partition every buffer).
        assert c.stamp_batches == plan.n_shards == P
        assert c.shard_bbox_cells == c.reduce_adds == plan.buffer_cells
        assert c.init_writes == grid.n_voxels + plan.buffer_cells
        # The whole point of bbox shards: strictly below P full volumes.
        assert c.shard_bbox_cells < P * grid.n_voxels
        assert res.meta["P"] == P and res.meta["backend"] == "threads"
        assert set(res.meta["phase_makespans"]) == {"init", "compute", "reduce"}
        assert res.meta["makespan"] == (
            res.timer.seconds["plan"] + sum(res.meta["phase_makespans"].values()))

    def test_more_threads_than_cores_with_rapid_switching(self, grid):
        """Stress: P = 8 shards and reducers with a 1 us switch interval.
        A lost buffer, a reducer writing outside its t-slab or a task
        reading the volume before the init task allocated it would break
        the match or the one-add-per-buffer-cell count."""
        import sys

        import numpy as np

        from repro.algorithms import pb_sym
        from repro.core.regions import plan_stamp_shards

        pts = _threads_points("uniform", n=600)
        serial = pb_sym(pts, grid)
        plan = plan_stamp_shards(grid, pts.coords, 8)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            for _ in range(3):
                res = pb_sym(pts, grid, P=8, backend="threads")
                np.testing.assert_allclose(
                    res.data, serial.data, rtol=1e-12, atol=1e-18)
                assert res.counter.reduce_adds == plan.buffer_cells
        finally:
            sys.setswitchinterval(old)
        assert time.perf_counter() - t0 < 60.0

    def test_memory_budget_refused_before_any_allocation(self, grid, monkeypatch):
        """The planned footprint (output volume + bbox buffers) is checked
        before the volume or a buffer is allocated."""
        import numpy as np

        import repro.core.regions as regions
        import repro.parallel.executors as executors
        from repro.algorithms import pb_sym
        from repro.core.regions import plan_stamp_shards

        pts = _threads_points("clustered")
        need = grid.grid_bytes + plan_stamp_shards(grid, pts.coords, 4).buffer_bytes
        assert need < 5 * grid.grid_bytes  # bbox shards undercut P+1 volumes
        allocated = []
        for mod, name in ((executors, "zeros_volume"), (regions, "zeroed_volume")):
            real = getattr(mod, name)
            monkeypatch.setattr(
                mod, name,
                lambda shape, real=real: allocated.append(shape) or real(shape))
        with pytest.raises(MemoryBudgetExceeded):
            pb_sym(pts, grid, P=4, backend="threads", memory_budget_bytes=need - 1)
        assert allocated == []
        serial = pb_sym(pts, grid)
        res = pb_sym(pts, grid, P=4, backend="threads", memory_budget_bytes=need)
        np.testing.assert_allclose(res.data, serial.data, rtol=1e-12, atol=1e-18)
        assert len(allocated) == 1 + 4  # the volume, then one buffer per shard

    def test_auto_shard_count(self, grid):
        import os

        import numpy as np

        from repro.algorithms import pb_sym
        from repro.parallel.executors import resolve_shard_count

        assert resolve_shard_count(3) == 3
        auto = resolve_shard_count("auto")
        assert auto >= 1
        if hasattr(os, "sched_getaffinity"):
            assert auto == len(os.sched_getaffinity(0))
        with np.testing.assert_raises(ValueError):
            resolve_shard_count(0)
        with np.testing.assert_raises(ValueError):
            resolve_shard_count("four")
        res = pb_sym(_threads_points("uniform"), grid, P="auto", backend="threads")
        assert res.meta.get("P", 1) == auto

    def test_pb_sym_rejects_unknown_backend(self):
        import numpy as np

        from repro.algorithms import pb_sym
        from repro.core import DomainSpec, GridSpec, PointSet

        grid = GridSpec(DomainSpec.from_voxels(10, 10, 10), hs=2.0, ht=2.0)
        pts = PointSet(np.random.default_rng(0).uniform(0, 10, size=(5, 3)))
        with pytest.raises(ValueError, match="backend"):
            pb_sym(pts, grid, P=4, backend="simulated")
        with pytest.raises(ValueError, match="backend"):
            pb_sym(pts, grid, backend="thread")  # typo must not run serial
