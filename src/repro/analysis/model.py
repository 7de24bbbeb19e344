"""Parametric execution model and strategy selector (Section 6.5).

The paper closes its evaluation with: *"What we need to do is to develop a
parametric model for the problem that will take into account memory
availability, cost of memory initialization, expected cost of computing
the kernel density.  Using that model finding the best execution strategy
becomes a combinatorial problem."*  This module implements that model.

A :class:`MachineModel` holds a handful of calibrated unit costs (memory
write rate, per-point dispatch overhead, per-cell stamping rate, the fixed
per-batch cost of one stamping-engine invocation, the DRAM-saturation
cap).  Calibration runs through the **batched stamping engine** — the same
code path the algorithms execute — so the model prices batched evaluation
natively: a strategy that splits the points into many small per-block
batches (DD/PD with fine decompositions) is charged one ``c_batch`` per
block on top of the amortised per-point cost, which is exactly the
dispatch overhead the engine's cohort batching removed from the interior
of each batch.  A :class:`CostModel` combines them with an
instance's geometry to predict the runtime of every strategy and
configuration — reusing the *same* scheduling machinery (binning,
colouring, critical paths, list scheduling) the real algorithms use, only
with analytic task weights instead of measured ones.  The selector then
answers the combinatorial question: *which strategy, at which
decomposition, for this instance, this machine, this P?* — subject to the
memory budget, which is what rules DR out on sparse-huge instances.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.backends import DEFAULT_BACKEND
from ..core.grid import GridSpec, PointSet
from ..core.instrument import WorkCounter
from ..core.invariants import stamp_cells
from ..core.kernels import get_kernel
from ..core.stamping import batch_windows, stamp_batch
from ..parallel.color import block_task_graph
from ..parallel.partition import BlockDecomposition, PointBinning
from ..parallel.schedule import BandwidthModel, TaskGraph, barrier_schedule, list_schedule
from ..parallel.rep import plan_replication

__all__ = [
    "MachineModel",
    "CostModel",
    "Prediction",
    "select_strategy",
]


@dataclass(frozen=True)
class MachineModel:
    """Calibrated unit costs of the executing machine.

    Attributes
    ----------
    c_mem:
        Seconds per voxel of streaming memory write (init / reduce),
        calibrated on a *warm* write to pages already faulted in.  A cold
        init, whose pages fault as it zeroes them, costs several times
        more per voxel.
    c_point:
        Per-point cost of batched stamping beyond the per-cell arithmetic
        (window math, cohort bookkeeping, scatter indexing) — the residue
        of the dispatch cost the engine amortises across a batch.
    c_cell:
        Seconds per stamped cell (disk cell, bar cell, or cylinder
        multiply-add — one blended rate).
    c_batch:
        Fixed cost of one stamping-engine invocation (window derivation,
        cohort grouping, slab setup), paid once per batch regardless of
        size.  This is what penalises very fine decompositions: every
        occupied block is one batch.
    bandwidth_cap:
        Effective parallelism of memory-bound phases (Section 6.3: ~3).
    c_lookup:
        Seconds per trilinear volume sample
        (:func:`repro.serve.engine.sample_volume`) — the per-query unit
        cost of the serving layer's volume-lookup backend (eight gathered
        reads plus the blend).
    c_qpair:
        Seconds per (query, candidate) pair of the direct-sum engine
        (:func:`repro.serve.engine.direct_sum`: three column gathers,
        the masked kernel product, the segment sum) — like every ``c_q*``
        rate, probed by :func:`repro.serve.calibrate.calibrate_serving`
        on the process's default backend.
    c_qcohort:
        Fixed cost of one ragged slab dispatch of the direct-sum engine
        (:func:`repro.serve.engine.direct_sum`): one flat (query,
        candidate) pair list of at most 2**16 pairs — its run flatten,
        column gathers, tabulation dispatch and segment sum.  A batch
        pays ``ceil(pairs / 2**16)`` of them whatever its cells look
        like — the read-side analogue of ``c_batch``.  Persisted
        calibrations carry the key, hence the historical name.
    c_qprobe:
        Cost of probing one more index segment for one query's candidate
        runs (its 18 window needles in one vectorised ``searchsorted``
        into the segment's sorted keys).  Charged ``queries * segments``
        per batch — the way it is probed and paid: the price of keeping
        the index incremental as per-batch segments rather than one
        monolith.
    c_msg:
        Fixed cost of one coordinator-to-worker message round-trip over a
        ``multiprocessing`` pipe (header pickle, syscalls, wakeup) — the
        per-shard dispatch constant of scatter/gather serving, probed by
        :func:`repro.serve.calibrate.calibrate_serving`.
    c_qser:
        Seconds per float64 row serialized across the process boundary
        (pickle + pipe transfer, both directions averaged) — the
        per-row marginal cost a scattered query batch and its gathered
        partials pay on top of ``c_msg``.
    c_qsample:
        Seconds per candidate row drawn and evaluated by the approximate
        backend (:func:`repro.serve.engine.approx_sum`): weighted run
        draw, uniform row pick, gather, masked tabulation and the
        estimator update, amortised over the sample.  Probed by
        :func:`repro.serve.calibrate.calibrate_serving`.
    c_qbound:
        Seconds per (query x candidate run) contribution bound the
        approximate backend prices its sampling distribution with —
        charged ``9 * segments`` per query, the O(runs) fixed cost the
        sampler pays before any draw.
    """

    c_mem: float
    c_point: float
    c_cell: float
    c_batch: float = 0.0
    bandwidth_cap: float = 3.0
    c_lookup: float = 0.0
    c_qpair: float = 0.0
    c_qcohort: float = 0.0
    c_qprobe: float = 0.0
    c_msg: float = 0.0
    c_qser: float = 0.0
    c_qsample: float = 0.0
    c_qbound: float = 0.0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize every unit cost."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MachineModel":
        """Rebuild from :meth:`to_json` output.

        Tolerant of missing fields (older files predate newer unit
        costs — they fall back to the field defaults) and of unknown
        keys (newer files on older code), so persisted calibrations
        survive schema drift in both directions.

        Two legacy keys are still read.  Files written before ``c_qpair``
        existed carry the query-path rates per compute backend under
        ``backend_costs``: the default backend's entry there overwrites
        the scalars (its ``c_pair`` is the query pair rate, so it lands
        in ``c_qpair``); the rest of the object is dropped and
        :meth:`to_json` never writes it again.  A file that still has no
        positive ``c_qpair`` after that prices query pairs at its
        top-level ``c_pair`` (the retired voxel-tile rate, which direct
        sums fell back to while ``c_qpair`` was unprobed).
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("calibration JSON must be an object")
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        legacy = (data.get("backend_costs") or {}).get(DEFAULT_BACKEND, {})
        for old, new in (("c_pair", "c_qpair"), ("c_qcohort", "c_qcohort"),
                         ("c_qsample", "c_qsample")):
            if old in legacy:
                kwargs[new] = float(legacy[old])
        if not kwargs.get("c_qpair", 0.0) > 0.0 and "c_pair" in data:
            kwargs["c_qpair"] = float(data["c_pair"])
        return cls(**kwargs)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "MachineModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @classmethod
    def calibrate(cls, seed: int = 0) -> "MachineModel":
        """Measure unit costs with a handful of micro-probes (~0.2 s total).

        Probes run through the batched engine
        (:func:`~repro.core.stamping.stamp_batch`), so the calibrated
        rates describe the code path the algorithms actually execute.
        Two batch sizes at the small bandwidth separate the per-batch
        fixed cost from the per-point slope; two bandwidths at the large
        batch separate per-point dispatch from per-cell work.

        The engine prices a cell differently on its two PB-SYM routes, so
        the probes are shaped like the data each regime sees: points are
        scattered over a cube, not piled into one bin — the narrow probes
        stay on the cohort route (dispatch-dominated, what ``c_point`` and
        ``c_batch`` mean) and the wide probe crowds its bins with a dozen
        points each, as clustered data does — and the wide probe pairs
        ``Hs = 10`` with ``Ht = 3`` like the paper's wide-bandwidth
        instances (Table 2: ``Ht`` 1–6), because on the per-bin GEMM route
        the cost per cell falls with the length of the bar.
        """
        rng = np.random.default_rng(seed)
        # Streaming memory write rate, measured warm: the first fill
        # materialises the pages (an allocator artifact that would inflate
        # the rate 3-5x and destabilise every memory-vs-compute trade the
        # model prices), the timed fills measure steady-state bandwidth.
        buf = np.full(1 << 21, 0.0)
        c_mem = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            buf.fill(0.0)
            c_mem = min(c_mem, (time.perf_counter() - t0) / buf.size)

        from ..core.grid import DomainSpec

        def probe(Hs: int, Ht: int, n: int, spread: int) -> Tuple[float, int]:
            """Best-of-3 seconds to stamp one batch of ``n`` interior points
            scattered over a cube ``spread`` voxels wide."""
            g = GridSpec(
                DomainSpec.from_voxels(
                    2 * Hs + spread, 2 * Hs + spread, 2 * Ht + spread
                ),
                hs=float(Hs), ht=float(Ht),
            )
            pts = rng.uniform([Hs, Hs, Ht], [Hs + spread, Hs + spread, Ht + spread],
                              size=(n, 3))
            vol = g.allocate()
            kern = get_kernel("epanechnikov")
            best = math.inf
            for _ in range(3):
                c = WorkCounter()
                t0 = time.perf_counter()
                stamp_batch(vol, g, kern, pts, 1.0, c)
                best = min(best, time.perf_counter() - t0)
            return best, stamp_cells(g)

        # The slope probes span a 16x batch-size gap so their time
        # difference stays far above scheduler jitter — a collapsed slope
        # would zero c_point and make every predicted block weight
        # degenerate.
        n_small, n_large = 64, 1024
        probe(2, 2, 8, 40)  # warm the engine code path before timing
        t_small, cells_small = probe(2, 2, n_small, 40)
        t_large, _ = probe(2, 2, n_large, 40)
        t_cell_lo, _ = probe(2, 2, 256, 40)
        t_cell_hi, cells_large = probe(10, 3, 256, 28)
        c_cell = max(
            (t_cell_hi - t_cell_lo) / (256 * (cells_large - cells_small)), 1e-12
        )
        # Per-point slope at fixed bandwidth removes the per-batch constant.
        slope = max((t_large - t_small) / (n_large - n_small), 1e-9)
        c_point = max(slope - c_cell * cells_small, 1e-9)
        c_batch = max(t_small - n_small * slope, 0.0)

        # The serving-side unit costs (c_lookup, c_q*) are probed by
        # repro.serve.calibrate.calibrate_serving — the probes live with
        # the code they measure, keeping analysis below serve in the
        # layering; until then CostModel.lookup_cost falls back to a
        # memory-rate estimate, pairs price at zero, and direct batches
        # price the per-slab/per-probe dispatch at zero.
        return cls(
            c_mem=c_mem, c_point=c_point, c_cell=c_cell, c_batch=c_batch,
        )

    @classmethod
    def nominal(cls) -> "MachineModel":
        """Representative unit costs for probe-free deterministic planning.

        Order-of-magnitude constants of a commodity core — what call
        sites that must stay deterministic and probe-free (unit tests,
        smoke benches) use instead of :meth:`calibrate`.  The *ratios*
        between rates drive every planning decision, so nominal constants
        pick the same side of each trade as a calibration on ordinary
        hardware.
        """
        return cls(
            c_mem=1e-9, c_point=1e-7, c_cell=2e-9, c_batch=1e-5,
            c_lookup=5e-8, c_qpair=2e-9,
            c_qcohort=5e-6, c_qprobe=1e-6, c_qsample=1e-8, c_qbound=4e-9,
        )


@dataclass(frozen=True)
class ScatterGatherPrediction:
    """Predicted cost of answering one query batch via sharded workers.

    ``ipc_seconds`` is the process-boundary overhead (one message
    round-trip per contacted shard plus per-row serialization both ways);
    ``compute_seconds`` the slowest worker's predicted direct-sum over its
    balanced share.  ``seconds`` is their sum — what the serving planner
    compares against the single-process ``predict_direct_query``.
    """

    seconds: float
    ipc_seconds: float
    compute_seconds: float
    n_shards: int


@dataclass
class Prediction:
    """Predicted runtime of one (strategy, configuration) pair."""

    algorithm: str
    P: int
    seconds: float
    decomposition: Optional[Tuple[int, int, int]] = None
    feasible: bool = True
    reason: str = ""

    def describe(self) -> str:
        dec = f" dec={self.decomposition}" if self.decomposition else ""
        feas = "" if self.feasible else f"  [infeasible: {self.reason}]"
        return f"{self.algorithm:16s} P={self.P:<3d}{dec:18s} {self.seconds * 1e3:9.2f} ms{feas}"


@dataclass(frozen=True)
class _PDPlan:
    """One PD decomposition as its three predictors price it: owner
    counts per block, the occupied blocks' loads, the bin cost, and the
    colour DAG with its classes per scheduler."""

    dec: BlockDecomposition
    counts: np.ndarray
    loads: Dict[int, float]
    bin_cost: float
    graphs: Dict[str, Tuple[TaskGraph, List[List[int]]]]


@functools.lru_cache(maxsize=None)
def _process_calibration() -> MachineModel:
    """The calibration every ``CostModel(machine=None)`` of this process
    shares: the probes (~0.2 s, timing-based) run once, so repeated
    ``STKDE(algorithm="auto", P>1).estimate`` calls neither pay them again
    nor rank strategies against a different machine each time."""
    return MachineModel.calibrate()


class CostModel:
    """Analytic runtime predictions for every strategy on one instance.

    ``machine=None`` prices with the process's one memoised calibration;
    an explicit :class:`MachineModel` is used as given.
    """

    def __init__(
        self,
        grid: GridSpec,
        points: PointSet,
        machine: Optional[MachineModel] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self.grid = grid
        self.points = points
        self.machine = machine or _process_calibration()
        self.memory_budget_bytes = memory_budget_bytes
        self._bw = BandwidthModel(cap=self.machine.bandwidth_cap)
        #: Cells touched per interior point stamp.
        self.cells_per_point = stamp_cells(grid)
        self._pd_plans: Dict[Tuple[int, int, int], _PDPlan] = {}

    # ------------------------------------------------------------------
    # Primitive phase costs
    # ------------------------------------------------------------------
    def point_cost(self, clipped_fraction: float = 1.0) -> float:
        """Predicted seconds to stamp one point (optionally clipped)."""
        m = self.machine
        return m.c_point + m.c_cell * self.cells_per_point * clipped_fraction

    def batch_cost(self, n_points: float, clipped_fraction: float = 1.0) -> float:
        """Predicted seconds for one stamping-engine batch of ``n_points``.

        The batched-evaluation cost shape: a fixed per-batch dispatch
        (``c_batch``) plus the amortised per-point cost.  Strategies that
        stamp in one large batch (sequential PB-SYM, DR shards) pay the
        constant once; block-decomposed strategies pay it per occupied
        block.
        """
        return self.machine.c_batch + n_points * self.point_cost(clipped_fraction)

    def init_seconds(self) -> float:
        return self.machine.c_mem * self.grid.n_voxels

    def init_parallel(self, P: int) -> float:
        return self.init_seconds() / self._bw.effective_procs(P)

    # ------------------------------------------------------------------
    # Query-serving predictors (repro.serve planner)
    # ------------------------------------------------------------------
    @property
    def lookup_cost(self) -> float:
        """Seconds per trilinear volume sample.

        Calibrated (``c_lookup``) when available; otherwise eight gathered
        reads approximated at 4x the streaming write rate.
        """
        m = self.machine
        return m.c_lookup if m.c_lookup > 0.0 else 32.0 * m.c_mem

    def predict_direct_query(
        self,
        n_queries: int,
        total_candidates: int,
        n_cohorts: Optional[int] = None,
        n_segments: int = 1,
    ) -> float:
        """Predicted seconds to answer a point batch by direct kernel sums.

        The ragged-engine cost shape: one engine-shaped dispatch for the
        batch, one ``c_qcohort`` per slab dispatch (``n_cohorts``;
        ``None`` assumes the batch's pairs fit one slab), one
        ``c_qprobe`` per (query x index segment) run probe, a per-query
        residue at the per-point rate, and the (query, candidate) pairs at
        ``c_qpair`` — the direct analogue of :meth:`batch_cost` for reads.
        """
        m = self.machine
        cohorts = 1 if n_cohorts is None else n_cohorts
        return (
            m.c_batch
            + cohorts * m.c_qcohort
            + n_queries * max(1, n_segments) * m.c_qprobe
            + n_queries * m.c_point
            + total_candidates * m.c_qpair
        )

    def predict_approx_query(
        self,
        n_queries: int,
        total_candidates: int,
        eps: float,
        n_segments: int = 1,
    ) -> float:
        """Predicted seconds for the ε-budgeted importance sampler.

        The sampler's cost shape (:func:`repro.serve.engine.approx_sum`):
        one batch dispatch, a ``9 * segments`` run-bound sweep per query
        (``c_qbound`` each — the O(runs) price of building the sampling
        distribution), then the sample itself at ``c_qsample`` per drawn
        row.  The expected sample size follows the variance-driven stop
        rule ``~ C / eps^2`` (C fitted to the doubling-round overshoot of
        the measured sampler), capped at the average candidate count —
        past that the engine falls back to the exact gather, so the
        approximate backend never prices above O(candidates).  Sublinear
        in candidate count exactly where the true engine is.
        """
        m = self.machine
        # Uncalibrated fallbacks mirror the measured rate ratios (a drawn
        # row costs ~5 direct pairs: RNG draws, searchsorted routing and
        # the scattered gather; a run bound ~2: clamp distances + proxy).
        pair = m.c_qpair
        sample_rate = m.c_qsample if m.c_qsample > 0.0 else 5.0 * pair
        bound_rate = m.c_qbound if m.c_qbound > 0.0 else 2.0 * pair
        avg_cand = total_candidates / max(1, n_queries)
        s_per_q = min(avg_cand, 16.0 / (eps * eps))
        return (
            m.c_batch
            + n_queries * 9.0 * max(1, n_segments) * bound_rate
            + n_queries * s_per_q * sample_rate
            + n_queries * m.c_point
        )

    def predict_scatter_gather(
        self,
        n_queries: int,
        total_candidates: int,
        n_shards: int,
        *,
        fanout_rows: Optional[int] = None,
        n_cohorts: Optional[int] = None,
        n_segments: int = 1,
    ) -> ScatterGatherPrediction:
        """Price answering a point batch through sharded worker processes.

        The scatter/gather cost shape: one ``c_msg`` round-trip per
        contacted shard, ``c_qser`` per scattered query row (coordinates
        out, partial density back — ``fanout_rows`` counts halo-straddling
        queries once per contacted shard; defaults to ``n_queries``), plus
        the slowest worker's :meth:`predict_direct_query` over its
        balanced ``1/P`` share of queries, candidates and slabs.  The
        serving planner compares this against the single-process direct
        prediction to decide whether a batch is worth the fan-out — small
        batches lose to the message constant, large clustered ones win
        ``P``-way kernel-sum parallelism.
        """
        m = self.machine
        P = max(1, int(n_shards))
        msg_rate = m.c_msg if m.c_msg > 0.0 else 1e-4
        ser_rate = m.c_qser if m.c_qser > 0.0 else 16.0 * m.c_mem
        rows = n_queries if fanout_rows is None else int(fanout_rows)
        ipc = 2.0 * P * msg_rate + 2.0 * rows * ser_rate
        cohorts = 1 if n_cohorts is None else n_cohorts
        compute = self.predict_direct_query(
            -(-rows // P),
            -(-int(total_candidates) // P),
            n_cohorts=max(1, -(-cohorts // P)),
            n_segments=n_segments,
        )
        return ScatterGatherPrediction(ipc + compute, ipc, compute, P)

    def predict_materialize(self) -> float:
        """Predicted seconds to materialise the volume for the lookup plan:
        the serial PB-SYM build, which is the build the service runs."""
        return self.predict_pb_sym()

    def predict_volume_lookup(self, n_queries: int, volume_ready: bool) -> float:
        """Predicted seconds to answer a point batch by volume sampling.

        A cold volume charges the full serial materialisation up front —
        which is exactly what a large enough batch amortises, and what a
        warm (already-served) volume skips.
        """
        build = 0.0 if volume_ready else self.predict_materialize()
        return build + n_queries * self.lookup_cost

    def predict_direct_region(self, window) -> float:
        """Predicted seconds to stamp one served region directly.

        Prices the region buffer's first touch plus one engine batch over
        the events whose clipped stamps actually reach the window — the
        same clipping the engine performs, so sparse windows are charged
        for the few stamps they absorb, not for ``n``.
        """
        m = self.machine
        X0, X1, Y0, Y1, T0, T1 = batch_windows(
            self.grid, self.points.coords, window
        )
        cells = (
            np.maximum(X1 - X0, 0)
            * np.maximum(Y1 - Y0, 0)
            * np.maximum(T1 - T0, 0)
        )
        reaching = int(np.count_nonzero(cells))
        return (
            m.c_mem * window.volume
            + m.c_batch
            + reaching * m.c_point
            + float(cells.sum()) * m.c_cell
        )

    def predict_lookup_region(self, window, volume_ready: bool) -> float:
        """Predicted seconds to serve a region as a view of the volume.

        A warm volume serves the window as a zero-copy view (one lookup's
        worth of bookkeeping); a cold one pays the serial materialisation
        first.
        """
        build = 0.0 if volume_ready else self.predict_materialize()
        return build + self.lookup_cost

    # ------------------------------------------------------------------
    # Per-strategy predictions
    # ------------------------------------------------------------------
    def predict_pb_sym(self) -> float:
        return self.init_seconds() + self.batch_cost(self.points.n)

    def predict_dr(self, P: int) -> Prediction:
        need = (P + 1) * self.grid.grid_bytes
        if self.memory_budget_bytes is not None and need > self.memory_budget_bytes:
            return Prediction(
                "pb-sym-dr", P, math.inf, feasible=False,
                reason=f"needs {P + 1} volume copies",
            )
        init = P * self.init_seconds() / self._bw.effective_procs(P)
        # Each worker stamps its chunk as one engine batch.
        compute = self.batch_cost(self.points.n / P)
        reduce_ = P * self.init_seconds() / self._bw.effective_procs(P)
        return Prediction("pb-sym-dr", P, init + compute + reduce_)

    def _block_loads(
        self, binning: PointBinning, replicated: bool
    ) -> Tuple[Dict[int, float], float]:
        """Analytic per-block task weights (seconds) and the bin cost."""
        if replicated:
            # Clipped stamps still tabulate full invariants along the cut
            # axis; approximate the per-replica cost with the unclipped
            # point cost scaled by a 0.6 clipping discount.
            per_pt = self.point_cost(clipped_fraction=0.6)
        else:
            per_pt = self.point_cost()
        counts = binning.counts()
        # One engine batch per occupied block: fixed c_batch + amortised
        # per-point cost (the batched-evaluation cost shape).
        c_batch = self.machine.c_batch
        loads = {
            int(b): c_batch + float(counts[b]) * per_pt
            for b in np.nonzero(counts)[0]
        }
        bin_cost = self.points.n * 2e-7 * (3.0 if replicated else 1.0)
        return loads, bin_cost

    def _pd_plan(self, dec_shape: Tuple[int, int, int]) -> _PDPlan:
        """PD's adjusted decomposition, its owner binning's block loads,
        and the colour DAGs over them: binned once per decomposition and
        shared by the three PD predictors."""
        dec = BlockDecomposition.adjusted_for_pd(self.grid, *dec_shape)
        plan = self._pd_plans.get(dec.shape)
        if plan is None:
            binning = dec.bin_points_owner(self.points)
            loads, bin_cost = self._block_loads(binning, replicated=False)
            graphs = {s: block_task_graph(dec, loads, s)
                      for s in ("parity", "sched")}
            plan = _PDPlan(dec, binning.counts(), loads, bin_cost, graphs)
            self._pd_plans[dec.shape] = plan
        return plan

    def predict_dd(self, dec_shape: Tuple[int, int, int], P: int) -> Prediction:
        A = min(dec_shape[0], self.grid.Gx)
        B = min(dec_shape[1], self.grid.Gy)
        C = min(dec_shape[2], self.grid.Gt)
        dec = BlockDecomposition(self.grid, A, B, C)
        loads, bin_cost = self._block_loads(
            dec.bin_points_replicated(self.points), replicated=True)
        ws = sorted(loads.values(), reverse=True)
        compute = barrier_schedule([ws], P, lpt=True)
        return Prediction(
            "pb-sym-dd", P, self.init_parallel(P) + bin_cost + compute,
            decomposition=(A, B, C),
        )

    def predict_pd(
        self, dec_shape: Tuple[int, int, int], P: int, scheduler: str = "parity"
    ) -> Prediction:
        plan = self._pd_plan(dec_shape)
        if scheduler not in plan.graphs:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        dec, bin_cost = plan.dec, plan.bin_cost
        name = "pb-sym-pd" if scheduler == "parity" else "pb-sym-pd-sched"
        if not plan.loads:
            return Prediction(name, P, self.init_parallel(P) + bin_cost,
                              decomposition=dec.shape)
        graph, classes = plan.graphs[scheduler]
        if scheduler == "parity":
            compute = barrier_schedule(
                [[graph.weights[k] for k in cls] for cls in classes], P)
        else:
            compute = list_schedule(
                graph, P, priority=lambda v: (-graph.weights[v], v)
            ).makespan
        return Prediction(
            name, P, self.init_parallel(P) + bin_cost + compute,
            decomposition=dec.shape,
        )

    def predict_pd_rep(
        self, dec_shape: Tuple[int, int, int], P: int
    ) -> Prediction:
        plan = self._pd_plan(dec_shape)
        dec, bin_cost = plan.dec, plan.bin_cost
        if not plan.loads:
            return Prediction("pb-sym-pd-rep", P,
                              self.init_parallel(P) + bin_cost,
                              decomposition=dec.shape)
        graph, _ = plan.graphs["sched"]
        blocks = sorted(plan.loads)
        halos = [dec.halo_window(*dec.block_coords(b)).volume for b in blocks]
        overheads = [2.0 * h * self.machine.c_mem for h in halos]
        max_reps = [max(1, int(plan.counts[b])) for b in blocks]
        replicas, _, _ = plan_replication(
            list(graph.weights), overheads, graph.succs, graph.preds, P, max_reps
        )
        extra_bytes = sum(
            replicas[k] * halos[k] * 8 for k in range(len(blocks)) if replicas[k] > 1
        )
        if (
            self.memory_budget_bytes is not None
            and self.grid.grid_bytes + extra_bytes > self.memory_budget_bytes
        ):
            return Prediction(
                "pb-sym-pd-rep", P, math.inf, decomposition=dec.shape,
                feasible=False, reason="replica buffers exceed memory budget",
            )
        eff_w = [
            graph.weights[k] / replicas[k]
            + (overheads[k] if replicas[k] > 1 else 0.0)
            for k in range(len(blocks))
        ]
        # Effective-weight graph approximates the expanded replica graph.
        g2 = TaskGraph(eff_w, graph.succs, graph.preds)
        compute = list_schedule(
            g2, P, priority=lambda v: (-g2.weights[v], v)
        ).makespan
        return Prediction(
            "pb-sym-pd-rep", P, self.init_parallel(P) + bin_cost + compute,
            decomposition=dec.shape,
        )


def select_strategy(
    grid: GridSpec,
    points: PointSet,
    P: int,
    *,
    machine: Optional[MachineModel] = None,
    memory_budget_bytes: Optional[int] = None,
    decompositions: Sequence[Tuple[int, int, int]] = ((4, 4, 4), (8, 8, 8), (16, 16, 16)),
) -> Tuple[Prediction, List[Prediction]]:
    """Solve the Section 6.5 combinatorial problem: best strategy + config.

    Ranks DR plus {DD, PD, PD-SCHED, PD-REP} at every decomposition —
    every ``Prediction.algorithm`` is a registered parallel strategy,
    runnable on any backend.  Returns the winning prediction and the full
    ranked candidate list.
    """
    model = CostModel(grid, points, machine, memory_budget_bytes)
    candidates: List[Prediction] = [model.predict_dr(P)]
    for dec in decompositions:
        candidates.append(model.predict_dd(dec, P))
        candidates.append(model.predict_pd(dec, P, scheduler="parity"))
        candidates.append(model.predict_pd(dec, P, scheduler="sched"))
        candidates.append(model.predict_pd_rep(dec, P))
    ranked = sorted(candidates, key=lambda p: p.seconds)
    feasible = [p for p in ranked if p.feasible]
    if not feasible:
        raise RuntimeError("no feasible strategy under the memory budget")
    return feasible[0], ranked
