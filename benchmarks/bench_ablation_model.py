"""Ablation — the Section 6.5 model's selection regret.

The paper's conclusion asks for a parametric model that picks the best
execution strategy per instance.  This ablation measures how good our
implementation of that model is: for each instance, the model ranks
strategies *analytically*; we then actually run a candidate set
(simulated, P=16) and compare the model's pick against the oracle best.

Reported: per-instance regret ``T(model pick) / T(oracle)`` — 1.0 means
the model picked the true winner.

Standalone: ``python benchmarks/bench_ablation_model.py``
"""

from __future__ import annotations

import math
from typing import Dict

import pytest

from repro.analysis.model import MachineModel, select_strategy
from repro.parallel.executors import MemoryBudgetExceeded

from .common import PAPER_P, load_instance, record
from .conftest import note_experiment
from .bench_fig8_dr_speedup import run_dr
from .sweeps import dd_cell, dedupe_pd_ks, pd_cell

# A representative slice: one instance per dataset/regime.
INSTANCES = (
    "Dengue_Lr-Hb", "Dengue_Hr-VHb",
    "PollenUS_Hr-Mb", "PollenUS_VHr-VLb",
    "Flu_Lr-Hb", "Flu_Hr-Lb",
    "eBird_Lr-Hb", "eBird_Hr-Lb",
)
_MACHINE: Dict[str, MachineModel] = {}
_ROWS: Dict[str, dict] = {}


def _machine() -> MachineModel:
    if "m" not in _MACHINE:
        _MACHINE["m"] = MachineModel.calibrate()
    return _MACHINE["m"]


def measured_candidates(instance: str) -> Dict[str, float]:
    """Simulated speedups of a standard candidate set at P=16."""
    out: Dict[str, float] = {}
    dr = run_dr(instance, PAPER_P)
    if dr == dr:
        out["pb-sym-dr"] = dr
    kmap = dedupe_pd_ks(instance)
    for k in (8, 16):
        c = dd_cell(instance, k)
        if c is not None:
            out[f"pb-sym-dd@{k}"] = c["speedup_p16"]
        p = pd_cell(instance, kmap[k], "sched")
        out[f"pb-sym-pd-sched@{k}"] = p["speedup_p16"]
    return out


def _run_pick(instance: str, algorithm: str, decomposition) -> float:
    """Actually execute the model's pick (simulated, P=16) -> speedup."""
    from repro import STKDE
    from .common import pb_sym_baseline

    inst, grid, pts = load_instance(instance)
    est = STKDE(
        hs=grid.hs, ht=grid.ht, algorithm=algorithm, P=PAPER_P,
        decomposition=None if decomposition is None else tuple(decomposition),
        memory_budget_bytes=inst.memory_budget_bytes,
    )
    try:
        res = est.estimate(pts, grid.domain)
    except MemoryBudgetExceeded:
        return float("nan")
    return pb_sym_baseline(instance) / res.meta["makespan"]


def analyse(instance: str) -> dict:
    if instance in _ROWS:
        return _ROWS[instance]
    inst, grid, pts = load_instance(instance)
    best, ranked = select_strategy(
        grid, pts, PAPER_P, machine=_machine(),
        memory_budget_bytes=inst.memory_budget_bytes,
    )
    measured = measured_candidates(instance)
    # Run the model's actual pick so regret compares real executions, not
    # a proxy from the candidate set.
    picked_sp = _run_pick(instance, best.algorithm, best.decomposition)
    if picked_sp != picked_sp:  # pick OOM'd: maximal regret vs candidates
        picked_sp = 1e-9
    measured[f"{best.algorithm}@pick"] = picked_sp
    oracle_name, oracle_sp = max(measured.items(), key=lambda kv: kv[1])
    row = {
        "instance": instance,
        "model_pick": best.algorithm,
        "model_decomposition": best.decomposition,
        "oracle": oracle_name,
        "oracle_speedup": oracle_sp,
        "picked_speedup": picked_sp,
        "regret": oracle_sp / max(picked_sp, 1e-9),
    }
    _ROWS[instance] = row
    return row


@pytest.mark.parametrize("instance", INSTANCES)
def test_ablation_model(benchmark, instance):
    row = benchmark.pedantic(analyse, args=(instance,), rounds=1, iterations=1)
    # A useful model: within an order of magnitude of the oracle
    # everywhere (ranking quality, not absolute-time prediction; the
    # analytic model does not see Python's per-replica dispatch cost,
    # which is its main blind spot — see EXPERIMENTS.md).
    assert row["regret"] < 8.0


def test_ablation_model_report(benchmark):
    def report():
        rows = [analyse(i) for i in INSTANCES]
        print(f"\nAblation — Section 6.5 model selection regret (P={PAPER_P})")
        print(f"{'instance':18s} {'model pick':>18s} {'oracle':>20s} "
              f"{'pick-sp':>8s} {'oracle-sp':>10s} {'regret':>7s}")
        for r in rows:
            print(f"{r['instance']:18s} {r['model_pick']:>18s} "
                  f"{r['oracle']:>20s} {r['picked_speedup']:>7.2f}x "
                  f"{r['oracle_speedup']:>9.2f}x {r['regret']:>7.2f}")
        mean_regret = sum(r["regret"] for r in rows) / len(rows)
        print(f"mean regret: {mean_regret:.2f}")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("ablation_model", rows)
    note_experiment("ablation_model")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_ablation_model_report(_B())
