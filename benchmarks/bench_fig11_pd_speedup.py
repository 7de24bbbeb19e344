"""Figure 11 — PB-SYM-PD speedup with 16 threads, per decomposition.

The parity-coloured point decomposition.  The paper's claims:

* speedup generally increases with the decomposition (more, smaller
  blocks = more parallelism) but undersized decompositions are adjusted
  to the 2x-bandwidth constraint (collapsed cells appear once here);
* the ceiling is load imbalance/critical path, not work: PollenUS Lr-Lb
  never exceeds 2.6 in the paper.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig11_pd_speedup``
"""

from __future__ import annotations

import pytest

from .common import ALL_INSTANCES, DECOMPOSITIONS, record
from .conftest import note_experiment
from .sweeps import dedupe_pd_ks, pd_cell


def sweep(instance: str, scheduler: str):
    kmap = dedupe_pd_ks(instance)
    cells = {}
    for k in DECOMPOSITIONS:
        cells[k] = pd_cell(instance, kmap[k], scheduler)
    return cells


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig11_pd(benchmark, instance):
    cells = benchmark.pedantic(sweep, args=(instance, "parity"), rounds=1, iterations=1)
    for c in cells.values():
        assert c["speedup_p16"] > 0
        assert c["n_colors"] <= 8  # parity colouring


def _report(scheduler: str, figure: str):
    rows = []
    print(f"\nFigure {figure} — {'PD' if scheduler == 'parity' else 'PD-SCHED'} "
          f"speedup at P=16 per requested decomposition (simulated)")
    print(f"{'instance':18s}" + "".join(f"{f'{k}^3':>9s}" for k in DECOMPOSITIONS)
          + f"{'best':>9s}")
    for inst in ALL_INSTANCES:
        cells = sweep(inst, scheduler)
        line = f"{inst:18s}"
        best = 0.0
        for k in DECOMPOSITIONS:
            c = cells[k]
            line += f"{c['speedup_p16']:8.2f}x"
            best = max(best, c["speedup_p16"])
            rows.append({"requested_k": k, **c})
        print(line + f"{best:8.2f}x")
    return rows


def test_fig11_report(benchmark):
    rows = benchmark.pedantic(_report, args=("parity", "11"), rounds=1, iterations=1)
    record("fig11_pd_speedup", rows)
    note_experiment("fig11_pd_speedup")


if __name__ == "__main__":
    _report("parity", "11")
