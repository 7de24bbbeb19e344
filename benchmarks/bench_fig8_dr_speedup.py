"""Figure 8 — PB-SYM-DR speedup for 1..16 threads, with OOMs.

Runs domain replication at P in {1, 2, 4, 8, 16} under each instance's
paper-proportional memory budget.  The paper's claims:

* instances with high initialisation cost get speedup *below 1* (threads
  spend their time zeroing and reducing replicas);
* only compute-heavy instances (3 PollenUS + eBird-Lr) exceed 8 at P=16;
* Flu-Hr runs out of memory at 8 and 16 threads; eBird-Hr cannot
  replicate at all.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig8_dr_speedup``
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import pytest

from repro.parallel import MemoryBudgetExceeded, pb_sym_dr

from .common import ALL_INSTANCES, load_instance, pb_sym_baseline, record
from .conftest import note_experiment

PS = (1, 2, 4, 8, 16)
_CELLS: Dict[Tuple[str, int], float] = {}  # speedup or nan for OOM


def run_dr(instance: str, P: int) -> float:
    key = (instance, P)
    if key in _CELLS:
        return _CELLS[key]
    inst, grid, pts = load_instance(instance)
    try:
        res = pb_sym_dr(
            pts, grid, P=P, backend="simulated",
            memory_budget_bytes=inst.memory_budget_bytes,
        )
        sp = pb_sym_baseline(instance) / res.meta["makespan"]
    except MemoryBudgetExceeded:
        sp = math.nan
    _CELLS[key] = sp
    return sp


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig8_dr(benchmark, instance):
    def sweep():
        return [run_dr(instance, P) for P in PS]

    speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(speedups) == len(PS)


def test_fig8_report(benchmark):
    def report():
        rows = []
        print("\nFigure 8 — PB-SYM-DR speedup by thread count (nan = OOM)")
        print(f"{'instance':18s}" + "".join(f"{f'P={P}':>9s}" for P in PS))
        for inst in ALL_INSTANCES:
            sps = [run_dr(inst, P) for P in PS]
            row = {"instance": inst}
            row.update({f"P{P}": s for P, s in zip(PS, sps)})
            rows.append(row)
            cells = "".join(
                f"{'OOM':>9s}" if s != s else f"{s:8.2f}x" for s in sps
            )
            print(f"{inst:18s}{cells}")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig8_dr_speedup", rows)
    note_experiment("fig8_dr_speedup")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig8_report(_B())
