"""Figure 14 — PB-SYM-PD-REP speedup with 16 threads, with OOMs.

Point decomposition with critical-path replication, swept over
decompositions under each instance's memory budget.  The paper's claims:

* speedup > 8 on 8 instances at fine decompositions;
* near-zero speedup at coarse decompositions (whole-domain blocks make
  REP degenerate to DR, paying massive init/reduce);
* Flu Hr-Lb / Flu Hr-Hb run *out of memory* at small decompositions.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig14_pd_rep_speedup``
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import pytest

from repro.parallel import MemoryBudgetExceeded, pb_sym_pd_rep

from .common import ALL_INSTANCES, DECOMPOSITIONS, PAPER_P, load_instance, pb_sym_baseline, record
from .conftest import note_experiment
from .sweeps import dedupe_pd_ks

_CELLS: Dict[Tuple[str, int], dict] = {}


def rep_cell(instance: str, k: int) -> dict:
    key = (instance, k)
    if key in _CELLS:
        return _CELLS[key]
    inst, grid, pts = load_instance(instance)
    try:
        res = pb_sym_pd_rep(
            pts, grid, decomposition=(k, k, k), P=PAPER_P,
            backend="simulated",
            memory_budget_bytes=inst.memory_budget_bytes,
        )
        cell = {
            "instance": instance,
            "k": k,
            "decomposition": res.meta["decomposition"],
            "speedup_p16": pb_sym_baseline(instance) / res.meta["makespan"],
            "blocks_replicated": res.meta["blocks_replicated"],
            "max_replication": res.meta["max_replication"],
            "extra_mb": res.meta["extra_bytes"] / 1e6,
            "oom": False,
        }
    except MemoryBudgetExceeded:
        cell = {"instance": instance, "k": k, "speedup_p16": math.nan, "oom": True}
    _CELLS[key] = cell
    return cell


def sweep(instance: str):
    kmap = dedupe_pd_ks(instance)
    return {k: rep_cell(instance, kmap[k]) for k in DECOMPOSITIONS}


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig14_pd_rep(benchmark, instance):
    cells = benchmark.pedantic(sweep, args=(instance,), rounds=1, iterations=1)
    inst, _, _ = load_instance(instance)
    if inst.copies_allowed >= 3.0:
        assert any(not c["oom"] for c in cells.values()), \
            "at least one decomposition must fit in memory"
    # Instances with < 3 volume copies of headroom (eBird-Hr) may OOM at
    # every decomposition: replica halos at bench scale are large relative
    # to their blocks.  All-OOM is then the expected Figure 14 outcome.


def test_fig14_report(benchmark):
    def report():
        rows = []
        print("\nFigure 14 — PD-REP speedup at P=16 per decomposition (OOM = memory budget)")
        print(f"{'instance':18s}" + "".join(f"{f'{k}^3':>9s}" for k in DECOMPOSITIONS)
              + f"{'best':>9s}")
        for inst in ALL_INSTANCES:
            cells = sweep(inst)
            line = f"{inst:18s}"
            best = 0.0
            for k in DECOMPOSITIONS:
                c = cells[k]
                if c["oom"]:
                    line += f"{'OOM':>9s}"
                else:
                    line += f"{c['speedup_p16']:8.2f}x"
                    best = max(best, c["speedup_p16"])
                rows.append(dict(c))
            print(line + f"{best:8.2f}x")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig14_pd_rep_speedup", rows)
    note_experiment("fig14_pd_rep_speedup")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig14_report(_B())
