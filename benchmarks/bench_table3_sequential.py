"""Table 3 — sequential algorithm runtimes and the PB-SYM speedup.

Runs VB, VB-DEC, PB, PB-DISK, PB-BAR and PB-SYM on every instance and
prints the Table 3 layout with the paper's numbers alongside.  Cells the
paper leaves blank (too expensive on their machine) are skipped here too.

The voxel-based algorithms run at ``table3`` scale — VB's
``Theta(voxels * n)`` cost is the whole point of the table, and even
scaled down it is 2-4 orders of magnitude above PB-SYM.  What must
reproduce (and is asserted in EXPERIMENTS.md):

* the ordering VB >> VB-DEC >> PB > PB-BAR > PB-DISK > PB-SYM;
* the PB-SYM/PB speedup growing with bandwidth, ~1 on low-bandwidth or
  init-dominated instances, largest on PollenUS-Hb-like instances.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_table3_sequential``
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import pytest

from repro.algorithms.base import get_algorithm
from repro.analysis.validate import assert_equivalent

from .common import fmt_seconds, load_instance, record
from .conftest import note_experiment
from .paper_expectations import TABLE3, TABLE3_COLUMNS, table3_has

SCALE = "table3"
_CELLS: Dict[str, Dict[str, float]] = {}

INSTANCES = list(TABLE3)


def run_cell(instance: str, algorithm: str) -> float:
    _, grid, pts = load_instance(instance, SCALE)
    fn = get_algorithm(algorithm)
    # Point-based cells are milliseconds at this scale: take the best of
    # three runs to shed scheduler noise.  The voxel-based cells run once
    # (they are seconds-to-minutes, and their margin is orders of
    # magnitude).
    reps = 1 if algorithm.startswith("vb") else 3
    elapsed = min(fn(pts, grid).elapsed for _ in range(reps))
    _CELLS.setdefault(instance, {})[algorithm] = elapsed
    return elapsed


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("algorithm", TABLE3_COLUMNS)
def test_table3_cell(benchmark, instance, algorithm):
    if not table3_has(instance, algorithm):
        pytest.skip(f"paper leaves {instance}/{algorithm} blank")
    benchmark.pedantic(run_cell, args=(instance, algorithm), rounds=1, iterations=1)


@pytest.mark.parametrize("instance", ["Dengue_Lr-Hb", "PollenUS_Hr-Mb", "Flu_Lr-Hb"])
def test_table3_equivalence_spot_check(benchmark, instance):
    """Before trusting timings, re-check the algorithms agree on volume."""

    def check():
        _, grid, pts = load_instance(instance, SCALE)
        ref = get_algorithm("pb-sym")(pts, grid)
        for algo in ("vb-dec", "pb", "pb-disk", "pb-bar"):
            out = get_algorithm(algo)(pts, grid)
            assert_equivalent(ref, out, context=f"{instance}/{algo}")

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_table3_report(benchmark):
    def report():
        rows = []
        print("\nTable 3 — sequential runtimes (seconds; paper values in parens)")
        print(f"{'instance':18s}" + "".join(f"{c:>19s}" for c in TABLE3_COLUMNS)
              + f"{'pb-sym/pb':>12s}")
        for inst in INSTANCES:
            cells = _CELLS.get(inst, {})
            # Fill any cells not yet run (standalone mode).
            for algo in TABLE3_COLUMNS:
                if algo not in cells and table3_has(inst, algo):
                    run_cell(inst, algo)
            cells = _CELLS.get(inst, {})
            line = f"{inst:18s}"
            row = {"instance": inst}
            for i, algo in enumerate(TABLE3_COLUMNS):
                ours = cells.get(algo)
                paper = TABLE3[inst][i]
                row[algo] = ours
                row[f"paper_{algo}"] = paper
                if ours is None:
                    line += f"{'--':>19s}"
                else:
                    ptxt = f"({paper:g})" if paper is not None else ""
                    line += f"{fmt_seconds(ours)}{ptxt:>10s}"
            if cells.get("pb") and cells.get("pb-sym"):
                sp = cells["pb"] / cells["pb-sym"]
                paper_sp = TABLE3[inst][6]
                row["speedup"] = sp
                row["paper_speedup"] = paper_sp
                line += f"  {sp:5.2f}x ({paper_sp if paper_sp else '--'})"
            print(line)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("table3_sequential", rows)
    note_experiment("table3_sequential")


if __name__ == "__main__":
    for inst in INSTANCES:
        for algo in TABLE3_COLUMNS:
            if table3_has(inst, algo):
                run_cell(inst, algo)

    class _B:  # minimal stand-in for the benchmark fixture
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_table3_report(_B())
