"""Ablation — kernel choice never changes the algorithm ranking.

DESIGN.md substitutes the standard Epanechnikov/quartic kernels for the
paper's OCR-degraded formulas.  This ablation demonstrates the
substitution is performance-neutral: for every registered kernel pair,
the sequential ranking PB > PB-BAR > PB-DISK > PB-SYM holds and the
PB-SYM/PB speedup moves by only a few percent, because the algorithms'
costs are dominated by table sizes and memory traffic, not by the exact
polynomial evaluated.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_ablation_kernels``
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.algorithms.base import get_algorithm
from repro.core.kernels import available_kernels

from .common import load_instance, record
from .conftest import note_experiment

INSTANCE = "Dengue_Hr-VHb"  # the highest-leverage Table 3 row
ALGOS = ("pb", "pb-disk", "pb-bar", "pb-sym")
_CELLS: Dict[Tuple[str, str], float] = {}


def run_cell(kernel: str, algorithm: str) -> float:
    key = (kernel, algorithm)
    if key not in _CELLS:
        _, grid, pts = load_instance(INSTANCE)
        res = get_algorithm(algorithm)(pts, grid, kernel=kernel)
        _CELLS[key] = res.elapsed
    return _CELLS[key]


@pytest.mark.parametrize("kernel", available_kernels())
def test_ablation_kernel_ranking(benchmark, kernel):
    def sweep():
        return {a: run_cell(kernel, a) for a in ALGOS}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert times["pb-sym"] < times["pb-disk"]
    assert times["pb-sym"] < times["pb-bar"] < times["pb"]


def test_ablation_kernels_report(benchmark):
    def report():
        rows = []
        print(f"\nAblation — kernel choice on {INSTANCE} (seconds)")
        print(f"{'kernel':14s}" + "".join(f"{a:>10s}" for a in ALGOS)
              + f"{'sym/pb':>9s}")
        for kern in available_kernels():
            times = {a: run_cell(kern, a) for a in ALGOS}
            sp = times["pb"] / times["pb-sym"]
            rows.append({"kernel": kern, **times, "speedup": sp})
            print(f"{kern:14s}" + "".join(f"{times[a]:10.3f}" for a in ALGOS)
                  + f"{sp:8.2f}x")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("ablation_kernels", rows)
    note_experiment("ablation_kernels")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_ablation_kernels_report(_B())
