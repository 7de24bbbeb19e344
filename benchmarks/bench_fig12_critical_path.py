"""Figure 12 — relative critical-path length, PD vs PD-SCHED.

For the finest decomposition of the sweep (the paper uses 64^3, adjusted
per instance to the 2x-bandwidth constraint), computes ``T_inf / T_1`` of
the dependency DAG implied by each colouring, with task weights equal to
per-block point counts (the paper's "processing time proportional to the
number of points").  The claims:

* most instances sit near ~10% (Graham-capping speedup at ~6-10);
* PollenUS Hr-Hb is pathological (~55% -> speedup < 2);
* the load-aware colouring (PD-SCHED) is marginally shorter everywhere.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig12_critical_path``
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis.metrics import pd_critical_path_ratio

from .common import ALL_INSTANCES, load_instance, record
from .conftest import note_experiment

K = 64  # the paper's Figure 12 decomposition (adjusted per instance)
_CELLS: Dict[Tuple[str, str], float] = {}


def ratio(instance: str, scheduler: str) -> float:
    key = (instance, scheduler)
    if key not in _CELLS:
        _, grid, pts = load_instance(instance)
        _CELLS[key] = pd_critical_path_ratio(pts, grid, (K, K, K), scheduler)
    return _CELLS[key]


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig12_critical_path(benchmark, instance):
    def both():
        return ratio(instance, "parity"), ratio(instance, "sched")

    pd, sched = benchmark.pedantic(both, rounds=1, iterations=1)
    assert 0.0 < pd <= 1.0
    assert 0.0 < sched <= 1.0


def test_fig12_report(benchmark):
    def report():
        rows = []
        print(f"\nFigure 12 — critical path / total work at {K}^3 (adjusted)")
        print(f"{'instance':18s} {'PD':>10s} {'PD-SCHED':>10s} {'speedup cap':>12s}")
        for inst in ALL_INSTANCES:
            pd = ratio(inst, "parity")
            sc = ratio(inst, "sched")
            rows.append({"instance": inst, "pd": pd, "pd_sched": sc})
            print(f"{inst:18s} {pd:10.1%} {sc:10.1%} {1 / max(sc, 1e-9):11.1f}x")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig12_critical_path", rows)
    note_experiment("fig12_critical_path")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig12_report(_B())
