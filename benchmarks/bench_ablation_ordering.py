"""Ablation — what exactly does PD-SCHED's load-aware colouring buy?

PB-SYM-PD-SCHED differs from PB-SYM-PD in *two* coupled ways: the greedy
colouring order (load-aware vs parity) and the execution style (task DAG
vs colour-class barriers).  This ablation separates them on the clustered
instances, comparing four combinations of {parity, natural-greedy,
load-aware-greedy} colouring x {barrier, DAG} execution, using analytic
point-count weights and the same list scheduler as the real algorithms.

The paper's claim to verify: most of SCHED's gain comes from removing the
barriers; the load-aware order contributes a further (marginal) critical-
path reduction but, critically, releases heavy blocks first.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_ablation_ordering``
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.parallel.color import (
    greedy_coloring,
    load_order,
    natural_order,
    occupied_neighbor_map,
    parity_coloring,
)
from repro.parallel.partition import BlockDecomposition
from repro.parallel.schedule import (
    barrier_schedule,
    build_task_graph,
    critical_path,
    list_schedule,
)

from .common import PAPER_P, load_instance, record
from .conftest import note_experiment

INSTANCES = ("PollenUS_Hr-Mb", "PollenUS_Hr-Hb", "Dengue_Hr-VHb", "eBird_Lr-Hb")
K = 16
_ROWS: Dict[str, list] = {}


def analyse(instance: str) -> list:
    if instance in _ROWS:
        return _ROWS[instance]
    _, grid, pts = load_instance(instance)
    dec = BlockDecomposition.adjusted_for_pd(grid, K, K, K)
    binning = dec.bin_points_owner(pts)
    occupied = [int(b) for b in binning.occupied()]
    loads = {b: float(len(binning.points_in(b))) for b in occupied}
    adjacency = occupied_neighbor_map(dec, occupied)
    total = sum(loads.values())

    colorings = {
        "parity": parity_coloring(dec, occupied),
        "greedy-natural": greedy_coloring(dec, occupied, natural_order(occupied)),
        "greedy-load": greedy_coloring(
            dec, occupied, load_order(occupied, loads), method="load-aware"
        ),
    }
    rows = []
    for cname, coloring in colorings.items():
        graph, id_map = build_task_graph(coloring, adjacency, loads)
        tinf, _ = critical_path(graph)
        class_w = [[loads[b] for b in cls] for cls in coloring.classes()]
        barrier = barrier_schedule(class_w, PAPER_P)
        dag = list_schedule(
            graph, PAPER_P, priority=lambda v: (-graph.weights[v], v)
        ).makespan
        rows.append(
            {
                "instance": instance,
                "coloring": cname,
                "n_colors": coloring.n_colors,
                "critical_path_ratio": tinf / total,
                "barrier_speedup": total / barrier,
                "dag_speedup": total / dag,
            }
        )
    _ROWS[instance] = rows
    return rows


@pytest.mark.parametrize("instance", INSTANCES)
def test_ablation_ordering(benchmark, instance):
    rows = benchmark.pedantic(analyse, args=(instance,), rounds=1, iterations=1)
    by_name = {r["coloring"]: r for r in rows}
    # DAG execution never loses to barriers under the same colouring.
    for r in rows:
        assert r["dag_speedup"] >= r["barrier_speedup"] - 1e-9


def test_ablation_ordering_report(benchmark):
    def report():
        rows = []
        print(f"\nAblation — colouring order x execution style ({K}^3, P={PAPER_P},"
              " analytic point-count weights)")
        print(f"{'instance':16s} {'coloring':16s} {'colors':>7s} {'Tinf/T1':>9s} "
              f"{'barrier':>9s} {'taskDAG':>9s}")
        for inst in INSTANCES:
            for r in analyse(inst):
                rows.append(r)
                print(f"{r['instance']:16s} {r['coloring']:16s} "
                      f"{r['n_colors']:>7d} {r['critical_path_ratio']:>9.1%} "
                      f"{r['barrier_speedup']:>8.2f}x {r['dag_speedup']:>8.2f}x")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("ablation_ordering", rows)
    note_experiment("ablation_ordering")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_ablation_ordering_report(_B())
