"""Table 2 — the 21 problem instances.

Prints the registry at paper scale (verbatim Table 2) and at bench scale
(the scaled twins the other benchmarks run), and times instance
construction (grid + synthetic points) as the benchmark payload.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_table2_instances``
"""

from __future__ import annotations

import pytest

from repro.data.datasets import get_instance, instance_names, paper_table2

from .common import record
from .conftest import note_experiment


def build_instance(name: str):
    inst = get_instance(name, "bench")
    grid = inst.grid()
    pts = inst.points()
    return inst, grid, pts


@pytest.mark.parametrize("name", instance_names())
def test_table2_instance_construction(benchmark, name):
    inst, grid, pts = benchmark.pedantic(
        build_instance, args=(name,), rounds=1, iterations=1
    )
    assert pts.n == inst.n
    assert grid.shape == (inst.Gx, inst.Gy, inst.Gt)


def test_table2_report(benchmark):
    rows = []
    for p in paper_table2():
        b = get_instance(p.name, "bench")
        rows.append(
            {
                "instance": p.name,
                "paper_n": p.n,
                "paper_grid": f"{p.Gx}x{p.Gy}x{p.Gt}",
                "paper_size_mb": p.size_mb,
                "paper_Hs": p.Hs,
                "paper_Ht": p.Ht,
                "bench_n": b.n,
                "bench_grid": f"{b.Gx}x{b.Gy}x{b.Gt}",
                "bench_Hs": b.Hs,
                "bench_Ht": b.Ht,
                "paper_ratio": round(p.compute_init_ratio, 3),
                "bench_ratio": round(b.compute_init_ratio, 3),
                "copies_allowed": round(p.copies_allowed, 1),
            }
        )

    def report():
        print("\nTable 2 — paper instances and their bench-scale twins")
        hdr = (f"{'instance':18s} {'paper n':>10s} {'paper grid':>14s} "
               f"{'Hs':>3s} {'Ht':>3s} | {'bench n':>8s} {'bench grid':>12s} "
               f"{'Hs':>3s} {'Ht':>3s} {'ratio':>8s}")
        print(hdr)
        for r in rows:
            print(
                f"{r['instance']:18s} {r['paper_n']:>10d} {r['paper_grid']:>14s} "
                f"{r['paper_Hs']:>3d} {r['paper_Ht']:>3d} | {r['bench_n']:>8d} "
                f"{r['bench_grid']:>12s} {r['bench_Hs']:>3d} {r['bench_Ht']:>3d} "
                f"{r['bench_ratio']:>8.2f}"
            )
        return rows

    benchmark.pedantic(report, rounds=1, iterations=1)
    record("table2_instances", rows)
    note_experiment("table2_instances")


if __name__ == "__main__":
    for p in paper_table2():
        print(get_instance(p.name, "bench").describe())
