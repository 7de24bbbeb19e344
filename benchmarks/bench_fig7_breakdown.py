"""Figure 7 — PB-SYM runtime breakdown: initialisation vs compute.

For every instance, runs PB-SYM and reports the fraction of time spent
zeroing the volume versus stamping cylinders.  The paper's claim: the Flu
instances are mostly initialisation (31K points spanning the planet),
while PollenUS-Hb/eBird instances are almost pure compute.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig7_breakdown``
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.algorithms import pb_sym
from repro.analysis.metrics import phase_breakdown

from .common import ALL_INSTANCES, load_instance, record
from .conftest import note_experiment

_ROWS: Dict[str, dict] = {}


def run_breakdown(instance: str) -> dict:
    if instance in _ROWS:
        return _ROWS[instance]
    _, grid, pts = load_instance(instance)
    from repro.core import WorkCounter

    counter = WorkCounter()
    res = pb_sym(pts, grid, counter=counter)
    frac = phase_breakdown(res)
    # Two views of the same split.  Wall time is what we measure, but our
    # substrate's per-point dispatch cost is far heavier relative to
    # NumPy's vectorised zeroing than C++ kernels are to memset, so the
    # *work* fractions (voxels initialised vs cylinder operations) are the
    # apples-to-apples comparison with the paper's Figure 7 regimes.
    compute_ops = counter.madds + counter.spatial_evals + counter.temporal_evals
    total_ops = counter.init_writes + compute_ops
    row = {
        "instance": instance,
        "init_fraction": frac.get("init", 0.0),
        "compute_fraction": frac.get("compute", 0.0),
        "init_work_fraction": counter.init_writes / total_ops,
        "compute_work_fraction": compute_ops / total_ops,
        "total_seconds": res.elapsed,
    }
    _ROWS[instance] = row
    return row


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig7_breakdown(benchmark, instance):
    row = benchmark.pedantic(run_breakdown, args=(instance,), rounds=1, iterations=1)
    assert 0.99 < row["init_fraction"] + row["compute_fraction"] < 1.01


def test_fig7_report(benchmark):
    def report():
        rows = [run_breakdown(i) for i in ALL_INSTANCES]
        print("\nFigure 7 — PB-SYM breakdown: wall time and logical work")
        print(f"{'instance':18s} {'init(t)':>8s} {'comp(t)':>8s} "
              f"{'init(w)':>8s} {'comp(w)':>8s} {'total':>9s}  work bar")
        for r in rows:
            bar = "I" * int(round(r["init_work_fraction"] * 30)) + \
                  "c" * int(round(r["compute_work_fraction"] * 30))
            print(f"{r['instance']:18s} {r['init_fraction']:8.1%} "
                  f"{r['compute_fraction']:8.1%} {r['init_work_fraction']:8.1%} "
                  f"{r['compute_work_fraction']:8.1%} {r['total_seconds']:8.3f}s  {bar}")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig7_breakdown", rows)
    note_experiment("fig7_breakdown")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig7_report(_B())
