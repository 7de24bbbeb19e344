"""Figure 10 — PB-SYM-DD speedup with 16 threads, per decomposition.

Same sweep as Figure 9 (cells are shared); reports the simulated
16-processor makespan against sequential PB-SYM.  The paper's claims:

* DD beats DR overall: speedup > 8 on 9 instances;
* the peak is mid-sweep — fine decompositions balance load but the
  replication overhead eats the gain (the Section 4.2 tension);
* init-heavy (Flu) instances cap at ~2-4: parallel zeroing saturates
  memory bandwidth (modelled at 3x, the paper's measured value).

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig10_dd_speedup``
"""

from __future__ import annotations

import pytest

from .common import ALL_INSTANCES, DECOMPOSITIONS, record
from .conftest import note_experiment
from .sweeps import dd_cell


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig10_dd_speedup(benchmark, instance):
    def sweep():
        return [dd_cell(instance, k) for k in DECOMPOSITIONS]

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for c in cells:
        if c is not None:
            assert c["speedup_p16"] > 0


def test_fig10_report(benchmark):
    def report():
        rows = []
        print("\nFigure 10 — DD speedup at P=16 per decomposition (simulated)")
        print(f"{'instance':18s}" + "".join(f"{f'{k}^3':>9s}" for k in DECOMPOSITIONS)
              + f"{'best':>9s}")
        for inst in ALL_INSTANCES:
            line = f"{inst:18s}"
            best = 0.0
            for k in DECOMPOSITIONS:
                c = dd_cell(inst, k)
                if c is None:
                    line += f"{'skip':>9s}"
                    continue
                line += f"{c['speedup_p16']:8.2f}x"
                best = max(best, c["speedup_p16"])
                rows.append(dict(c))
            print(line + f"{best:8.2f}x")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig10_dd_speedup", rows)
    note_experiment("fig10_dd_speedup")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig10_report(_B())
