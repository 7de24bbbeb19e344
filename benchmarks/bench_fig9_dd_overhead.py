"""Figure 9 — PB-SYM-DD single-thread overhead per decomposition.

Runs the decomposition sweep 1^3..64^3 and reports the 1-thread DD total
(bin + init + all subdomain stamps) normalised to sequential PB-SYM.  The
paper's claims:

* overhead grows with decomposition (cut cylinders recompute invariants);
* PollenUS suffers worst (495% at 64^3);
* mild decompositions can even *help* via cache locality (Flu Hr-Lb was
  9.8% faster at 16^3 in C++ — in Python, the fixed per-replica dispatch
  cost usually hides this; EXPERIMENTS.md discusses).

Cells whose predicted replica blow-up exceeds the skip cap are omitted —
the paper does the same for eBird Hr-Hb.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig9_dd_overhead``
"""

from __future__ import annotations

import pytest

from .common import ALL_INSTANCES, DECOMPOSITIONS, record
from .conftest import note_experiment
from .sweeps import dd_cell


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig9_dd_overhead(benchmark, instance):
    def sweep():
        return [dd_cell(instance, k) for k in DECOMPOSITIONS]

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ran = [c for c in cells if c is not None]
    assert ran, "every instance must run at least the 1^3 cell"
    # 1^3 must carry no replication at all.
    base = next(c for c in ran if c["k"] == 1)
    assert base["replication_factor"] == 1.0


def test_fig9_report(benchmark):
    def report():
        rows = []
        print("\nFigure 9 — DD 1-thread time relative to PB-SYM (replication in parens)")
        print(f"{'instance':18s}" + "".join(f"{f'{k}^3':>14s}" for k in DECOMPOSITIONS))
        for inst in ALL_INSTANCES:
            line = f"{inst:18s}"
            for k in DECOMPOSITIONS:
                c = dd_cell(inst, k)
                if c is None:
                    line += f"{'skip':>14s}"
                    rows.append({"instance": inst, "k": k, "skipped": True})
                else:
                    line += f"{c['overhead_vs_pb_sym']:7.2f}({c['replication_factor']:4.1f})"
                    rows.append({k2: v for k2, v in c.items()})
            print(line)
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig9_dd_overhead", rows)
    note_experiment("fig9_dd_overhead")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig9_report(_B())
