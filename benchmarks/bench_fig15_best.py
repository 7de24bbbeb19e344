"""Figure 15 — best configuration of each parallel method, per instance.

The paper's summary figure: for every instance, the best speedup each
strategy achieves over its configuration sweep.  The claims:

* PB-SYM-DD leads on the Dengue instances (low overhead there);
* the SCHED/REP family is needed to unlock PollenUS;
* Flu is flat for everyone (initialisation-bound) with DR strictly worst;
* replication-friendly methods shine on eBird-Lr and die (OOM) at Hr.

This bench reuses the sweep caches populated by the Figure 8-14 benches
when run in the same session, and computes whatever is missing.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig15_best``
"""

from __future__ import annotations

import math
from typing import Dict

import pytest

from .bench_fig8_dr_speedup import PS, run_dr
from .bench_fig14_pd_rep_speedup import rep_cell
from .common import ALL_INSTANCES, DECOMPOSITIONS, record
from .conftest import note_experiment
from .sweeps import dd_cell, dedupe_pd_ks, pd_cell

METHODS = ("pb-sym-dr", "pb-sym-dd", "pb-sym-pd", "pb-sym-pd-sched", "pb-sym-pd-rep")


def best_of(instance: str) -> Dict[str, float]:
    """Best speedup per method over its configuration sweep."""
    out: Dict[str, float] = {}
    dr = [run_dr(instance, P) for P in PS]
    out["pb-sym-dr"] = max((s for s in dr if s == s), default=math.nan)
    dd = [dd_cell(instance, k) for k in DECOMPOSITIONS]
    out["pb-sym-dd"] = max(
        (c["speedup_p16"] for c in dd if c is not None), default=math.nan
    )
    kmap = dedupe_pd_ks(instance)
    for sched, name in (("parity", "pb-sym-pd"), ("sched", "pb-sym-pd-sched")):
        cells = [pd_cell(instance, kmap[k], sched) for k in DECOMPOSITIONS]
        out[name] = max(c["speedup_p16"] for c in cells)
    reps = [rep_cell(instance, kmap[k]) for k in DECOMPOSITIONS]
    out["pb-sym-pd-rep"] = max(
        (c["speedup_p16"] for c in reps if not c["oom"]), default=math.nan
    )
    return out


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig15_best(benchmark, instance):
    best = benchmark.pedantic(best_of, args=(instance,), rounds=1, iterations=1)
    assert any(v == v and v > 0 for v in best.values())


def test_fig15_report(benchmark):
    def report():
        rows = []
        print("\nFigure 15 — best configuration of each method (speedup at P=16)")
        print(f"{'instance':18s}" + "".join(
            f"{m.replace('pb-sym-', ''):>10s}" for m in METHODS) + f"{'winner':>12s}")
        for inst in ALL_INSTANCES:
            best = best_of(inst)
            cells = ""
            for m in METHODS:
                v = best[m]
                cells += f"{'OOM':>10s}" if v != v else f"{v:9.2f}x"
            winner = max(
                (m for m in METHODS if best[m] == best[m]),
                key=lambda m: best[m],
            )
            rows.append({"instance": inst, **best, "winner": winner})
            print(f"{inst:18s}{cells}{winner.replace('pb-sym-', ''):>12s}")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("fig15_best", rows)
    note_experiment("fig15_best")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_fig15_report(_B())
