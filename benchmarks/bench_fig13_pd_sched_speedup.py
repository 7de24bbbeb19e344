"""Figure 13 — PB-SYM-PD-SCHED speedup with 16 threads.

Same sweep as Figure 11 with the load-aware colouring and task-graph
scheduling.  The paper's claims:

* significant lift over PD on the PollenUS instances (heavy blocks first);
* superlinear speedup appears on PollenUS VHr-VLb (decomposition improves
  locality relative to the sequential order — our Python runs show the
  same effect);
* Flu instances remain capped by initialisation.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_fig13_pd_sched_speedup``
"""

from __future__ import annotations

import pytest

from .common import ALL_INSTANCES, DECOMPOSITIONS, record
from .conftest import note_experiment
from .bench_fig11_pd_speedup import _report, sweep


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_fig13_pd_sched(benchmark, instance):
    cells = benchmark.pedantic(sweep, args=(instance, "sched"), rounds=1, iterations=1)
    for c in cells.values():
        assert c["speedup_p16"] > 0


def test_fig13_report(benchmark):
    rows = benchmark.pedantic(_report, args=("sched", "13"), rounds=1, iterations=1)
    record("fig13_pd_sched_speedup", rows)
    note_experiment("fig13_pd_sched_speedup")


if __name__ == "__main__":
    _report("sched", "13")
