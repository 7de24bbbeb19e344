"""Ablation — sensitivity to the memory-bandwidth saturation cap.

DESIGN.md models parallel volume initialisation as saturating at ~3x
(the paper's measured value on its dual-socket Xeon).  This ablation
re-simulates DD at P=16 under caps {1, 3, 16} to show which conclusions
depend on the cap:

* on init-dominated instances (Flu) the end-to-end speedup tracks the cap
  almost 1:1 — the paper's "even if compute were free, speedup would be
  3.7" observation;
* on compute-dominated instances (PollenUS-Hb) the cap barely matters.

Standalone: ``PYTHONPATH=src python -m benchmarks.bench_ablation_bandwidth``
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.parallel import pb_sym_dd
from repro.parallel.schedule import BandwidthModel

from .common import PAPER_P, load_instance, pb_sym_baseline, record
from .conftest import note_experiment

INSTANCES = ("Flu_Hr-Lb", "Flu_Mr-Lb", "Dengue_Lr-Lb", "PollenUS_Hr-Mb", "eBird_Lr-Hb")
CAPS = (1.0, 3.0, 16.0)
_CELLS: Dict[Tuple[str, float], float] = {}


def run_cell(instance: str, cap: float) -> float:
    key = (instance, cap)
    if key not in _CELLS:
        _, grid, pts = load_instance(instance)
        res = pb_sym_dd(
            pts, grid, P=PAPER_P, decomposition=(8, 8, 8),
            backend="simulated", bandwidth=BandwidthModel(cap=cap),
        )
        _CELLS[key] = pb_sym_baseline(instance) / res.meta["makespan"]
    return _CELLS[key]


@pytest.mark.parametrize("instance", INSTANCES)
def test_ablation_bandwidth(benchmark, instance):
    def sweep():
        return {cap: run_cell(instance, cap) for cap in CAPS}

    sps = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # More bandwidth never hurts *within one measurement* — but each cap
    # re-measures the serial tasks, so allow cross-run timing noise.
    assert sps[1.0] <= sps[3.0] * 1.3
    assert sps[3.0] <= sps[16.0] * 1.3


def test_ablation_bandwidth_report(benchmark):
    def report():
        rows = []
        print(f"\nAblation — DD speedup at P={PAPER_P} vs memory-bandwidth cap")
        print(f"{'instance':18s}" + "".join(f"{f'cap={c:g}':>10s}" for c in CAPS)
              + f"{'cap-bound?':>12s}")
        for inst in INSTANCES:
            sps = {cap: run_cell(inst, cap) for cap in CAPS}
            sensitive = sps[16.0] / max(sps[1.0], 1e-9)
            rows.append({"instance": inst,
                         **{f"cap_{c:g}": s for c, s in sps.items()},
                         "sensitivity": sensitive})
            cells = "".join(f"{sps[c]:9.2f}x" for c in CAPS)
            tag = "yes" if sensitive > 1.5 else "no"
            print(f"{inst:18s}{cells}{tag:>12s}")
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)
    record("ablation_bandwidth", rows)
    note_experiment("ablation_bandwidth")


if __name__ == "__main__":
    class _B:
        def pedantic(self, fn, args=(), rounds=1, iterations=1):
            return fn(*args)

    test_ablation_bandwidth_report(_B())
