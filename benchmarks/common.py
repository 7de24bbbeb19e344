"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
Section 6: it runs the relevant algorithms on the (scaled) Table 2
instances, prints the same rows/series the paper reports, and appends
machine-readable JSON to ``results/`` (consumed when writing
EXPERIMENTS.md).

Conventions
-----------
* The sequential baseline for every speedup is measured PB-SYM on the
  same instance (the paper's convention).
* Parallel numbers use the ``simulated`` backend: real task costs, virtual
  processors (see DESIGN.md substitutions); ``P=16`` matches the paper's
  machine.
* pytest-benchmark runs each figure cell once (``rounds=1``): the cells
  are whole-algorithm executions, not microbenchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.algorithms import pb_sym
from repro.analysis import warm_baseline
from repro.core.grid import GridSpec, PointSet
from repro.data.datasets import Instance, get_instance, instance_names

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The paper's machine has 16 cores; every 16-thread figure uses this.
PAPER_P = 16

#: The paper's decomposition sweep (Figures 9-14).
DECOMPOSITIONS = (1, 2, 4, 8, 16, 32, 64)

#: Instance subsets per dataset, in Table 2 order.
ALL_INSTANCES = instance_names()

_BASELINE_CACHE: Dict[Tuple[str, str], float] = {}
_INSTANCE_CACHE: Dict[Tuple[str, str], Tuple[GridSpec, PointSet]] = {}


def load_instance(name: str, scale: str = "bench") -> Tuple[Instance, GridSpec, PointSet]:
    """Instance + grid + points, cached across benchmarks in a session."""
    inst = get_instance(name, scale)
    key = (name, scale)
    if key not in _INSTANCE_CACHE:
        _INSTANCE_CACHE[key] = (inst.grid(), inst.points())
    grid, pts = _INSTANCE_CACHE[key]
    return inst, grid, pts


def pb_sym_baseline(name: str, scale: str = "bench") -> float:
    """Measured sequential PB-SYM seconds for an instance (cached): the
    warm median of :func:`~repro.analysis.warm_baseline`."""
    key = (name, scale)
    if key not in _BASELINE_CACHE:
        _, grid, pts = load_instance(name, scale)
        _BASELINE_CACHE[key], _ = warm_baseline(lambda: pb_sym(pts, grid))
    return _BASELINE_CACHE[key]


def record(experiment: str, rows: List[Dict]) -> Path:
    """Append experiment rows to ``results/<experiment>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.json"
    payload = {
        "experiment": experiment,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


def fmt_seconds(s: float) -> str:
    if s != s:  # NaN
        return "      --"
    if s >= 100:
        return f"{s:8.1f}"
    return f"{s:8.3f}"


def print_series_header(title: str, columns: Sequence[str]) -> None:
    print(f"\n=== {title} ===")
    print("instance".ljust(20) + "".join(f"{c:>12s}" for c in columns))
