"""Benchmark-session plumbing.

Prints a consolidated paper-vs-measured report at the end of the session
from the JSON rows each bench module records under ``results/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# One BLAS thread before any bench module loads NumPy (as perfbench pins
# it), so no timed call pays a thread pool's start and every cell is one
# core's.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
_SESSION_EXPERIMENTS: list = []


def note_experiment(name: str) -> None:
    """Bench modules call this after recording so the session summary
    knows what ran."""
    if name not in _SESSION_EXPERIMENTS:
        _SESSION_EXPERIMENTS.append(name)


def pytest_sessionfinish(session, exitstatus):  # noqa: D401
    if not _SESSION_EXPERIMENTS:
        return
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    out = tr.write_line if tr else print
    out("")
    out("=" * 78)
    out("experiment records written this session (see EXPERIMENTS.md):")
    for name in _SESSION_EXPERIMENTS:
        path = RESULTS_DIR / f"{name}.json"
        try:
            rows = len(json.loads(path.read_text())["rows"])
        except Exception:
            rows = 0
        out(f"  results/{name}.json  ({rows} rows)")
    out("=" * 78)
