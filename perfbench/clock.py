"""Reference tick, bracketed sampling, and the statistics every metric uses.

The sandbox drifts between speed states, for seconds or for minutes at a
time (README.md, "Measurement protocol": this tick's per-run median moved
15 % within an hour; the issue's author saw 1.45x).  A raw in-run median
therefore depends on which state most samples landed in.  Every timed
sample here is bracketed by a fixed reference workload (the *tick*); the
reported time is

    raw * REF_NOMINAL_MS / mean(tick_before, tick_after)

so a sample taken in the slow state is scaled back by how slow the machine
measurably was around it.  The raw median is kept beside the normalised
one in every report.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "REF_NOMINAL_MS", "ref_tick", "Meter", "median", "quantile",
    "iqr_spread", "summarise",
]

#: Tick duration in this sandbox's fast state; the unit all normalised
#: times are expressed in.  A constant, never re-measured: changing it
#: rescales every metric of every later run.
REF_NOMINAL_MS = 3.3

_LOOP = 60_000
_MAT = np.random.default_rng(7).random((160, 160))
_VEC = np.random.default_rng(8).random(200_000)

# A tick taken this recently still describes the machine "just before".
_REUSE_S = 0.002


def ref_tick() -> float:
    """Seconds for the fixed reference work: interpreter + BLAS + stream.

    The mix mirrors what the workloads stress — Python dispatch, a small
    dense matmul chain, one memory pass — so the three slow down together
    with the code under test.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i & 7
    b = _MAT
    for _ in range(6):
        b = b @ _MAT
        b *= 1.0 / 80.0
    np.sqrt(_VEC).sum()
    return time.perf_counter() - t0


class Meter:
    """Collects ``(raw_seconds, ref_seconds)`` samples per metric name."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self.ticks: List[float] = []
        self._last: Tuple[float, float] = (0.0, -1.0)  # (tick, ended_at)

    def _tick(self) -> float:
        v = ref_tick()
        self.ticks.append(v)
        self._last = (v, time.perf_counter())
        return v

    def open(self) -> float:
        """The tick before a sample (shared with the previous sample's
        closing tick when that one has only just ended)."""
        tick, ended = self._last
        if time.perf_counter() - ended < _REUSE_S:
            return tick
        return self._tick()

    def close(self, name: str, raw: float, before: float) -> float:
        """Take the closing tick, record the sample, return its reference."""
        ref = 0.5 * (before + self._tick())
        self.samples.setdefault(name, []).append((raw, ref))
        return ref

    def normalised(self, name: str) -> List[float]:
        """Normalised seconds of every sample of ``name``."""
        return [normalise(raw, ref) for raw, ref in self.samples.get(name, [])]

    def raw(self, name: str) -> List[float]:
        return [raw for raw, _ in self.samples.get(name, [])]


def normalise(raw: float, ref: float) -> float:
    return raw * (REF_NOMINAL_MS / 1e3) / ref


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def quantile(xs: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(xs, dtype=np.float64), q))


def iqr_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the steadiness figure the driver computes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(ticks: Sequence[float]) -> Dict[str, float]:
    """The machine's state over a run, from its ticks."""
    ms = np.asarray(ticks, dtype=np.float64) * 1e3
    return {
        "machine.ref_tick_ms_min": float(ms.min()),
        "machine.ref_tick_ms_p50": float(np.median(ms)),
        "machine.slow_share": float((ms > 1.2 * REF_NOMINAL_MS).mean()),
    }
