"""Near-real-time monitoring: a live feed served through the front end.

The paper's motivation is timely epidemic response: new case reports
arrive daily and analysts watch a rolling window.  This example runs the
whole serving stack the way a deployment would:

* an :class:`~repro.core.incremental.IncrementalSTKDE` maintains the
  rolling 30-day window exactly — each day tracks the new events and
  drops the expired ones (bookkeeping, independent of history; a
  volume read stamps only what changed since the last one);
* a :class:`~repro.serve.DensityService` answers density queries over
  the live estimator;
* an asyncio :class:`~repro.serve.TrafficFrontend` takes the traffic —
  a crowd of concurrent analyst clients probing point densities while a
  dashboard pulls the day's slice and the daily feed slides the window
  through the mutation lane.  Co-arriving point probes coalesce into
  shared batches (asserted below via the frontend's own counters), and
  the slide never tears a flush: every answer is computed against a
  single service version.

Run:  python examples/realtime_monitoring.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import GridSpec, IncrementalSTKDE, PointSet
from repro.algorithms import pb_sym
from repro.core import DomainSpec
from repro.serve import DensityService, TrafficFrontend

EXTENT = (120, 100, 400)  # city grid, ~13 months of days
WINDOW_DAYS = 30.0
ANALYSTS = 12  # concurrent point-probing clients per day
PROBES = 6     # probes each analyst issues, back to back


def daily_feed(day: int, rng) -> np.ndarray:
    """Synthetic daily case reports: a drifting outbreak + noise."""
    n = int(rng.poisson(40))
    center = np.array([30.0 + 0.15 * day, 40.0 + 0.1 * day])
    cases = np.column_stack([
        rng.normal(center[0], 4.0, n),
        rng.normal(center[1], 4.0, n),
        np.full(n, float(day)) + rng.uniform(0, 1, n),
    ])
    noise = np.column_stack([
        rng.uniform(0, EXTENT[0], 5),
        rng.uniform(0, EXTENT[1], 5),
        np.full(5, float(day)) + rng.uniform(0, 1, 5),
    ])
    return np.clip(np.vstack([cases, noise]), 0, [EXTENT[0] - 1e-9, EXTENT[1] - 1e-9, EXTENT[2] - 1e-9])


async def analyst(fe: TrafficFrontend, rng_seed: int, day: int) -> float:
    """One analyst: a burst of single-point probes around the city —
    each its own request; the front end does the batching."""
    rng = np.random.default_rng(rng_seed)
    peak = 0.0
    for _ in range(PROBES):
        x = rng.uniform(0, EXTENT[0])
        y = rng.uniform(0, EXTENT[1])
        t = day + rng.uniform(0, 1)
        peak = max(peak, await fe.query_point(x, y, t))
    return peak


async def monitor() -> None:
    grid = GridSpec(DomainSpec.from_voxels(*EXTENT), hs=6.0, ht=5.0)
    inc = IncrementalSTKDE(grid)
    service = DensityService(inc, backend="direct")
    rng = np.random.default_rng(99)

    print(f"rolling {WINDOW_DAYS:.0f}-day STKDE window on a "
          f"{EXTENT[0]}x{EXTENT[1]} city grid, "
          f"{ANALYSTS} concurrent analysts x {PROBES} probes/day\n")
    print(f"{'day':>4s} {'events':>7s} {'live':>6s} {'slide':>9s} "
          f"{'probes':>9s} {'hotspot (x,y)':>14s}")

    window: list = []
    async with TrafficFrontend(service) as fe:
        for day in range(0, 90, 10):  # sample every 10th day of a season
            batch = daily_feed(day, rng)
            horizon = max(0.0, day - WINDOW_DAYS)

            t0 = time.perf_counter()
            # The feed slides through the mutation lane: versioned,
            # FIFO, never interleaved with a started bulk extract.
            await fe.slide_window(batch, t_horizon=horizon)
            t_slide = time.perf_counter() - t0

            window = [b[b[:, 2] >= horizon] for b in window]
            window.append(batch)

            # The analyst crowd and the dashboard hit the front end
            # together; co-arriving probes coalesce into shared batches.
            t0 = time.perf_counter()
            peaks, dash = await asyncio.gather(
                asyncio.gather(*(
                    analyst(fe, 1000 * day + i, day)
                    for i in range(ANALYSTS)
                )),
                fe.query_slice(min(day, EXTENT[2] - 1)),
            )
            t_probes = time.perf_counter() - t0
            sl = dash.time_slice()
            X, Y = np.unravel_index(int(np.argmax(sl)), sl.shape)
            print(f"{day:>4d} {len(batch):>7d} {inc.n:>6d} "
                  f"{t_slide * 1e3:>8.1f}ms {t_probes * 1e3:>8.1f}ms "
                  f"{f'({X},{Y})':>14s}")

        blob = fe.frontend_stats()

    # The coalescer really batched: far fewer dispatches than requests.
    assert blob["coalesced_requests"] > blob["batches"], blob
    assert blob["mean_batch_rows"] > 1.5, blob
    print(f"\nfrontend: {blob['coalesced_requests']} point probes served "
          f"in {blob['batches']} dispatches "
          f"(mean {blob['mean_batch_rows']:.1f} rows/batch, "
          f"p99 {blob['latency']['p99_ms']:.2f} ms, shed {blob['shed']})")

    # The served window still matches a cold batch recomputation exactly.
    live = np.vstack([b for b in window if len(b)])
    drift = np.max(np.abs(inc.volume().data - pb_sym(PointSet(live), grid).data))
    assert drift < 1e-12, "incremental estimate drifted from batch"
    print("the hotspot drifts with the outbreak; an update is bookkeeping "
          "and a volume read stamps only\nthe changed events, while "
          f"matching the full recomputation exactly (max drift {drift:.2e}).")


def main() -> None:
    asyncio.run(monitor())


if __name__ == "__main__":
    main()
