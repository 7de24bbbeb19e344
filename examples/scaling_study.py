"""Scaling study: every parallel strategy across P = 1..16.

A miniature of the paper's whole Section 6: for one compute-heavy
instance, sweep the (virtual) processor count for each strategy and print
the speedup curves side by side — showing DR's replication tax, DD's
imbalance ceiling, PD's critical-path plateau, and how SCHED/REP lift it.

Run:  python examples/scaling_study.py [instance-name]
"""

from __future__ import annotations

import sys

from repro import STKDE
from repro.algorithms import pb_sym
from repro.analysis import speedup
from repro.data import get_instance, instance_names

PS = (1, 2, 4, 8, 16)
DEC = (16, 16, 16)
STRATEGIES = ("pb-sym-dr", "pb-sym-dd", "pb-sym-pd", "pb-sym-pd-sched",
              "pb-sym-pd-rep")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Dengue_Hr-VHb"
    if name not in instance_names():
        raise SystemExit(f"unknown instance {name!r}; pick one of "
                         f"{', '.join(instance_names())}")
    inst = get_instance(name, scale="bench")
    grid, points = inst.grid(), inst.points()
    print(f"instance: {inst.describe()}")

    base = pb_sym(points, grid)
    print(f"sequential PB-SYM baseline: {base.elapsed * 1e3:.0f} ms\n")

    header = "P".rjust(4) + "".join(f"{s.replace('pb-sym-', ''):>12s}" for s in STRATEGIES)
    print(header)
    print("-" * len(header))
    curves = {s: [] for s in STRATEGIES}
    for P in PS:
        cells = [f"{P:4d}"]
        for s in STRATEGIES:
            est = STKDE(hs=grid.hs, ht=grid.ht, algorithm=s, P=P,
                        decomposition=DEC,
                        memory_budget_bytes=inst.memory_budget_bytes)
            try:
                res = est.estimate(points, grid.domain)
                sp = speedup(base.elapsed, res)
                curves[s].append(sp)
                cells.append(f"{sp:11.2f}x")
            except Exception:
                curves[s].append(float("nan"))
                cells.append("        OOM ")
        print("".join(cells))

    print("\nwhat to look for (cf. Figures 8-15):")
    print(" * dr        — pays P volume inits + reductions; poor on sparse data")
    print(" * dd        — replication overhead vs load balance trade-off")
    print(" * pd        — plateaus at 1/critical-path-ratio")
    print(" * pd-sched  — same work, better ordering; lifts clustered instances")
    print(" * pd-rep    — splits the hot chain; best when one cluster dominates")


if __name__ == "__main__":
    main()
