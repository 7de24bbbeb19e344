"""Social-media burst analysis: parallel strategies on clustered data.

The PollenUS dataset (588 K allergy tweets) is the paper's stress test for
parallel STKDE: tweets pile up in a few metro areas, so domain
decomposition suffers replication overhead and point decomposition
suffers critical-path serialisation.  This example runs a pollen-like
instance through all the strategies and shows the trade-off landscape
(a miniature of the paper's Figure 15).

Run:  python examples/pollen_social_media.py
"""

from __future__ import annotations

from repro import STKDE
from repro.algorithms import pb_sym
from repro.analysis import dd_work_overhead, pd_critical_path_ratio, speedup
from repro.data import get_instance

P = 8  # virtual processors (simulated backend)
DEC = (8, 8, 8)


def main() -> None:
    inst = get_instance("PollenUS_Hr-Mb", scale="bench")
    grid, points = inst.grid(), inst.points()
    print(f"instance: {inst.describe()}")

    base = pb_sym(points, grid)
    print(f"\nsequential PB-SYM: {base.elapsed * 1e3:.0f} ms "
          f"(init {base.timer.fraction('init'):.0%} / "
          f"compute {base.timer.fraction('compute'):.0%})")

    print(f"\nstructural diagnostics at decomposition {DEC}:")
    dd = dd_work_overhead(points, grid, DEC)
    print(f"  DD replication factor   : {dd['replication_factor']:.2f} "
          f"(each tweet stamped in that many subdomains)")
    print(f"  DD invariant overhead   : {dd['invariant_overhead']:.2f}x")
    cp_pd = pd_critical_path_ratio(points, grid, DEC, "parity")
    cp_sc = pd_critical_path_ratio(points, grid, DEC, "sched")
    print(f"  PD critical path        : {cp_pd:.1%} of total work "
          f"(caps speedup at {1 / cp_pd:.1f}x)")
    print(f"  PD-SCHED critical path  : {cp_sc:.1%}")

    print(f"\nparallel strategies at P={P} (simulated makespans):")
    rows = []
    for name in ("pb-sym-dr", "pb-sym-dd", "pb-sym-pd", "pb-sym-pd-sched",
                 "pb-sym-pd-rep"):
        est = STKDE(hs=grid.hs, ht=grid.ht, algorithm=name, P=P,
                    decomposition=DEC)
        res = est.estimate(points, grid.domain)
        s = speedup(base.elapsed, res)
        rows.append((name, res.meta["makespan"], s))
    for name, ms, s in rows:
        bar = "#" * int(round(s * 4))
        print(f"  {name:16s} {ms * 1e3:8.0f} ms  speedup {s:5.2f}x  {bar}")

    winner = max(rows, key=lambda r: r[2])
    print(f"\nbest strategy here: {winner[0]} at {winner[2]:.2f}x — on "
          f"PollenUS-like data the scheduled point decomposition family "
          f"wins, as in the paper's Figure 15.")


if __name__ == "__main__":
    main()
