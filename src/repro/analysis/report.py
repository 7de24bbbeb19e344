"""Summarise recorded benchmark results into the EXPERIMENTS verdicts.

The benchmark harness writes one JSON file per experiment under
``results/``; this module turns a directory of those into the compact
paper-vs-measured summary used in EXPERIMENTS.md — and programmatically
checks the *shape* claims (orderings, regime classifications, OOM
patterns), so a regression that flips a conclusion fails loudly instead of
hiding in a wall of numbers.

Usage::

    python -m repro.analysis.report results/
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["ShapeCheck", "load_experiment", "check_all", "main"]


@dataclass
class ShapeCheck:
    """Outcome of one shape assertion against recorded results."""

    experiment: str
    claim: str
    passed: Optional[bool]  # None = experiment not recorded

    def describe(self) -> str:
        mark = "??" if self.passed is None else ("ok" if self.passed else "FAIL")
        return f"[{mark:>4s}] {self.experiment:24s} {self.claim}"


def load_experiment(results_dir: Path, name: str) -> Optional[List[dict]]:
    """Rows of one recorded experiment, or ``None`` if absent."""
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["rows"]


def _rows_by_instance(rows: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for r in rows:
        out.setdefault(r.get("instance", "?"), []).append(r)
    return out


def check_all(results_dir: Path) -> List[ShapeCheck]:
    """Evaluate every recorded experiment's headline shape claim."""
    checks: List[ShapeCheck] = []

    # Table 3: PB-SYM fastest point-based algorithm wherever reported.
    rows = load_experiment(results_dir, "table3_sequential")
    ok = None
    if rows is not None:
        ok = True
        for r in rows:
            pb, sym = r.get("pb"), r.get("pb-sym")
            if pb is not None and sym is not None and sym > pb * 1.1:
                ok = False
    checks.append(ShapeCheck("table3_sequential",
                             "PB-SYM never slower than PB", ok))

    # Figure 7: Flu init-heavier than PollenUS by work fraction.
    rows = load_experiment(results_dir, "fig7_breakdown")
    ok = None
    if rows is not None:
        by = {r["instance"]: r for r in rows}
        key = "init_work_fraction" if "init_work_fraction" in rows[0] else "init_fraction"
        flu = [v[key] for k, v in by.items() if k.startswith("Flu")]
        pol = [v[key] for k, v in by.items() if k.startswith("PollenUS")]
        ok = bool(flu and pol and min(flu) > max(pol))
    checks.append(ShapeCheck("fig7_breakdown",
                             "every Flu instance more init-bound than any PollenUS", ok))

    # Figure 8: Flu_Hr OOM at P>=8; eBird_Hr OOM at P>=2.
    rows = load_experiment(results_dir, "fig8_dr_speedup")
    ok = None
    if rows is not None:
        by = {r["instance"]: r for r in rows}

        def is_oom(inst, p):
            v = by[inst].get(f"P{p}")
            return v is None or (isinstance(v, float) and math.isnan(v)) or v != v or str(v) == "nan"

        ok = (
            is_oom("Flu_Hr-Lb", 8) and is_oom("Flu_Hr-Lb", 16)
            and not is_oom("Flu_Hr-Lb", 4)
            and is_oom("eBird_Hr-Lb", 2)
        )
    checks.append(ShapeCheck("fig8_dr_speedup",
                             "Flu-Hr OOM at P>=8 only; eBird-Hr at P>=2", ok))

    # Figure 9: DD overhead trends upward over the decomposition sweep.
    # (Trend, not stepwise monotonicity: individual cells carry wall-clock
    # noise, and the paper itself reports occasional dips from cache
    # effects at mild decompositions.)
    rows = load_experiment(results_dir, "fig9_dd_overhead")
    ok = None
    if rows is not None:
        ok = True
        for inst, rs in _rows_by_instance(rows).items():
            ks = sorted(
                (r["k"], r["overhead_vs_pb_sym"]) for r in rs
                if not r.get("skipped") and "overhead_vs_pb_sym" in r
            )
            vals = [v for _, v in ks]
            if len(vals) >= 2 and vals[-1] < vals[0] * 0.9:
                ok = False  # finest decomposition cheaper than 1^3: wrong
    checks.append(ShapeCheck("fig9_dd_overhead",
                             "DD overhead grows over the decomposition sweep", ok))

    # Figure 12: PollenUS Hr-Hb is the critical-path outlier.
    rows = load_experiment(results_dir, "fig12_critical_path")
    ok = None
    if rows is not None:
        by = {r["instance"]: r for r in rows}
        outlier = by.get("PollenUS_Hr-Hb", {}).get("pd", 0)
        others = [r["pd"] for k, r in by.items() if k != "PollenUS_Hr-Hb"]
        ok = bool(others) and outlier > max(others)
    checks.append(ShapeCheck("fig12_critical_path",
                             "PollenUS Hr-Hb has the longest critical path", ok))

    # Figure 14: Flu_Hr-Hb OOMs at the coarsest decompositions.
    rows = load_experiment(results_dir, "fig14_pd_rep_speedup")
    ok = None
    if rows is not None:
        flu = [r for r in rows if r["instance"] == "Flu_Hr-Hb"]
        coarse = [r for r in flu if r["k"] <= 2]
        ok = bool(coarse) and all(r.get("oom") for r in coarse)
    checks.append(ShapeCheck("fig14_pd_rep_speedup",
                             "Flu-Hr-Hb OOMs at coarse decompositions", ok))

    # Region engine (PR 2): bbox shard buffers strictly below P full
    # private volumes on every threads row, engine instrumentation present
    # (tile batches counted, shard bbox cells recorded), and every path
    # equivalent to its legacy reference.
    rows = load_experiment(results_dir, "region_engine")
    ok = None
    if rows is not None:
        threads_rows = [r for r in rows if r.get("path") == "threads-bbox"]
        tile_rows = [r for r in rows if r.get("path") == "vb-tiles"]
        ok = (
            bool(threads_rows)
            and all(
                r["peak_shard_buffer_bytes"] < r["full_private_volumes_bytes"]
                and r.get("shard_bbox_cells", 0) > 0
                for r in threads_rows
            )
            and all(r.get("tile_batches", 0) > 0 for r in tile_rows)
            and all(
                r.get("equivalent_rtol_1e12", r.get("equivalent_rtol_1e9", False))
                for r in rows
            )
        )
    checks.append(ShapeCheck("region_engine",
                             "bbox shard buffers < P full volumes; paths equivalent", ok))

    # Slide pipeline (PR 5): t-slabbed retirement must beat the
    # restamp-survivors baseline on kernel evaluations (the O(delta)
    # slide claim), with the slab gauges recorded and every config
    # equivalent to the cold recompute.
    rows = load_experiment(results_dir, "region_engine")
    ok = None
    if rows is not None:
        slide_rows = [r for r in rows if r.get("path") == "slide-pipeline"]
        slab_rows = [
            r for r in slide_rows if r.get("config") != "restamp-survivors"
        ]
        if slide_rows:
            ok = (
                bool(slab_rows)
                and all(
                    r.get("kernel_eval_reduction_vs_restamp", 0) > 1.0
                    and r.get("slab_buffers_retired", 0) > 0
                    for r in slab_rows
                )
                and any(
                    r.get("kernel_eval_reduction_vs_restamp", 0) >= 3.0
                    for r in slab_rows
                )
                and all(
                    r.get("equivalent_rtol_1e12", False) for r in slide_rows
                )
            )
    checks.append(ShapeCheck("slide_pipeline",
                             "t-slab retirement >= 3x fewer kernel evals; equivalent", ok))

    # Sharded serving (PR 6): the workers-scaling row must record the CPU
    # count it ran with and be either *honestly skipped* (too few cores,
    # with a reason) or measured — in which case the sharded scatter/gather
    # answers must match the single-process direct engine at rtol=1e-12
    # and the speedup must be recorded.  Faked rows (skipped but carrying
    # speedups, or measured without equivalence) fail the check.
    rows = load_experiment(results_dir, "query_serving")
    ok = None
    if rows is not None:
        w_rows = [r for r in rows if r.get("path") == "workers-scaling"]
        if w_rows:
            ok = True
            for r in w_rows:
                if r.get("cpu_count", 0) < 1 or "skipped" not in r:
                    ok = False
                elif r["skipped"]:
                    if "reason" not in r or "workers_speedup" in r:
                        ok = False  # skipped rows must not carry numbers
                elif not (
                    r.get("sharded_matches_single_rtol_1e12", False)
                    and r.get("workers_speedup", 0) > 0
                ):
                    ok = False
    checks.append(ShapeCheck("sharded_serving",
                             "workers row skipped-or-equivalent (rtol=1e-12), cpu_count recorded", ok))

    # Approximate tier (PR 7): every eps row must carry a *measured* p95
    # relative error sitting within its requested budget and a fixed-seed
    # reproducibility flag; the sampler must beat the exact direct sum on
    # the dense batch somewhere in the sweep (measured, not extrapolated);
    # and the calibrated planner must route the eps=0.1 dense batch to
    # the approx backend on its own.
    rows = load_experiment(results_dir, "query_serving")
    ok = None
    if rows is not None:
        a_rows = [r for r in rows if r.get("path") == "approx-tier"]
        if a_rows:
            ok = (
                all(
                    r.get("rel_err_within_eps", False)
                    and r.get("p95_rel_err", float("inf")) <= r.get("eps", 0)
                    and r.get("reproducible_fixed_seed", False)
                    for r in a_rows
                )
                and any(r.get("approx_speedup", 0) > 1.0 for r in a_rows)
                and all(
                    r.get("planner_choice") == "approx"
                    for r in a_rows if r.get("eps") == 0.1
                )
                and any(r.get("eps") == 0.1 for r in a_rows)
            )
    checks.append(ShapeCheck("approx_tier",
                             "p95 rel err within every eps; sampler beats exact; planner routes approx", ok))

    # Compute backends (PR 10): the per-backend direct-sum columns must
    # name every registered backend: the reference row measured, every
    # other row either honestly skipped (reason, no numbers) or measured
    # with an rtol=1e-12 equivalence flag against numpy-ref.  Skipped
    # rows carrying speedups, or measured rows without equivalence, fail.
    rows = load_experiment(results_dir, "query_serving")
    ok = None
    if rows is not None:
        b_rows = [r for r in rows if r.get("path") == "compute-backends"]
        if b_rows:
            names = {r.get("backend") for r in b_rows}
            ok = {"numpy-ref", "numpy-fused"} <= names
            for r in b_rows:
                if "skipped" not in r:
                    ok = False
                elif r["skipped"]:
                    if "reason" not in r or "speedup_vs_numpy_ref" in r:
                        ok = False  # skipped rows must not carry numbers
                elif not (
                    r.get("equivalent_rtol_1e12", False)
                    and r.get("direct_seconds", 0) > 0
                ):
                    ok = False
            ref = [r for r in b_rows if r.get("backend") == "numpy-ref"]
            if not (ref and not ref[0].get("skipped", True)):
                ok = False
    checks.append(ShapeCheck("compute_backends",
                             "per-backend rows skipped-or-equivalent (rtol=1e-12), numpy-ref measured", ok))

    # Traffic front end (PR 8): the coalescing row must carry a
    # *measured* >= 4x throughput win over per-request dispatch with
    # equivalent answers, and the open-loop sweep must record a p99 at
    # every offered load, shed exactly nothing below the admission knee,
    # and actually shed (not queue without bound) on the overload row.
    rows = load_experiment(results_dir, "traffic")
    ok = None
    if rows is not None:
        c_rows = [r for r in rows if r.get("path") == "coalesce"]
        o_rows = [r for r in rows if r.get("path") == "open-loop"]
        if c_rows and o_rows:
            ok = (
                all(
                    r.get("measured", False)
                    and r.get("coalesce_speedup", 0) >= 4.0
                    and r.get("answers_match_rtol_1e9", False)
                    for r in c_rows
                )
                and all(
                    r.get("measured", False)
                    and r.get("p99_ms", 0) > 0
                    and "offered_rps" in r and "shed_rate" in r
                    for r in o_rows
                )
                and all(
                    r.get("shed", 1) == 0
                    for r in o_rows if r.get("below_knee")
                )
                and any(r.get("below_knee") for r in o_rows)
                and all(
                    r.get("shed", 0) > 0
                    for r in o_rows if not r.get("below_knee")
                )
                and any(not r.get("below_knee") for r in o_rows)
            )
    checks.append(ShapeCheck("traffic_frontend",
                             "coalescing >= 4x per-request; p99 at every load; shed 0 below knee", ok))

    # Fault tolerance (PR 9): every MTTR row must be a *measured*
    # recovery (positive wall time, real replayed state, at least one
    # restart consumed) whose healed shard matched the cold rebuild at
    # rtol=1e-12; the throughput row must record the availability dip;
    # and the degraded row must return a coverage in (0, 1] with the
    # degraded_queries gauge moving — a "degraded" read that silently
    # reports full coverage fails the check.
    rows = load_experiment(results_dir, "faults")
    ok = None
    if rows is not None:
        m_rows = [r for r in rows if r.get("path") == "mttr"]
        t_rows = [r for r in rows if r.get("path") == "recovery-throughput"]
        d_rows = [r for r in rows if r.get("path") == "degraded"]
        ok = (
            bool(m_rows)
            and all(
                r.get("measured", False)
                and r.get("mttr_seconds", 0) > 0
                and r.get("state_rows", 0) > 0
                and r.get("shard_restarts", 0) >= 1
                and r.get("post_recovery_matches_cold_rtol_1e12", False)
                for r in m_rows
            )
            and bool(t_rows)
            and all(
                r.get("recovery_query_seconds", 0) > 0
                and r.get("qps_before", 0) > 0
                and r.get("qps_after", 0) > 0
                for r in t_rows
            )
            and bool(d_rows)
            and all(
                r.get("returned_partial", False)
                and 0.0 < r.get("coverage", 0.0) <= 1.0
                and r.get("degraded_queries_gauge", 0) > 0
                for r in d_rows
            )
        )
    checks.append(ShapeCheck("fault_tolerance",
                             "MTTR measured + heals to rtol=1e-12; degraded coverage in (0,1]", ok))

    # Figure 15: Flu never won by DR; some REP/SCHED win on PollenUS.
    rows = load_experiment(results_dir, "fig15_best")
    ok = None
    if rows is not None:
        by = {r["instance"]: r for r in rows}
        flu_ok = not any(
            by[k]["winner"] == "pb-sym-dr" for k in by if k.startswith("Flu")
        )
        pol_ok = any(
            by[k]["winner"] in ("pb-sym-pd-rep", "pb-sym-pd-sched")
            for k in by if k.startswith("PollenUS")
        )
        ok = flu_ok and pol_ok
    checks.append(ShapeCheck("fig15_best",
                             "DR never wins Flu; SCHED/REP wins some PollenUS", ok))

    return checks


def main(argv: Optional[List[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    results_dir = Path(args[0]) if args else Path("results")
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}", file=sys.stderr)
        return 2
    checks = check_all(results_dir)
    print(f"shape checks over {results_dir}:")
    failed = 0
    for c in checks:
        print("  " + c.describe())
        if c.passed is False:
            failed += 1
    recorded = sum(1 for c in checks if c.passed is not None)
    print(f"{recorded}/{len(checks)} experiments recorded, {failed} shape failures")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
