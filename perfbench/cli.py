"""Command line: the driver's single-workload run, the full suite, ``--aa``.

``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``
is the contract of ``BENCHMARK.json``: one workload, one JSON object on
the last line.  Without ``--workload`` the same code runs all four and
prints every metric by name (``PYTHONPATH=src python -m perfbench``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from .clock import iqr_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """Environment of every measuring process: one BLAS/OpenMP thread, a
    fixed hash seed, no stale bytecode (imports always compile, so
    ``setup_s`` does not depend on what an earlier run left behind)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float = 0.0,
              smoke: bool = False) -> dict:
    """Run one child to completion and parse its last line."""
    cmd = [sys.executable, "-m", "perfbench.child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One driver-contract run: ``{correct, attempted, failed, metrics}``
    (each metric also carries its sample count and raw median)."""
    if trace:
        out = run_child("trace", workload, seed, seconds, smoke)
        metrics = out["metrics"]
    else:
        setups = [run_child("setup", workload, seed, smoke=smoke)
                  for _ in range(SETUP_RUNS)]
        out = run_child("measure", workload, seed, seconds, smoke)
        metrics = {"setup_s": {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s", "n": len(setups),
            "raw": statistics.median(s["raw_s"] for s in setups),
        }}
        metrics.update(out["metrics"])
        for s in setups:
            out["attempted"] += s["attempted"]
            out["failed"] += s["failed"]
    return {
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"], "metrics": metrics,
        "machine": out["machine"],
    }


def contract_line(result: dict) -> str:
    """The driver's last line: exactly the four keys, value and unit."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    })


def print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        extra = f"n={m['n']}"
        if m.get("raw", m["value"]) != m["value"]:
            extra += f" raw={m['raw']:.6g}"
        print(f"{workload:14s} {name:42s} {m['value']:14.6g} "
              f"{m['unit']:6s} {extra}")
    print(f"{workload:14s} ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']} correct={result['correct']} "
          f"machine={json.dumps(result['machine'])}")


def aa_test(n: int, seed: int, seconds: float, smoke: bool) -> int:
    """Run the suite ``2n`` times, alternating sides A and B of the same
    code, and hold each metric's difference of medians to its bound."""
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    sides: Dict[str, Dict[tuple, List[float]]] = {"A": {}, "B": {}}
    for i in range(2 * n):
        side = "AB"[i % 2]
        for w in names:
            result = run_workload(w, seed + i, seconds, False, smoke)
            if not result["correct"]:
                print(f"run {i} {w}: {result['failed']} failed ops")
                return 1
            for m, v in result["metrics"].items():
                sides[side].setdefault((w, m), []).append(v["value"])
        print(f"[aa] run {i + 1}/{2 * n} (side {side}) done", flush=True)
    breaches = 0
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>6s} {'spread':>7s}")
    for e in spec["end_to_end"]:
        for w in names:
            a, b = sides["A"][(w, e["name"])], sides["B"][(w, e["name"])]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if e["better"] == "lower" else (ma - mb) / ma
            spread = iqr_spread(a + b)
            breach = abs(worse) > e["bound"]
            breaches += breach
            print(f"{w:14s} {e['name']:18s} {ma:12.5g} {mb:12.5g} "
                  f"{worse:+8.3f} {e['bound']:6.2f} {spread:7.3f}"
                  f"{'  BREACH' if breach else ''}")
    return 1 if breaches else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    ap.add_argument("--workload", help="run one workload (driver contract)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the traced per-layer run")
    ap.add_argument("--aa", type=int, metavar="N",
                    help="A/A test: 2N suite runs, alternating sides")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro is not in this checkout; nothing to "
              "measure", file=sys.stderr)
        return 2
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.aa:
        return aa_test(args.aa, args.seed, seconds, args.smoke)
    if args.workload:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        print_result(args.workload, result)
        print(contract_line(result))
        return 0
    failed = 0
    for w in names:
        for traced in ([False, True] if args.trace else [False]):
            result = run_workload(w, args.seed, seconds, traced, args.smoke)
            print_result(w, result)
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
