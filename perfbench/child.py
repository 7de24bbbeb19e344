"""One workload process: ``python -m perfbench.child <mode> ...``.

The parent (:mod:`perfbench.cli`) starts every measurement in a fresh
interpreter with the thread pools pinned and ``PYTHONHASHSEED`` fixed —
both must be set before Python and NumPy load, which only a child process
can guarantee.  Modes:

``setup``    import the library and produce the first verified answer;
``measure``  the untraced timed run (end-to-end metrics);
``trace``    the traced run and the per-layer probes.

Each prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .clock import Meter, ref_tick, summarise
from .inputs import WORKLOADS, make_inputs

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _setup(args) -> dict:
    """Seconds from ``import repro`` to the first read answer.

    Inputs are generated before the clock starts; the benchmark's own
    imports and the oracle check happen off the clock.
    """
    inp = make_inputs(args.workload, args.seed, args.smoke)
    ref_tick()  # warm the tick itself
    meter = Meter()
    before = meter.open()
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the timed import)
    imported = time.perf_counter() - t0
    from .workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](inp)
    t0 = time.perf_counter()
    answer = workload.first_answer()
    raw = imported + (time.perf_counter() - t0)
    meter.close("setup", raw, before)
    return {
        "raw_s": raw, "setup_s": meter.normalised("setup")[0],
        "attempted": 1, "failed": int(bool(workload.check_first(answer))),
    }


def _measure(args) -> dict:
    from .workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](
        make_inputs(args.workload, args.seed, args.smoke)
    )
    meter = Meter()
    workload.run(meter, args.seconds)
    return {
        "metrics": workload.results(meter),
        "machine": summarise(meter.ticks),
        "attempted": workload.attempted, "failed": workload.failed,
    }


def _trace(args) -> dict:
    from .layers import trace_run

    return trace_run(
        make_inputs(args.workload, args.seed, args.smoke), args.seconds,
        os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.child")
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    result = {"setup": _setup, "measure": _measure, "trace": _trace}[
        args.mode
    ](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
