"""Tests of the benchmark itself (collected by the tier-1 command).

They run at ``--smoke`` sizes and check the harness, not the library's
speed: statistics and normaliser on synthetic samples, seeded inputs, the
names printed against ``BENCHMARK.json``, the cache-miss assertion, that a
corrupted answer is counted as failed, and that every mode runs clean.
"""

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import cli, clock, oracle
from perfbench.inputs import WORKLOADS, make_inputs
from perfbench.layers import PER_LAYER_UNITS, trace_run
from perfbench.trace import Tracer, read, self_seconds
from perfbench.workloads import E2E_UNITS, WORKLOAD_CLASSES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke(workload, seed=5):
    return WORKLOAD_CLASSES[workload](make_inputs(workload, seed, smoke=True))


# -- statistics and normaliser ---------------------------------------------
def test_normaliser_removes_a_two_speed_machine():
    """Samples taken in a 1.45x slow state normalise back to the fast
    state's value; the raw median lands between the two."""
    meter = clock.Meter()
    nominal = clock.REF_NOMINAL_MS / 1e3
    for i in range(41):
        slow = 1.45 if i % 5 < 3 else 1.0
        meter.samples.setdefault("op", []).append((0.2 * slow, nominal * slow))
    assert clock.median(meter.normalised("op")) == pytest.approx(0.2)
    assert clock.median(meter.raw("op")) == pytest.approx(0.29)


def test_meter_brackets_and_shares_adjacent_ticks():
    meter = clock.Meter()
    before = meter.open()
    ref = meter.close("a", 1e-6, before)
    assert meter.open() == meter.ticks[-1]  # b starts where a ended
    meter.close("b", 1e-6, meter.ticks[-1])
    assert len(meter.ticks) == 3
    assert meter.samples["a"] == [(1e-6, ref)]
    assert ref == 0.5 * (meter.ticks[0] + meter.ticks[1])


def test_spread_is_the_drivers_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert clock.iqr_spread(values) == pytest.approx((q3 - q1) / 10.05)
    assert clock.quantile([1, 2, 3, 4, 5], 0.5) == 3


def test_tracer_self_time_is_span_minus_children(tmp_path):
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    replay = tracer.record("replay", 1.0, 1.25, parent=outer["id"])
    assert replay["parent"] == outer["id"]
    inner = tracer.spans[1]
    assert inner["name"] == "inner" and inner["parent"] == outer["id"]
    assert self_seconds(tracer.spans, outer) == pytest.approx(
        Tracer.seconds(outer) - Tracer.seconds(inner) - 0.25)
    path = str(tmp_path / "out" / "trace.jsonl")
    tracer.write(path)
    assert [s["name"] for s in read(path)] == ["outer", "inner", "replay"]


# -- inputs and oracle --------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = (make_inputs(workload, 9, smoke=True) for _ in range(2))
    other = make_inputs(workload, 10, smoke=True)
    for name in ("events", "queries"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(getattr(a, name), getattr(other, name))
    assert np.array_equal(a.stream_batch(3), b.stream_batch(3))
    assert np.array_equal(a.point_pool(2), b.point_pool(2))
    # The pool is unique voxel centres, whichever window it rides.
    pool = a.point_pool(2)
    assert len(np.unique(pool, axis=0)) == len(pool)
    assert np.all(pool - np.floor(pool) == 0.5)


def test_rolled_batches_never_share_a_cache_digest():
    from repro.serve import digest_queries

    inp = make_inputs("serve_static", 1, smoke=True)
    digests = {digest_queries(inp.query_batch(k)) for k in range(40)}
    assert len(digests) == 40
    assert np.array_equal(np.sort(inp.query_batch(7), axis=0),
                          np.sort(inp.queries, axis=0))


def test_oracle_restates_the_estimator():
    hs, ht = 3.0, 2.0
    events = np.array([[5.0, 5.0, 5.0], [50.0, 50.0, 50.0]])
    rows = np.array([[5.0, 5.0, 5.0], [5.0, 5.0 + hs, 5.0], [6.5, 5.0, 6.0]])
    got = oracle.kernel_sum(events, rows, hs, ht)
    peak = (2 / np.pi) * 0.75 / (2 * hs * hs * ht)
    assert got[0] == pytest.approx(peak)
    assert got[1] == 0.0  # on the cylinder's rim
    assert got[2] == pytest.approx(peak * (1 - 0.25) * (1 - 0.25))
    assert list(oracle.in_support(events, rows, hs, ht)) == [1, 0, 1]
    assert oracle.mismatches(got * (1 + 1e-6), got, 1e-9) == 2
    assert oracle.mismatches(got[:2], got, 1e-9) == got.size


# -- the contract -----------------------------------------------------------
def test_printed_names_are_benchmark_json_names():
    spec = cli.benchmark_json()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == E2E_UNITS
    assert {p["name"]: p["unit"] for p in spec["per_layer"]} == PER_LAYER_UNITS
    assert spec["paths"] == ["perfbench"]
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_contract_line_has_exactly_the_drivers_keys():
    result = {"correct": True, "attempted": 3, "failed": 0, "machine": {},
              "metrics": {"x": {"value": 1.5, "unit": "ms", "n": 4, "raw": 2}}}
    assert json.loads(cli.contract_line(result)) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"x": {"value": 1.5, "unit": "ms"}},
    }


def test_refuses_to_run_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    command exits non-zero and prints no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "volume_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- failures are counted -----------------------------------------------------
def test_corrupted_answer_is_counted_as_failed():
    wl = smoke("volume_dense")

    async def go():
        await wl.open()
        await wl.cycle(0, clock.Meter())
        clean = (wl.attempted, wl.failed)
        wl.want = wl.want * 1.0001  # every read and alt now misses
        await wl.cycle(1, clock.Meter())
        return clean

    assert asyncio.run(go()) == (3, 0)
    assert (wl.attempted, wl.failed) == (6, 2)


def test_raising_op_is_counted_and_leaves_no_sample():
    wl, meter = smoke("volume_dense"), clock.Meter()

    def boom():
        raise RuntimeError("shed")

    assert asyncio.run(wl.sample(meter, "read", boom, lambda out: 0)) is None
    assert (wl.attempted, wl.failed) == (1, 1)
    assert "read" not in meter.samples


def test_timed_reads_miss_the_cache_and_a_hit_is_a_failed_op():
    wl = smoke("serve_live")

    async def go():
        await wl.open()
        for k in range(3):
            await wl.cycle(k, clock.Meter())
        assert wl.svc.cache.stats()["hits"] == 0
        assert wl.failed == 0
        # The same epoch again, window unmoved: now the cache answers.
        await wl.epoch(wl.inp.point_pool(3))
        await wl.epoch(wl.inp.point_pool(3))
        hits = wl.svc.cache.stats()["hits"]
        await wl.close()
        return hits

    hits = asyncio.run(go())
    assert hits > 0 and wl.failed == hits


# -- every mode runs clean at smoke sizes ------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload_runs_clean(workload):
    wl, meter = smoke(workload), clock.Meter()
    wl.run(meter, 0.2)
    assert wl.attempted >= 3 and wl.failed == 0
    results = wl.results(meter)
    assert set(results) | {"setup_s"} == set(E2E_UNITS)
    for name, m in results.items():
        assert m["value"] > 0 and m["unit"] == E2E_UNITS[name]


def test_smoke_trace_reports_every_layer(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    out = trace_run(make_inputs("serve_live", 3, smoke=True), 0.5, path)
    assert out["failed"] == 0
    assert list(out["metrics"]) == list(PER_LAYER_UNITS)
    assert all(m["n"] >= 1 for m in out["metrics"].values())
    spans = read(path)
    requests = [s for s in spans if s["name"] == "serve.frontend.request"]
    assert requests and all(s["end"] >= s["start"] for s in spans)
    by_id = {s["id"]: s for s in spans}
    assert by_id[requests[0]["parent"]]["name"] == "serve.frontend.epoch"


def test_smoke_command_line_prints_the_contract():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "volume_sparse",
         "--seed", "4", "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == E2E_UNITS
