"""The compute backend is a pin, and calibration has one rate per job.

``compute=`` on the services names the one backend every kernel sum,
region stamp and volume build runs on; nothing chooses between backends.
These tests pin that the name reaches every path (the dispatch tally
shows one key, the pinned name — single-process and merged across shard
workers), the serving-layer observability blob, the JSON persistence
behind ``--calibration-file`` / ``REPRO_CALIBRATION`` including the one
legacy keys still read (``backend_costs``, the parent's per-backend
table, and a top-level ``c_pair``), and that the planner and the front
end price pairs with the same ``c_qpair``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.model import MachineModel
from repro.core.backends import DEFAULT_BACKEND, available_backends
from repro.serve import (
    DensityService,
    ShardedDensityService,
    TrafficFrontend,
)
from repro.serve.calibrate import (
    CALIBRATION_ENV,
    calibrate_serving,
    resolve_machine_model,
)
from tests.helpers import make_clustered_points, make_points

#: Flat nominal scalars.
NOMINAL = MachineModel(
    c_mem=1e-9, c_point=1e-7, c_cell=2e-9, c_batch=1e-5,
    c_lookup=5e-8, c_qpair=2e-9,
    c_qcohort=5e-6, c_qprobe=1e-6,
)

#: The same machine after a (synthetic) serving calibration that measured
#: the query-path pair loop 4x cheaper.
CALIBRATED = dataclasses.replace(
    NOMINAL, c_qpair=5e-10, c_qcohort=1.25e-6, c_qsample=4e-9
)

#: Every registered backend a service can be pinned *away* to.
PINNABLE = tuple(b for b in available_backends() if b != DEFAULT_BACKEND)


#: A calibration file as the parent commit wrote it: flat scalars that
#: describe the reference backend, the per-backend table beside them, and
#: keys no current field reads.
PARENT_FORMAT = {
    "_note": "ignored",
    "backend_costs": {
        "numpy-fused": {
            "c_pair": 3.25e-08, "c_qcohort": 1.5e-04, "c_qsample": 1.25e-07,
        },
        "numpy-ref": {
            "c_pair": 3.5e-08, "c_qcohort": 1.75e-04, "c_qsample": 1.0e-07,
        },
    },
    "bandwidth_cap": 3.0,
    "c_batch": 1e-4, "c_cell": 6e-9, "c_lookup": 6e-8, "c_mem": 3e-10,
    "c_msg": 2e-5, "c_pair": 5.5e-08, "c_point": 9e-7, "c_qbound": 4e-8,
    "c_qcohort": 3e-4, "c_qgroup": 3e-5, "c_qprobe": 9e-7, "c_qrow": 2e-7,
    "c_qsample": 2e-7, "c_qser": 5e-9, "c_spawn": 0.0, "c_tile": 0.0,
}


class TestCalibrationPersistence:
    def test_json_round_trip(self):
        clone = MachineModel.from_json(CALIBRATED.to_json())
        assert clone == CALIBRATED
        assert clone.c_qpair == 5e-10

    @pytest.mark.parametrize("key", ["future_field", "c_qgroup"])
    def test_from_json_tolerates_unknown_keys(self, key):
        """Newer files on older code, and files persisted before a unit
        cost was retired (``c_qgroup``: the per-group walk's)."""
        blob = CALIBRATED.to_json().replace(
            '"c_mem"', f'"{key}": 1.0, "c_mem"', 1
        )
        assert MachineModel.from_json(blob) == CALIBRATED

    def test_save_load(self, tmp_path):
        path = tmp_path / "machine.json"
        CALIBRATED.save(path)
        assert MachineModel.load(path) == CALIBRATED

    def test_resolve_prefers_existing_file(self, tmp_path):
        path = tmp_path / "machine.json"
        CALIBRATED.save(path)
        # An existing file must load verbatim — no probes re-run.
        assert resolve_machine_model(str(path)) == CALIBRATED

    def test_resolve_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "env-machine.json"
        CALIBRATED.save(path)
        monkeypatch.setenv(CALIBRATION_ENV, str(path))
        assert resolve_machine_model() == CALIBRATED

    def test_parent_format_file_loads_the_default_backends_entry(self):
        """The default backend's per-backend entry becomes the query-path
        scalars — its ``c_pair`` wins over the top-level one — and the
        table is never written back."""
        m = MachineModel.from_json(json.dumps(PARENT_FORMAT))
        entry = PARENT_FORMAT["backend_costs"][DEFAULT_BACKEND]
        assert m.c_qpair == entry["c_pair"]
        assert m.c_qcohort == entry["c_qcohort"]
        assert m.c_qsample == entry["c_qsample"]
        assert m.c_qbound == PARENT_FORMAT["c_qbound"]
        written = json.loads(m.to_json())
        assert "backend_costs" not in written and "_note" not in written
        assert MachineModel.from_json(m.to_json()) == m

    def test_file_without_the_legacy_key_loads_flat(self):
        """No per-backend table and no probed ``c_qpair``: pairs price at
        the top-level ``c_pair``, as direct sums fell back to it."""
        flat = {k: v for k, v in PARENT_FORMAT.items() if k != "backend_costs"}
        m = MachineModel.from_json(json.dumps(flat))
        assert m.c_qpair == flat["c_pair"]
        assert m.c_qcohort == flat["c_qcohort"]
        assert m.c_qsample == flat["c_qsample"]
        # A null table (what an uncalibrated parent model wrote) too.
        flat["backend_costs"] = None
        assert MachineModel.from_json(json.dumps(flat)) == m


class TestOneRatePerJob:
    """``c_qpair`` prices query pairs everywhere."""

    @pytest.mark.parametrize("qpair", [None, 0.0, 7e-9])
    def test_top_level_c_pair_fills_only_an_unprobed_qpair(self, qpair):
        blob = {"c_mem": 1e-9, "c_point": 1e-7, "c_cell": 2e-9,
                "c_pair": 3e-8}
        if qpair is not None:
            blob["c_qpair"] = qpair
        m = MachineModel.from_json(json.dumps(blob))
        assert m.c_qpair == (qpair if qpair else 3e-8)
        assert "c_pair" not in json.loads(m.to_json())

    def test_calibrate_serving_probes_qpair(self):
        base = MachineModel.calibrate()
        served = calibrate_serving(base)
        assert served.c_qpair > 0.0
        assert base.c_qpair == 0.0

    def test_front_end_and_planner_price_pairs_alike(self, small_grid):
        """Both move with ``c_qpair`` (the front end's admission price
        once read another rate)."""
        pts = make_clustered_points(small_grid, 4000, seed=61)
        q = make_points(small_grid, 50, seed=62).coords

        def prices(machine):
            svc = DensityService(pts, small_grid, machine=machine)
            plan = svc.planner().plan_points(
                svc.index(), q, volume_ready=False
            )

            async def admission():
                async with TrafficFrontend(svc) as fe:
                    return fe._price_points(len(q), None)

            return plan.direct_seconds, asyncio.run(admission())

        base = prices(CALIBRATED)
        pair = prices(dataclasses.replace(CALIBRATED, c_qpair=1e-6))
        assert pair[0] > 10 * base[0] and pair[1] > 10 * base[1]


def _off_domain_batch(grid):
    d = grid.domain
    return np.vstack([
        make_points(grid, 6, seed=69).coords,
        [[d.x0 - 0.5, d.y0 + 1.0, d.t0 + 1.0],
         [d.x0 + 1.0, d.y0 + d.gy + 0.5, d.t0 + 1.0]],
    ])


class TestPinReachesEveryPath:
    """A pinned service runs *everything* on the pinned backend: the
    dispatch tally has one key.  Parametrised over every registered
    backend other than the default."""

    WINDOW = (2, 11, 1, 9, 3, 12)

    @pytest.mark.parametrize("name", PINNABLE)
    def test_single_process(self, small_grid, name):
        pts = make_points(small_grid, 600, seed=71)  # mass at the edges
        q = make_points(small_grid, 40, seed=72).coords
        off = _off_domain_batch(small_grid)
        pinned = DensityService(
            pts, small_grid, machine=NOMINAL, compute=name
        )
        default = DensityService(pts, small_grid, machine=NOMINAL)
        got, want = [], []
        for svc, out in ((pinned, got), (default, want)):
            out.append(svc.query_points(q, backend="direct"))
            out.append(svc.query_region(self.WINDOW, backend="direct").data)
            out.append(svc.materialize().data)
            out.append(svc.query_points(off, backend="lookup"))
        blob = pinned.stats()["compute"]
        assert blob["backend"] == name
        assert set(blob["dispatches"]) == {name}
        assert set(default.stats()["compute"]["dispatches"]) == {
            DEFAULT_BACKEND
        }
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-18)
        assert got[3][6:].any()  # the off-domain rows were direct-summed

    @pytest.mark.parametrize("name", PINNABLE)
    def test_sharded_workers(self, small_grid, name):
        pts = make_clustered_points(small_grid, 600, seed=73)
        q = make_points(small_grid, 40, seed=74).coords
        default = DensityService(pts, small_grid, machine=NOMINAL)
        with ShardedDensityService(
            pts, small_grid, workers=2, backend="sharded",
            machine=NOMINAL, compute=name,
        ) as svc:
            points = svc.query_points(q)
            region = svc.query_region(self.WINDOW).data
            blob = svc.stats()["compute"]
        assert blob["backend"] == name
        assert set(blob["dispatches"]) == {name}
        np.testing.assert_allclose(
            points, default.query_points(q, backend="direct"),
            rtol=1e-12, atol=1e-18,
        )
        np.testing.assert_allclose(
            region, default.query_region(self.WINDOW, backend="direct").data,
            rtol=1e-12, atol=1e-18,
        )


class TestServiceComputeStats:
    def test_stats_blob_shape_and_tallies(self, small_grid):
        pts = make_clustered_points(small_grid, 500, seed=63)
        svc = DensityService(pts, small_grid, machine=NOMINAL)
        q = make_points(small_grid, 8, seed=64).coords
        svc.query_points(q)
        blob = svc.stats()["compute"]
        assert set(blob) == {"backend", "available", "dispatches"}
        assert blob["backend"] == DEFAULT_BACKEND
        assert blob["available"] == list(available_backends())
        assert set(blob["dispatches"]) == {DEFAULT_BACKEND}
        assert sum(blob["dispatches"].values()) >= 1

    def test_off_domain_patch_runs_on_the_service_backend(self, small_grid):
        """Off-domain rows of a lookup plan are direct-summed on the
        service's backend, like the build that precedes them."""
        pts = make_points(small_grid, 600, seed=68)
        svc = DensityService(pts, small_grid, machine=NOMINAL)
        svc.materialize()
        built = svc.stats()["compute"]["dispatches"][DEFAULT_BACKEND]
        q = _off_domain_batch(small_grid)
        out = svc.query_points(q, backend="lookup")
        after = svc.stats()["compute"]["dispatches"]
        assert set(after) == {DEFAULT_BACKEND}
        assert after[DEFAULT_BACKEND] > built
        np.testing.assert_allclose(
            out[6:], svc.query_points(q[6:], backend="direct"),
            rtol=1e-12, atol=0.0,
        )
        assert out[6:].any()

    def test_unknown_compute_fails_fast(self, small_grid):
        pts = make_points(small_grid, 10, seed=65)
        with pytest.raises(KeyError, match="unknown compute backend"):
            DensityService(pts, small_grid, compute="no-such-backend")

    def test_pinned_fused_matches_reference(self, small_grid):
        pts = make_clustered_points(small_grid, 800, seed=66)
        q = make_points(small_grid, 40, seed=67).coords
        ref = DensityService(
            pts, small_grid, machine=NOMINAL, compute="numpy-ref"
        )
        fused = DensityService(
            pts, small_grid, machine=NOMINAL, compute="numpy-fused"
        )
        a = ref.query_points(q, backend="direct")
        b = fused.query_points(q, backend="direct")
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-18)
