"""Per-backend cost routing and calibration persistence.

The planner's ``compute="auto"`` arm prices the kernel-summing plans at
every registered backend's calibrated unit costs (``c_pair``,
``c_qcohort``, ``c_qsample`` keyed per backend on the
:class:`~repro.analysis.model.MachineModel`) and routes each batch to
the cheapest — with the default backend winning ties, so an
*uncalibrated* machine never routes away from the bit-exact reference.
These tests pin both behaviours on hand-built machines, the JSON
persistence round-trip behind ``--calibration-file`` /
``REPRO_CALIBRATION``, and the serving-layer observability blob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.model import CostModel, MachineModel
from repro.core import PointSet
from repro.core.backends import DEFAULT_BACKEND, available_backends
from repro.serve import BucketIndex, DensityService, QueryPlanner
from repro.serve.calibrate import CALIBRATION_ENV, resolve_machine_model
from tests.helpers import make_clustered_points, make_points

#: Flat scalars only — an *uncalibrated* machine (no backend_costs).
NOMINAL = MachineModel(
    c_mem=1e-9, c_point=1e-7, c_cell=2e-9, c_batch=1e-5,
    c_pair=2e-9, c_tile=1e-6, c_lookup=5e-8,
    c_qcohort=5e-6, c_qprobe=1e-6,
)

#: The same machine after a (synthetic) calibration that measured the
#: fused backend's pair loop 4x cheaper than the reference's.
CALIBRATED = NOMINAL.with_backend_costs({
    "numpy-ref": {"c_pair": 2e-9, "c_qcohort": 5e-6},
    "numpy-fused": {"c_pair": 5e-10, "c_qcohort": 1.25e-6},
})


@pytest.fixture
def dense_setup(small_grid):
    pts = make_clustered_points(small_grid, 4000, seed=61)
    idx = BucketIndex(small_grid, pts.coords)
    q = make_points(small_grid, 50, seed=62).coords

    def planner(machine):
        return QueryPlanner(CostModel(small_grid, pts, machine))

    return idx, q, planner


class TestBackendCostAccessors:
    def test_flat_scalars_serve_every_backend(self):
        for name in ("numpy-ref", "numpy-fused", "numba"):
            assert NOMINAL.backend_cost("c_pair", name) == NOMINAL.c_pair

    def test_calibrated_entry_overrides_scalar(self):
        assert CALIBRATED.backend_cost("c_pair", "numpy-fused") == 5e-10
        assert CALIBRATED.backend_cost("c_pair", "numpy-ref") == 2e-9
        # Unprobed backends fall back to the flat scalar.
        assert CALIBRATED.backend_cost("c_pair", "numba") == NOMINAL.c_pair

    def test_probed_backends_sorted(self):
        assert CALIBRATED.probed_backends() == ("numpy-fused", "numpy-ref")
        assert NOMINAL.probed_backends() == ()


class TestAutoRouting:
    def test_uncalibrated_machine_stays_on_reference(self, dense_setup):
        idx, q, planner = dense_setup
        plan = planner(NOMINAL).plan_points(
            idx, q, volume_ready=False, compute="auto"
        )
        # Every backend prices identically on flat scalars: the default
        # must win the tie, keeping defaults bit-identical.
        assert plan.compute == DEFAULT_BACKEND

    def test_calibrated_machine_routes_to_cheapest(self, dense_setup):
        idx, q, planner = dense_setup
        plan = planner(CALIBRATED).plan_points(
            idx, q, volume_ready=False, compute="auto"
        )
        assert plan.compute == "numpy-fused"
        # The reported price is the chosen backend's, not the default's.
        nominal = planner(NOMINAL).plan_points(
            idx, q, volume_ready=False, compute="auto"
        )
        assert plan.direct_seconds < nominal.direct_seconds

    def test_pinned_compute_skips_the_argmin(self, dense_setup):
        idx, q, planner = dense_setup
        plan = planner(CALIBRATED).plan_points(
            idx, q, volume_ready=False, compute="numpy-ref"
        )
        assert plan.compute == "numpy-ref"

    def test_default_request_keeps_default_backend(self, dense_setup):
        idx, q, planner = dense_setup
        plan = planner(CALIBRATED).plan_points(idx, q, volume_ready=False)
        assert plan.compute == DEFAULT_BACKEND

    def test_auto_routing_survives_approx_arm(self, dense_setup):
        idx, q, planner = dense_setup
        plan = planner(CALIBRATED).plan_points(
            idx, q, volume_ready=False, compute="auto", eps=0.2
        )
        assert plan.compute == "numpy-fused"
        assert np.isfinite(plan.approx_seconds)


class TestCalibrationPersistence:
    def test_json_round_trip(self):
        clone = MachineModel.from_json(CALIBRATED.to_json())
        assert clone == CALIBRATED
        assert clone.backend_cost("c_pair", "numpy-fused") == 5e-10

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


class TestServiceComputeStats:
    def test_stats_blob_shape_and_tallies(self, small_grid):
        pts = make_clustered_points(small_grid, 500, seed=63)
        svc = DensityService(
            pts, small_grid, machine=NOMINAL, compute=DEFAULT_BACKEND
        )
        q = make_points(small_grid, 8, seed=64).coords
        svc.query_points(q)
        blob = svc.stats()["compute"]
        assert blob["requested"] == DEFAULT_BACKEND
        assert blob["available"] == list(available_backends())
        assert sum(blob["chosen"].values()) >= 1
        assert set(blob["chosen"]) <= set(available_backends())
        assert sum(blob["dispatches"].values()) >= 1

    def test_off_domain_patch_runs_on_the_service_backend(self, small_grid):
        """Off-domain rows of a lookup plan are direct-summed on the
        backend the cache key names, not on the default."""
        pts = make_points(small_grid, 600, seed=68)
        svc = DensityService(
            pts, small_grid, machine=NOMINAL, compute="numpy-fused"
        )
        svc.materialize()  # the build stamps on the default backend
        built = svc.stats()["compute"]["dispatches"]
        d = small_grid.domain
        q = np.vstack([
            make_points(small_grid, 6, seed=69).coords,
            [[d.x0 - 0.5, d.y0 + 1.0, d.t0 + 1.0],
             [d.x0 + 1.0, d.y0 + d.gy + 0.5, d.t0 + 1.0]],
        ])
        out = svc.query_points(q, backend="lookup")
        after = svc.stats()["compute"]["dispatches"]
        assert after.pop("numpy-fused") >= 1
        assert after == built
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
        ref = DensityService(pts, small_grid, machine=NOMINAL)
        fused = DensityService(
            pts, small_grid, machine=NOMINAL, compute="numpy-fused"
        )
        a = ref.query_points(q, backend="direct")
        b = fused.query_points(q, backend="direct")
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-18)
