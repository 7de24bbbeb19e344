"""Whole-package integrity checks: registries, exports, documentation.

These tests keep the public surface honest as the package grows — every
registered algorithm must be importable, documented, and callable through
the facade; every public module must carry a docstring.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro import available_algorithms, get_algorithm
from repro.core import DomainSpec, GridSpec, PointSet

PAPER_ALGOS = {
    "vb", "vb-dec", "pb", "pb-disk", "pb-bar", "pb-sym",
    "pb-sym-dr", "pb-sym-dd", "pb-sym-pd", "pb-sym-pd-sched", "pb-sym-pd-rep",
}


class TestAlgorithmRegistry:
    def test_all_paper_algorithms_registered(self):
        assert PAPER_ALGOS <= set(available_algorithms())

    def test_adaptive_extension_registered(self):
        assert "pb-sym-adaptive" in available_algorithms()

    @pytest.mark.parametrize("name", sorted(PAPER_ALGOS))
    def test_registered_callable_has_docstring(self, name):
        fn = get_algorithm(name)
        assert callable(fn)
        assert fn.__doc__ and len(fn.__doc__) > 30

    @pytest.mark.parametrize("name", sorted(PAPER_ALGOS))
    def test_algorithm_name_attribute(self, name):
        fn = get_algorithm(name)
        assert fn.algorithm_name == name

    def test_parallel_flags(self):
        assert not get_algorithm("pb-sym").is_parallel
        assert get_algorithm("pb-sym-dd").is_parallel

    @pytest.mark.parametrize("name", sorted(PAPER_ALGOS))
    def test_common_signature(self, name):
        """Every algorithm accepts the common keyword plumbing."""
        sig = inspect.signature(get_algorithm(name))
        for kw in ("kernel", "counter", "timer"):
            assert kw in sig.parameters, f"{name} missing {kw}"

    @pytest.mark.parametrize("name", sorted(PAPER_ALGOS))
    def test_runs_end_to_end(self, name):
        grid = GridSpec(DomainSpec.from_voxels(12, 12, 12), hs=2.0, ht=2.0)
        rng = np.random.default_rng(0)
        pts = PointSet(rng.uniform(0, 12, size=(15, 3)))
        fn = get_algorithm(name)
        kwargs = {"P": 2, "backend": "simulated"} if fn.is_parallel else {}
        res = fn(pts, grid, **kwargs)
        assert res.data.shape == grid.shape
        assert np.isfinite(res.data).all()


class TestModuleDocumentation:
    def test_every_module_has_docstring(self):
        missing = []
        for mod_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if mod_info.name == "repro.__main__":
                continue  # executes the CLI on import, by design
            mod = importlib.import_module(mod_info.name)
            if not (mod.__doc__ and mod.__doc__.strip()):
                missing.append(mod_info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestFacadeRegistryInterplay:
    def test_every_algorithm_usable_via_facade(self):
        from repro import STKDE

        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(0, 10, size=(12, 3)))
        for name in sorted(PAPER_ALGOS):
            est = STKDE(hs=2.0, ht=2.0, algorithm=name, P=2)
            res = est.estimate(pts)
            assert res.algorithm == name


class TestWeightedEventsAreRejected:
    """The grid algorithms are unit-weight estimators: a weighted
    ``PointSet`` raises at the one place every entry passes through,
    instead of producing the unweighted volume."""

    @staticmethod
    def weighted_points():
        rng = np.random.default_rng(2)
        return PointSet(rng.uniform(0, 12, size=(15, 3)), rng.uniform(0.5, 2.0, 15))

    @pytest.mark.parametrize("name", available_algorithms())
    def test_direct_call_and_facade_raise(self, name):
        from repro import STKDE

        grid = GridSpec(DomainSpec.from_voxels(12, 12, 12), hs=2.0, ht=2.0)
        pts = self.weighted_points()
        with pytest.raises(ValueError, match=f"'{name}'.*DensityService"):
            get_algorithm(name)(pts, grid)
        with pytest.raises(ValueError, match=f"'{name}'.*DensityService"):
            STKDE(hs=2.0, ht=2.0, algorithm=name, P=2).estimate(pts)

    def test_cli_estimate_raises_on_a_weight_column(self, tmp_path):
        from repro.cli import main
        from repro.data.io import save_points_csv

        save_points_csv(self.weighted_points(), tmp_path / "xytw.csv")
        with pytest.raises(ValueError, match="PointSet.weights"):
            main(["estimate", "--points", str(tmp_path / "xytw.csv"),
                  "--hs", "2", "--ht", "2", "--out", str(tmp_path / "v.npy")])
        assert not (tmp_path / "v.npy").exists()
