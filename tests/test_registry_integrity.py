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
from repro import available_algorithms, get_algorithm, parallel_algorithms
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
        assert "pb-sym" not in parallel_algorithms()
        assert "pb-sym-dd" in parallel_algorithms()

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
        kwargs = {"P": 2, "backend": "simulated"} if name in parallel_algorithms() else {}
        res = fn(pts, grid, **kwargs)
        assert res.data.shape == grid.shape
        assert np.isfinite(res.data).all()


class TestRegistryPrologue:
    """The registry wrapper resolves the kernel, supplies the counter and
    timer, and checks ``P`` for every registered algorithm."""

    @staticmethod
    def case():
        grid = GridSpec(DomainSpec.from_voxels(12, 12, 12), hs=2.0, ht=2.0)
        pts = PointSet(np.random.default_rng(3).uniform(0, 12, size=(15, 3)))
        return grid, pts

    @pytest.mark.parametrize("name", available_algorithms())
    def test_kernel_counter_and_timer(self, name):
        from repro.core import PhaseTimer, WorkCounter, get_kernel

        grid, pts = self.case()
        fn = get_algorithm(name)
        counter, timer = WorkCounter(), PhaseTimer()
        res = fn(pts, grid, kernel=get_kernel("quartic"), counter=counter,
                 timer=timer)
        assert res.counter is counter and res.timer is timer
        np.testing.assert_array_equal(
            fn(pts, grid, kernel="quartic").data, res.data
        )
        np.testing.assert_array_equal(
            fn(pts, grid).data, fn(pts, grid, kernel="epanechnikov").data
        )

    @pytest.mark.parametrize(
        "name", [n for n in available_algorithms()
                 if "P" in get_algorithm(n).run_options]
    )
    def test_P_is_checked(self, name):
        grid, pts = self.case()
        for bad in (0, "four", 2.0):
            with pytest.raises(ValueError, match="P must be"):
                get_algorithm(name)(pts, grid, P=bad)


class TestRunOptionBinding:
    """``STKDE`` binds ``P`` / ``backend`` / ``decomposition`` /
    ``memory_budget_bytes`` by each algorithm's own signature."""

    BUDGET = 1 << 30
    DEC = (2, 2, 2)
    #: What each algorithm is bound at ``P=4`` (PB-SYM: on threads only).
    BOUND = {
        "pb-sym-dr": {"P", "backend", "memory_budget_bytes"},
        "pb-sym-dd": {"P", "backend", "decomposition"},
        "pb-sym-pd": {"P", "backend", "decomposition"},
        "pb-sym-pd-sched": {"P", "backend", "decomposition"},
        "pb-sym-pd-rep": {"P", "backend", "decomposition", "memory_budget_bytes"},
    }

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    @pytest.mark.parametrize("name", available_algorithms())
    def test_bound_keywords(self, name, backend):
        from repro import STKDE

        est = STKDE(hs=2.0, ht=2.0, algorithm=name, P=4, backend=backend,
                    decomposition=self.DEC, memory_budget_bytes=self.BUDGET)
        keys = self.BOUND.get(name, set())
        if name == "pb-sym" and backend == "threads":
            keys = {"P", "backend", "memory_budget_bytes"}
        given = {"P": 4, "backend": backend, "decomposition": self.DEC,
                 "memory_budget_bytes": self.BUDGET}
        assert est.bind(name, self.DEC) == {k: given[k] for k in keys}

    @pytest.mark.parametrize("name", available_algorithms())
    def test_run_options_are_the_shared_names(self, name):
        from repro.algorithms.base import RUN_OPTIONS

        assert set(get_algorithm(name).run_options) <= set(RUN_OPTIONS)

    def test_unset_options_and_one_thread_bind_nothing_extra(self):
        from repro import STKDE

        assert STKDE(hs=2.0, ht=2.0, P=1, backend="threads").bind(
            "pb-sym", None) == {}
        assert STKDE(hs=2.0, ht=2.0, P=3).bind("pb-sym-pd-rep", None) == {
            "P": 3, "backend": "simulated"}


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
