"""Tests for the STKDE facade, the viz renderer, and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro import STKDE, DomainSpec, GridSpec, PointSet, infer_domain
from repro.algorithms import parallel_algorithms, pb_sym
from repro.cli import main as cli_main
from repro.data.io import save_points_csv, save_volume
from repro.viz.render import ascii_heatmap, hotspots, render_time_slice, series_csv

from tests.helpers import make_points


class TestInferDomain:
    def test_padding_covers_bandwidth(self, rng):
        pts = PointSet(rng.uniform(10, 20, size=(30, 3)))
        dom = infer_domain(pts, sres=1.0, tres=1.0, hs=3.0, ht=2.0)
        assert dom.x0 <= pts.xs.min() - 3.0 + 1e-9
        assert dom.x0 + dom.gx >= pts.xs.max() + 3.0 - 1e-9
        assert dom.t0 <= pts.ts.min() - 2.0 + 1e-9

    def test_no_padding_option(self, rng):
        pts = PointSet(rng.uniform(0, 10, size=(5, 3)))
        dom = infer_domain(pts, sres=1.0, tres=1.0, hs=3.0, ht=2.0,
                           pad_bandwidth=False)
        assert dom.x0 == pytest.approx(pts.xs.min())

    def test_degenerate_extent_gets_one_voxel(self):
        pts = PointSet(np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]]))
        dom = infer_domain(pts, sres=1.0, tres=1.0, hs=1.0, ht=1.0,
                           pad_bandwidth=False)
        assert dom.Gx >= 1 and dom.Gy >= 1 and dom.Gt >= 1


class TestSTKDEFacade:
    def test_explicit_algorithm(self, rng):
        pts = PointSet(rng.uniform(0, 20, size=(40, 3)))
        est = STKDE(hs=2.0, ht=2.0, algorithm="pb-disk")
        res = est.estimate(pts)
        assert res.algorithm == "pb-disk"
        assert res.meta["selected_by"] == "user"

    def test_accepts_raw_array(self, rng):
        arr = rng.uniform(0, 15, size=(25, 3))
        res = STKDE(hs=2.0, ht=2.0, algorithm="pb-sym").estimate(arr)
        assert res.data.max() > 0

    def test_matches_direct_call(self, rng):
        pts = PointSet(rng.uniform(0, 20, size=(30, 3)))
        dom = DomainSpec.from_voxels(24, 24, 24)
        grid = GridSpec(dom, hs=2.5, ht=2.5)
        direct = pb_sym(pts, grid)
        via = STKDE(hs=2.5, ht=2.5, algorithm="pb-sym").estimate(pts, domain=dom)
        np.testing.assert_allclose(via.data, direct.data, rtol=1e-12)

    def test_auto_serial_picks_pb_sym(self, rng):
        pts = PointSet(rng.uniform(0, 20, size=(30, 3)))
        res = STKDE(hs=2.0, ht=2.0, algorithm="auto", P=1).estimate(pts)
        assert res.algorithm == "pb-sym"
        assert res.meta["selected_by"] == "model"

    def test_auto_parallel_picks_parallel(self, rng):
        pts = PointSet(rng.uniform(0, 30, size=(400, 3)))
        res = STKDE(hs=2.5, ht=2.5, algorithm="auto", P=4).estimate(pts)
        assert res.algorithm.startswith("pb-sym-")
        assert res.meta["P"] == 4

    def test_parallel_explicit_with_decomposition(self, rng):
        pts = PointSet(rng.uniform(0, 30, size=(100, 3)))
        est = STKDE(hs=2.0, ht=2.0, algorithm="pb-sym-dd", P=2,
                    decomposition=(4, 4, 4))
        res = est.estimate(pts)
        assert res.meta["decomposition"] == (4, 4, 4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            STKDE(hs=0.0, ht=1.0)
        with pytest.raises(ValueError):
            STKDE(hs=1.0, ht=1.0, sres=-1.0)
        with pytest.raises(KeyError):
            STKDE(hs=1.0, ht=1.0, kernel="nope")

    def test_unknown_algorithm_raises_at_estimate(self, rng):
        pts = PointSet(rng.uniform(0, 10, size=(5, 3)))
        with pytest.raises(KeyError, match="unknown algorithm"):
            STKDE(hs=1.0, ht=1.0, algorithm="pb-warp").estimate(pts)

    def test_auto_P_resolves_to_cpu_count(self):
        import os

        est = STKDE(hs=2.0, ht=2.0, P="auto")
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert est.P == cpus
        assert est.P >= 1

    def test_rejects_bad_P(self):
        with pytest.raises(ValueError, match="P must be"):
            STKDE(hs=2.0, ht=2.0, P="four")
        with pytest.raises(ValueError, match="P must be"):
            STKDE(hs=2.0, ht=2.0, P=0)

    def test_auto_with_threads_backend_matches_serial(self, rng):
        """auto runs its pick on the threads backend the caller asked for;
        the density must match the sequential reference."""
        pts = PointSet(rng.uniform(0, 30, size=(300, 3)))
        serial = STKDE(hs=2.5, ht=2.5, algorithm="pb-sym").estimate(pts)
        auto = STKDE(hs=2.5, ht=2.5, algorithm="auto", P=4,
                     backend="threads").estimate(pts)
        np.testing.assert_allclose(auto.data, serial.data,
                                   rtol=1e-10, atol=1e-15)

    def test_auto_never_picks_threads_under_simulated_backend(self, rng):
        pts = PointSet(rng.uniform(0, 30, size=(200, 3)))
        res = STKDE(hs=2.5, ht=2.5, algorithm="auto", P=4).estimate(pts)
        assert res.meta["backend"] == "simulated"
        assert res.algorithm != "pb-sym"  # parallel P must map to a real strategy

    def test_auto_threads_backend_maps_winner_to_pb_sym_threads(self, rng):
        pts = PointSet(rng.uniform(0, 30, size=(200, 3)))
        res = STKDE(hs=2.5, ht=2.5, algorithm="auto", P=4,
                    backend="threads").estimate(pts)
        # No threads-only candidate is left to map: the winner is a
        # registered strategy and the asked backend is forwarded to it.
        assert res.algorithm in parallel_algorithms()
        assert res.meta["backend"] == "threads"
        assert res.meta["P"] == 4


class TestRenderer:
    def make_volume(self):
        grid = GridSpec(DomainSpec.from_voxels(30, 24, 10), hs=3.0, ht=2.0)
        pts = make_points(grid, 60, seed=3)
        return pb_sym(pts, grid).volume

    def test_heatmap_dimensions(self):
        s = ascii_heatmap(np.random.default_rng(0).random((30, 24)),
                          width=40, height=12)
        lines = s.splitlines()
        assert len(lines) == 12
        assert all(len(l) == 30 for l in lines)

    def test_heatmap_saturates_at_vmax(self):
        arr = np.zeros((10, 10))
        arr[5, 5] = 100.0
        s = ascii_heatmap(arr, width=10, height=10, vmax=1.0)
        assert "@" in s

    def test_zero_volume_renders_blank(self):
        s = ascii_heatmap(np.zeros((8, 8)), width=8, height=8)
        assert set(s) <= {" ", "\n"}

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 2, 2)))

    def test_render_time_slice_caption(self):
        vol = self.make_volume()
        out = render_time_slice(vol, 5)
        assert "T=5/10" in out

    def test_render_rejects_bad_index(self):
        vol = self.make_volume()
        with pytest.raises(ValueError, match="time index"):
            render_time_slice(vol, 99)

    def test_hotspots_sorted_desc(self):
        vol = self.make_volume()
        hs = hotspots(vol, k=4)
        vals = [v for _, v in hs]
        assert vals == sorted(vals, reverse=True)
        (X, Y, T), vmax = hs[0]
        assert vol.data[X, Y, T] == pytest.approx(vol.data.max())

    def test_hotspots_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hotspots(self.make_volume(), k=0)

    def test_series_csv_round_trip(self, tmp_path):
        p = tmp_path / "series.csv"
        series_csv(p, ["a", "b"], [[1, 2], [3, 4]])
        lines = p.read_text().splitlines()
        assert lines == ["a,b", "1,2", "3,4"]


class TestCLI:
    def test_instances(self, capsys):
        assert cli_main(["instances", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Dengue_Lr-Lb" in out and "eBird_Hr-Hb" in out

    def test_run_sequential(self, capsys):
        rc = cli_main([
            "run", "--instance", "Dengue_Lr-Hb", "--scale", "test",
            "--algorithm", "pb-sym",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max density" in out

    def test_run_parallel_with_decomposition(self, capsys):
        rc = cli_main([
            "run", "--instance", "PollenUS_Lr-Lb", "--scale", "test",
            "--algorithm", "pb-sym-dd", "-P", "3",
            "--decomposition", "4x4x4",
        ])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    @staticmethod
    def run_capturing(args, monkeypatch):
        """``repro run`` with the result its ``STKDE.estimate`` returned."""
        results = []
        estimate = STKDE.estimate

        def keep(self, *a, **k):
            results.append(estimate(self, *a, **k))
            return results[-1]

        monkeypatch.setattr(STKDE, "estimate", keep)
        assert cli_main(["run", "--scale", "test", *args]) == 0
        (res,) = results
        return res

    def test_run_pb_sym_on_threads(self, capsys, monkeypatch):
        """``-P`` / ``--backend threads`` reach PB-SYM's threaded path."""
        args = ["--instance", "Flu_Lr-Hb", "--algorithm", "pb-sym"]
        serial = self.run_capturing(args, monkeypatch)
        capsys.readouterr()
        threaded = self.run_capturing(
            [*args, "-P", "2", "--backend", "threads"], monkeypatch
        )
        out = capsys.readouterr().out
        assert "{'P': 2, 'backend': 'threads'}" in out
        assert "(P=2, threads)" in out
        assert threaded.meta["P"] == 2 and threaded.meta["backend"] == "threads"
        np.testing.assert_allclose(threaded.data, serial.data, rtol=1e-12, atol=0)
        assert threaded.counter.madds == serial.counter.madds

    def test_run_sequential_ignores_the_default_parallel_options(
        self, capsys, monkeypatch
    ):
        """Under the defaults (``-P 4 --backend simulated``) VB runs serially."""
        res = self.run_capturing(
            ["--instance", "Flu_Lr-Hb", "--algorithm", "vb"], monkeypatch
        )
        out = capsys.readouterr().out
        assert "algorithm: vb  {}" in out
        assert "makespan" not in out
        assert "P" not in res.meta

    def test_run_dr_with_a_decomposition(self, capsys):
        """DR takes no decomposition; asking for one still runs it."""
        rc = cli_main([
            "run", "--instance", "Dengue_Lr-Hb", "--scale", "test",
            "--algorithm", "pb-sym-dr", "--decomposition", "2x2x2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "{'P': 4, 'backend': 'simulated'}" in out
        assert "(P=4, simulated)" in out

    def test_estimate_and_render(self, tmp_path, capsys, rng):
        pts_file = tmp_path / "events.csv"
        vol_file = tmp_path / "vol.npy"
        from repro.core import PointSet

        save_points_csv(PointSet(rng.uniform(0, 20, size=(50, 3))), pts_file)
        rc = cli_main([
            "estimate", "--points", str(pts_file),
            "--hs", "2.5", "--ht", "2.0", "--out", str(vol_file),
        ])
        assert rc == 0
        assert vol_file.exists()
        rc = cli_main(["render", "--volume", str(vol_file)])
        assert rc == 0
        assert "hotspots" in capsys.readouterr().out

    def test_estimate_out_holds_the_in_process_volume(self, tmp_path, rng):
        """``--out`` of a t-outermost volume loads back as the same
        ``[x, y, t]`` values the library computes."""
        from repro.core import PointSet

        pts = PointSet(rng.uniform(0, 20, size=(80, 3)))
        save_points_csv(pts, tmp_path / "events.csv")
        vol_file = tmp_path / "vol.npy"
        assert cli_main([
            "estimate", "--points", str(tmp_path / "events.csv"),
            "--hs", "2.5", "--ht", "2.0", "--out", str(vol_file),
        ]) == 0
        want = STKDE(hs=2.5, ht=2.0).estimate(pts).data
        assert not want.flags.c_contiguous
        np.testing.assert_array_equal(np.load(vol_file), want)

    def test_select(self, capsys):
        rc = cli_main([
            "select", "--instance", "PollenUS_Hr-Mb", "--scale", "test",
            "-P", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model's pick" in out
        assert "pb-sym" in out

    def test_bad_decomposition_format(self):
        with pytest.raises(SystemExit):
            cli_main([
                "run", "--instance", "Dengue_Lr-Lb", "--scale", "test",
                "--algorithm", "pb-sym-dd", "--decomposition", "4by4by4",
            ])
