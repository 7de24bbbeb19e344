"""Tests for point/volume I/O round-trips and failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, PointSet, Volume
from repro.data.io import load_points_csv, load_volume, save_points_csv, save_volume


@pytest.fixture
def pts(rng):
    return PointSet(rng.uniform(0, 100, size=(50, 3)))


class TestPointsCSV:
    def test_round_trip(self, tmp_path, pts):
        f = tmp_path / "events.csv"
        save_points_csv(pts, f)
        back = load_points_csv(f)
        np.testing.assert_allclose(back.coords, pts.coords, rtol=0, atol=0)

    def test_header_written(self, tmp_path, pts):
        f = tmp_path / "events.csv"
        save_points_csv(pts, f)
        assert f.read_text().splitlines()[0] == "x,y,t"

    def test_headerless_file_loads(self, tmp_path):
        f = tmp_path / "raw.csv"
        f.write_text("1.5,2.5,3.5\n4.0,5.0,6.0\n")
        back = load_points_csv(f)
        assert back.n == 2
        np.testing.assert_allclose(back.coords[1], [4.0, 5.0, 6.0])

    def test_single_row_file(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("x,y,t\n1.0,2.0,3.0\n")
        assert load_points_csv(f).n == 1

    def test_scientific_notation_first_row_is_not_a_header(self, tmp_path):
        """'1.2e-03' contains a letter but is data, not a header row."""
        f = tmp_path / "sci.csv"
        f.write_text("1.2e-03,2.5E+01,3.0\n4.0,5.0,6.0\n")
        back = load_points_csv(f)
        assert back.n == 2
        np.testing.assert_allclose(back.coords[0], [1.2e-03, 25.0, 3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_points_csv(tmp_path / "nope.csv")

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="3 columns"):
            load_points_csv(f)

    def test_creates_parent_dirs(self, tmp_path, pts):
        f = tmp_path / "a" / "b" / "events.csv"
        save_points_csv(pts, f)
        assert f.exists()


class TestWeightedPointsCSV:
    @pytest.fixture
    def wpts(self, rng):
        coords = rng.uniform(0, 100, size=(40, 3))
        return PointSet(coords, rng.uniform(0.1, 5.0, size=40))

    def test_weighted_round_trip(self, tmp_path, wpts):
        f = tmp_path / "weighted.csv"
        save_points_csv(wpts, f)
        back = load_points_csv(f)
        assert back.weighted
        np.testing.assert_allclose(back.coords, wpts.coords, rtol=0, atol=0)
        np.testing.assert_allclose(back.weights, wpts.weights, rtol=0, atol=0)

    def test_weighted_header(self, tmp_path, wpts):
        f = tmp_path / "weighted.csv"
        save_points_csv(wpts, f)
        assert f.read_text().splitlines()[0] == "x,y,t,w"

    def test_unweighted_load_has_no_weights(self, tmp_path, rng):
        pts = PointSet(rng.uniform(0, 10, size=(5, 3)))
        f = tmp_path / "plain.csv"
        save_points_csv(pts, f)
        assert load_points_csv(f).weights is None

    def test_headerless_four_column_file(self, tmp_path):
        f = tmp_path / "raw4.csv"
        f.write_text("1.0,2.0,3.0,0.5\n4.0,5.0,6.0,2.0\n")
        back = load_points_csv(f)
        assert back.n == 2
        np.testing.assert_allclose(back.weights, [0.5, 2.0])

    def test_five_columns_rejected(self, tmp_path):
        f = tmp_path / "bad5.csv"
        f.write_text("1,2,3,4,5\n")
        with pytest.raises(ValueError, match="column"):
            load_points_csv(f)

    def test_total_weight_survives(self, tmp_path, wpts):
        f = tmp_path / "weighted.csv"
        save_points_csv(wpts, f)
        assert load_points_csv(f).total_weight == pytest.approx(
            wpts.total_weight
        )


class TestVolumeNpy:
    def make_volume(self):
        dom = DomainSpec(gx=10, gy=8, gt=6, sres=0.5, tres=1.0, x0=3.0, t0=-2.0)
        grid = GridSpec(dom, hs=1.5, ht=2.0)
        rng = np.random.default_rng(0)
        return Volume(rng.random(grid.shape), grid)

    def test_round_trip_data(self, tmp_path):
        v = self.make_volume()
        save_volume(v, tmp_path / "vol.npy")
        back = load_volume(tmp_path / "vol.npy")
        np.testing.assert_array_equal(back.data, v.data)

    def test_round_trip_of_a_t_outermost_volume(self, tmp_path):
        """Volumes are stored t-outermost; the file holds and gives back
        the same ``[x, y, t]`` values."""
        v = self.make_volume()
        data = v.grid.allocate()
        data[...] = v.data
        assert not data.flags.c_contiguous
        save_volume(Volume(data, v.grid), tmp_path / "vol.npy")
        np.testing.assert_array_equal(load_volume(tmp_path / "vol.npy").data, v.data)

    def test_round_trip_geometry(self, tmp_path):
        v = self.make_volume()
        save_volume(v, tmp_path / "vol.npy")
        back = load_volume(tmp_path / "vol.npy")
        assert back.grid.domain == v.grid.domain
        assert back.grid.hs == v.grid.hs
        assert back.grid.ht == v.grid.ht

    def test_load_without_npy_suffix(self, tmp_path):
        v = self.make_volume()
        save_volume(v, tmp_path / "vol.npy")
        back = load_volume(tmp_path / "vol")
        np.testing.assert_array_equal(back.data, v.data)

    def test_missing_volume(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="volume"):
            load_volume(tmp_path / "ghost.npy")

    def test_missing_sidecar(self, tmp_path):
        v = self.make_volume()
        np.save(tmp_path / "orphan.npy", v.data)
        with pytest.raises(FileNotFoundError, match="sidecar"):
            load_volume(tmp_path / "orphan.npy")

    def test_corrupt_sidecar_format(self, tmp_path):
        v = self.make_volume()
        save_volume(v, tmp_path / "vol.npy")
        side = tmp_path / "vol.npy.json"
        side.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="sidecar"):
            load_volume(tmp_path / "vol.npy")

    def test_shape_mismatch_detected(self, tmp_path):
        v = self.make_volume()
        save_volume(v, tmp_path / "vol.npy")
        np.save(tmp_path / "vol.npy", v.data[:-1])
        with pytest.raises(ValueError, match="shape"):
            load_volume(tmp_path / "vol.npy")
