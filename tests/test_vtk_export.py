"""Tests for the VTK structured-points exporter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainSpec, GridSpec, Volume
from repro.viz.export import save_vtk


def make_volume():
    dom = DomainSpec(gx=6.0, gy=4.0, gt=10.0, sres=2.0, tres=5.0,
                     x0=100.0, y0=-50.0, t0=7.0)
    grid = GridSpec(dom, hs=2.0, ht=5.0)
    rng = np.random.default_rng(0)
    return Volume(rng.random(grid.shape), grid)


class TestSaveVTK:
    def test_writes_file_with_suffix(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol")
        assert out.suffix == ".vtk"
        assert out.exists()

    def test_header_fields(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol.vtk", name="dengue")
        text = out.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in text
        assert f"DIMENSIONS {v.grid.Gx} {v.grid.Gy} {v.grid.Gt}" in text
        assert "SCALARS dengue double 1" in text

    def test_origin_is_first_voxel_center(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol.vtk")
        origin_line = next(l for l in out.read_text().splitlines()
                           if l.startswith("ORIGIN"))
        ox, oy, ot = (float(x) for x in origin_line.split()[1:])
        assert ox == pytest.approx(101.0)  # x0 + sres/2
        assert oy == pytest.approx(-49.0)
        assert ot == pytest.approx(9.5)  # t0 + tres/2

    def test_spacing_matches_resolution(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol.vtk")
        spacing = next(l for l in out.read_text().splitlines()
                       if l.startswith("SPACING"))
        sx, sy, st = (float(x) for x in spacing.split()[1:])
        assert (sx, sy, st) == (2.0, 2.0, 5.0)

    def test_data_round_trip_x_fastest(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol.vtk")
        lines = out.read_text().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array(
            [float(x) for line in lines[start:] for x in line.split()]
        )
        assert values.size == v.grid.n_voxels
        # x varies fastest: value at flat index 1 is data[1, 0, 0].
        assert values[0] == pytest.approx(v.data[0, 0, 0], rel=1e-6)
        assert values[1] == pytest.approx(v.data[1, 0, 0], rel=1e-6)
        assert values[v.grid.Gx] == pytest.approx(v.data[0, 1, 0], rel=1e-6)
        np.testing.assert_allclose(
            values.reshape(v.grid.Gt, v.grid.Gy, v.grid.Gx).transpose(2, 1, 0),
            v.data, rtol=1e-6,
        )

    def test_t_outermost_volume_exports_its_xyt_values(self, tmp_path):
        """A volume in the t-outermost layout writes the same file as a
        C-order copy of its values, x fastest."""
        v = make_volume()
        data = v.grid.allocate()
        data[...] = v.data
        assert not data.flags.c_contiguous
        a = save_vtk(v, tmp_path / "c.vtk").read_text()
        b = save_vtk(Volume(data, v.grid), tmp_path / "t.vtk").read_text()
        assert a == b
        lines = b.splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array([float(x) for line in lines[start:] for x in line.split()])
        want = np.array([float(f"{x:.8g}") for x in data.transpose(2, 1, 0).ravel()])
        np.testing.assert_array_equal(values, want)

    def test_point_count_declared(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "vol.vtk")
        assert f"POINT_DATA {v.grid.n_voxels}" in out.read_text()

    def test_creates_parent_dirs(self, tmp_path):
        v = make_volume()
        out = save_vtk(v, tmp_path / "a" / "b" / "vol.vtk")
        assert out.exists()
