import math
import struct

import numpy as np
import pytest

from kschemo import (
    Grid,
    State,
    field_to_csv,
    integrate,
    lp_norm_pow,
    read_snapshot,
    write_snapshot,
)
from kschemo.params import FieldError


@pytest.fixture
def grid1d():
    return Grid(extent=(1.0,), cells=(64,))


@pytest.fixture
def grid2d():
    return Grid(extent=(2.0, 1.0), cells=(32, 16))


class TestGrid:
    def test_geometry(self, grid2d):
        assert grid2d.dim == 2
        assert grid2d.h == (2.0 / 32, 1.0 / 16)
        assert grid2d.measure == 2.0
        assert grid2d.cell_volume == pytest.approx((2.0 / 32) * (1.0 / 16))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(extent=(1.0,), cells=(3,))
        with pytest.raises(ValueError):
            Grid(extent=(-1.0,), cells=(8,))
        with pytest.raises(ValueError):
            Grid(extent=(1.0, 1.0, 1.0), cells=(8, 8, 8))
        with pytest.raises(ValueError):
            Grid(extent=(1.0, 1.0), cells=(8,))

    def test_field_error_names_axis(self):
        with pytest.raises(FieldError, match=r"cells\[1\]") as info:
            Grid(extent=(1.0, 1.0), cells=(8, 2))
        assert (info.value.field, info.value.axis) == ("cells", 1)

    def test_cell_centers(self, grid1d):
        x = grid1d.cell_centers()[0]
        assert x[0] == pytest.approx(0.5 / 64)
        assert x[-1] == pytest.approx(1.0 - 0.5 / 64)


class TestReductions:
    def test_integrate_constant(self, grid2d):
        assert integrate(grid2d.full(3.5), grid2d) == pytest.approx(3.5 * 2.0, rel=1e-15)

    def test_integrate_zero(self, grid1d):
        assert integrate(grid1d.zeros(), grid1d) == 0.0

    def test_integrate_linear_exact(self, grid1d):
        # midpoint rule integrates linear data exactly; powers of two keep fp exact
        x = grid1d.cell_centers()[0]
        assert integrate(x, grid1d) == 0.5

    def test_additivity(self, grid2d):
        rng = np.random.default_rng(7)
        f = rng.random(grid2d.shape)
        g = rng.random(grid2d.shape)
        lhs = integrate(f + g, grid2d)
        rhs = integrate(f, grid2d) + integrate(g, grid2d)
        assert abs(lhs - rhs) <= 1e-13 * (abs(lhs) + 1.0)

    def test_lp_constant(self):
        grid = Grid(extent=(1.0,), cells=(16,))
        assert lp_norm_pow(grid.full(2.0), grid, 3.0) == pytest.approx(8.0, rel=1e-15)

    def test_lp_zero(self, grid1d):
        assert lp_norm_pow(grid1d.zeros(), grid1d, 5.0) == 0.0

    def test_lp_cosine_profile(self):
        # int_0^1 (1 + cos(pi x))^2 dx = 3/2
        grid = Grid(extent=(1.0,), cells=(256,))
        u = grid.sample(lambda x: 1.0 + np.cos(np.pi * x))
        assert lp_norm_pow(u, grid, 2.0) == pytest.approx(1.5, abs=1e-4)

    def test_lp_k1_matches_integrate(self, grid2d):
        rng = np.random.default_rng(11)
        f = rng.random(grid2d.shape)
        assert lp_norm_pow(f, grid2d, 1.0) == pytest.approx(integrate(f, grid2d), rel=1e-14)

    def test_lp_rejects_small_k(self, grid1d):
        with pytest.raises(ValueError):
            lp_norm_pow(grid1d.zeros(), grid1d, 0.5)

    def test_quadrature_second_order(self):
        exact = math.e - 1.0
        errors = []
        for n in (32, 64, 128):
            grid = Grid(extent=(1.0,), cells=(n,))
            errors.append(abs(integrate(grid.sample(np.exp), grid) - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)

    def test_non_finite_rejected(self, grid1d):
        bad = grid1d.zeros()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            integrate(bad, grid1d)

    def test_shape_mismatch_rejected(self, grid1d):
        with pytest.raises(ValueError):
            integrate(np.zeros(10), grid1d)


def _reduction_cases():
    # a smooth 512^2 bump, and a tall single-cell peak on a tiny background
    grid = Grid(extent=(1.0, 1.0), cells=(512, 512))
    bump = grid.sample(lambda x, y: np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2) / 0.02))
    peak = grid.full(1e-12)
    peak[200, 311] = 1e8
    return grid, (bump, peak)


class TestPairwiseReductions:
    def test_match_fsum_reference(self):
        grid, fields = _reduction_cases()
        for f in fields:
            ref = grid.cell_volume * math.fsum(f.ravel())
            assert abs(integrate(f, grid) - ref) <= 1e-14 * ref
            for k in (1.0, 2.0, 3.5):
                ref = grid.cell_volume * math.fsum((np.abs(f) ** k).ravel())
                assert abs(lp_norm_pow(f, grid, k) - ref) <= 1e-14 * ref

    def test_bitwise_reproducible(self):
        grid, fields = _reduction_cases()
        for f in fields:
            for reduce in (
                lambda a: integrate(a, grid),
                lambda a: lp_norm_pow(a, grid, 3.5),
            ):
                first = reduce(f)
                assert reduce(f) == first
                assert reduce(f.copy()) == first


class TestState:
    def test_validate_positivity(self, grid1d):
        st = State(u=grid1d.full(1.0), v=grid1d.zeros())
        st.validate(grid1d)
        st.u[5] = -1e-10
        with pytest.raises(ValueError):
            st.validate(grid1d)
        st.u[5] = -1e-13  # inside tolerance
        st.validate(grid1d)


class TestSnapshots:
    def test_roundtrip_1d(self, tmp_path, grid1d):
        rng = np.random.default_rng(3)
        f = rng.random(grid1d.shape)
        path = tmp_path / "u.snap"
        write_snapshot(path, f, grid1d, t=1.25)
        values, t = read_snapshot(path)
        assert t == 1.25
        np.testing.assert_array_equal(values, f)
        assert path.stat().st_size == 32 + 8 * f.size

    def test_roundtrip_2d(self, tmp_path, grid2d):
        rng = np.random.default_rng(4)
        f = rng.random(grid2d.shape)
        path = tmp_path / "v.snap"
        write_snapshot(path, f, grid2d, t=0.0)
        values, t = read_snapshot(path)
        np.testing.assert_array_equal(values, f)
        assert values.shape == grid2d.shape

    def test_header_layout(self, tmp_path, grid1d):
        path = tmp_path / "u.snap"
        write_snapshot(path, grid1d.zeros(), grid1d, t=2.0)
        header = path.read_bytes()[:32]
        magic, dim, nx, ny, t = struct.unpack("<8sIII4xd", header)
        assert magic == b"KSCHSNP1"
        assert (dim, nx, ny, t) == (1, 64, 0, 2.0)

    def test_bad_magic_rejected(self, tmp_path, grid1d):
        path = tmp_path / "u.snap"
        write_snapshot(path, grid1d.zeros(), grid1d, t=0.0)
        data = bytearray(path.read_bytes())
        data[0] = 0x58
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path, grid1d):
        path = tmp_path / "u.snap"
        write_snapshot(path, grid1d.zeros(), grid1d, t=0.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "dim, nx, ny, extra, message",
        [
            (3, 8, 4, b"", "dim 3 is not 1 or 2"),
            (0, 8, 4, b"", "dim 0 is not 1 or 2"),
            (1, 8, 7, b"", "1D snapshot with ny = 7"),
            (1, 0, 0, b"", r"shape \(0,\) has an axis below 4 cells"),
            (2, 0, 5, b"", r"shape \(0, 5\) has an axis below 4 cells"),
            (2, 5, 3, b"", r"shape \(5, 3\) has an axis below 4 cells"),
            (1, 8, 0, b"\0", "bytes after the snapshot payload"),
        ],
        ids=["dim-3", "dim-0", "ny-in-1d", "no-cells-1d", "no-cells-2d", "3-cells", "trailing-bytes"],
    )
    def test_malformed_header_or_tail_rejected(self, tmp_path, dim, nx, ny, extra, message):
        # a header that no grid writes, with the payload its shape asks for
        path = tmp_path / "u.snap"
        count = nx * (1 if dim == 1 else ny)
        header = struct.pack("<8sIII4xd", b"KSCHSNP1", dim, nx, ny, 0.0)
        path.write_bytes(header + bytes(8 * count) + extra)
        with pytest.raises(ValueError, match=message) as raised:
            read_snapshot(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("nx, ny", [(2**31, 2**31), (2**28, 2**20)], ids=["2^62", "2^48"])
    def test_header_larger_than_the_file_rejected(self, tmp_path, nx, ny):
        # the declared payload is weighed against the file before any read:
        # neither an index overflow nor a huge allocation comes first
        path = tmp_path / "u.snap"
        header = struct.pack("<8sIII4xd", b"KSCHSNP1", 2, nx, ny, 0.0)
        path.write_bytes(header + bytes(8 * 64))
        with pytest.raises(ValueError, match=f"^{path}: truncated snapshot payload$"):
            read_snapshot(path)

    def test_field_csv(self, tmp_path, grid2d):
        path = tmp_path / "u.csv"
        field_to_csv(path, grid2d.full(1.0), grid2d)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 32 * 16

    @pytest.mark.parametrize(
        "grid,values",
        [(Grid((1.0,), (8,)), np.ones(12)), (Grid((1.0, 1.0), (4, 4)), np.ones(20))],
    )
    def test_field_csv_rejects_wrong_shape(self, tmp_path, grid, values):
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match="does not match grid"):
            field_to_csv(path, values, grid)
        assert not path.exists()
