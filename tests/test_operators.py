import numpy as np
import pytest

from kschemo import Grid, ModelParams, integrate, operators
from kschemo.operators import _chemo_divergence, _exponents, _nonlocal_source, _transport

from conftest import laplacian


@pytest.fixture
def grid1d():
    return Grid(extent=(1.0,), cells=(128,))


@pytest.fixture
def grid2d():
    return Grid(extent=(1.0, 2.0), cells=(32, 48))


def transport(u, v, grid, scheme="upwind"):
    """The transport field div(u grad v) of one field pair: the kernel at
    chi = 1 subtracts it from zeros."""
    out = np.zeros(u.shape)
    _chemo_divergence(out, u, v, _transport(grid, scheme, [1.0]))
    return -out


def source(u, grid, p):
    """(source field, nonlocal integral I) of one field."""
    exponents = _exponents([p.alpha]), _exponents([p.beta])
    fields, (integral,) = _nonlocal_source(u[None], grid, [p.a], [p.b], *exponents)
    return fields[0], integral


def random_field(grid, seed, positive=False):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    return np.abs(f) if positive else f


class TestLaplacian:
    def test_constant_maps_to_zero(self, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            np.testing.assert_array_equal(laplacian(grid.full(4.2), grid), grid.zeros())

    def test_neumann_eigenfunction_1d(self, grid1d):
        # cos(pi x / L) samples are an exact eigenvector of the stencil
        L = grid1d.extent[0]
        f = grid1d.sample(lambda x: np.cos(np.pi * x / L))
        lap = laplacian(f, grid1d)
        n = grid1d.cells[0]
        lam = -4.0 * np.sin(np.pi / (2 * n)) ** 2 / grid1d.h[0] ** 2
        np.testing.assert_allclose(lap, lam * f, atol=1e-11)
        # and the discrete eigenvalue is within O(h^2) of -(pi/L)^2
        np.testing.assert_allclose(
            lap, -((np.pi / L) ** 2) * f, atol=(np.pi / L) ** 4 * grid1d.h[0] ** 2
        )

    def test_eigenfunction_refinement_order(self):
        errs = []
        for n in (64, 128):
            grid = Grid(extent=(1.0,), cells=(n,))
            f = grid.sample(lambda x: np.cos(np.pi * x))
            err = np.max(np.abs(laplacian(f, grid) + np.pi**2 * f))
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_conservative(self, grid1d, grid2d):
        for grid, seed in ((grid1d, 0), (grid2d, 1)):
            f = random_field(grid, seed)
            total = integrate(laplacian(f, grid), grid)
            scale = np.abs(f).max() / min(grid.h) ** 2
            assert abs(total) <= 1e-13 * scale

    def test_eigenfunction_2d_product_mode(self, grid2d):
        Lx, Ly = grid2d.extent
        nx, ny = grid2d.cells
        hx, hy = grid2d.h
        f = grid2d.sample(lambda x, y: np.cos(np.pi * x / Lx) * np.cos(2 * np.pi * y / Ly))
        lam = (
            -4.0 * np.sin(np.pi / (2 * nx)) ** 2 / hx**2
            - 4.0 * np.sin(2 * np.pi / (2 * ny)) ** 2 / hy**2
        )
        np.testing.assert_allclose(laplacian(f, grid2d), lam * f, atol=1e-10)

    def test_mirror_symmetry(self, grid2d):
        f = random_field(grid2d, 5)
        for axis in (0, 1):
            mirrored = laplacian(np.flip(f, axis=axis), grid2d)
            np.testing.assert_allclose(mirrored, np.flip(laplacian(f, grid2d), axis=axis), atol=1e-12)


class TestChemoDivergence:
    def test_constant_v_no_transport(self, grid1d):
        u = random_field(grid1d, 2, positive=True)
        out = transport(u, grid1d.full(7.0), grid1d)
        np.testing.assert_array_equal(out, grid1d.zeros())

    def test_constant_u_reduces_to_laplacian(self, grid1d, grid2d):
        # with u = c the face value is c on both sides, so the flux form
        # collapses to c * lap(v) identically for either face scheme
        for grid, seed in ((grid1d, 3), (grid2d, 4)):
            v = random_field(grid, seed)
            c = 2.5
            for scheme in ("upwind", "central"):
                out = transport(grid.full(c), v, grid, scheme=scheme)
                np.testing.assert_allclose(out, c * laplacian(v, grid), rtol=1e-12, atol=1e-12)

    def test_conservative(self, grid2d):
        u = random_field(grid2d, 6, positive=True)
        v = random_field(grid2d, 7)
        for scheme in ("upwind", "central"):
            total = integrate(transport(u, v, grid2d, scheme=scheme), grid2d)
            scale = np.abs(u).max() * np.abs(v).max() / min(grid2d.h) ** 2
            assert abs(total) <= 1e-13 * scale

    def test_mirror_symmetry(self, grid2d):
        u = random_field(grid2d, 8, positive=True)
        v = random_field(grid2d, 9)
        for scheme in ("upwind", "central"):
            base = transport(u, v, grid2d, scheme=scheme)
            for axis in (0, 1):
                mirrored = transport(
                    np.flip(u, axis=axis), np.flip(v, axis=axis), grid2d, scheme=scheme
                )
                np.testing.assert_allclose(mirrored, np.flip(base, axis=axis), atol=1e-12)

    @pytest.mark.parametrize("scheme", ["upwind", "central"])
    @pytest.mark.parametrize("cells", [(4,), (9,), (7, 5), (8, 6)])
    def test_row_slabs_write_the_whole_field_bits(self, cells, scheme):
        # any split of the first field axis into two slabs, each written by
        # its own call, gives every cell the bits of one whole-field call
        grid = Grid(extent=(1.0,) * len(cells), cells=cells)
        rng = np.random.default_rng(sum(cells))
        u, v, start = (rng.uniform(0.0, 2.0, (3,) + grid.shape) for _ in range(3))
        chis, n = [5.0, 0.0, 2.0], cells[0]
        whole = start.copy()
        whole_max = _chemo_divergence(whole, u, v, _transport(grid, scheme, chis))
        for m in range(1, n):
            split = start.copy()
            maxima = [
                _chemo_divergence(split, u, v, _transport(grid, scheme, chis, rows))
                for rows in ((0, m), (m, n))
            ]
            np.testing.assert_array_equal(split, whole)
            for top, bottom, expected in zip(*maxima, whole_max):
                np.testing.assert_array_equal(np.maximum(top, bottom), expected)


class TestNonlocalSource:
    def params(self, **kw):
        defaults = dict(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_constant_field_formula(self):
        grid = Grid(extent=(2.0,), cells=(32,))
        c = 1.7
        p = self.params(a=2.0, b=0.5, alpha=2.0, beta=3.0)
        s, nl = source(grid.full(c), grid, p)
        expected = p.a * c**p.alpha - p.b * c**p.alpha * (2.0 * c**p.beta)
        np.testing.assert_allclose(s, expected, rtol=1e-13)
        assert nl == pytest.approx(2.0 * c**p.beta, rel=1e-14)

    def test_homogeneous_equilibrium_annihilates(self):
        grid = Grid(extent=(1.0, 1.0), cells=(16, 16))
        p = self.params(a=3.0, b=2.0, alpha=2.0, beta=2.0)
        ustar = (p.a / (p.b * grid.measure)) ** (1.0 / p.beta)
        s, _ = source(grid.full(ustar), grid, p)
        assert np.max(np.abs(s)) <= 1e-13 * p.a * ustar**p.alpha

    def test_zero_field(self):
        grid = Grid(extent=(1.0,), cells=(16,))
        s, nl = source(grid.zeros(), grid, self.params())
        np.testing.assert_array_equal(s, grid.zeros())
        assert nl == 0.0

    def test_dampening_sign(self):
        # wherever u > 0 and I > a/b the source must be negative
        grid = Grid(extent=(1.0,), cells=(64,))
        p = self.params(a=0.5, b=1.0, alpha=1.5, beta=2.0)
        u = 3.0 * np.abs(np.random.default_rng(12).standard_normal(grid.shape)) + 0.5
        s, nl = source(u, grid, p)
        assert nl > p.a / p.b
        assert np.all(s[u > 0] < 0)

    def test_tiny_negatives_clamped_for_powers(self):
        grid = Grid(extent=(1.0,), cells=(16,))
        u = grid.full(1.0)
        u[3] = -5e-13  # inside the positivity floor of 1e-12
        s, _ = source(u, grid, self.params())
        assert np.all(np.isfinite(s))
        assert s[3] == 0.0



class TestRowOperands:
    """Per-row scalars a step shares as 0-d arrays give the column's bits."""

    def test_per_row_shares_only_identical_bits(self):
        assert operators._per_row([2.5, 2.5, 2.5], 1).shape == ()
        assert operators._per_row([2.5, 3.0], 1).shape == (2, 1)
        # 0.0 and -0.0 compare equal but scale a row to different zeros
        assert operators._per_row([0.0, -0.0], 2).shape == (2, 1, 1)
        assert operators._per_row([-0.0, -0.0], 2).shape == ()

    @pytest.mark.parametrize("values", [[1.7, 1.7], [0.0, 0.0], [-0.0, -0.0], [1e-3, 2.0]])
    def test_per_row_products_match_the_column(self, values):
        rows = np.random.default_rng(3).standard_normal((2, 16, 16))
        rows[0, 0, 0] = -0.0
        shared = rows * operators._per_row(values, 2)
        column = rows * operators._column(values, 2)
        assert shared.tobytes() == column.tobytes()

    @pytest.mark.parametrize(
        "values", [[1.0, 1.0], [2.0, 2.0], [1.5], [3.0, 3.0, 3.0], [1.5, 2.0], [1.0, 2.0]]
    )
    def test_pow_rows_match_the_scalar_power(self, values):
        base = np.abs(np.random.default_rng(4).standard_normal((len(values), 64))) * 3.0
        powered = operators._pow_rows(base, operators._exponents(values))
        for row, exponent, got in zip(base, values, powered):
            assert got.tobytes() == (row**exponent).tobytes()
