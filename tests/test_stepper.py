import dataclasses
import math
import multiprocessing
import re
import signal
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, TimeoutError

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kschemo import (
    Grid,
    ModelParams,
    Recorder,
    State,
    StepperConfig,
    Termination,
    integrate,
    run,
    run_batch,
)
from kschemo import operators, stepper, verification
from kschemo.grid import _POSITIVITY_TOL
from kschemo.observables import ObservableError
from kschemo.params import FieldError
from kschemo.operators import FACE_SCHEMES
from kschemo.stepper import _neumann_eigenvalues
from kschemo.verification import build_mms_case, equilibrium_case

from conftest import laplacian, outcomes, proposed_dt


@pytest.fixture
def grid1d():
    return Grid(extent=(1.0,), cells=(64,))


@pytest.fixture
def grid2d():
    return Grid(extent=(1.0, 1.0), cells=(24, 24))


def _grid_eigenvalues(grid):
    """Eigenvalues of L_h on ``grid`` in the DCT-II basis: sums of the per-axis ones."""
    lam = np.zeros(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.cells, grid.h)):
        shape = [1] * grid.dim
        shape[axis] = n
        lam += _neumann_eigenvalues(n, h).reshape(shape)
    return lam


def _threaded_grid():
    """The smallest square 2D grid whose single-row half reaches _THREAD_CELLS."""
    side = math.isqrt(stepper._THREAD_CELLS - 1) + 1
    return Grid(extent=(1.0, 1.0), cells=(side, side))


def _helper_threads():
    """Live threads that the stepper starts: every helper's name starts with kschemo-."""
    return [t for t in threading.enumerate() if t.name.startswith("kschemo-")]


def _advance(u, v, ts, params, grid, cfg, forcing=None, dt_cap=None, scheme="upwind"):
    """One step of a batch as a march under the face ``scheme`` runs it:
    inside _march, with its plan, each u row's max and no dt cap unless
    ``dt_cap`` gives one per member.  Returns the new fields and the step's
    Outcome of each member."""
    caps = [math.inf] * len(params) if dt_cap is None else dt_cap
    umax = np.maximum.reduce(u, grid.field_axes).tolist()
    with stepper._march(len(params), grid, cfg, forcing, scheme) as plan:
        plan.members(params)
        u_new, v_new, step = stepper._advance(plan, u, v, ts, caps, umax)
    return u_new, v_new, outcomes(step)


def _held(rhs, grid, sigma):
    """What a march's plan holds for solving the rows of ``rhs`` at ``sigma``
    (a scalar or a column with one entry per row)."""
    sigmas = np.broadcast_to(np.ravel(sigma), len(rhs)).tolist()
    return stepper._hold(sigmas, grid, stepper._axis_eigenvalues(grid))


def _diff_laplacian(f, grid):
    """L_h f of one field from np.diff, independent of the operators' kernel:
    per axis, the face differences over h^2, each added to the cell left of
    its face and taken from the one right of it."""
    out = np.zeros(f.shape)
    for axis, h in enumerate(grid.h):
        flux = np.diff(f, axis=axis) / h**2
        edge = np.zeros_like(np.take(flux, [0], axis=axis))
        out += np.concatenate([flux, edge], axis=axis) - np.concatenate([edge, flux], axis=axis)
    return out


def _assert_perturbed_solution_fails_gate(monkeypatch, grids, relative):
    """A solve whose w has one entry off by ``relative`` * ||w|| fails the
    gate on ``grids`` and a 16384-cell grid, at small to large sigma."""
    exact_core = stepper._helmholtz_core

    def perturbed_core(rhs, grid, sigma, held):
        w = exact_core(rhs, grid, sigma, held)
        w.flat[5] += relative * np.linalg.norm(w)
        return w

    monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
    for grid in (*grids, Grid(extent=(1.0,), cells=(16384,))):
        rhs = np.random.default_rng(8).random(grid.shape)
        for sigma in (1e-4, 1e-2, 1.0):
            _, (rel,) = _checked(rhs[None], grid, sigma)
            assert rel > stepper._LINEAR_TOL


def _checked(rhs, grid, sigma):
    """_helmholtz_checked of the rows of ``rhs``: (w, backward error of each row)."""
    return stepper._helmholtz_checked(rhs, grid, sigma, _held(rhs, grid, sigma))[:2]


def _solve(rhs, grid, sigma):
    """The checked solve of one field, which must pass the stepper's gate."""
    w, (rel,) = _checked(rhs[None], grid, sigma)
    assert rel <= stepper._LINEAR_TOL
    return w[0]


def _record_threads(monkeypatch, name="_helmholtz_checked"):
    """Allow two threads on any machine; collect who calls stepper.<name>, by thread name."""
    monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
    original, threads = getattr(stepper, name), set()

    def spy(*args):
        threads.add(threading.current_thread().name)
        return original(*args)

    monkeypatch.setattr(stepper, name, spy)
    return threads


def equilibrium_state(params, grid):
    ustar = (params.a / (params.b * grid.measure)) ** (1.0 / params.beta)
    return State(u=grid.full(ustar), v=grid.full(ustar)), ustar


class TestStepperConfig:
    def test_dt_ordering_enforced(self):
        with pytest.raises(ValueError):
            StepperConfig(dt_min=1e-2, dt_max=1e-3)
        with pytest.raises(ValueError):
            StepperConfig(cfl_safety=1.5)


class TestHelmholtz:
    def test_constant_in_kernel(self, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            w = _solve(grid.full(3.0), grid, sigma=0.1)
            np.testing.assert_allclose(w, 3.0, rtol=1e-13)

    def test_discrete_eigenmode_exact(self, grid1d):
        n = grid1d.cells[0]
        mode = grid1d.sample(lambda x: np.cos(np.pi * x))
        lam = _neumann_eigenvalues(n, grid1d.h[0])[1]
        sigma = 0.37
        rhs = (1.0 - sigma * lam) * mode
        w = _solve(rhs, grid1d, sigma)
        np.testing.assert_allclose(w, mode, atol=1e-12)

    def test_discrete_eigenmode_exact_2d(self, grid2d):
        nx, ny = grid2d.cells
        mode = grid2d.sample(lambda x, y: np.cos(np.pi * x) * np.cos(2 * np.pi * y))
        lam = (
            _neumann_eigenvalues(nx, grid2d.h[0])[1]
            + _neumann_eigenvalues(ny, grid2d.h[1])[2]
        )
        sigma = 0.05
        w = _solve((1.0 - sigma * lam) * mode, grid2d, sigma)
        np.testing.assert_allclose(w, mode, atol=1e-12)

    def test_random_rhs_residual(self, grid1d, grid2d):
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid1d, 0), (grid2d, 1), (odd, 4)):
            rhs = np.random.default_rng(seed).standard_normal(grid.shape)
            sigma = 2.3e-3
            w = _solve(rhs, grid, sigma)
            res = np.linalg.norm(w - sigma * laplacian(w, grid) - rhs)
            assert res / np.linalg.norm(rhs) <= 1e-10

    def test_nonnegative_map(self, grid1d, grid2d):
        # inverse of the M-matrix keeps nonnegative data nonnegative, also in
        # the far tail of a tall peak where transform rounding dips below 0
        rng = np.random.default_rng(2)
        for grid in (grid1d, grid2d):
            peak = grid.sample(lambda *xs: 1e6 * np.exp(-sum((x - 0.5) ** 2 for x in xs) / 2e-3))
            for sigma in (1e-4, 1e-2, 1.0):
                for rhs in (np.abs(rng.standard_normal(grid.shape)), peak):
                    assert _solve(rhs, grid, sigma).min() >= 0.0

    def test_fine_grid_passes_gate(self):
        # the rounding in sigma*L_h w grows like eps*4*sigma/h^2*||w||; a
        # residual gated on ||rhs|| alone rejected this exact solve
        grid = Grid(extent=(1.0,), cells=(16384,))
        rhs = np.random.default_rng(6).random(grid.shape)
        w = _solve(rhs, grid, 1e-2)
        assert integrate(w, grid) == pytest.approx(integrate(rhs, grid), rel=1e-12)

    def test_perturbed_solution_fails_gate(self, grid1d, grid2d, monkeypatch):
        _assert_perturbed_solution_fails_gate(monkeypatch, (grid1d, grid2d), 1e-6)

    def test_solution_perturbed_by_1e_9_fails_gate(self, grid1d, grid2d, monkeypatch):
        # one entry off by 1e-9 * ||w|| leaves a residual of about 0.56 (2D)
        # to 0.61 (1D) * ||A|| times that, and ||rhs|| <= ||A|| ||w||
        _assert_perturbed_solution_fails_gate(monkeypatch, (grid1d, grid2d), 1e-9)

    def test_solution_at_a_detuned_sigma_fails_gate(self, grid1d, grid2d, monkeypatch):
        # w solves the system at sigma * 1.001, so its residual is 1e-3 * sigma * L_h w
        exact_core = stepper._helmholtz_core

        def detuned_core(rhs, grid, sigma, held):
            return exact_core(rhs, grid, sigma * 1.001, held)

        monkeypatch.setattr(stepper, "_helmholtz_core", detuned_core)
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid in (grid1d, grid2d, odd):
            rhs = np.random.default_rng(9).random((2,) + grid.shape)
            for sigma in (1e-4, 1e-2, 1.0):
                _, rel = _checked(rhs, grid, sigma)
                assert min(rel) > stepper._LINEAR_TOL

    def test_gate_residual_matches_expression(self, grid1d, grid2d):
        # the gate builds w - sigma*L_h w - rhs from w - rhs, face by face,
        # and takes the backward error in Python floats; it must carry the
        # bits of the same arithmetic in plain numpy, NaN and the 1e-300
        # floor included.  Rows 3 to 5 hold a NaN, an inf (which the
        # transform turns into inf - inf, so NaN) and zeros only
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid1d, 10), (grid2d, 11), (odd, 12)):
            rng = np.random.default_rng(seed)
            rhs = rng.standard_normal((6,) + grid.shape)
            rhs[3].flat[4] = np.nan
            rhs[4].flat[2] = np.inf
            rhs[5] = 0.0
            column = operators._column([1e-4, 2.3e-3, 1.0, 1e-2, 0.5, 3.0], grid.dim)
            for sigma in (2.3e-3, 1.0, column):
                kept = rhs.copy()
                sigmas = np.broadcast_to(np.ravel(sigma), len(rhs)).tolist()
                with np.errstate(all="ignore"):
                    w, rel = _checked(rhs, grid, sigma)
                    residual = w - rhs
                    for h, (_, left, right) in zip(grid.h, grid.faces):
                        scale = operators._column([s / (h * h) for s in sigmas], grid.dim)
                        flux = (w[right] - w[left]) * scale
                        residual[left] -= flux
                        residual[right] += flux
                    a_norm = 1.0 + 4.0 * np.array(sigmas) * sum(1.0 / h**2 for h in grid.h)
                    w_norm, rhs_norm, residual_norm = (
                        np.sqrt(np.vecdot(x, x)) for x in (
                            x.reshape(len(x), -1) for x in (w, rhs, residual)
                        )
                    )
                    scale = a_norm * w_norm + rhs_norm
                    expected = residual_norm / np.maximum(scale, 1e-300)
                np.testing.assert_array_equal(rhs, kept)
                assert np.array(rel).tobytes() == expected.tobytes()
                assert math.isnan(rel[3]) and math.isnan(rel[4])
                # 0 / 0 without the floor
                assert rel[5] == 0.0

    @pytest.mark.parametrize("relative", [0.0, 1e-8])
    def test_gate_error_agrees_with_the_laplacian_residual(
        self, grid1d, grid2d, monkeypatch, relative
    ):
        # The gate's residual and w - sigma*L_h w - rhs with L_h from np.diff
        # (_diff_laplacian, which shares no code with the gate's kernel)
        # round differently.  Each entry of either passes through at most
        # m = 6 + 2*dim roundings (the np.diff one: face difference, h^2 and
        # the division by it, two sums per axis into the cell, the product
        # with sigma, two subtractions; the gate's: w - rhs, the face
        # difference, sigma/h^2 and its product, the sums into the cell),
        # each of a term whose
        # absolute values sum, over a row, to at most ||A|| ||w|| + ||rhs||
        # in the 2-norm (||A|| the gate's bound 1 + 4 sigma sum(1/h^2)).  So
        # the two errors differ by at most 2 gamma_m, plus the relative
        # rounding of the norms and the quotient, gamma_(N+4) of the error
        # with N the cells of a row (recursive-summation bound).  Exact
        # solves have errors at that rounding level; solutions perturbed by
        # ``relative`` * ||w|| in every cell have errors far above it.
        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma, held):
            w = exact_core(rhs, grid, sigma, held)
            for row in w:
                wave = np.cos(7.3 * np.arange(row.size)).reshape(row.shape)
                row += relative * np.linalg.norm(row) * wave
            return w

        monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
        odd = Grid(extent=(2.5,), cells=(37,))
        unit = 2.0**-53

        def gamma(k):
            return k * unit / (1.0 - k * unit)

        for grid, seed in ((grid1d, 20), (grid2d, 21), (odd, 22)):
            rng = np.random.default_rng(seed)
            peak = grid.sample(lambda *xs: 1e6 * np.exp(-sum((x - 0.5) ** 2 for x in xs) / 2e-3))
            rhs = np.stack([rng.standard_normal(grid.shape), rng.random(grid.shape), peak])
            sigmas = [1e-4, 1e-2, 1.0]
            column = operators._column(sigmas, grid.dim)
            w, rel = _checked(rhs, grid, column)
            bound = 2.0 * gamma(6 + 2 * grid.dim)
            rounding = gamma(math.prod(grid.cells) + 4)
            for i, sigma in enumerate(sigmas):
                row = w[i]
                old = row - sigma * _diff_laplacian(row, grid) - rhs[i]
                a_norm = 1.0 + 4.0 * sigma * sum(1.0 / h**2 for h in grid.h)
                scale = a_norm * np.linalg.norm(row) + np.linalg.norm(rhs[i])
                expected = np.linalg.norm(old) / scale
                _, alone = _checked(rhs[i : i + 1], grid, sigma)
                assert alone == [rel[i]]
                assert abs(rel[i] - expected) <= bound + rounding * max(rel[i], expected)
                assert (expected > 1e3 * bound) == (relative > 0.0)

    def test_row_error_independent_of_batch(self):
        # a row's backward error is the one it gets alone, at row lengths
        # where a shape-dependent reduction would chunk differently
        grid = Grid(extent=(1.0, 1.0), cells=(128, 128))
        rhs = np.random.default_rng(14).random((3,) + grid.shape)
        sigma = operators._column([1e-4, 2.3e-3, 1.0], grid.dim)
        _, rel = _checked(rhs, grid, sigma)
        for i in range(3):
            _, alone = _checked(rhs[i : i + 1], grid, sigma[i : i + 1])
            assert alone == [rel[i]]

    def test_mixed_batch_clips_only_nonnegative_rows(self, grid1d, grid2d):
        # rows 0 and 2 have nonnegative rhs and rounding negatives to clip;
        # row 1 has a signed rhs whose negative solution entries must stay
        for grid in (grid1d, grid2d):
            peak = grid.sample(
                lambda *xs: 1e6 * np.exp(-sum((x - 0.5) ** 2 for x in xs) / 2e-3)
            )
            signed = np.random.default_rng(15).standard_normal(grid.shape)
            rhs = np.stack([peak, signed, 3.0 * peak])
            sigma = operators._column([1e-6, 1e-2, 1e-5], grid.dim)
            w = stepper._helmholtz_core(rhs, grid, sigma, _held(rhs, grid, sigma))
            assert w[0].min() >= 0.0 and w[2].min() >= 0.0
            assert w[1].min() < 0.0
            for i in range(3):
                row, row_sigma = rhs[i : i + 1], sigma[i : i + 1]
                alone = stepper._helmholtz_core(row, grid, row_sigma, _held(row, grid, row_sigma))
                np.testing.assert_array_equal(w[i], alone[0])
                if i != 1:
                    # the clip matters: without it the row dips below zero
                    forward, inverse = stepper._TRANSFORMS[grid.dim]
                    spectral = forward(rhs[i])
                    spectral /= 1.0 - sigma[i] * _grid_eigenvalues(grid)
                    assert inverse(spectral).min() < 0.0

    @pytest.mark.parametrize("rows,n", [(1, 16), (2, 256), (5, 37), (32, 1000)])
    def test_1d_transform_has_scipy_fft_bits(self, rows, n):
        grid = Grid(extent=(1.0,), cells=(n,))
        x = np.random.default_rng(n).standard_normal((rows, n))
        forward, inverse = stepper._TRANSFORMS[grid.dim]
        spectral = forward(x)
        np.testing.assert_array_equal(spectral, scipy.fft.dct(x, type=2, norm="ortho", axis=-1))
        expected = scipy.fft.idct(spectral, type=2, norm="ortho", axis=-1)
        np.testing.assert_array_equal(inverse(spectral.copy()), expected)

    def test_mean_preserved(self, grid2d):
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid2d, 3), (odd, 5)):
            rhs = np.random.default_rng(seed).standard_normal(grid.shape)
            w = _solve(rhs, grid, sigma=0.7)
            assert integrate(w, grid) == pytest.approx(integrate(rhs, grid), abs=1e-11)


class TestAdaptDt:
    def params(self, **kw):
        defaults = dict(chi=1.0, a=1e-6, b=1e-6, alpha=2.0, beta=2.0)
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_unconstrained_hits_dt_max(self, grid1d):
        cfg = StepperConfig()
        p = self.params()
        dt = proposed_dt(grid1d.full(0.5), grid1d.full(1.0), grid1d, p, cfg, 0.0)
        assert dt == cfg.dt_max

    def test_doubling_chi_halves_transport_bound(self, grid1d):
        cfg = StepperConfig(dt_max=10.0)
        v = grid1d.sample(lambda x: x)  # unit gradient
        u = grid1d.full(0.1)
        dt1 = proposed_dt(u, v, grid1d, self.params(chi=1.0), cfg, 0.0)
        dt2 = proposed_dt(u, v, grid1d, self.params(chi=2.0), cfg, 0.0)
        assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-12)

    def test_clamped_to_bounds(self, grid1d):
        cfg = StepperConfig(dt_min=1e-6, dt_max=1e-2)
        p = self.params(a=1e12, b=1e12)  # ferocious reaction bound
        u, v = grid1d.full(1.0), grid1d.full(1.0)
        assert proposed_dt(u, v, grid1d, p, cfg, 1.0) == cfg.dt_min
        p = self.params()
        assert proposed_dt(u, v, grid1d, p, cfg, 0.0) == cfg.dt_max

    @pytest.mark.parametrize("threaded", [False, True], ids=["1d", "threaded-2d"])
    def test_each_advance_proposes_through_the_hooked_name(self, grid1d, monkeypatch, threaded):
        # the benchmark times the dt proposal by wrapping stepper.adapt_dt, so
        # every step a march solves must look that name up, once
        threads = _record_threads(monkeypatch)
        calls = {"_advance": 0, "adapt_dt": 0}
        for name in calls:

            def spy(*args, original=getattr(stepper, name), name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(stepper, name, spy)
        grid = _threaded_grid() if threaded else grid1d
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=2.0)
        initial = State(u=_bump(grid, 4.0, width=0.1), v=grid.zeros())
        cfg = StepperConfig(dt_max=1e-4)
        result = run(initial, p, grid, cfg, 3e-4, Recorder(sample_interval=1e-4))
        assert result.termination is Termination.REACHED_T_END
        assert calls["adapt_dt"] == calls["_advance"] >= 3
        assert any(t.startswith("kschemo-") for t in threads) == threaded


def _np_diff_dts(u, v, grid, params, cfg, integrals):
    """The dt proposal with its transport bound from a separate np.diff pass (reference)."""
    axes = grid.field_axes
    grad_max = [
        (h, np.abs(np.diff(v, axis=axis)).max(axis=axes).tolist())
        for axis, h in zip(axes, grid.h)
    ]
    umax = u.max(axis=axes).tolist()
    dts = []
    for i, (p, integral) in enumerate(zip(params, integrals)):
        bound = math.inf
        if p.chi > 0:
            for h, dv_max in grad_max:
                bound = min(bound, h / (p.chi * (dv_max[i] / h) + stepper._EPS_RATE))
        umax_pow = 1.0 if p.alpha == 1.0 else umax[i] ** (p.alpha - 1.0)
        rate = (p.a + p.b * integral) * umax_pow
        bound = min(bound, 1.0 / (rate + stepper._EPS_RATE))
        dts.append(min(max(cfg.cfl_safety * bound, cfg.dt_min), cfg.dt_max))
    return dts


@st.composite
def _transport_batches(draw):
    """(grid, u, v, params): a 1D or 2D batch with mixed chi, chi = 0 included."""
    dim = draw(st.sampled_from([1, 2]))
    cells = tuple(draw(st.integers(4, 40 if dim == 1 else 9)) for _ in range(dim))
    grid = Grid(extent=(1.0,) * dim, cells=cells)
    count = draw(st.integers(1, 4))
    shape = (count,) + cells
    u = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1e3)))
    # an infinite v must give the batch bound the same non-finite gradient
    v_cells = st.floats(-1e6, 1e6) | st.sampled_from([math.inf, -math.inf])
    v = draw(hnp.arrays(float, shape, elements=v_cells))
    chi = st.sampled_from([0.0, 1e-3, 1.0, 7.5]) | st.floats(0.0, 1e3)
    alpha = st.sampled_from([1.0, 1.5, 2.0])
    params = [
        ModelParams(chi=draw(chi), a=1.0, b=1.0, alpha=draw(alpha), beta=2.0)
        for _ in range(count)
    ]
    return grid, u, v, params


class TestTransportBound:
    @given(batch=_transport_batches(), integral=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_kernel_gradients_match_np_diff(self, batch, integral):
        grid, u, v, params = batch
        # a wide clamp, so the clamp hides no difference in the bound
        cfg = StepperConfig(dt_min=1e-300, dt_max=1e300)
        integrals = [integral] * len(params)
        with np.errstate(**stepper._QUIET):
            transport = operators._transport(grid, "upwind", [p.chi for p in params])
            grad_max = operators._chemo_divergence(np.zeros(u.shape), u, v, transport)
            umax = u.max(axis=grid.field_axes).tolist()
            caps = [math.inf] * len(params)
            dts = stepper.adapt_dt(
                umax, stepper._rates(params), grid, cfg, integrals, grad_max, caps
            )
            assert dts == _np_diff_dts(u, v, grid, params, cfg, integrals)
            for axis, h, g in zip(grid.field_axes, grid.h, grad_max):
                expected = np.abs(np.diff(v, axis=axis)).max(axis=grid.field_axes) / h
                np.testing.assert_array_equal(g, expected)
            # each row proposes alone what it proposes in the batch, a
            # non-finite v included
            for i, p in enumerate(params):
                assert proposed_dt(u[i], v[i], grid, p, cfg, integral) == dts[i]


class TestTransportSlabs:
    """The explicit stage in two row slabs on two threads has the serial bits."""

    @staticmethod
    def stage(explicit, u, v, chis, grid, scheme):
        """The explicit stage as _advance runs it, from the plan of a march
        of these rows: in slabs on the march's helper when _threaded, else
        in one call."""
        explicit = explicit.copy()
        params = [ModelParams(chi=chi, a=1.0, b=1.0, alpha=2.0, beta=2.0) for chi in chis]
        with stepper._march(len(u), grid, StepperConfig(), None, scheme) as plan:
            plan.members(params)
            grad_max = stepper._transport_stage(plan, explicit, u, v)
        return explicit, grad_max

    @pytest.mark.parametrize("scheme", FACE_SCHEMES)
    @pytest.mark.parametrize(
        "cells, chis",
        [
            ((256, 256), [5.0]),
            ((256, 256), [5.0, 0.0, 2.0]),
            ((257, 256), [5.0]),
            ((257, 256), [5.0, 0.0, 2.0]),
            # 256 members of 256 cells reach _THREAD_CELLS in 1D
            ((256,), [5.0, 0.0, 2.0, 0.5] * 64),
        ],
    )
    def test_matches_serial(self, cells, chis, scheme, monkeypatch):
        grid = Grid(extent=(1.0,) * len(cells), cells=cells)
        count, m = len(chis), cells[0] // 2
        rng = np.random.default_rng(len(cells) * 1000 + cells[0] + count)
        u = rng.uniform(0.0, 2.0, (count,) + grid.shape)
        base = rng.uniform(0.0, 1.0, (count,) + grid.shape)
        explicit = rng.uniform(-1.0, 1.0, (count,) + grid.shape)
        # non-finite entries at the last row of the helper's slab, at the
        # first of the calling thread's and at the halo edges
        cases = [base]
        for row, value in ((m - 1, np.inf), (m, np.nan), (m + 1, -np.inf), (m - 2, np.nan)):
            v = base.copy()
            v[(count - 1, row) + (3,) * (grid.dim - 1)] = value
            cases.append(v)
        threads = _record_threads(monkeypatch, "_chemo_divergence")
        for v in cases:
            threads.clear()
            split, split_max = self.stage(explicit, u, v, chis, grid, scheme)
            assert len(threads) == 2 and any(t.startswith("kschemo-step") for t in threads)
            with monkeypatch.context() as patch:
                patch.setattr(stepper, "_THREAD_CELLS", math.inf)
                serial, serial_max = self.stage(explicit, u, v, chis, grid, scheme)
            transport = operators._transport(grid, scheme, chis)
            whole = operators._chemo_divergence(explicit.copy(), u, v, transport)
            np.testing.assert_array_equal(split, serial)
            assert len(split_max) == len(serial_max) == grid.dim
            for a, b, c in zip(split_max, serial_max, whole):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
            if v is not base:
                assert not np.isfinite(split[-1]).all()
            assert _helper_threads() == []

    @pytest.mark.parametrize("scheme", FACE_SCHEMES)
    def test_threaded_step_matches_serial(self, scheme, monkeypatch):
        # a whole step of either face scheme: the slabs write the explicit
        # stage that the threaded halves then solve
        grid = _threaded_grid()
        cfg = StepperConfig()
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u = _bump(grid, 8.0, width=0.1)[None]
        v = grid.sample(lambda x, y: 1.0 + np.cos(np.pi * x) * np.cos(2 * np.pi * y))[None]
        transport = _record_threads(monkeypatch, "_chemo_divergence")
        threaded = _advance(u, v, [0.0], [p], grid, cfg, scheme=scheme)
        assert len(transport) == 2
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "_THREAD_CELLS", math.inf)
            serial = _advance(u, v, [0.0], [p], grid, cfg, scheme=scheme)
        np.testing.assert_array_equal(threaded[0], serial[0])
        np.testing.assert_array_equal(threaded[1], serial[1])
        assert threaded[2] == serial[2]
        assert threaded[2][0].termination is None

    def test_rows_below_threshold_leave_helper_idle(self, monkeypatch):
        # a march opened for two members keeps its helper when one leaves
        grid = Grid(extent=(1.0, 1.0), cells=(182, 182))
        threads = _record_threads(monkeypatch, "_chemo_divergence")
        u, v = _bump(grid, 8.0, width=0.1)[None], grid.sample(lambda x, y: x)[None]
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        umax = np.maximum.reduce(u, grid.field_axes).tolist()
        with stepper._march(2, grid, StepperConfig(), None, "upwind") as plan:
            assert plan.helper is not None and not stepper._threaded(1, grid)
            plan.members([p])
            stepper._advance(plan, u, v, [0.0], [math.inf], umax)
        assert threads == {threading.current_thread().name}

    def test_calling_slab_error_propagates_after_joining_helper(self, monkeypatch):
        grid = _threaded_grid()
        monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
        kernel, caller = stepper._chemo_divergence, threading.get_ident()
        raised, helper_done = threading.Event(), []

        def calling_slab_fails(out, u, v, transport):
            if threading.get_ident() == caller:
                raised.set()
                raise RuntimeError("calling slab failed")
            # the helper's slab finishes only after the calling slab has raised
            assert raised.wait(timeout=60)
            time.sleep(0.05)
            result = kernel(out, u, v, transport)
            helper_done.append(threading.current_thread().name)
            return result

        monkeypatch.setattr(stepper, "_chemo_divergence", calling_slab_fails)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u, v = _bump(grid, 8.0, width=0.1)[None], grid.full(1.0)[None]
        with pytest.raises(RuntimeError, match="calling slab failed"):
            _advance(u, v, [0.0], [p], grid, StepperConfig())
        assert len(helper_done) == 1 and helper_done[0].startswith("kschemo-step")
        assert _helper_threads() == []


class TestStep:
    def test_equilibrium_fixed_point(self, grid1d, one_step):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, ustar = equilibrium_state(p, grid1d)
        cfg = StepperConfig()
        new_state, outcome = one_step(state, p, grid1d, cfg)
        assert outcome.termination is None and outcome.retries == 0
        assert np.max(np.abs(new_state.u - ustar)) <= 1e-10 * ustar
        assert np.max(np.abs(new_state.v - ustar)) <= 1e-10 * ustar

    def test_pure_decay_amplification_factor(self, grid1d, one_step):
        # chi = a = b = 0: an eigenmode contracts by 1/(1 + dt*|lambda|)
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        dt = 1e-3
        cfg = StepperConfig(dt_max=dt)
        mode = grid1d.sample(lambda x: np.cos(np.pi * x))
        state = State(u=2.0 + mode, v=grid1d.full(2.0))
        lam = _neumann_eigenvalues(grid1d.cells[0], grid1d.h[0])[1]
        new_state, outcome = one_step(state, p, grid1d, cfg)
        assert outcome.dt == dt
        expected = 2.0 + mode / (1.0 - dt * lam)
        np.testing.assert_allclose(new_state.u, expected, atol=1e-12)

    def test_mass_identity_single_step(self, grid1d, one_step):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = 1.0 + np.exp(-((x - 0.5) ** 2) / 0.01)
        state = State(u=u0, v=0.5 * u0)
        cfg = StepperConfig()
        mass_before = integrate(state.u, grid1d)
        _, outcome = one_step(state, p, grid1d, cfg)
        delta = outcome.mass_new - mass_before
        tol = stepper._LINEAR_TOL
        assert abs(delta - outcome.dt * outcome.source_integral) <= 10 * tol * mass_before

    def test_blowup_threshold_semantics(self, grid1d, one_step):
        # equilibrium level 2 with threshold 1: flagged on the first step
        p = ModelParams(chi=1.0, a=4.0, b=1.0, alpha=2.0, beta=2.0)
        state, ustar = equilibrium_state(p, grid1d)
        assert ustar == pytest.approx(2.0)
        cfg = StepperConfig(blowup_linf_threshold=1.0)
        _, outcome = one_step(state, p, grid1d, cfg)
        assert outcome.termination is Termination.BLOWUP_DETECTED

    def test_oversized_dt_triggers_retry_not_negatives(self, grid1d, one_step):
        p = ModelParams(chi=8.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2))
        u0 *= 4.0 / integrate(u0, grid1d)
        v0 = grid1d.sample(lambda x: 1.0 + np.cos(np.pi * x))
        state = State(u=u0, v=v0)
        cfg = StepperConfig()
        safe_dt = proposed_dt(u0, v0, grid1d, p, cfg, 0.0)
        new_state, outcome = one_step(state, p, grid1d, cfg, dt=200.0 * safe_dt)
        assert outcome.termination is None and outcome.retries > 0
        assert outcome.retries >= 1
        assert new_state.u.min() >= -_POSITIVITY_TOL
        assert new_state.v.min() >= -_POSITIVITY_TOL
        assert outcome.min_u == new_state.u.min()
        assert outcome.min_v == new_state.v.min()

    def test_nonfinite_v_rejected_without_taxis(self, grid1d, grid2d):
        # with chi = 0 no operator reads v before the v-solve
        p = ModelParams(chi=0.0, a=1.0, b=1.0, alpha=1.0, beta=1.0)
        for grid in (grid1d, grid2d):
            v = grid.full(1.0)
            v.flat[3] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                run(State(u=grid.full(1.0), v=v), p, grid, StepperConfig(), 1.0, Recorder())

    def test_dt_collapse_reports_blowup(self, grid1d, one_step):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        cfg = StepperConfig(dt_min=1e-6, dt_max=1e-2)
        # force endless violation by injecting an absurd dt with no room to halve
        _, outcome = one_step(state, p, grid1d, cfg, _NegativeForcing(), dt=2e-6)
        assert outcome.termination is Termination.BLOWUP_DETECTED
        assert outcome.retries == 2
        assert outcome.cause == "dt collapsed below dt_min during retries"

    def test_retry_cap_reports_blowup(self, grid1d, one_step):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        cfg = StepperConfig()
        # 20 halvings of 1e-3 stay above dt_min; the cap ends the retries first
        _, outcome = one_step(state, p, grid1d, cfg, _NegativeForcing(), dt=1e-3)
        assert outcome.termination is Termination.BLOWUP_DETECTED
        assert outcome.retries == 21
        assert outcome.cause == "retry cap of 20 reached"


    def test_nonfinite_solve_retries_instead_of_raising(self, one_step):
        # u^alpha overflows, so every solve is non-finite: the audit halves
        # dt until it collapses, and the step reports that as its outcome
        grid = Grid((1.0,), (64,))
        state = State(u=grid.full(1e200), v=grid.full(1.0))
        p = ModelParams(chi=0, a=1, b=1, alpha=2, beta=1)
        _, outcome = one_step(state, p, grid, StepperConfig())
        assert outcome.termination is Termination.BLOWUP_DETECTED
        assert outcome.cause == "dt collapsed below dt_min during retries"
        # the proposal sits at dt_min; from a larger dt the cap ends it first
        _, outcome = one_step(state, p, grid, StepperConfig(), dt=1e-3)
        assert outcome.cause == "retry cap of 20 reached"
        assert outcome.retries == 21


def _two_solve_reference(u, v, ts, params, grid, cfg, dts, forcing=None, scheme="upwind"):
    """A tau=1 step under the face ``scheme`` as two _helmholtz_checked
    calls, u rows then v rows."""
    alphas = operators._exponents([p.alpha for p in params])
    betas = operators._exponents([p.beta for p in params])
    a, b = [p.a for p in params], [p.b for p in params]
    source, _ = operators._nonlocal_source(u, grid, a, b, alphas, betas)
    explicit = source
    chis = [p.chi for p in params]
    if any(chi != 0.0 for chi in chis):
        transport = operators._transport(grid, scheme, chis)
        operators._chemo_divergence(explicit, u, v, transport)
    dt = operators._column(dts, grid.dim)
    rhs_v = v + dt * u
    if forcing is not None:
        explicit = explicit + forcing.u(ts, grid)
        rhs_v = v + dt * (u + forcing.v(ts, grid))
    w_u, rel_u = _checked(u + dt * explicit, grid, dt)
    w_v, rel_v = _checked(rhs_v / (1.0 + dt), grid, dt / (1.0 + dt))
    return w_u, w_v, rel_u, rel_v


class _LateNegativeForcing:
    """Drags u negative at dt = 1e-2 for members at t >= 1 only (test helper)."""

    def u(self, ts, grid):
        return np.stack([grid.full(-150.0 if t >= 1.0 else 0.0) for t in ts])

    def v(self, ts, grid):
        return np.zeros((len(ts), *grid.shape))


class TestStackedSolve:
    """tau=1 solves the u and v rows of every member in one call."""

    POINTS = [
        ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0),
        ModelParams(chi=0.0, a=1.0, b=1.0, alpha=1.0, beta=1.0),
        ModelParams(chi=2.0, a=2.0, b=0.5, alpha=2.0, beta=2.0),
    ]

    def batch(self, grid, count):
        u = np.stack([_bump(grid, 2.0 + i, width=0.1) for i in range(count)])
        v = np.stack([grid.sample(lambda *xs: 1.0 + 0.5 * np.cos(np.pi * xs[0]))] * count)
        return u, v, self.POINTS[:count]

    def test_matches_two_separate_solves(self, grid1d, grid2d, monkeypatch):
        cfg = StepperConfig()
        caps = [1e-3, 4e-4, 2.5e-4]
        threads = _record_threads(monkeypatch)
        large = _threaded_grid()
        for grid in (grid1d, grid2d, large):
            cases = [
                (*self.batch(grid, count), [0.0] * count, dt_cap, None)
                for count, dt_cap in ((1, None), (3, None), (3, caps))
            ]
            # the manufactured case's forcing is exact for its own params,
            # so its members start on the exact fields at their own times
            mms_params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=1.5, beta=2.0)
            mms = build_mms_case(mms_params, grid)
            for count in (1, 3):
                ts = [0.01 * i for i in range(count)]
                u = np.stack([mms.u_exact(t, grid) for t in ts])
                v = np.stack([mms.v_exact(t, grid) for t in ts])
                cases.append((u, v, [mms_params] * count, ts, caps[:count], mms.forcing))
            for u, v, params, ts, dt_cap, forcing in cases:
                threads.clear()
                u_new, v_new, outcomes = _advance(u, v, ts, params, grid, cfg, forcing, dt_cap)
                # above _THREAD_CELLS the u half is solved on the helper thread
                assert len(threads) == (2 if grid is large else 1)
                assert all(o.termination is None and o.retries == 0 for o in outcomes)
                dts = [o.dt for o in outcomes]
                assert len(set(dts)) == len(dts)
                w_u, w_v, rel_u, rel_v = _two_solve_reference(
                    u, v, ts, params, grid, cfg, dts, forcing
                )
                np.testing.assert_array_equal(u_new, w_u)
                np.testing.assert_array_equal(v_new, w_v)
                assert [o.residual_u for o in outcomes] == rel_u
                assert [o.residual_v for o in outcomes] == rel_v
                if grid is large:
                    with monkeypatch.context() as patch:
                        patch.setattr(stepper, "_THREAD_CELLS", math.inf)
                        serial_u, serial_v, serial = _advance(
                            u, v, ts, params, grid, cfg, forcing, dt_cap
                        )
                    np.testing.assert_array_equal(u_new, serial_u)
                    np.testing.assert_array_equal(v_new, serial_v)
                    assert outcomes == serial

    def test_perturbed_v_row_fails_only_its_member(self, grid1d, grid2d, monkeypatch):
        cfg = StepperConfig()
        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma, held):
            # rows are the three u rows, then the three v rows: member 1's v is row 4
            w = exact_core(rhs, grid, sigma, held)
            w[4].flat[5] += 1e-6 * np.linalg.norm(w[4])
            return w

        for grid in (grid1d, grid2d):
            u, v, params = self.batch(grid, 3)
            clean_u, clean_v, clean = _advance(u, v, [0.0] * 3, params, grid, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(stepper, "_helmholtz_core", perturbed_core)
                u_new, v_new, outcomes = _advance(u, v, [0.0] * 3, params, grid, cfg)
            assert outcomes[1].termination is Termination.SOLVER_FAILURE
            assert outcomes[1].residual_v > stepper._LINEAR_TOL
            assert outcomes[1].residual_u == clean[1].residual_u
            for i in (0, 2):
                assert outcomes[i].termination is None and outcomes[i].retries == 0
                assert outcomes[i] == clean[i]
                np.testing.assert_array_equal(u_new[i], clean_u[i])
                np.testing.assert_array_equal(v_new[i], clean_v[i])

    def test_retry_keeps_the_other_members_bits(self, grid1d, grid2d, monkeypatch):
        # a retry solves the whole batch again: the members it does not
        # retry come back as in a batch with no retry, and the retried one
        # as in its solo run, unsplit and split
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        cfg = StepperConfig(dt_max=1e-2)
        forcing = _LateNegativeForcing()
        threads = _record_threads(monkeypatch)
        large = _threaded_grid()
        for grid in (grid1d, grid2d, large):
            u0 = grid.sample(lambda *xs: 1.0 + 0.1 * np.cos(np.pi * xs[0]))
            u, v = np.stack([u0] * 3), np.stack([grid.zeros()] * 3)
            threads.clear()
            # only member 1 sits at t >= 1, where the forcing drives u + dt*E_u
            # below zero at dt = 1e-2 but not at 5e-3
            u_new, v_new, outcomes = _advance(u, v, [0.0, 1.0, 0.0], [p] * 3, grid, cfg, forcing)
            assert len(threads) == (2 if grid is large else 1)
            assert [o.termination for o in outcomes] == [None] * 3
            assert [o.retries for o in outcomes] == [0, 1, 0]
            assert [o.dt for o in outcomes] == [1e-2, 5e-3, 1e-2]
            clean_u, clean_v, clean = _advance(u, v, [0.0] * 3, [p] * 3, grid, cfg, forcing)
            assert [o.retries for o in clean] == [0] * 3
            for i in (0, 2):
                assert outcomes[i] == clean[i]
                assert u_new[i].tobytes() == clean_u[i].tobytes()
                assert v_new[i].tobytes() == clean_v[i].tobytes()
            solo_u, solo_v, solo = _advance(u[1:2], v[1:2], [1.0], [p], grid, cfg, forcing)
            assert solo == outcomes[1:2]
            assert u_new[1].tobytes() == solo_u[0].tobytes()
            assert v_new[1].tobytes() == solo_v[0].tobytes()


class _NegativeForcing:
    """Forcing that drags u negative for every dt in [1e-9, 1e-2], so 20
    halvings from 1e-3 or 1e-2 all fail, and keeps |u| under the default
    sup norm threshold (test helper)."""

    def u(self, ts, grid):
        return np.full((len(ts), *grid.shape), -5e9)

    def v(self, ts, grid):
        return np.zeros((len(ts), *grid.shape))


class TestRun:
    def test_equilibrium_flat_series(self, grid1d):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, ustar = equilibrium_state(p, grid1d)
        cfg = StepperConfig(dt_max=1e-3)
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=0.02)
        result = run(state, p, grid1d, cfg, 0.2, rec)
        assert result.termination is Termination.REACHED_T_END
        for col in result.series.columns:
            if col in ("t", "dt", "retries"):
                continue
            values = result.series.column(col)
            assert np.max(np.abs(values - values[0])) <= 1e-9 * max(1.0, abs(values[0]))

    def test_final_state_recorded_and_times_increase(self, grid1d):
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid1d)
        cfg = StepperConfig(dt_max=1e-3)
        rec = Recorder(k_list=(2.0,), sample_interval=0.05)
        result = run(state, p, grid1d, cfg, 0.1, rec)
        ts = result.series.t
        assert np.all(np.diff(ts) > 0)
        assert ts[-1] == pytest.approx(0.1, abs=1e-9)
        assert result.state.t == pytest.approx(0.1, abs=1e-12)

    def test_blowup_terminates_run(self, grid1d):
        p = ModelParams(chi=1.0, a=4.0, b=1.0, alpha=2.0, beta=2.0)
        state, _ = equilibrium_state(p, grid1d)
        cfg = StepperConfig(blowup_linf_threshold=1.0)
        result = run(state, p, grid1d, cfg, 1.0, Recorder(k_list=(2.0,), sample_interval=0.1))
        assert result.termination is Termination.BLOWUP_DETECTED
        assert result.cause == "sup norm 2.000e+00 above threshold"
        assert result.state.t == 0.0  # rejected at step 0

    def test_dt_collapse_cause(self, grid1d):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        cfg = StepperConfig(dt_min=1e-6, dt_max=1e-5)
        rec = Recorder(k_list=(2.0,), sample_interval=0.1)
        result = run(state, p, grid1d, cfg, 1.0, rec, forcing=_NegativeForcing())
        assert result.termination is Termination.BLOWUP_DETECTED
        assert result.cause == "dt collapsed below dt_min during retries"

    def test_retry_cap_cause(self, grid1d):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        rec = Recorder(k_list=(2.0,), sample_interval=0.1)
        # from dt_max = 1e-2, 20 halvings stay above dt_min
        result = run(state, p, grid1d, StepperConfig(), 1.0, rec, forcing=_NegativeForcing())
        assert result.termination is Termination.BLOWUP_DETECTED
        assert result.cause == "retry cap of 20 reached"

    def test_solver_failure_cause(self, grid1d, monkeypatch):
        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma, held):
            w = exact_core(rhs, grid, sigma, held)
            w.flat[5] += 1e-6 * np.linalg.norm(w)
            return w

        monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid1d)
        rec = Recorder(k_list=(2.0,), sample_interval=0.1)
        result = run(state, p, grid1d, StepperConfig(), 1.0, rec)
        assert result.termination is Termination.SOLVER_FAILURE
        assert result.cause.startswith("helmholtz backward error")
        assert result.cause.endswith("exceeds tolerance 1.000e-10")

    def test_reached_t_end_cause(self, grid1d):
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid1d)
        rec = Recorder(k_list=(2.0,), sample_interval=0.05)
        result = run(state, p, grid1d, StepperConfig(dt_max=1e-2), 0.05, rec)
        assert result.termination is Termination.REACHED_T_END
        assert result.cause == "t_end reached"

    def test_determinism_bitwise(self, grid1d):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2))
        u0 *= 2.0 / integrate(u0, grid1d)
        cfg = StepperConfig()
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=0.01)
        r1 = run(State(u=u0.copy(), v=grid1d.zeros()), p, grid1d, cfg, 0.3, rec)
        r2 = run(State(u=u0.copy(), v=grid1d.zeros()), p, grid1d, cfg, 0.3, rec)
        assert r1.series.rows == r2.series.rows

    def test_mass_conserved_without_reaction(self, grid1d):
        p = ModelParams(chi=2.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        x = grid1d.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.1**2))
        u0 *= 1.0 / integrate(u0, grid1d)
        cfg = StepperConfig(dt_max=1e-4)
        rec = Recorder(k_list=(2.0,), sample_interval=0.02)
        result = run(State(u=u0, v=grid1d.zeros()), p, grid1d, cfg, 0.2, rec)
        mass = result.series.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]

    def test_threaded_halves_match_serial_run(self, monkeypatch):
        grid = _threaded_grid()
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        initial = State(u=_bump(grid, 8.0, width=0.1), v=grid.zeros())
        cfg = StepperConfig(dt_max=5e-4)
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=1e-3)
        threads = _record_threads(monkeypatch)
        transport = _record_threads(monkeypatch, "_chemo_divergence")
        threaded = run(initial, p, grid, cfg, 2e-3, rec)
        assert len(threads) == 2
        assert len(transport) == 2
        monkeypatch.setattr(stepper, "_THREAD_CELLS", math.inf)
        serial = run(initial, p, grid, cfg, 2e-3, rec)
        assert threaded.diagnostics.steps > 1
        assert threaded.series.rows == serial.series.rows
        assert threaded.diagnostics == serial.diagnostics
        np.testing.assert_array_equal(threaded.state.u, serial.state.u)
        np.testing.assert_array_equal(threaded.state.v, serial.state.v)

    def test_1d_run_starts_no_thread(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(256,))
        threads = _record_threads(monkeypatch)
        before = threading.active_count()
        p = ModelParams(chi=10.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        initial = State(u=_bump(grid, 8.0), v=grid.zeros())
        result = run(initial, p, grid, StepperConfig(), 0.05, Recorder(k_list=(2.0,)))
        assert result.termination is Termination.REACHED_T_END
        assert threads == {threading.current_thread().name}
        assert _helper_threads() == []
        assert threading.active_count() <= before

    def test_threaded_step_leaves_no_helper_alive(self, monkeypatch):
        grid = _threaded_grid()
        threads = _record_threads(monkeypatch)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u, v = _bump(grid, 8.0, width=0.1)[None], grid.zeros()[None]
        for _ in range(2):
            _, _, (outcome,) = _advance(u, v, [0.0], [p], grid, StepperConfig())
            assert outcome.termination is None and outcome.retries == 0
            assert len(threads) == 2
            assert _helper_threads() == []

    def test_threaded_run_starts_one_helper(self, monkeypatch):
        grid = _threaded_grid()
        threads = _record_threads(monkeypatch)
        built = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(threading.current_thread().name)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stepper, "ThreadPoolExecutor", CountingExecutor)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        initial = State(u=_bump(grid, 8.0, width=0.1), v=grid.zeros())
        rec = Recorder(k_list=(2.0,), sample_interval=1e-3)
        result = run(initial, p, grid, StepperConfig(dt_max=5e-4), 2e-3, rec)
        assert result.termination is Termination.REACHED_T_END
        assert result.diagnostics.steps >= 3
        assert len(threads) == 2
        assert len(built) == 1
        assert _helper_threads() == []

    def test_helper_overflow_warns_nothing(self, monkeypatch, one_step):
        grid = _threaded_grid()
        transport = _record_threads(monkeypatch, "_chemo_divergence")
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u = _bump(grid, 8.0, width=0.1)
        # u * grad v overflows in the first rows, which the helper's slab holds
        u[: grid.cells[0] // 4] = 1e307
        v = grid.sample(lambda x, y: 1e3 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, outcome = one_step(State(u=u, v=v), p, grid, StepperConfig())
        assert outcome.termination is Termination.BLOWUP_DETECTED
        assert len(transport) == 2
        assert _helper_threads() == []

    def test_v_half_error_propagates_after_joining_helper(self, monkeypatch):
        grid = _threaded_grid()
        monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
        checked, caller = stepper._helmholtz_checked, threading.get_ident()
        v_started, u_done = threading.Event(), []

        def v_half_fails(rhs, grid, sigma, held):
            if threading.get_ident() == caller:
                v_started.set()
                raise RuntimeError("v half failed")
            # the u half finishes only after the v half has raised
            assert v_started.wait(timeout=60)
            time.sleep(0.05)
            result = checked(rhs, grid, sigma, held)
            u_done.append(threading.current_thread().name)
            return result

        monkeypatch.setattr(stepper, "_helmholtz_checked", v_half_fails)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u, v = _bump(grid, 8.0, width=0.1)[None], grid.full(1.0)[None]
        with pytest.raises(RuntimeError, match="v half failed"):
            _advance(u, v, [0.0], [p], grid, StepperConfig())
        assert len(u_done) == 1 and u_done[0].startswith("kschemo-step")
        assert _helper_threads() == []


def _bump(grid, mass, width=0.05):
    u0 = grid.sample(lambda *xs: np.exp(-sum((x - 0.5) ** 2 for x in xs) / (2 * width**2)))
    return u0 * (mass / integrate(u0, grid))


class TestRunBatch:
    REC = Recorder(k_list=(2.0, 4.0), sample_interval=0.01)

    def members(self, grid):
        points = [
            ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0),
            ModelParams(chi=0.0, a=1.0, b=1.0, alpha=1.0, beta=1.0),
            ModelParams(chi=2.0, a=2.0, b=0.5, alpha=2.0, beta=2.0),
            ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.5, beta=4.0),
        ]
        initials = [State(u=_bump(grid, 2.0 + i), v=grid.zeros()) for i in range(len(points))]
        return initials, points

    def test_members_match_single_runs_bitwise(self, grid1d, grid2d):
        cfg = StepperConfig()
        for grid in (grid1d, grid2d):
            initials, points = self.members(grid)
            batched = run_batch(initials, points, grid, cfg, 0.05, self.REC)
            for initial, p, got in zip(initials, points, batched):
                alone = run(initial, p, grid, cfg, 0.05, self.REC)
                assert got.series.rows == alone.series.rows
                assert got.diagnostics == alone.diagnostics
                assert got.termination is alone.termination
                assert got.cause == alone.cause
                np.testing.assert_array_equal(got.state.u, alone.state.u)
                np.testing.assert_array_equal(got.state.v, alone.state.v)

    def test_blowup_members_freeze_and_others_go_on(self, grid1d):
        cfg = StepperConfig(blowup_linf_threshold=1.5)
        rec = Recorder(k_list=(2.0,), sample_interval=0.01)
        bounded = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=1.0)
        u_bounded = grid1d.sample(lambda x: 1.0 + 0.3 * np.cos(np.pi * x))
        initials = [
            State(u=u_bounded, v=grid1d.zeros()),
            # equilibrium at 2, above the threshold: rejected on its first step
            State(u=grid1d.full(2.0), v=grid1d.full(2.0)),
            # u^alpha overflows: every solve is non-finite until dt collapses
            State(u=grid1d.full(1e100), v=grid1d.full(1.0)),
        ]
        points = [
            bounded,
            ModelParams(chi=1.0, a=4.0, b=1.0, alpha=2.0, beta=2.0),
            ModelParams(chi=0.0, a=1.0, b=1.0, alpha=4.0, beta=1.0),
        ]
        results = run_batch(initials, points, grid1d, cfg, 0.1, rec)
        assert [r.termination for r in results] == [
            Termination.REACHED_T_END,
            Termination.BLOWUP_DETECTED,
            Termination.BLOWUP_DETECTED,
        ]
        assert results[1].cause == "sup norm 2.000e+00 above threshold"
        assert results[2].cause == "dt collapsed below dt_min during retries"
        for frozen, initial in zip(results[1:], initials[1:]):
            assert frozen.state.t == 0.0
            assert len(frozen.series) == 1
            np.testing.assert_array_equal(frozen.state.u, initial.u)
        alone = run(initials[0], bounded, grid1d, cfg, 0.1, rec)
        assert results[0].series.rows == alone.series.rows
        assert results[0].diagnostics == alone.diagnostics

    def test_single_member_fields_are_views(self, grid1d):
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid1d)
        assert np.shares_memory(stepper._stack([state.u]), state.u)

    def test_rejects_count_mismatch(self, grid1d):
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid1d)
        with pytest.raises(ValueError):
            run_batch([state], [p, p], grid1d, StepperConfig(), 0.1, self.REC)

    # a NaN t_end ended the march at its first sample as "t_end reached", and
    # an infinite one never ended it: the alarm turns a hang into a failure,
    # and the long interval keeps such a march from filling memory with rows
    @pytest.mark.parametrize("t_end, interval", [(math.nan, 0.1), (math.inf, 1e6)])
    def test_rejects_a_non_finite_t_end(self, t_end, interval):
        grid = Grid(extent=(1.0,), cells=(8,))
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid)
        rec = Recorder(k_list=(2.0,), sample_interval=interval)

        def hung(signum, frame):
            raise AssertionError("the march did not return")

        rule = "t_end finite > 0.0 + 1e-12*max(1, |t_end|) required"
        message = f"^{re.escape(rule)}, got {t_end}$"
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(FieldError, match=message):
                run_batch([state], [p], grid, StepperConfig(), t_end, rec)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    # a t_end within 1e-12*max(1, |t_end|) of the initial time ended the
    # march at that time as "t_end reached", with no step; one twice as far
    # takes its one step
    @pytest.mark.parametrize(
        "t0, t_end", [(0.0, 1e-13), (0.0, 1e-12), (5.0, 5.0 + 4e-12), (-0.5, -0.5 + 1e-12)]
    )
    def test_rejects_a_horizon_within_the_end_tolerance(self, t0, t_end):
        grid = Grid(extent=(1.0,), cells=(8,))
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state = dataclasses.replace(equilibrium_state(p, grid)[0], t=t0)
        rule = f"t_end finite > {t0!r} + 1e-12*max(1, |t_end|) required"
        with pytest.raises(FieldError, match=f"^{re.escape(rule)}, got {t_end!r}$") as info:
            run_batch([state], [p], grid, StepperConfig(), t_end, self.REC)
        assert info.value.field == "t_end"
        t_end = t0 + 2e-12 * max(1.0, abs(t_end))
        (result,) = run_batch([state], [p], grid, StepperConfig(), t_end, self.REC)
        assert result.termination is Termination.REACHED_T_END
        assert result.diagnostics.steps == 1 and result.state.t == t_end

    def test_memory_rule_counts_every_cell(self, monkeypatch):
        # no grid is allocated: the rule reads the cell counts alone
        huge = Grid(extent=(1.0,), cells=(10**15,))
        if stepper._physical_memory() < math.inf:
            with pytest.raises(FieldError, match=r"^cells\[0\] with 1000000000000000 cells"):
                stepper.require_memory(huge)
        monkeypatch.setattr(stepper, "_physical_memory", lambda: 32 * stepper._PEAK_BYTES_PER_CELL)
        stepper.require_memory(Grid(extent=(1.0,), cells=(32,)))
        stepper.require_memory(Grid(extent=(1.0, 1.0), cells=(4, 8)))
        for cells, axis in (((33,), 0), ((4, 9), 1), ((9, 4), 0)):
            grid = Grid(extent=(1.0,) * len(cells), cells=cells)
            with pytest.raises(FieldError) as info:
                stepper.require_memory(grid)
            assert (info.value.field, info.value.axis) == ("cells", axis)
            assert str(info.value).endswith(f"required, got {max(cells)}")

    @pytest.mark.parametrize("march", ["run", "run_batch"])
    def test_rejects_an_unknown_face_scheme(self, march):
        grid = Grid(extent=(1.0,), cells=(8,))
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, _ = equilibrium_state(p, grid)
        args = ([state], [p]) if march == "run_batch" else (state, p)
        with pytest.raises(FieldError, match=r"^face_scheme in \('upwind', 'central'\)") as info:
            getattr(stepper, march)(*args, grid, StepperConfig(), 0.1, self.REC,
                                    face_scheme="upstream")
        assert info.value.field == "face_scheme"


# a = b = 1 on a unit domain: the equilibrium is u = v = 1
_REPLAY_PARAMS = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)


def _moving(grid):
    """A bump of mass 2 that relaxes to u = v = 1 and freezes bit for bit near t = 36."""
    return State(u=_bump(grid, 2.0), v=grid.zeros()), _REPLAY_PARAMS


def _equilibrium(grid):
    """u = v = 1, which moves by an ulp on its first step and is frozen after it."""
    return equilibrium_state(_REPLAY_PARAMS, grid)[0], _REPLAY_PARAMS


def _fixed_point_state(one_step, grid, cfg, chi=1.0):
    """The equilibrium after its first step, at t = 0: a fixed point of the step map."""
    p = dataclasses.replace(_REPLAY_PARAMS, chi=chi)
    moved, _ = one_step(equilibrium_state(p, grid)[0], p, grid, cfg)
    return State(u=moved.u, v=moved.v), p


def _one_row_step(dt, retries=0):
    """A _Step whose one row was accepted at ``dt`` with new mass 1 and max u 1."""
    return stepper._Step([dt], [retries], {}, [0.0, 0.0], [1.0], [0.0], [0.0], [1.0], [0.0])


def _fixed(step, cap, mass, top, u, v, u_new, v_new):
    """_fixed_point of row 0 of ``step``, from fields (u, v) to (u_new, v_new)."""
    return stepper._fixed_point(step, 0, cap, mass, top, u, v, u_new, v_new)


def _solving_every_step(monkeypatch):
    monkeypatch.setattr(stepper, "_fixed_point", lambda *args: False)


def _assert_same_run(replayed, solved):
    """Series rows, final fields and diagnostics bitwise equal, replay count aside."""
    assert replayed.series.rows == solved.series.rows
    assert replayed.termination is solved.termination
    assert replayed.cause == solved.cause
    assert replayed.state.t == solved.state.t
    assert replayed.state.dt_last == solved.state.dt_last
    for got, want in ((replayed.state.u, solved.state.u), (replayed.state.v, solved.state.v)):
        assert got.tobytes() == want.tobytes()
    assert dataclasses.replace(replayed.diagnostics, replayed_steps=0) == solved.diagnostics


class TestFixedPointReplay:
    CFG = StepperConfig(dt_max=0.1)
    REC = Recorder(k_list=(2.0, 4.0), sample_interval=0.5)

    def test_one_run_matches_solving_every_step(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _moving(grid)
        replayed = run(state, p, grid, self.CFG, 60.0, self.REC)
        assert 0 < replayed.diagnostics.replayed_steps < replayed.diagnostics.steps
        _solving_every_step(monkeypatch)
        solved = run(state, p, grid, self.CFG, 60.0, self.REC)
        assert solved.diagnostics.replayed_steps == 0
        _assert_same_run(replayed, solved)

    @pytest.mark.parametrize("cells", [(32,), (32, 32)], ids=["1d", "2d"])
    def test_batch_with_a_frozen_and_a_moving_member(self, cells, monkeypatch):
        grid = Grid(extent=(1.0,) * len(cells), cells=cells)
        frozen, moving = _equilibrium(grid), _moving(grid)
        initials, points = [frozen[0], moving[0]], [frozen[1], moving[1]]
        t_end = 1.05
        replayed = run_batch(initials, points, grid, self.CFG, t_end, self.REC)
        # the equilibrium replays from its second step on while the bump still moves
        assert replayed[0].diagnostics.replayed_steps > 0
        assert replayed[1].diagnostics.replayed_steps == 0
        _solving_every_step(monkeypatch)
        solved = run_batch(initials, points, grid, self.CFG, t_end, self.REC)
        for got, want in zip(replayed, solved):
            _assert_same_run(got, want)

    def test_serial_2d_run_matches_solving_every_step(self, monkeypatch):
        grid = Grid(extent=(1.0, 1.0), cells=(16, 16))
        assert not stepper._threaded(1, grid)
        state, p = _moving(grid)
        replayed = run(state, p, grid, self.CFG, 60.0, self.REC)
        assert 0 < replayed.diagnostics.replayed_steps < replayed.diagnostics.steps
        _solving_every_step(monkeypatch)
        _assert_same_run(replayed, run(state, p, grid, self.CFG, 60.0, self.REC))

    def test_replayed_tail_records_once(self, monkeypatch):
        # the equilibrium is frozen from t = 0.2, between the samples at 0
        # and 0.5; its replayed tail crosses the samples near 0.5, 1, 1.5
        # and 2, and the solved last step lands on t_end, off the samples
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _equilibrium(grid)
        record, times = stepper.record, []

        def spy(state, *args):
            times.append(state.t)
            return record(state, *args)

        monkeypatch.setattr(stepper, "record", spy)
        t_end = 2.05
        replayed = run(state, p, grid, self.CFG, t_end, self.REC)
        diag = replayed.diagnostics
        assert (diag.steps, diag.replayed_steps) == (21, 18)
        # the tail runs from the second step's time to the last solve's start
        tail = [row[0] for row in replayed.series.rows if 0.2 < row[0] < t_end]
        assert len(tail) == 4
        assert [t for t in times if 0.2 < t < t_end] == tail[:1]
        _solving_every_step(monkeypatch)
        _assert_same_run(replayed, run(state, p, grid, self.CFG, t_end, self.REC))

    def test_failed_sample_in_the_tail_ends_the_run_at_its_step(self, monkeypatch):
        # the record check refuses every row after the fixed point, which
        # arrives at t = 0.2: the replayed tail ends at the step of its first
        # due sample, as a run solving every step does
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _equilibrium(grid)
        record = stepper.record

        def refusing(state, *args):
            if state.t > 0.25:
                raise ObservableError(f"refused at t = {state.t}")
            return record(state, *args)

        monkeypatch.setattr(stepper, "record", refusing)
        replayed = run(state, p, grid, self.CFG, 2.05, self.REC)
        assert replayed.termination is Termination.SOLVER_FAILURE
        assert replayed.cause == f"refused at t = {replayed.state.t}"
        assert replayed.state.t == pytest.approx(0.5)
        assert (replayed.diagnostics.steps, replayed.diagnostics.replayed_steps) == (5, 3)
        _solving_every_step(monkeypatch)
        _assert_same_run(replayed, run(state, p, grid, self.CFG, 2.05, self.REC))

    def test_one_ulp_in_v_is_not_a_fixed_point(self):
        grid = Grid(extent=(1.0,), cells=(32,))
        u, v = grid.full(1.0), grid.full(1.0)
        step = _one_row_step(dt=0.1)
        assert _fixed(step, 1.0, 1.0, 1.0, u, v, u.copy(), v.copy())
        # a max u that moved rules the step out before any array pass
        assert not _fixed(step, 1.0, 1.0, 2.0, u, v, u.copy(), v.copy())
        nudged = v.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        assert not _fixed(step, 1.0, 1.0, 1.0, u, v, u.copy(), nudged)
        # 0.0 and -0.0 compare equal but are not the same bits
        zero = grid.zeros()
        assert not _fixed(step, 1.0, 1.0, 1.0, u, zero, u.copy(), -zero)

    def test_run_whose_v_moves_by_one_ulp_replays_nothing(self, monkeypatch, one_step):
        # without chemotaxis u stays at its equilibrium whatever v does; each
        # step hands back its input v one ulp higher in one cell
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _fixed_point_state(one_step, grid, self.CFG, chi=0.0)
        original = stepper._advance

        def nudged(helper, u, v, *args, **kwargs):
            u_new, v_new, step = original(helper, u, v, *args, **kwargs)
            v_new[:] = v
            v_new[:, 7] = np.nextafter(v[:, 7], np.inf)
            return u_new, v_new, step

        monkeypatch.setattr(stepper, "_advance", nudged)
        result = run(state, p, grid, self.CFG, 2.05, self.REC)
        assert result.diagnostics.steps == 21
        assert result.diagnostics.replayed_steps == 0
        assert result.state.u.tobytes() == state.u.tobytes()
        assert result.state.v[7] > 1.0
        _solving_every_step(monkeypatch)
        _assert_same_run(result, run(state, p, grid, self.CFG, 2.05, self.REC))

    def test_forced_run_replays_nothing(self, one_step):
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _fixed_point_state(one_step, grid, self.CFG)
        case = equilibrium_case(p, grid)
        forced = run(state, p, grid, self.CFG, 2.05, self.REC, forcing=case.forcing)
        unforced = run(state, p, grid, self.CFG, 2.05, self.REC)
        # zero forcing leaves the fields frozen, yet a forced run solves every step
        assert forced.state.u.tobytes() == state.u.tobytes()
        assert forced.diagnostics.steps == unforced.diagnostics.steps == 21
        assert forced.diagnostics.replayed_steps == 0
        assert unforced.diagnostics.replayed_steps > 0

    def test_step_accepted_after_a_retry_is_not_replayed(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _equilibrium(grid)
        original = stepper._advance

        def retried(*args, **kwargs):
            u_new, v_new, step = original(*args, **kwargs)
            step.retries[:] = [1] * len(step.retries)
            return u_new, v_new, step

        monkeypatch.setattr(stepper, "_advance", retried)
        result = run(state, p, grid, self.CFG, 2.05, self.REC)
        assert result.diagnostics.replayed_steps == 0
        assert result.diagnostics.total_retries == result.diagnostics.steps == 21
        assert not _fixed(
            _one_row_step(dt=0.1, retries=1), 1.0, 1.0, 1.0, state.u, state.v, state.u, state.v
        )

    def test_capped_last_step_is_solved(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _equilibrium(grid)
        original, solved_dts = stepper._advance, []

        def spy(*args, **kwargs):
            u_new, v_new, step = original(*args, **kwargs)
            solved_dts.extend(step.dt)
            return u_new, v_new, step

        monkeypatch.setattr(stepper, "_advance", spy)
        replayed = run(state, p, grid, self.CFG, 2.05, self.REC)
        diag = replayed.diagnostics
        assert len(solved_dts) == diag.steps - diag.replayed_steps
        assert diag.replayed_steps > 0
        # the last solve is the step that lands on t_end, shorter than dt_max
        assert solved_dts[-1] == replayed.state.dt_last < self.CFG.dt_max
        assert not _fixed(
            _one_row_step(dt=0.05), 0.05, 1.0, 1.0, state.u, state.v, state.u, state.v
        )
        _solving_every_step(monkeypatch)
        solved = run(state, p, grid, self.CFG, 2.05, self.REC)
        assert replayed.state.t == solved.state.t
        _assert_same_run(replayed, solved)


def _rebuilding_every_step(monkeypatch):
    """Defeat the step plan: it sets its active set again before each step
    and forgets its dt column before each use, so every step rebuilds its
    constants and never reuses a dt column."""
    members, column, advance = stepper._Plan.members, stepper._Plan.column, stepper._advance
    active = {}

    def remembered(plan, params):
        active[plan] = params
        members(plan, params)

    def fresh_column(plan, dts):
        plan._dts = None
        column(plan, dts)

    def fresh_advance(plan, *args):
        members(plan, active[plan])
        return advance(plan, *args)

    monkeypatch.setattr(stepper._Plan, "members", remembered)
    monkeypatch.setattr(stepper._Plan, "column", fresh_column)
    monkeypatch.setattr(stepper, "_advance", fresh_advance)


def _count_reuses(monkeypatch):
    """Count the dt columns a plan reuses: one entry per built column that a
    later call finds under its key (a key hit), at its first hit, the rows
    of each checked solve's record it keeps."""
    column, reuses, reused = stepper._Plan.column, [], []

    def counted(plan, dts):
        before = plan.solves
        column(plan, dts)
        if before and plan.solves is before and not (reused and reused[-1] is before):
            reused.append(before)
            reuses.append(tuple(len(held.a_norm) for _, held in before))

    monkeypatch.setattr(stepper._Plan, "column", counted)
    return reuses


def _assert_same_result(got, want):
    """Series rows, termination, final fields and diagnostics bitwise equal."""
    assert got.series.rows == want.series.rows
    assert got.termination is want.termination
    assert got.cause == want.cause
    assert got.state.t == want.state.t
    assert got.state.dt_last == want.state.dt_last
    assert got.state.u.tobytes() == want.state.u.tobytes()
    assert got.state.v.tobytes() == want.state.v.tobytes()
    assert got.diagnostics == want.diagnostics


class TestStepPlan:
    """A march's plan keeps constants from step to step and changes no bit."""

    def test_run_with_retries_and_t_end_cap(self, grid1d, monkeypatch):
        # the sharp bump of test_oversized_dt_triggers_retry_not_negatives;
        # five proposals are 200x too large and halve back to a positive
        # step: a new column of the same length
        p = ModelParams(chi=8.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2))
        u0 *= 4.0 / integrate(u0, grid1d)
        initial = State(u=u0, v=grid1d.sample(lambda x: 1.0 + np.cos(np.pi * x)))
        cfg = StepperConfig(dt_max=1e-4)
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=1e-3)
        propose, calls = stepper.adapt_dt, []

        def oversized(*args):
            calls.append(None)
            dts = propose(*args)
            return [200.0 * d for d in dts] if len(calls) in (10, 20, 30, 40, 50) else dts

        monkeypatch.setattr(stepper, "adapt_dt", oversized)
        reuses = _count_reuses(monkeypatch)
        planned = run(initial, p, grid1d, cfg, 0.0205, rec)
        assert planned.termination is Termination.REACHED_T_END
        assert planned.diagnostics.total_retries >= 5
        # the last step lands on t_end, shorter than dt_max
        assert planned.state.dt_last < cfg.dt_max
        # each oversized step ends a run of repeated columns; the next is reused again
        assert len(reuses) >= 5
        calls.clear()
        reuses.clear()
        _rebuilding_every_step(monkeypatch)
        rebuilt = run(initial, p, grid1d, cfg, 0.0205, rec)
        assert reuses == []
        _assert_same_result(planned, rebuilt)

    def test_batch_member_leaves(self, grid1d, monkeypatch):
        # the flat 1.2 grows toward its equilibrium at 2 and crosses the
        # threshold after a few steps: the chi column and the dt column
        # shrink from three rows to two
        cfg = StepperConfig(blowup_linf_threshold=1.5)
        rec = Recorder(k_list=(2.0,), sample_interval=0.01)
        initials = [
            State(u=grid1d.sample(lambda x: 1.0 + 0.3 * np.cos(np.pi * x)), v=grid1d.zeros()),
            State(u=grid1d.full(1.2), v=grid1d.full(1.2)),
            State(u=grid1d.sample(lambda x: 1.0 + 0.2 * np.cos(2 * np.pi * x)), v=grid1d.zeros()),
        ]
        points = [
            ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=1.0),
            ModelParams(chi=3.0, a=4.0, b=1.0, alpha=2.0, beta=2.0),
            ModelParams(chi=2.0, a=1.0, b=1.0, alpha=2.0, beta=2.0),
        ]
        reuses = _count_reuses(monkeypatch)
        planned = run_batch(initials, points, grid1d, cfg, 0.2, rec)
        assert [r.termination for r in planned] == [
            Termination.REACHED_T_END, Termination.BLOWUP_DETECTED, Termination.REACHED_T_END,
        ]
        assert planned[1].diagnostics.steps >= 2
        # columns of three rows (u and v rows: 6) repeat before the member leaves, of two after
        assert {(6,), (4,)} <= set(reuses)
        _rebuilding_every_step(monkeypatch)
        rebuilt = run_batch(initials, points, grid1d, cfg, 0.2, rec)
        for got, want in zip(planned, rebuilt):
            _assert_same_result(got, want)

    def test_threaded_run(self, monkeypatch):
        grid = _threaded_grid()
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        initial = State(u=_bump(grid, 8.0, width=0.1), v=grid.zeros())
        cfg = StepperConfig(dt_max=5e-4)
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=1e-3)
        threads = _record_threads(monkeypatch)
        reuses = _count_reuses(monkeypatch)
        planned = run(initial, p, grid, cfg, 2e-3, rec)
        assert len(threads) == 2
        # split: the u row's solve and the v row's, reused at the one repeated column
        assert reuses == [(1, 1)]
        _rebuilding_every_step(monkeypatch)
        _assert_same_result(planned, run(initial, p, grid, cfg, 2e-3, rec))

    def test_split_batch_that_shrinks(self, monkeypatch):
        # four 128^2 members reach _THREAD_CELLS together; each leaves at
        # t_end after its own number of steps, and the three left fall below
        # it.  The split is decided once per active set, and no bit moves
        grid = Grid(extent=(1.0, 1.0), cells=(128, 128))
        threads = _record_threads(monkeypatch)
        assert stepper._threaded(4, grid) and not stepper._threaded(3, grid)
        u0 = grid.sample(lambda x, y: np.exp(-((x - 0.3) ** 2 + (y - 0.3) ** 2) / 0.02))
        initial = State(u=u0 * (4.0 / integrate(u0, grid)), v=grid.zeros())
        points = [
            ModelParams(chi=20.0, a=1.0, b=1.0, alpha=alpha, beta=beta)
            for alpha in (1.5, 2.0) for beta in (2.0, 3.0)
        ]
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=0.01)
        decide, decided = stepper._threaded, []

        def counted(rows, grid):
            decided.append(rows)
            return decide(rows, grid)

        monkeypatch.setattr(stepper, "_threaded", counted)
        split = run_batch([initial] * 4, points, grid, StepperConfig(), 0.03, rec)
        steps = sorted(r.diagnostics.steps for r in split)
        assert len(set(steps)) == 4 and steps[0] > 1
        assert all(r.termination is Termination.REACHED_T_END for r in split)
        assert len(threads) == 2
        # the march's decision, then one per active set: 4, 3, 2 and 1 members
        assert decided == [4, 4, 3, 2, 1]
        monkeypatch.setattr(stepper, "_THREAD_CELLS", math.inf)
        threads.clear()
        serial = run_batch([initial] * 4, points, grid, StepperConfig(), 0.03, rec)
        assert threads == {threading.current_thread().name}
        for got, want in zip(split, serial):
            _assert_same_result(got, want)

    def test_forced_level(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(32,))
        case = build_mms_case(ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0), grid)
        dt = (1.0 / 32) ** 2 / 4.0
        reuses = _count_reuses(monkeypatch)
        planned = verification._run_level(case, grid, dt, 0.02, "central")
        # the fixed dt repeats from the second step on
        assert reuses == [(2,)]
        assert planned.diagnostics.steps >= 80
        _rebuilding_every_step(monkeypatch)
        _assert_same_result(planned, verification._run_level(case, grid, dt, 0.02, "central"))

    def test_moving_dt_holds_no_denominator(self, monkeypatch):
        grid = Grid(extent=(1.0, 1.0), cells=(128, 128))
        assert not stepper._threaded(1, grid)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        cfg = StepperConfig()

        def march():
            u, v, t = _bump(grid, 8.0, width=0.1)[None], grid.zeros()[None], 0.0
            dts = []
            tracemalloc.start()
            try:
                with stepper._march(1, grid, cfg, None, "upwind") as plan:
                    plan.members([p])
                    for _ in range(3):
                        umax = np.maximum.reduce(u, grid.field_axes).tolist()
                        u, v, step = stepper._advance(plan, u, v, [t], [math.inf], umax)
                        (outcome,) = outcomes(step)
                        assert outcome.termination is None
                        t += outcome.dt
                        dts.append(outcome.dt)
                        ((sigma, _),) = plan.solves
                        assert sigma.shape == (2, 1, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, dts

        reuses = _count_reuses(monkeypatch)
        peak, dts = march()
        assert len(set(dts)) == 3
        assert reuses == []
        _rebuilding_every_step(monkeypatch)
        defeated, defeated_dts = march()
        assert defeated_dts == dts
        assert peak <= defeated + grid.zeros().nbytes


def _carried_maxima(monkeypatch):
    """Spy on a march's steps: each carried u maximum is checked against its
    field; returns how many solves got their maxima carried."""
    advance, carried = stepper._advance, []

    def spy(plan, u, v, ts, caps, umax):
        assert umax == np.maximum.reduce(u, plan.grid.field_axes).tolist()
        carried.append(len(umax))
        return advance(plan, u, v, ts, caps, umax)

    monkeypatch.setattr(stepper, "_advance", spy)
    return carried


def _recomputing_maxima(monkeypatch):
    """Replace the carried maxima with ones taken from the fields, so every
    dt proposal reads max u off the rows it steps."""
    advance = stepper._advance

    def recomputed(plan, u, v, ts, caps, umax):
        umax = np.maximum.reduce(u, plan.grid.field_axes).tolist()
        return advance(plan, u, v, ts, caps, umax)

    monkeypatch.setattr(stepper, "_advance", recomputed)


class TestCarriedMaxima:
    """The dt proposal reads the u maxima the audit took off the solve that made u."""

    def test_1d_run_with_replayed_tail(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(32,))
        state, p = _moving(grid)
        cfg, rec = TestFixedPointReplay.CFG, TestFixedPointReplay.REC
        with monkeypatch.context() as patch:
            carried = _carried_maxima(patch)
            got = run(state, p, grid, cfg, 60.0, rec)
        assert 0 < got.diagnostics.replayed_steps < got.diagnostics.steps
        # every solve, the capped one after the replay included
        assert len(carried) == got.diagnostics.steps - got.diagnostics.replayed_steps
        _recomputing_maxima(monkeypatch)
        _assert_same_result(got, run(state, p, grid, cfg, 60.0, rec))

    def test_2d_run(self, monkeypatch):
        grid = Grid(extent=(1.0, 1.0), cells=(32, 32))
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        initial = State(u=_bump(grid, 8.0, width=0.1), v=grid.zeros())
        rec = Recorder(k_list=(2.0, 4.0), sample_interval=0.01)
        with monkeypatch.context() as patch:
            carried = _carried_maxima(patch)
            got = run(initial, p, grid, StepperConfig(), 0.03, rec)
        assert got.termination is Termination.REACHED_T_END
        assert len(carried) == got.diagnostics.steps > 3
        _recomputing_maxima(monkeypatch)
        _assert_same_result(got, run(initial, p, grid, StepperConfig(), 0.03, rec))

    def test_batch_with_a_retry_and_a_member_leaving(self, grid1d, monkeypatch):
        # member 0, a sharp bump, gets a 200x dt on two steps and retries;
        # member 1 grows from 60 past the sup norm threshold and leaves
        cfg = StepperConfig(dt_max=1e-4, blowup_linf_threshold=80.0)
        rec = Recorder(k_list=(2.0,), sample_interval=1e-3)
        x = grid1d.cell_centers()[0]
        sharp = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2))
        sharp *= 4.0 / integrate(sharp, grid1d)
        initials = [
            State(u=sharp, v=grid1d.sample(lambda x: 1.0 + np.cos(np.pi * x))),
            State(u=grid1d.full(60.0), v=grid1d.full(60.0)),
            State(u=grid1d.sample(lambda x: 1.0 + 0.2 * np.cos(2 * np.pi * x)), v=grid1d.zeros()),
        ]
        points = [
            ModelParams(chi=8.0, a=1.0, b=1.0, alpha=1.5, beta=3.0),
            ModelParams(chi=0.0, a=1.0, b=1e-6, alpha=2.0, beta=2.0),
            ModelParams(chi=2.0, a=1.0, b=1.0, alpha=2.0, beta=2.0),
        ]
        propose, calls = stepper.adapt_dt, []

        def oversized(*args):
            calls.append(None)
            dts = propose(*args)
            return [200.0 * dts[0]] + dts[1:] if len(calls) in (5, 60) else dts

        monkeypatch.setattr(stepper, "adapt_dt", oversized)

        def march():
            calls.clear()
            return run_batch(initials, points, grid1d, cfg, 8e-3, rec)

        with monkeypatch.context() as patch:
            carried = _carried_maxima(patch)
            got = march()
        assert [r.termination for r in got] == [
            Termination.REACHED_T_END, Termination.BLOWUP_DETECTED, Termination.REACHED_T_END,
        ]
        assert got[0].diagnostics.total_retries >= 2
        assert got[2].diagnostics.total_retries == 0
        # three rows before member 1 leaves, two after
        assert {3, 2} <= set(carried)
        _recomputing_maxima(monkeypatch)
        for got_one, want in zip(got, march()):
            _assert_same_result(got_one, want)


def _advance_in_child(u, v, params, grid):
    """One step in a worker; also the names of the threads that solved and are left."""
    checked, solvers = stepper._helmholtz_checked, set()

    def spy(rhs, grid, sigma, held):
        solvers.add(threading.current_thread().name)
        return checked(rhs, grid, sigma, held)

    stepper._helmholtz_checked = spy
    try:
        u_new, v_new, _ = _advance(u, v, [0.0], [params], grid, StepperConfig())
    finally:
        stepper._helmholtz_checked = checked
    return u_new, v_new, solvers, [t.name for t in _helper_threads()]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_steps_after_threaded_parent(monkeypatch):
    # a forked child copies the parent's memory but none of its threads; the
    # helper of the parent's march ended with that march, so the child starts its own
    threads = _record_threads(monkeypatch)
    grid = _threaded_grid()
    p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
    u, v = _bump(grid, 8.0, width=0.1)[None], grid.zeros()[None]
    u_new, v_new, (outcome,) = _advance(u, v, [0.0], [p], grid, StepperConfig())
    assert outcome.termination is None and outcome.retries == 0
    assert len(threads) == 2
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    try:
        future = pool.submit(_advance_in_child, u, v, p, grid)
        try:
            child_u, child_v, child_solvers, child_left = future.result(timeout=60)
        except TimeoutError:
            for proc in list(pool._processes.values()):
                proc.kill()
            raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    assert len(child_solvers) == 2
    assert any(name.startswith("kschemo-step") for name in child_solvers)
    assert child_left == []
    np.testing.assert_array_equal(child_u, u_new)
    np.testing.assert_array_equal(child_v, v_new)
