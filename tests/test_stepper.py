import math
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kschemo import (
    Grid,
    LinearSolverError,
    ModelParams,
    Recorder,
    State,
    StepperConfig,
    StepStatus,
    Termination,
    adapt_dt,
    helmholtz_solve,
    integrate,
    laplacian,
    run,
    run_batch,
    step,
)
from kschemo import operators, stepper
from kschemo.grid import _POSITIVITY_TOL
from kschemo.stepper import _neumann_eigenvalues
from kschemo.verification import build_mms_case


@pytest.fixture
def grid1d():
    return Grid(extent=(1.0,), cells=(64,))


@pytest.fixture
def grid2d():
    return Grid(extent=(1.0, 1.0), cells=(24, 24))


def _threaded_grid():
    """The smallest square 2D grid whose single-row half reaches _THREAD_CELLS."""
    side = math.isqrt(stepper._THREAD_CELLS - 1) + 1
    return Grid(extent=(1.0, 1.0), cells=(side, side))


def _helper_threads():
    """Live threads that the threaded tau=1 solve starts."""
    return [t for t in threading.enumerate() if t.name.startswith("kschemo-helmholtz")]


def _record_solve_threads(monkeypatch):
    """Allow the threaded halves on any machine; collect the thread name of each checked solve."""
    monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
    checked, threads = stepper._helmholtz_checked, set()

    def spy(rhs, grid, sigma):
        threads.add(threading.current_thread().name)
        return checked(rhs, grid, sigma)

    monkeypatch.setattr(stepper, "_helmholtz_checked", spy)
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
        with pytest.raises(ValueError):
            StepperConfig(face_scheme="upstream")


class TestHelmholtz:
    def test_constant_in_kernel(self, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            w = helmholtz_solve(grid.full(3.0), grid, sigma=0.1)
            np.testing.assert_allclose(w, 3.0, rtol=1e-13)

    def test_discrete_eigenmode_exact(self, grid1d):
        n = grid1d.cells[0]
        mode = grid1d.sample(lambda x: np.cos(np.pi * x))
        lam = _neumann_eigenvalues(n, grid1d.h[0])[1]
        sigma = 0.37
        rhs = (1.0 - sigma * lam) * mode
        w = helmholtz_solve(rhs, grid1d, sigma)
        np.testing.assert_allclose(w, mode, atol=1e-12)

    def test_discrete_eigenmode_exact_2d(self, grid2d):
        nx, ny = grid2d.cells
        mode = grid2d.sample(lambda x, y: np.cos(np.pi * x) * np.cos(2 * np.pi * y))
        lam = (
            _neumann_eigenvalues(nx, grid2d.h[0])[1]
            + _neumann_eigenvalues(ny, grid2d.h[1])[2]
        )
        sigma = 0.05
        w = helmholtz_solve((1.0 - sigma * lam) * mode, grid2d, sigma)
        np.testing.assert_allclose(w, mode, atol=1e-12)

    def test_random_rhs_residual(self, grid1d, grid2d):
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid1d, 0), (grid2d, 1), (odd, 4)):
            rhs = np.random.default_rng(seed).standard_normal(grid.shape)
            sigma = 2.3e-3
            w = helmholtz_solve(rhs, grid, sigma)
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
                    assert helmholtz_solve(rhs, grid, sigma).min() >= 0.0

    def test_fine_grid_passes_gate(self):
        # the rounding in sigma*L_h w grows like eps*4*sigma/h^2*||w||; a
        # residual gated on ||rhs|| alone rejected this exact solve
        grid = Grid(extent=(1.0,), cells=(16384,))
        rhs = np.random.default_rng(6).random(grid.shape)
        w = helmholtz_solve(rhs, grid, 1e-2)
        assert integrate(w, grid) == pytest.approx(integrate(rhs, grid), rel=1e-12)

    def test_perturbed_solution_fails_gate(self, grid1d, grid2d, monkeypatch):
        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma):
            w = exact_core(rhs, grid, sigma)
            w.flat[5] += 1e-6 * np.linalg.norm(w)
            return w

        monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
        fine = Grid(extent=(1.0,), cells=(16384,))
        for grid in (grid1d, grid2d, fine):
            rhs = np.random.default_rng(8).random(grid.shape)
            for sigma in (1e-4, 1e-2, 1.0):
                with pytest.raises(LinearSolverError):
                    helmholtz_solve(rhs, grid, sigma)

    def test_gate_residual_matches_expression(self, grid1d, grid2d):
        # the gate builds w - sigma*L_h w - rhs in the Laplacian's array; its
        # backward error must carry the bits of the plain expression
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid1d, 10), (grid2d, 11), (odd, 12)):
            rng = np.random.default_rng(seed)
            rhs = rng.standard_normal((3,) + grid.shape)
            column = operators._column([1e-4, 2.3e-3, 1.0], grid.dim)
            for sigma in (2.3e-3, 1.0, column):
                kept = rhs.copy()
                w, rel = stepper._helmholtz_checked(rhs, grid, sigma)
                np.testing.assert_array_equal(rhs, kept)
                residual = w - sigma * operators._laplacian(w, grid) - rhs
                a_norm = 1.0 + 4.0 * np.ravel(sigma) * sum(1.0 / h**2 for h in grid.h)
                scale = a_norm * stepper._row_norms(w) + stepper._row_norms(rhs)
                expected = stepper._row_norms(residual) / np.maximum(scale, 1e-300)
                assert rel.tolist() == expected.tolist()

    def test_row_error_independent_of_batch(self):
        # a row's backward error is the one it gets alone, at row lengths
        # where a shape-dependent reduction would chunk differently
        grid = Grid(extent=(1.0, 1.0), cells=(128, 128))
        rhs = np.random.default_rng(14).random((3,) + grid.shape)
        sigma = operators._column([1e-4, 2.3e-3, 1.0], grid.dim)
        _, rel = stepper._helmholtz_checked(rhs, grid, sigma)
        for i in range(3):
            _, alone = stepper._helmholtz_checked(rhs[i : i + 1], grid, sigma[i : i + 1])
            assert alone.tolist() == [rel[i]]

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
            w = stepper._helmholtz_core(rhs, grid, sigma)
            assert w[0].min() >= 0.0 and w[2].min() >= 0.0
            assert w[1].min() < 0.0
            for i in range(3):
                alone = stepper._helmholtz_core(rhs[i : i + 1], grid, sigma[i : i + 1])
                np.testing.assert_array_equal(w[i], alone[0])
                if i != 1:
                    # the clip matters: without it the row dips below zero
                    spectral = stepper._cosine_transform(rhs[i], grid)
                    spectral /= 1.0 - sigma[i] * stepper._grid_eigenvalues(grid)
                    assert stepper._cosine_transform(spectral, grid, inverse=True).min() < 0.0

    @pytest.mark.parametrize("rows,n", [(1, 16), (2, 256), (5, 37), (32, 1000)])
    def test_1d_transform_has_scipy_fft_bits(self, rows, n):
        grid = Grid(extent=(1.0,), cells=(n,))
        x = np.random.default_rng(n).standard_normal((rows, n))
        spectral = stepper._cosine_transform(x, grid)
        np.testing.assert_array_equal(spectral, scipy.fft.dct(x, type=2, norm="ortho", axis=-1))
        expected = scipy.fft.idct(spectral, type=2, norm="ortho", axis=-1)
        np.testing.assert_array_equal(
            stepper._cosine_transform(spectral.copy(), grid, inverse=True), expected
        )

    def test_rejects_bad_sigma(self, grid1d):
        with pytest.raises(ValueError):
            helmholtz_solve(grid1d.zeros(), grid1d, sigma=0.0)

    def test_mean_preserved(self, grid2d):
        odd = Grid(extent=(2.5,), cells=(37,))
        for grid, seed in ((grid2d, 3), (odd, 5)):
            rhs = np.random.default_rng(seed).standard_normal(grid.shape)
            w = helmholtz_solve(rhs, grid, sigma=0.7)
            assert integrate(w, grid) == pytest.approx(integrate(rhs, grid), abs=1e-11)


class TestAdaptDt:
    def params(self, **kw):
        defaults = dict(chi=1.0, a=1e-6, b=1e-6, alpha=2.0, beta=2.0)
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_unconstrained_hits_dt_max(self, grid1d):
        cfg = StepperConfig()
        p = self.params()
        dt = adapt_dt(grid1d.full(0.5), grid1d.full(1.0), grid1d, p, cfg, 0.0)
        assert dt == cfg.dt_max

    def test_doubling_chi_halves_transport_bound(self, grid1d):
        cfg = StepperConfig(dt_max=10.0)
        v = grid1d.sample(lambda x: x)  # unit gradient
        u = grid1d.full(0.1)
        dt1 = adapt_dt(u, v, grid1d, self.params(chi=1.0), cfg, 0.0)
        dt2 = adapt_dt(u, v, grid1d, self.params(chi=2.0), cfg, 0.0)
        assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-12)

    def test_clamped_to_bounds(self, grid1d):
        cfg = StepperConfig(dt_min=1e-6, dt_max=1e-2)
        p = self.params(a=1e12, b=1e12)  # ferocious reaction bound
        u, v = grid1d.full(1.0), grid1d.full(1.0)
        assert adapt_dt(u, v, grid1d, p, cfg, 1.0) == cfg.dt_min
        p = self.params()
        assert adapt_dt(u, v, grid1d, p, cfg, 0.0) == cfg.dt_max


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
    # an infinite v must give the bound the same non-finite gradient
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
            _, grad_max = operators._chemo_divergence(u, v, grid, cfg.face_scheme)
            dts = stepper._propose_dt(u, grid, params, cfg, integrals, grad_max)
            assert dts == _np_diff_dts(u, v, grid, params, cfg, integrals)
            for axis, h, g in zip(grid.field_axes, grid.h, grad_max):
                expected = np.abs(np.diff(v, axis=axis)).max(axis=grid.field_axes) / h
                np.testing.assert_array_equal(g, expected)
            for i, p in enumerate(params):
                alone = adapt_dt(u[i], v[i], grid, p, cfg, integral)
                assert alone == dts[i]


class TestStep:
    def test_equilibrium_fixed_point(self, grid1d):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        state, ustar = equilibrium_state(p, grid1d)
        cfg = StepperConfig()
        new_state, outcome = step(state, p, grid1d, cfg)
        assert outcome.status is StepStatus.ADVANCED
        assert np.max(np.abs(new_state.u - ustar)) <= 1e-10 * ustar
        assert np.max(np.abs(new_state.v - ustar)) <= 1e-10 * ustar

    def test_pure_decay_amplification_factor(self, grid1d):
        # chi = a = b = 0: an eigenmode contracts by 1/(1 + dt*|lambda|)
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        dt = 1e-3
        cfg = StepperConfig(dt_max=dt)
        mode = grid1d.sample(lambda x: np.cos(np.pi * x))
        state = State(u=2.0 + mode, v=grid1d.full(2.0))
        lam = _neumann_eigenvalues(grid1d.cells[0], grid1d.h[0])[1]
        new_state, outcome = step(state, p, grid1d, cfg)
        assert outcome.dt == dt
        expected = 2.0 + mode / (1.0 - dt * lam)
        np.testing.assert_allclose(new_state.u, expected, atol=1e-12)

    def test_mass_identity_single_step(self, grid1d):
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = 1.0 + np.exp(-((x - 0.5) ** 2) / 0.01)
        state = State(u=u0, v=0.5 * u0)
        cfg = StepperConfig()
        mass_before = integrate(state.u, grid1d)
        new_state, outcome = step(state, p, grid1d, cfg)
        delta = outcome.mass_new - mass_before
        tol = stepper._LINEAR_TOL
        assert abs(delta - outcome.dt * outcome.source_integral) <= 10 * tol * mass_before

    def test_blowup_threshold_semantics(self, grid1d):
        # equilibrium level 2 with threshold 1: flagged on the first step
        p = ModelParams(chi=1.0, a=4.0, b=1.0, alpha=2.0, beta=2.0)
        state, ustar = equilibrium_state(p, grid1d)
        assert ustar == pytest.approx(2.0)
        cfg = StepperConfig(blowup_linf_threshold=1.0)
        same_state, outcome = step(state, p, grid1d, cfg)
        assert outcome.status is StepStatus.BLOWUP_DETECTED
        assert same_state is state

    def test_oversized_dt_triggers_retry_not_negatives(self, grid1d):
        p = ModelParams(chi=8.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        x = grid1d.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2))
        u0 *= 4.0 / integrate(u0, grid1d)
        v0 = grid1d.sample(lambda x: 1.0 + np.cos(np.pi * x))
        state = State(u=u0, v=v0)
        cfg = StepperConfig()
        safe_dt = adapt_dt(u0, v0, grid1d, p, cfg, 0.0)
        new_state, outcome = step(state, p, grid1d, cfg, dt_override=200.0 * safe_dt)
        assert outcome.status is StepStatus.DT_REDUCED
        assert outcome.retries >= 1
        assert new_state.u.min() >= -_POSITIVITY_TOL
        assert new_state.v.min() >= -_POSITIVITY_TOL
        assert outcome.min_u == new_state.u.min()
        assert outcome.min_v == new_state.v.min()
        assert outcome.linf_u == np.abs(new_state.u).max()

    def test_nonfinite_v_rejected_without_taxis(self, grid1d, grid2d):
        # with chi = 0 no operator reads v before the v-solve
        p = ModelParams(chi=0.0, a=1.0, b=1.0, alpha=1.0, beta=1.0)
        for grid in (grid1d, grid2d):
            v = grid.full(1.0)
            v.flat[3] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                step(State(u=grid.full(1.0), v=v), p, grid, StepperConfig())

    def test_dt_collapse_reports_blowup(self, grid1d):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        cfg = StepperConfig(dt_min=1e-6, dt_max=1e-2)
        # force endless violation by injecting an absurd dt with no room to halve
        _, outcome = step(state, p, grid1d, cfg, dt_override=2e-6, dt_cap=None, forcing=_NegativeForcing())
        assert outcome.status is StepStatus.BLOWUP_DETECTED
        assert outcome.retries == 2
        assert outcome.message == "dt collapsed below dt_min during retries"

    def test_retry_cap_reports_blowup(self, grid1d):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        state = State(u=grid1d.full(1.0), v=grid1d.zeros())
        cfg = StepperConfig()
        # 20 halvings of 1e-3 stay above dt_min; the cap ends the retries first
        _, outcome = step(state, p, grid1d, cfg, dt_override=1e-3, forcing=_NegativeForcing())
        assert outcome.status is StepStatus.BLOWUP_DETECTED
        assert outcome.retries == 21
        assert outcome.message == "retry cap of 20 reached"


    def test_nonfinite_solve_retries_instead_of_raising(self):
        # u^alpha overflows, so every solve is non-finite: the audit halves
        # dt until it collapses, and the step reports that as its outcome
        grid = Grid((1.0,), (64,))
        state = State(u=grid.full(1e200), v=grid.full(1.0))
        p = ModelParams(chi=0, a=1, b=1, alpha=2, beta=1)
        same_state, outcome = step(state, p, grid, StepperConfig())
        assert same_state is state
        assert outcome.status is StepStatus.BLOWUP_DETECTED
        assert outcome.message == "dt collapsed below dt_min during retries"
        # the proposal sits at dt_min; from a larger dt the cap ends it first
        _, outcome = step(state, p, grid, StepperConfig(), dt_override=1e-3)
        assert outcome.message == "retry cap of 20 reached"
        assert outcome.retries == 21


def _two_solve_reference(u, v, ts, params, grid, cfg, dts, forcing=None):
    """A tau=1 step as two _helmholtz_checked calls, u rows then v rows."""
    source, _ = operators._nonlocal_source(u, grid, params)
    explicit = source
    if any(p.chi != 0.0 for p in params):
        chi = operators._column([p.chi for p in params], grid.dim)
        explicit = explicit - chi * operators._chemo_divergence(u, v, grid, cfg.face_scheme)[0]
    dt = operators._column(dts, grid.dim)
    rhs_v = v + dt * u
    if forcing is not None:
        explicit = explicit + np.stack([forcing.u(t, grid) for t in ts])
        rhs_v = rhs_v + dt * np.stack([forcing.v(t, grid) for t in ts])
    w_u, rel_u = stepper._helmholtz_checked(u + dt * explicit, grid, dt)
    w_v, rel_v = stepper._helmholtz_checked(rhs_v / (1.0 + dt), grid, dt / (1.0 + dt))
    return w_u, w_v, rel_u, rel_v


class _LateNegativeForcing:
    """Drags u negative at dt = 1e-2 for members at t >= 1 only (test helper)."""

    def u(self, t, grid):
        return grid.full(-150.0 if t >= 1.0 else 0.0)

    def v(self, t, grid):
        return grid.zeros()


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
        threads = _record_solve_threads(monkeypatch)
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
                u_new, v_new, outcomes = stepper._advance(
                    u, v, ts, params, grid, cfg, forcing, dt_cap
                )
                # above _THREAD_CELLS the u half is solved on the helper thread
                assert len(threads) == (2 if grid is large else 1)
                assert all(o.status is StepStatus.ADVANCED for o in outcomes)
                dts = [o.dt for o in outcomes]
                assert len(set(dts)) == len(dts)
                w_u, w_v, rel_u, rel_v = _two_solve_reference(
                    u, v, ts, params, grid, cfg, dts, forcing
                )
                np.testing.assert_array_equal(u_new, w_u)
                np.testing.assert_array_equal(v_new, w_v)
                assert [o.residual_u for o in outcomes] == rel_u.tolist()
                assert [o.residual_v for o in outcomes] == rel_v.tolist()
                if grid is large:
                    with monkeypatch.context() as patch:
                        patch.setattr(stepper, "_THREAD_CELLS", math.inf)
                        serial_u, serial_v, serial = stepper._advance(
                            u, v, ts, params, grid, cfg, forcing, dt_cap
                        )
                    np.testing.assert_array_equal(u_new, serial_u)
                    np.testing.assert_array_equal(v_new, serial_v)
                    assert outcomes == serial

    def test_perturbed_v_row_fails_only_its_member(self, grid1d, grid2d, monkeypatch):
        cfg = StepperConfig()
        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma):
            # rows are the three u rows, then the three v rows: member 1's v is row 4
            w = exact_core(rhs, grid, sigma)
            w[4].flat[5] += 1e-6 * np.linalg.norm(w[4])
            return w

        for grid in (grid1d, grid2d):
            u, v, params = self.batch(grid, 3)
            clean_u, clean_v, clean = stepper._advance(u, v, [0.0] * 3, params, grid, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(stepper, "_helmholtz_core", perturbed_core)
                u_new, v_new, outcomes = stepper._advance(u, v, [0.0] * 3, params, grid, cfg)
            assert outcomes[1].status is StepStatus.SOLVER_FAILURE
            assert outcomes[1].residual_v > stepper._LINEAR_TOL
            assert outcomes[1].residual_u == clean[1].residual_u
            for i in (0, 2):
                assert outcomes[i].status is StepStatus.ADVANCED
                assert outcomes[i] == clean[i]
                np.testing.assert_array_equal(u_new[i], clean_u[i])
                np.testing.assert_array_equal(v_new[i], clean_v[i])

    def test_retry_resolves_only_the_failing_row_pair(self, grid1d, grid2d, monkeypatch):
        p = ModelParams(chi=0.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        cfg = StepperConfig(dt_max=1e-2)
        checked = stepper._helmholtz_checked
        calls = []

        def spy(rhs, grid, sigma):
            calls.append((rhs.shape[0], np.ravel(sigma).tolist()))
            return checked(rhs, grid, sigma)

        monkeypatch.setattr(stepper, "_helmholtz_checked", spy)
        for grid in (grid1d, grid2d):
            u0 = grid.sample(lambda *xs: 1.0 + 0.1 * np.cos(np.pi * xs[0]))
            u, v = np.stack([u0] * 3), np.stack([grid.zeros()] * 3)
            # only member 1 sits at t >= 1, where the forcing drives u + dt*E_u
            # below zero at dt = 1e-2 but not at 5e-3
            ts, forcing = [0.0, 1.0, 0.0], _LateNegativeForcing()
            calls.clear()
            u_new, v_new, outcomes = stepper._advance(u, v, ts, [p] * 3, grid, cfg, forcing)
            assert calls == [
                (6, [1e-2] * 3 + [1e-2 / 1.01] * 3),
                (2, [5e-3, 5e-3 / 1.005]),
            ]
            assert [o.status for o in outcomes] == [
                StepStatus.ADVANCED, StepStatus.DT_REDUCED, StepStatus.ADVANCED,
            ]
            assert [o.retries for o in outcomes] == [0, 1, 0]
            assert [o.dt for o in outcomes] == [1e-2, 5e-3, 1e-2]
            solo_u, solo_v, _ = stepper._advance(u[1:2], v[1:2], [1.0], [p], grid, cfg, forcing)
            np.testing.assert_array_equal(u_new[1], solo_u[0])
            np.testing.assert_array_equal(v_new[1], solo_v[0])


class _NegativeForcing:
    """Forcing that drags u negative for every dt in [1e-9, 1e-2], so 20
    halvings from 1e-3 or 1e-2 all fail, and keeps |u| under the default
    sup norm threshold (test helper)."""

    def u(self, t, grid):
        return grid.full(-5e9)

    def v(self, t, grid):
        return grid.zeros()


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

        def perturbed_core(rhs, grid, sigma):
            w = exact_core(rhs, grid, sigma)
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
        threads = _record_solve_threads(monkeypatch)
        threaded = run(initial, p, grid, cfg, 2e-3, rec)
        assert len(threads) == 2
        monkeypatch.setattr(stepper, "_THREAD_CELLS", math.inf)
        serial = run(initial, p, grid, cfg, 2e-3, rec)
        assert threaded.diagnostics.steps > 1
        assert threaded.series.rows == serial.series.rows
        assert threaded.diagnostics == serial.diagnostics
        np.testing.assert_array_equal(threaded.state.u, serial.state.u)
        np.testing.assert_array_equal(threaded.state.v, serial.state.v)

    def test_1d_run_starts_no_thread(self, monkeypatch):
        grid = Grid(extent=(1.0,), cells=(256,))
        threads = _record_solve_threads(monkeypatch)
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
        threads = _record_solve_threads(monkeypatch)
        p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        u, v = _bump(grid, 8.0, width=0.1)[None], grid.zeros()[None]
        for _ in range(2):
            with np.errstate(**stepper._QUIET):
                _, _, (outcome,) = stepper._advance(u, v, [0.0], [p], grid, StepperConfig())
            assert outcome.status is StepStatus.ADVANCED
            assert len(threads) == 2
            assert _helper_threads() == []

    def test_v_half_error_propagates_after_joining_helper(self, monkeypatch):
        grid = _threaded_grid()
        monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
        checked, caller = stepper._helmholtz_checked, threading.get_ident()
        v_started, u_done = threading.Event(), []

        def v_half_fails(rhs, grid, sigma):
            if threading.get_ident() == caller:
                v_started.set()
                raise RuntimeError("v half failed")
            # the u half finishes only after the v half has raised
            assert v_started.wait(timeout=60)
            time.sleep(0.05)
            result = checked(rhs, grid, sigma)
            u_done.append(threading.current_thread().name)
            return result

        monkeypatch.setattr(stepper, "_helmholtz_checked", v_half_fails)
        rhs = np.stack([_bump(grid, 8.0, width=0.1), grid.full(1.0)])
        dt = operators._column([1e-3], grid.dim)
        with pytest.raises(RuntimeError, match="v half failed"):
            stepper._solve_halves(rhs, 1, grid, dt, dt / (1.0 + dt))
        assert len(u_done) == 1 and u_done[0].startswith("kschemo-helmholtz")
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

    def test_rejects_mixed_tau_and_count_mismatch(self, grid1d):
        p = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        q = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0, tau=0)
        state, _ = equilibrium_state(p, grid1d)
        with pytest.raises(ValueError, match="tau"):
            run_batch([state, state], [p, q], grid1d, StepperConfig(), 0.1, self.REC)
        with pytest.raises(ValueError):
            run_batch([state], [p, p], grid1d, StepperConfig(), 0.1, self.REC)


def _advance_in_child(u, v, params, grid):
    """One step in a worker; also the names of the threads that solved and are left."""
    checked, solvers = stepper._helmholtz_checked, set()

    def spy(rhs, grid, sigma):
        solvers.add(threading.current_thread().name)
        return checked(rhs, grid, sigma)

    stepper._helmholtz_checked = spy
    try:
        with np.errstate(**stepper._QUIET):
            u_new, v_new, _ = stepper._advance(u, v, [0.0], [params], grid, StepperConfig())
    finally:
        stepper._helmholtz_checked = checked
    return u_new, v_new, solvers, [t.name for t in _helper_threads()]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_steps_after_threaded_parent(monkeypatch):
    # a forked child copies the parent's memory but none of its threads; the
    # helper of the parent's step ended with that step, so the child starts its own
    threads = _record_solve_threads(monkeypatch)
    grid = _threaded_grid()
    p = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
    u, v = _bump(grid, 8.0, width=0.1)[None], grid.zeros()[None]
    with np.errstate(**stepper._QUIET):
        u_new, v_new, (outcome,) = stepper._advance(u, v, [0.0], [p], grid, StepperConfig())
    assert outcome.status is StepStatus.ADVANCED
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
    assert any(name.startswith("kschemo-helmholtz") for name in child_solvers)
    assert child_left == []
    np.testing.assert_array_equal(child_u, u_new)
    np.testing.assert_array_equal(child_v, v_new)
