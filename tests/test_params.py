import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from kschemo import ModelParams, Regime, classify_regime, mass_envelope
from kschemo.grid import Grid, State, lp_norm_pow
from kschemo.params import FieldError
from kschemo.stepper import Recorder, StepperConfig, run_batch


def make_params(alpha=1.0, beta=1.0, chi=1.0, a=1.0, b=1.0, tau=1):
    return ModelParams(chi=chi, a=a, b=b, alpha=alpha, beta=beta, tau=tau)


class TestModelParams:
    def test_rejects_negative_coefficients(self):
        for kwargs in ({"chi": -1.0}, {"a": -0.1}, {"b": -2.0}):
            with pytest.raises(ValueError):
                make_params(**kwargs)

    def test_rejects_exponents_below_one(self):
        with pytest.raises(ValueError, match="alpha"):
            make_params(alpha=0.5)
        with pytest.raises(ValueError, match="beta"):
            make_params(beta=0.99)

    def test_rejects_bad_tau(self):
        # tau accepts only 1, the fully parabolic system
        for tau in (0, 2):
            with pytest.raises(FieldError, match=f"tau == 1 required, got {tau}") as info:
                make_params(tau=tau)
            assert info.value.field == "tau"

    def test_accepts_degenerate_zero_coefficients(self):
        # pure Keller-Segel (a = b = 0) and taxis-free (chi = 0) modes
        make_params(a=0.0, b=0.0)
        make_params(chi=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_params(a=math.inf)


def _run_batch_to(t_end):
    grid = Grid(extent=(1.0,), cells=(8,))
    state = State(u=grid.full(1.0), v=grid.full(1.0))
    run_batch([state], [make_params()], grid, StepperConfig(), t_end, Recorder())


# each input rule of a function is a require on it, so its refusal names the field
@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: classify_regime(make_params(), 0), "n"),
        (lambda: classify_regime(make_params(), 1.5), "n"),
        (lambda: classify_regime(make_params(), math.inf), "n"),
        (lambda: classify_regime(make_params(), math.nan), "n"),
        # an integer whose (n + 4) / 2 does not fit a float
        (lambda: classify_regime(make_params(), 10**400), "n"),
        (lambda: mass_envelope(make_params(b=0.0), 1.0, 1.0), "b"),
        (lambda: mass_envelope(make_params(), math.nan, 1.0), "initial_mass"),
        (lambda: mass_envelope(make_params(), -1.0, 1.0), "initial_mass"),
        (lambda: mass_envelope(make_params(), 1.0, 0.0), "domain_measure"),
        (lambda: mass_envelope(make_params(), 1.0, math.inf), "domain_measure"),
        (lambda: make_params(b=0.0).require_envelope(), "b"),
        # NaN fails every comparison, so a bare k < 1 test lets it through
        (lambda: lp_norm_pow(np.full(8, 2.0), Grid((1.0,), (8,)), math.nan), "k"),
        (lambda: lp_norm_pow(np.full(8, 2.0), Grid((1.0,), (8,)), math.inf), "k"),
        (lambda: lp_norm_pow(np.full(8, 2.0), Grid((1.0,), (8,)), 0.5), "k"),
        (lambda: _run_batch_to(0.0), "t_end"),
        (lambda: _run_batch_to(math.nan), "t_end"),
    ],
    ids=[
        "n-zero", "n-fraction", "n-inf", "n-nan", "n-huge", "envelope-b", "initial-mass-nan",
        "initial-mass-negative", "domain-measure-zero", "domain-measure-inf", "require-envelope",
        "lp-k-nan", "lp-k-inf", "lp-k-small", "t-end-initial", "t-end-nan",
    ],
)
def test_rule_refusal_names_its_field(call, field):
    with pytest.raises(FieldError) as info:
        call()
    assert info.value.field == field


class TestClassifyRegime:
    def test_subquadratic_example(self):
        # beta = 3 > (3+4)/2 - 1 = 2.5
        assert classify_regime(make_params(alpha=1.0, beta=3.0), 3) is Regime.SUBQUADRATIC_BOUNDED

    def test_superquadratic_example(self):
        # beta = 2 > 1 and alpha = 2 < 1 + 2*2/2 = 3
        assert classify_regime(make_params(alpha=2.0, beta=2.0), 2) is Regime.SUPERQUADRATIC_BOUNDED

    def test_boundary_equality_beta_half_n(self):
        # beta = n/2 exactly fails the strict inequality
        assert classify_regime(make_params(alpha=2.0, beta=1.0), 2) is Regime.UNCOVERED

    def test_subquadratic_inequality_fails(self):
        # beta = 1 <= (3+4)/2 - 1.5 = 2
        assert classify_regime(make_params(alpha=1.5, beta=1.0), 3) is Regime.UNCOVERED

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            classify_regime(make_params(), 0)

    @given(
        alpha=st.floats(1.0, 6.0),
        beta=st.floats(1.0, 8.0),
        n=st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_predicates_mutually_exclusive(self, alpha, beta, n):
        sub = 1 <= alpha < 2 and beta > (n + 4) / 2 - alpha
        sup = beta > n / 2 and 2 <= alpha < 1 + 2 * beta / n
        assert not (sub and sup)
        regime = classify_regime(make_params(alpha=alpha, beta=beta), n)
        if sub:
            assert regime is Regime.SUBQUADRATIC_BOUNDED
        elif sup:
            assert regime is Regime.SUPERQUADRATIC_BOUNDED
        else:
            assert regime is Regime.UNCOVERED

    @given(
        alpha=st.floats(1.0, 4.0),
        beta=st.floats(1.0, 6.0),
        n=st.integers(1, 4),
        chi=st.floats(1e-3, 1e3),
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_chi_a_b(self, alpha, beta, n, chi, a, b):
        base = classify_regime(make_params(alpha=alpha, beta=beta), n)
        varied = classify_regime(make_params(alpha=alpha, beta=beta, chi=chi, a=a, b=b), n)
        assert base is varied


def _mass_ode_max(a, b, beta, measure, y0, t_end=40.0):
    """Independent oracle: integrate y' = a*y - b*|O|^(1-beta)*y^(beta+1)."""

    def rhs(t, y):
        return a * y[0] - b * measure ** (1.0 - beta) * y[0] ** (beta + 1.0)

    sol = solve_ivp(rhs, (0.0, t_end), [y0], rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.success
    ts = np.linspace(0.0, t_end, 4001)
    return float(sol.sol(ts)[0].max()), float(sol.sol(t_end)[0])


class TestMassEnvelope:
    @pytest.mark.parametrize(
        "a,b,beta,measure,m_init,y1_expect,m0_expect",
        [
            (1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0),
            (4.0, 1.0, 2.0, 1.0, 0.1, 2.0, 2.0),
            (1.0, 1.0, 1.0, 5.0, 10.0, 1.0, 10.0),
        ],
    )
    def test_printed_formula(self, a, b, beta, measure, m_init, y1_expect, m0_expect):
        params = make_params(a=a, b=b, beta=beta)
        y1, m0 = mass_envelope(params, m_init, measure)
        assert y1 == pytest.approx(y1_expect, rel=1e-14)
        assert m0 == pytest.approx(m0_expect, rel=1e-14)

    @pytest.mark.parametrize(
        "a,b,beta,measure,y0",
        [(1.0, 1.0, 2.0, 1.0, 0.5), (4.0, 1.0, 2.0, 1.0, 0.1), (2.0, 3.0, 3.0, 2.0, 5.0)],
    )
    def test_ode_cross_check(self, a, b, beta, measure, y0):
        # the comparison ODE's trajectory never exceeds m0 and settles at y1
        params = make_params(a=a, b=b, beta=beta)
        y1, m0 = mass_envelope(params, y0, measure)
        y_max, y_final = _mass_ode_max(a, b, beta, measure, y0)
        assert y_max <= m0 * (1.0 + 1e-8)
        assert y_final == pytest.approx(y1, rel=1e-6)

    def test_zero_growth_gives_zero_cap(self):
        y1, m0 = mass_envelope(make_params(a=0.0, b=1.0, beta=2.0), 3.0, 1.0)
        assert y1 == 0.0
        assert m0 == 3.0

    def test_requires_positive_b(self):
        with pytest.raises(ValueError):
            mass_envelope(make_params(a=1.0, b=0.0), 1.0, 1.0)

    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        beta=st.floats(1.0, 5.0),
        measure=st.floats(0.1, 10.0),
        m=st.floats(0.0, 20.0),
        scale=st.floats(1.1, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotonicity(self, a, b, beta, measure, m, scale):
        y1, m0 = mass_envelope(make_params(a=a, b=b, beta=beta), m, measure)
        y1_up_a, _ = mass_envelope(make_params(a=a * scale, b=b, beta=beta), m, measure)
        y1_up_b, _ = mass_envelope(make_params(a=a, b=b * scale, beta=beta), m, measure)
        _, m0_up = mass_envelope(make_params(a=a, b=b, beta=beta), m * scale, measure)
        assert y1_up_a >= y1
        assert y1_up_b <= y1
        assert m0_up >= m0

