"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; the long boundedness runs are shared session fixtures.
"""

import math
import time

import numpy as np
import pytest

from kschemo import (
    Grid,
    ModelParams,
    Regime,
    State,
    StepperConfig,
    Termination,
    classify_regime,
    integrate,
    mass_envelope,
    stepper,
)
from kschemo.config import parse_config, run_from_config, run_record
from kschemo.observables import _VERDICT, _field, summarize
from kschemo.verification import build_mms_case, convergence_study, equilibrium_case

from conftest import proposed_dt

CRITERION_1 = """
model.chi = 5.0
model.a = 1.0
model.b = 1.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 4.0
ic.u_width = 0.05
run.t_end = 50.0
run.sample_interval = 0.05
"""

CRITERION_2 = """
model.chi = 10.0
model.a = 1.0
model.b = 1.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.05
run.t_end = 100.0
run.sample_interval = 0.1
"""

CRITERION_3 = """
model.chi = 5.0
model.a = 1.0
model.b = 1.0
model.alpha = 2.0
model.beta = 2.0
grid.dim = 2
grid.cells_x = 64
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.1
run.t_end = 50.0
run.sample_interval = 0.1
"""

# Criterion 14: chemotaxis gathers a small bump and the nonlocal damping
# bounds what it gathers.  The logistic growth lifts the mass from 0.05
# toward y1 = 1; near u = v = 1 the first cosine mode grows once
# chi > pi^2 + 1, so at chi = 40 the sup norm rises far above its start
# before it settles.  With b = 0 (the broken twin) nothing damps the growth.
CRITERION_14 = """
model.chi = 40.0
model.a = 1.0
model.b = {b}
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 64
ic.u = bump
ic.u_mass = 0.05
ic.u_width = 0.1
ic.u_center_x = 0.3
run.t_end = {t_end}
"""

# a property of the case, not a tolerance: its sup norm peaks at 18x its
# start (0.1995 -> 3.6597 at t = 8.7, then 2.1915 at t_end = 20)
GATHER_FACTOR = 10.0

# Criterion 14 in 2D, where gathering can outrun the damping: a bump of mass
# 1.01 * y1 (y1 = 1) and width 0.3 at (0.3, 0.3) with v0 = 0, at points the
# paper covers (item 16 of ROADMAP.md; the uncovered (1, 1) collapses on the
# grid).  Starting above y1, past the barrier's rounding margin, its steps
# check the comparison lemma while its mass falls toward y1.
CRITERION_14_2D = """
model.chi = 20.0
model.a = 1.0
model.b = 1.0
model.alpha = {alpha}
model.beta = {beta}
grid.dim = 2
grid.cells_x = 32
ic.u = bump
ic.u_mass = 1.01
ic.u_width = 0.3
ic.u_center_x = 0.3
ic.u_center_y = 0.3
run.t_end = 5.0
"""

# a property of the 2D cases: their sup norms peak at 5.14x and 8.74x their
# start (2.582 -> 13.269 at (2, 2) and -> 22.577 at (1.5, 2), both at t = 0.40)
GATHER_FACTOR_2D = 4.0


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def timed_run(text: str):
    cfg = parse_config(text=text)
    t0 = time.perf_counter()
    result = run_from_config(cfg, output_dir=None)
    wall = time.perf_counter() - t0
    return cfg, result, wall


@pytest.fixture(scope="session")
def run1():
    return timed_run(CRITERION_1)


@pytest.fixture(scope="session")
def run2():
    return timed_run(CRITERION_2)


@pytest.fixture(scope="session")
def run3():
    return timed_run(CRITERION_3)


@pytest.fixture(scope="session")
def run14():
    return timed_run(CRITERION_14.format(b=1.0, t_end=20.0))


@pytest.fixture(scope="session")
def run14_2d():
    """Call it with (alpha, beta) for Criterion 14's 2D run at that point."""
    runs = {}

    def get(alpha, beta):
        if (alpha, beta) not in runs:
            runs[alpha, beta] = timed_run(CRITERION_14_2D.format(alpha=alpha, beta=beta))
        return runs[alpha, beta]

    return get


def record(cfg, result):
    """The record of a finished run, as summary.txt has it."""
    return run_record(cfg, cfg.model, result)


class TestCriterion1MassEnvelope:
    def test_mass_envelope(self, run1):
        cfg, result, wall = run1
        mass = result.series.column("mass")
        y1, m0 = mass_envelope(cfg.model, mass[0], cfg.grid.measure)
        assert y1 == pytest.approx(1.0, rel=1e-12)
        assert m0 == pytest.approx(4.0, rel=1e-12)

        envelope_ok = bool(np.all(mass <= 4.0 * (1.0 + 1e-6)))
        tail = mass[(3 * len(mass)) // 4 :]
        falls_below = bool(np.max(tail) <= y1 * 1.1)
        finished = result.termination is Termination.REACHED_T_END
        in_time = wall <= 60.0
        ok = envelope_ok and falls_below and finished and in_time
        report(1, "mass-envelope", ok, f"mass_max={mass.max():.9g} wall={wall:.1f}s")
        assert finished
        assert envelope_ok
        assert falls_below
        assert in_time


class TestCriterion2SubquadraticBoundedness:
    def test_subquadratic_bounded(self, run2):
        cfg, result, wall = run2
        assert classify_regime(cfg.model, 1) is Regime.SUBQUADRATIC_BOUNDED
        summary = summarize(result.series, result.termination)
        finished = result.termination is Termination.REACHED_T_END
        all_k_ok = all(v for c, v in vars(summary).items() if c.startswith("plateau_int_u_k"))
        linf_ok = summary.plateau_linf_u
        in_time = wall <= 300.0
        ok = finished and all_k_ok and linf_ok and in_time
        report(
            2, "subquadratic-boundedness", ok,
            f"linf_max={summary.linf_u_max:.6g} wall={wall:.1f}s",
        )
        assert finished
        assert linf_ok
        assert all_k_ok
        assert in_time


class TestCriterion3SuperquadraticBoundedness:
    def test_superquadratic_bounded(self, run3):
        cfg, result, wall = run3
        assert classify_regime(cfg.model, 2) is Regime.SUPERQUADRATIC_BOUNDED
        summary = summarize(result.series, result.termination)
        finished = result.termination is Termination.REACHED_T_END
        plateau_ok = summary.plateaus_ok
        in_time = wall <= 600.0
        ok = finished and plateau_ok and in_time
        report(
            3, "superquadratic-boundedness", ok,
            f"linf_max={summary.linf_u_max:.6g} wall={wall:.1f}s",
        )
        assert finished
        assert plateau_ok
        assert in_time


class TestCriterion4SteadyState:
    def test_equilibrium_drift(self):
        params = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        grid = Grid(extent=(1.0,), cells=(64,))
        ustar = (params.a / (params.b * grid.measure)) ** (1.0 / params.beta)
        state = State(u=grid.full(ustar), v=grid.full(ustar))
        cfg = StepperConfig(dt_max=1e-3)
        from kschemo import Recorder, run

        result = run(state, params, grid, cfg, 1.0, Recorder(k_list=(2.0, 4.0, 8.0), sample_interval=0.01))
        assert result.diagnostics.steps == 1000
        worst = 0.0
        for col in result.series.columns:
            if col in ("t", "dt", "retries"):
                continue
            values = result.series.column(col)
            drift = np.max(np.abs(values - values[0])) / max(1.0, abs(values[0]))
            worst = max(worst, drift)
        ok = worst < 1e-9
        report(4, "steady-state-preservation", ok, f"max_drift={worst:.3e}")
        assert ok

    def test_drift_example_values(self, one_step):
        # sanity: the state itself stays put, not just its reductions
        params = ModelParams(chi=5.0, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        grid = Grid(extent=(1.0,), cells=(64,))
        state = State(u=grid.full(1.0), v=grid.full(1.0))
        cfg = StepperConfig(dt_max=1e-3)
        for _ in range(10):
            state, outcome = one_step(state, params, grid, cfg)
            assert outcome.termination is None and outcome.retries == 0
        assert np.max(np.abs(state.u - 1.0)) < 1e-12


class TestCriterion5ConservationDegeneration:
    def test_pure_keller_segel_mass_constant(self):
        params = ModelParams(chi=5.0, a=0.0, b=0.0, alpha=1.0, beta=1.0)
        grid = Grid(extent=(1.0,), cells=(128,))
        x = grid.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.1**2))
        u0 *= 2.0 / integrate(u0, grid)
        cfg = StepperConfig(dt_max=1e-5)
        from kschemo import Recorder, run

        result = run(
            State(u=u0, v=grid.zeros()), params, grid, cfg, 0.1,
            Recorder(k_list=(2.0,), sample_interval=0.002),
        )
        assert result.termination is Termination.REACHED_T_END
        assert result.diagnostics.steps == 10000
        mass = result.series.column("mass")
        drift = np.max(np.abs(mass - mass[0])) / mass[0]
        ok = drift < 1e-8
        report(5, "conservation-degeneration", ok, f"rel_drift={drift:.3e} over 1e4 steps")
        assert ok


class TestCriterion6DiscreteMassIdentity:
    def test_identity_on_boundedness_runs(self, run1, run2, run3):
        tol = 10.0 * 1e-10  # 10 x the Helmholtz gate, relative to the current mass
        worst = 0.0
        for _, result, _ in (run1, run2, run3):
            worst = max(worst, result.diagnostics.max_mass_identity_violation)
        ok = worst <= tol
        report(6, "discrete-mass-identity", ok, f"max_violation={worst:.3e}")
        assert ok


class TestFixedPointReplayEngaged:
    def test_boundedness_runs_replay_part_of_their_steps(self, run1, run2, run3):
        # each run freezes bit for bit on its plateau, so the march replays
        # its later steps; a change that stops the replay reads 0 here
        for _, result, _ in (run1, run2, run3):
            diag = result.diagnostics
            assert 0 < diag.replayed_steps < diag.steps

    def test_criterion_2_replays_most_of_its_steps(self, run2):
        # Criterion 2 reaches its bitwise fixed point early and replays the
        # rest (6840 of 10057 steps when this was written): a rounding change
        # that loses the fixed point, and with it the replayed tail that
        # keeps long runs cheap, fails here
        diag = run2[1].diagnostics
        share = diag.replayed_steps / diag.steps
        report(2, "fixed-point-replay", share >= 0.5,
               f"{diag.replayed_steps} of {diag.steps} steps replayed")
        assert share >= 0.5, (diag.replayed_steps, diag.steps)


class TestCriterion7MmsConvergence:
    def test_spatial_orders(self):
        params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        cells = (32, 64, 128, 256)
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in cells]
        h0 = 1.0 / cells[0]
        dts = [(h0 * cells[0] / n) ** 2 / 4.0 for n in cells]
        case = build_mms_case(params, grids[0])
        table = convergence_study(case, grids, dts, t_end=0.1, face_scheme="central")
        orders_u = [r.order_u for r in table.rows[1:]]
        orders_v = [r.order_v for r in table.rows[1:]]
        ok = all(o >= 1.9 for o in orders_u + orders_v)
        report(7, "mms-spatial-order", ok, "orders_u=" + ",".join(f"{o:.2f}" for o in orders_u))
        assert ok

    def test_upwind_spatial_order_of_u(self):
        """The order of the upwind faces, the scheme every config run uses.

        With dt = h/16 the first-order time error shrinks with h too. v's
        equation carries no transport, so its order measures that time
        error, not the faces, and only u is gated.
        """
        params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        cells = (128, 256, 512)
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in cells]
        dts = [1.0 / n / 16.0 for n in cells]
        case = build_mms_case(params, grids[0])
        table = convergence_study(case, grids, dts, t_end=0.1, face_scheme="upwind")
        orders_u = [r.order_u for r in table.rows[1:]]
        ok = all(o >= 0.9 for o in orders_u)
        report(7, "mms-upwind-order", ok, "orders_u=" + ",".join(f"{o:.3f}" for o in orders_u))
        assert ok

    def test_temporal_orders(self):
        params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        grid = Grid(extent=(1.0,), cells=(512,))
        case = build_mms_case(params, grid)
        dts = [2e-3, 1e-3, 5e-4]
        table = convergence_study(case, [grid] * 3, dts, t_end=0.5, face_scheme="central")
        orders = [r.order_u for r in table.rows[1:]] + [r.order_v for r in table.rows[1:]]
        ok = all(o >= 0.9 for o in orders)
        report(7, "mms-temporal-order", ok, "orders=" + ",".join(f"{o:.2f}" for o in orders))
        assert ok

    def test_equilibrium_zero_forcing(self):
        params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        grid = Grid(extent=(1.0,), cells=(64,))
        case = equilibrium_case(params, grid)
        cfg = StepperConfig(dt_max=1e-3, cfl_safety=1.0)
        from kschemo import Recorder, run

        result = run(
            case.initial_state(grid), params, grid, cfg, 1.0,
            Recorder(k_list=(2.0,), sample_interval=1.0), forcing=case.forcing,
        )
        err = float(np.max(np.abs(result.state.u - case.u_exact(result.state.t, grid))))
        ok = err <= 1e-12
        report(7, "mms-equilibrium-zero-forcing", ok, f"error={err:.3e}")
        assert ok


class TestCriterion8ClassifierTable:
    # twelve hand-checked points, including every boundary equality:
    # beta = n/2, beta = (n+4)/2 - alpha, alpha = 1 + 2 beta / n, alpha = 2
    TABLE = [
        (1.0, 3.0, 3, Regime.SUBQUADRATIC_BOUNDED),
        (2.0, 2.0, 2, Regime.SUPERQUADRATIC_BOUNDED),
        (2.0, 1.0, 2, Regime.UNCOVERED),  # beta = n/2
        (1.5, 1.0, 3, Regime.UNCOVERED),
        (1.5, 2.0, 3, Regime.UNCOVERED),  # beta = (n+4)/2 - alpha
        (2.0, 1.0, 1, Regime.SUPERQUADRATIC_BOUNDED),
        (3.0, 2.0, 2, Regime.UNCOVERED),  # alpha = 1 + 2 beta / n
        (2.0, 4.0, 4, Regime.SUPERQUADRATIC_BOUNDED),  # alpha = 2 inclusive edge
        (1.0, 1.0, 1, Regime.UNCOVERED),
        (1.0, 2.0, 1, Regime.SUBQUADRATIC_BOUNDED),
        (2.0, 3.0, 2, Regime.SUPERQUADRATIC_BOUNDED),
        (1.99, 4.0, 2, Regime.SUBQUADRATIC_BOUNDED),  # just under alpha = 2
    ]

    def test_table(self):
        failures = []
        for alpha, beta, n, expected in self.TABLE:
            got = classify_regime(
                ModelParams(chi=1.0, a=1.0, b=1.0, alpha=alpha, beta=beta), n
            )
            if got is not expected:
                failures.append((alpha, beta, n, expected, got))
        ok = not failures
        report(8, "classifier-table", ok, f"{len(self.TABLE)} points")
        assert ok, failures


# The constant state u = v = y1 = 1 of Criterion 2's exponents: its source
# a - b*I is 0, and its mass moves off 1 only by rounding (up to 1 + 2.2e-16)
CONSTANT_STATE = """
model.alpha = 1.5
model.beta = 3.0
grid.cells_x = 64
ic.u = constant
ic.v_value = 1.0
run.t_end = 0.5
"""


def _broken_source(monkeypatch, a_factor=1.0, b_factor=1.0):
    """Make every step build its source from a*a_factor and b*b_factor,
    while the run's ModelParams, and so its y1, stay the same."""
    source = stepper._nonlocal_source

    def broken(u, grid, a, b, alphas, betas):
        a = [x * a_factor for x in a]
        b = [x * b_factor for x in b]
        return source(u, grid, a, b, alphas, betas)

    monkeypatch.setattr(stepper, "_nonlocal_source", broken)


class TestCriterion9ComparisonLemma:
    """The comparison argument behind int(u) <= max(int(u0), y1), on each
    solved step: a step that starts at or above y1 cannot gain mass."""

    def test_every_step_at_or_above_y1_loses_mass(self, run1, run2, run3, run14, run14_2d):
        runs = {
            "1": run1, "2": run2, "3": run3, "14": run14,
            "14-2d-(2,2)": run14_2d(2.0, 2.0), "14-2d-(1.5,2)": run14_2d(1.5, 2.0),
        }
        gains, verdicts = {}, {}
        for name, (cfg, result, _) in runs.items():
            gains[name] = result.diagnostics.max_gain_above_y1
            verdicts[name] = record(cfg, result).mass_envelope_ok
        # Criteria 1-3 and Criterion 14's 2D pair start above y1, so they check
        # steps; Criterion 14's 1D run stays below y1
        checked = all(gains[name] > -math.inf for name in gains if name != "14")
        ok = checked and all(g <= 0.0 for g in gains.values())
        ok = ok and all(v is True for v in verdicts.values())
        detail = ", ".join(f"{name}: {gain:.2g}" for name, gain in gains.items())
        report(9, "comparison-lemma", ok, f"largest gain above y1 {detail}")
        assert checked, gains
        assert all(g <= 0.0 for g in gains.values()), gains
        assert all(v is True for v in verdicts.values()), verdicts

    def test_constant_state_at_y1_holds(self):
        cfg, result, _ = timed_run(CONSTANT_STATE)
        summary = record(cfg, result)
        assert result.termination is Termination.REACHED_T_END
        assert result.diagnostics.max_gain_above_y1 <= 0.0
        assert summary.mass_envelope_ok is True

    def test_tilted_growth_gains_above_y1(self, monkeypatch):
        # a 1e-6 tilt of a gains about 1e-8 a step: 1 + 2.6e-7 by t_end,
        # inside the sampled check's 1e-6 but a gain on every step above y1
        _broken_source(monkeypatch, a_factor=1.0 + 1e-6)
        cfg, result, _ = timed_run(CONSTANT_STATE)
        summary = record(cfg, result)
        sampled = summarize(result.series, result.termination, mass_cap=1.0)
        gain = result.diagnostics.max_gain_above_y1
        ok = sampled.mass_envelope_ok is True and summary.mass_envelope_ok is False
        report(9, "comparison-lemma-tilted-growth", ok, f"gain {gain:.2g}")
        assert sampled.mass_envelope_ok is True
        assert gain > 0.0
        assert summary.mass_envelope_ok is False

    def test_flipped_damping_gains_above_y1(self, monkeypatch):
        _broken_source(monkeypatch, b_factor=-1.0)
        cfg, result, _ = timed_run(CONSTANT_STATE)
        summary = record(cfg, result)
        gain = result.diagnostics.max_gain_above_y1
        report(9, "comparison-lemma-flipped-damping", summary.mass_envelope_ok is False,
               f"gain {gain:.2g}")
        assert gain > 0.0
        assert summary.mass_envelope_ok is False


class TestCriterion10Positivity:
    def test_boundedness_runs_stay_nonnegative(self, run1, run2, run3):
        worst_u = min(r.diagnostics.min_u for _, r, _ in (run1, run2, run3))
        worst_v = min(r.diagnostics.min_v for _, r, _ in (run1, run2, run3))
        ok = worst_u >= -1e-12 and worst_v >= -1e-12
        report(10, "positivity", ok, f"min_u={worst_u:.3e} min_v={worst_v:.3e}")
        assert ok

    def test_oversized_dt_retries_without_negatives(self, one_step):
        params = ModelParams(chi=8.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)
        grid = Grid(extent=(1.0,), cells=(256,))
        x = grid.cell_centers()[0]
        u0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2))
        u0 *= 4.0 / integrate(u0, grid)
        v0 = grid.sample(lambda x: 1.0 + np.cos(np.pi * x))
        cfg = StepperConfig()
        safe = proposed_dt(u0, v0, grid, params, cfg, 0.0)
        state, outcome = one_step(State(u=u0, v=v0), params, grid, cfg, dt=200.0 * safe)
        ok = (
            outcome.termination is None
            and outcome.retries >= 1
            and state.u.min() >= -1e-12
            and state.v.min() >= -1e-12
        )
        report(10, "positivity-retry-injection", ok, f"retries={outcome.retries}")
        assert ok


class TestCriterion11Determinism:
    def test_csv_bitwise_identical(self, run1, tmp_path):
        _, first, _ = run1
        cfg2, second, _ = timed_run(CRITERION_1)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        first.series.to_csv(p1)
        second.series.to_csv(p2)
        ok = p1.read_bytes() == p2.read_bytes()
        report(11, "determinism", ok, f"{len(first.series)} rows")
        assert ok


def _verdicts(summary) -> dict[str, str]:
    """The verdicts of a run's record, as summary.txt prints them."""
    return {k: summary.text(k) for k in vars(summary) if _field(k)[1] is _VERDICT}


class TestCriterion14Aggregation:
    def test_gathering_stays_bounded(self, run14):
        cfg, result, wall = run14
        summary = record(cfg, result)
        linf, t = result.series.column("linf_u"), result.series.column("t")
        peak = int(np.argmax(linf))
        finished = result.termination is Termination.REACHED_T_END
        all_true = set(_verdicts(summary).values()) == {"true"}
        gathers = linf[peak] >= GATHER_FACTOR * linf[0] and t[peak] > 0
        ok = finished and all_true and gathers
        report(
            14, "aggregation-bounded", ok,
            f"linf {linf[0]:.4g} -> {linf[peak]:.6g} at t={t[peak]:.4g}, "
            f"mass_max={summary.mass_max:.7g} wall={wall:.1f}s",
        )
        assert finished
        assert all_true, _verdicts(summary)
        assert gathers

    @pytest.mark.parametrize("alpha, beta", [(2.0, 2.0), (1.5, 2.0)])
    def test_covered_2d_gathering_stays_bounded(self, run14_2d, alpha, beta):
        cfg, result, wall = run14_2d(alpha, beta)
        summary = record(cfg, result)
        linf, t = result.series.column("linf_u"), result.series.column("t")
        peak = int(np.argmax(linf))
        finished = result.termination is Termination.REACHED_T_END
        all_true = set(_verdicts(summary).values()) == {"true"}
        gathers = linf[peak] >= GATHER_FACTOR_2D * linf[0] and t[peak] > 0
        # the start above y1 puts the run's first steps under the lemma
        gain = result.diagnostics.max_gain_above_y1
        lemma = -math.inf < gain <= 0.0
        ok = finished and all_true and gathers and lemma
        report(
            14, f"aggregation-bounded-2d-({alpha:g},{beta:g})", ok,
            f"linf {linf[0]:.5g} -> {linf[peak]:.5g} at t={t[peak]:.3g}, "
            f"{result.diagnostics.steps} steps, gain above y1 {gain:.2g}, wall={wall:.1f}s",
        )
        assert finished
        assert all_true, _verdicts(summary)
        assert gathers
        assert lemma, gain

    def test_undamped_twin_is_not_bounded(self):
        # b = 0: u' = u^1.5 grows undamped; t_end = 20 would take ~870k steps
        cfg, result, wall = timed_run(CRITERION_14.format(b=0.0, t_end=5.0))
        summary = record(cfg, result)
        ok = summary.plateaus_ok is not True
        report(
            14, "aggregation-undamped-twin", ok,
            f"{result.termination} plateaus_ok={summary.text('plateaus_ok')} "
            f"wall={wall:.1f}s",
        )
        assert ok, _verdicts(summary)
