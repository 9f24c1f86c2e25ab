import numpy as np
import pytest

from kschemo import Grid, ModelParams, ObservableSeries, State, Termination, record, summarize
from kschemo.grid import integrate, lp_norm_pow
from kschemo.observables import ObservableError, _check_power_means, _plateau, _power_means


@pytest.fixture
def grid():
    return Grid(extent=(1.0,), cells=(32,))


@pytest.fixture
def params():
    return ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.5, beta=3.0)


def series_from_columns(k_list, t, **cols):
    series = ObservableSeries.for_run(k_list)
    for i, ti in enumerate(t):
        row = []
        for name in series.columns:
            if name == "t":
                row.append(ti)
            else:
                row.append(cols.get(name, np.ones_like(t))[i])
        series.append(tuple(row))
    return series


class TestRecord:
    def test_constant_field_row(self, grid, params):
        state = State(u=grid.full(2.0), v=grid.full(0.5), t=1.0, dt_last=1e-3)
        row = record(state, grid, params, k_list=(2.0, 4.0), cumulative_retries=3)
        series = ObservableSeries.for_run((2.0, 4.0))
        series.append(row)
        assert series.column("mass")[0] == pytest.approx(2.0, rel=1e-14)
        assert series.column("int_u_k2")[0] == pytest.approx(4.0, rel=1e-14)
        assert series.column("int_u_k4")[0] == pytest.approx(16.0, rel=1e-14)
        assert series.column("int_u_beta")[0] == pytest.approx(8.0, rel=1e-14)
        assert series.column("linf_u")[0] == 2.0
        assert series.column("linf_v")[0] == 0.5
        assert series.column("dt")[0] == 1e-3
        assert series.column("retries")[0] == 3

    def test_power_mean_consistency_on_random_fields(self, grid, params):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = np.abs(rng.standard_normal(grid.shape)) + 1e-3
            state = State(u=u, v=grid.zeros())
            record(state, grid, params, k_list=(2.0, 4.0, 8.0))  # must not raise

    def test_non_finite_rejected(self, grid, params):
        u = grid.full(1.0)
        u[0] = np.inf
        with pytest.raises(ObservableError):
            record(State(u=u, v=grid.zeros()), grid, params, k_list=(2.0,))

    def test_row_matches_the_grid_reductions_bitwise(self, grid, params):
        rng = np.random.default_rng(3)
        u = np.abs(rng.standard_normal(grid.shape))
        u[0] = -1e-13  # inside the positivity floor: the mass sums u, the powers |u|
        v = rng.random(grid.shape)
        row = record(State(u=u, v=v), grid, params, k_list=(2.0, 4.0, 8.0))
        expected = (
            integrate(u, grid),
            *(lp_norm_pow(u, grid, k) for k in (params.beta, 2.0, 4.0, 8.0)),
            float(np.abs(u).max()),
            float(np.abs(v).max()),
        )
        assert row[1:8] == expected

    @pytest.mark.parametrize("u_value, beta", [(1e-80, 3.0), (1e-3, 200.0)])
    def test_underflowed_means_are_not_compared(self, grid, u_value, beta):
        # 1e-80^4 is subnormal and 1e-3^200 underflows to 0: neither mean has its digits
        params = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.0, beta=beta)
        state = State(u=grid.full(u_value), v=grid.zeros())
        record(state, grid, params, k_list=(2.0, 4.0, 8.0))  # must not raise

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_power_means_walk_the_sorted_pairs(self, beta):
        # the held order is the one sorted() gives the (k, integral) pairs:
        # by k, and where k ties by value, which the positions give, as the
        # tied integrals are |int(u)| <= int(|u|) or one expression
        k_list = (2.0, 4.0)
        order = _power_means(beta, k_list)
        assert [(k, i) for k, _, _, i in order] == sorted(
            (k, i) for i, k in enumerate((1.0, beta, *k_list))
        )
        for k, inverse, floor, _ in order:
            assert inverse == 1.0 / k and floor == np.finfo(float).tiny ** (1.0 / k)
        assert _power_means(beta, k_list) is order

    def test_tied_mass_and_beta_integrals_pass(self, grid):
        # at beta = 1 the mass and int(u^beta) share k = 1; u dips to the
        # positivity floor, so |int(u)| < int(|u|)
        params = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=1.0, beta=1.0)
        u = grid.full(1e-3)
        u[::3] = -1e-12
        row = record(State(u=u, v=grid.zeros()), grid, params, k_list=(2.0,))
        assert abs(row[1]) < row[2]

    @pytest.mark.parametrize(
        "factor, message",
        [(0.5, r"power-mean monotonicity violated at t = 0.0 \(k = 4\)"),
         (2.0, r"L\^4 mean exceeds the sup norm at t = 0.0")],
    )
    def test_scaled_normal_range_integral_raises(self, grid, params, factor, message):
        row = record(State(u=grid.full(2.0), v=grid.zeros()), grid, params, k_list=(2.0, 4.0))
        _, mass, int_beta, int_k2, int_k4, sup_u = row[:6]
        integrals = [mass, int_beta, int_k2, int_k4 * factor]
        order = _power_means(params.beta, (2.0, 4.0))
        _check_power_means(0.0, integrals[:3] + [int_k4], order, sup_u, grid.measure)
        with pytest.raises(ObservableError, match=message):
            _check_power_means(0.0, integrals, order, sup_u, grid.measure)

    @pytest.mark.parametrize(
        "u,v,message",
        [
            (np.ones(32), np.full(32, np.nan), "v contains non-finite"),
            (np.ones(32), np.ones(31), r"v shape \(31,\)"),
            (np.ones((32, 1)), np.ones(32), r"u shape \(32, 1\)"),
        ],
    )
    def test_bad_field_rejected(self, grid, params, u, v, message):
        with pytest.raises(ObservableError, match=message):
            record(State(u=u, v=v), grid, params, k_list=(2.0,))


class TestSeries:
    def test_times_strictly_increasing(self):
        series = ObservableSeries.for_run((2.0,))
        width = len(series.columns)
        series.append((0.0,) + (1.0,) * (width - 1))
        with pytest.raises(ValueError):
            series.append((0.0,) + (1.0,) * (width - 1))

    def test_csv_roundtrip_bitwise(self, tmp_path, grid, params):
        series = ObservableSeries.for_run((2.0, 4.0))
        rng = np.random.default_rng(5)
        state = State(u=np.abs(rng.standard_normal(grid.shape)), v=grid.zeros(), t=0.0)
        series.append(record(state, grid, params, (2.0, 4.0)))
        state = State(u=state.u * 1.1, v=grid.zeros(), t=0.37, dt_last=1e-3)
        series.append(record(state, grid, params, (2.0, 4.0), cumulative_retries=1))
        path = tmp_path / "series.csv"
        series.to_csv(path)
        again = ObservableSeries.from_csv(path)
        assert again.columns == series.columns
        assert again.rows == series.rows

    def test_unknown_column(self):
        series = ObservableSeries.for_run((2.0,))
        with pytest.raises(KeyError):
            series.column("entropy")


REACHED = Termination.REACHED_T_END


def _plateaus(summary) -> dict:
    """The plateau verdicts of a record, by field name."""
    return {k: v for k, v in vars(summary).items() if k.startswith("plateau_")}


class TestSummarize:
    def test_flat_series_all_verdicts_true(self):
        t = np.linspace(0, 10, 40)
        series = series_from_columns((2.0, 4.0), t)
        summary = summarize(series, REACHED, mass_cap=1.0, linf_threshold=100.0)
        assert summary.mass_envelope_ok is True
        assert summary.linf_bounded is True
        assert summary.plateaus_ok is True
        assert all(flag is True for flag in _plateaus(summary).values())

    def test_doubling_linf_fails_plateau(self):
        t = np.linspace(0, 10, 40)
        growing = 2.0 ** np.arange(40).astype(float)
        series = series_from_columns((2.0,), t, linf_u=growing)
        summary = summarize(series, REACHED)
        assert summary.plateau_linf_u is False
        assert summary.plateaus_ok is False

    def test_mass_cap_verdict(self):
        t = np.linspace(0, 1, 8)
        mass = np.full(8, 2.0)
        series = series_from_columns((2.0,), t, mass=mass)
        assert summarize(series, REACHED, mass_cap=2.0).mass_envelope_ok is True
        assert summarize(series, REACHED, mass_cap=1.9).mass_envelope_ok is False

    def test_transient_then_settled_is_plateau(self):
        # decaying transient: late values below the mid window
        t = np.linspace(0, 10, 100)
        decay = 1.0 + 4.0 * np.exp(-t)
        series = series_from_columns((2.0,), t, int_u_k2=decay, linf_u=decay)
        assert summarize(series, REACHED).plateaus_ok is True

    def test_empty_series_inconclusive(self):
        summary = summarize(
            ObservableSeries.for_run((2.0,)), REACHED, mass_cap=1.0, linf_threshold=100.0
        )
        assert summary.mass_max is None and summary.linf_u_max is None
        assert summary.text("mass_max") == summary.text("linf_u_max") == ""
        verdicts = [summary.text(k) for k in vars(summary) if not k.endswith("_max")]
        assert verdicts == ["inconclusive"] * 5

    def test_column_max_reported(self):
        t = np.linspace(0, 1, 10)
        mass = np.linspace(1.0, 0.5, 10)
        series = series_from_columns((2.0,), t, mass=mass)
        assert summarize(series, REACHED).mass_max == pytest.approx(1.0)

    def test_plateau_needs_four_rows(self):
        assert _plateau(np.ones(3)) is None
        assert _plateau(np.ones(4)) is True
        series = series_from_columns((2.0,), np.linspace(0, 1, 3))
        summary = summarize(series, REACHED, mass_cap=1.0, linf_threshold=100.0)
        assert summary.mass_envelope_ok is True
        assert summary.linf_bounded is True
        assert summary.plateaus_ok is None
        assert summary.text("plateau_linf_u") == "inconclusive"

    @pytest.mark.parametrize(
        "termination", [Termination.BLOWUP_DETECTED, Termination.SOLVER_FAILURE, None]
    )
    def test_early_end_is_never_true(self, termination):
        t = np.linspace(0, 10, 40)
        series = series_from_columns((2.0, 4.0), t)
        summary = summarize(series, termination, mass_cap=1.0, linf_threshold=100.0)
        verdicts = [summary.text(k) for k in vars(summary) if not k.endswith("_max")]
        assert verdicts == ["inconclusive"] * len(verdicts)

    def test_violation_before_an_early_end_is_false(self):
        t = np.linspace(0, 10, 40)
        mass = np.ones(40)
        mass[5] = 1.5
        growing = 2.0 ** np.arange(40).astype(float)
        series = series_from_columns((2.0,), t, mass=mass, linf_u=growing)
        summary = summarize(series, Termination.BLOWUP_DETECTED, mass_cap=1.0, linf_threshold=1e6)
        assert summary.mass_envelope_ok is False
        assert summary.linf_bounded is False
        assert _plateaus(summary) == {"plateau_int_u_k2": None, "plateau_linf_u": False}
        assert summary.plateaus_ok is False

    def test_non_finite_sample_is_a_violation(self):
        t = np.linspace(0, 1, 8)
        mass = np.ones(8)
        mass[3] = np.nan
        series = series_from_columns((2.0,), t, mass=mass, linf_u=mass)
        summary = summarize(series, REACHED, mass_cap=1.0, linf_threshold=100.0)
        assert summary.mass_envelope_ok is False
        assert summary.linf_bounded is False
        assert summary.plateau_linf_u is False


def test_one_termination_for_steps_runs_and_summaries():
    import pickle

    import kschemo
    from kschemo import observables, stepper

    assert kschemo.Termination is stepper.Termination is observables.Termination
    assert not hasattr(kschemo, "StepStatus") and "StepStatus" not in kschemo.__all__
    for member in Termination:
        assert pickle.loads(pickle.dumps(member)) is member
        assert Termination(str(member)) is member


def test_public_surface_is_the_run_api():
    import kschemo

    assert kschemo.__all__ == [
        "Grid", "State", "ModelParams", "Regime", "classify_regime", "mass_envelope",
        "integrate", "lp_norm_pow", "write_snapshot", "read_snapshot", "field_to_csv",
        "StepperConfig", "Termination", "Recorder",
        "RunResult", "run", "run_batch", "ObservableSeries", "RunRecord",
        "record", "summarize", "__version__",
    ]
    for name in kschemo.__all__:
        assert getattr(kschemo, name) is not None
    # run and run_batch are the one way to step; the per-step wrappers are gone
    removed = (
        "step", "StepOutcome", "helmholtz_solve", "LinearSolverError", "linf_norm",
        "laplacian", "chemo_divergence", "nonlocal_source", "ode_comparison_oracle",
        "OdeComparisonResult", "adapt_dt", "SeriesSummary",
    )
    for name in removed:
        assert not hasattr(kschemo, name)
