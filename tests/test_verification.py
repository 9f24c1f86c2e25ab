import dataclasses
import functools
import math
import os
import pickle
import re

import numpy as np
import pytest

from kschemo import Grid, ModelParams, Recorder, StepperConfig, Termination, run, stepper
from kschemo import verification
from kschemo.config import parse_config, refine_config, run_from_config
from kschemo.params import FieldError
from kschemo.verification import (
    Forcing,
    build_mms_case,
    convergence_study,
    equilibrium_case,
    level_dts,
)


class RandomPoints(Grid):
    """A grid whose "cell centers" are seeded uniform random points of the box."""

    def cell_centers(self):
        rng = np.random.default_rng(7)
        return tuple(rng.uniform(0.0, L, self.shape) for L in self.extent)


def one_time(forcing):
    """The two fields of ``forcing`` as (t, grid) fields: the one-row call at t."""
    return (lambda t, grid: forcing.u([t], grid)[0]), (lambda t, grid: forcing.v([t], grid)[0])


def symbolic_case(params, extent, closed_form):
    """Exact fields and forcings of ``closed_form`` derived with sympy.

    ``closed_form(sp, space, t)`` returns the (u*, v*) expressions.  Each
    returned function maps (coords, t) to (values, scale): scale is the
    largest magnitude among the terms summed, so a forcing that cancels to
    zero is compared against the size of what cancels.  The nonlocal
    integral of u*^beta is taken by adaptive quadrature, independently of
    the harness's Gauss-Legendre rule.
    """
    import sympy as sp
    from scipy.integrate import nquad

    p = params
    space = sp.symbols(f"x0:{len(extent)}")
    t = sp.Symbol("t")
    u, v = closed_form(sp, space, t)
    args = (*space, t)

    def lap(f):
        return sum(sp.diff(f, s, 2) for s in space)

    chemo = sum(sp.diff(u * sp.diff(v, s), s) for s in space)
    f_u_local = sp.diff(u, t) - lap(u) + p.chi * chemo - p.a * u**p.alpha
    f_v = sp.diff(v, t) - lap(v) + v - u
    fns = [sp.lambdify(args, e, "numpy") for e in (u, v, f_u_local, f_v, u**p.alpha)]
    u_fn, v_fn, local_fn, f_v_fn, u_alpha_fn = fns
    u_beta_fn = sp.lambdify(args, u**p.beta, "math")

    def on(fn, coords, t_val):
        return np.broadcast_to(np.asarray(fn(*coords, t_val), dtype=float), coords[0].shape)

    def plain(fn):
        def evaluate(coords, t_val):
            values = on(fn, coords, t_val)
            return values, float(np.max(np.abs(values)))
        return evaluate

    def forcing_u(coords, t_val):
        integral, _ = nquad(
            u_beta_fn, [(0.0, L) for L in extent], args=(t_val,),
            opts={"epsabs": 0.0, "epsrel": 1e-13},
        )
        local = on(local_fn, coords, t_val)
        nonlocal_ = p.b * on(u_alpha_fn, coords, t_val) * integral
        scale = max(np.max(np.abs(local)), np.max(np.abs(nonlocal_)))
        return local + nonlocal_, float(scale)

    return plain(u_fn), plain(v_fn), forcing_u, plain(f_v_fn)


def trig_decay(extent):
    def closed_form(sp, space, t):
        shape = sp.Mul(*(sp.cos(sp.pi * x / L) for x, L in zip(space, extent)))
        return 2 + shape * sp.exp(-t), 2 + shape * sp.exp(-t) / 2

    return closed_form


def constant(c):
    def closed_form(sp, space, t):
        return sp.Float(c, 30), sp.Float(c, 30)

    return closed_form


@pytest.fixture(scope="module")
def params():
    return ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)


class TestManufacturedCase:
    def test_exact_fields_and_neumann_compatibility(self, params):
        grid = Grid(extent=(1.0,), cells=(64,))
        case = build_mms_case(params, grid)
        u0 = case.u_exact(0.0, grid)
        assert u0.min() >= 1.0  # positive floor keeps fractional powers smooth
        # cosine shape: zero normal derivative realized by symmetric edge samples
        x = grid.cell_centers()[0]
        expected = 2.0 + np.cos(np.pi * x)
        np.testing.assert_allclose(u0, expected, rtol=1e-13)

    def test_tends_to_constants(self, params):
        grid = Grid(extent=(1.0,), cells=(32,))
        case = build_mms_case(params, grid)
        late_u = case.u_exact(40.0, grid)
        np.testing.assert_allclose(late_u, 2.0, atol=1e-15)

    def test_grid_of_other_dimension_rejected(self, params):
        case = build_mms_case(params, Grid(extent=(1.0,), cells=(16,)))
        with pytest.raises(ValueError, match="2D grid for a 1D case"):
            case.forcing.u([0.0], Grid(extent=(1.0, 1.0), cells=(8, 8)))

    def test_2d_case_builds(self, params):
        grid = Grid(extent=(1.0, 1.0), cells=(16, 16))
        case = build_mms_case(params, grid)
        assert case.u_exact(0.0, grid).shape == grid.shape


class TestCasesPickle:
    @pytest.mark.parametrize("extent, cells", [((1.7,), (16,)), ((1.3, 0.8), (12, 8))])
    @pytest.mark.parametrize("build", [build_mms_case, equilibrium_case])
    def test_round_trip_fields_bitwise_equal(self, params, build, extent, cells):
        grid = Grid(extent=extent, cells=cells)
        case = build(params, grid)
        copy = pickle.loads(pickle.dumps(case))
        assert (copy.params, copy.description) == (case.params, case.description)
        originals = (case.u_exact, case.v_exact, *one_time(case.forcing))
        copies = (copy.u_exact, copy.v_exact, *one_time(copy.forcing))
        for t in (0.0, 0.37, 2.5):
            for original, copied in zip(originals, copies):
                assert copied(t, grid).tobytes() == original(t, grid).tobytes()


class TestHandForcingsMatchSymbolic:
    @pytest.mark.parametrize("extent", [(1.7,), (1.3, 0.8)])
    @pytest.mark.parametrize("which", ["trig-decay", "equilibrium"])
    def test_fields_and_forcings_at_random_points(self, which, extent):
        params = ModelParams(chi=0.7, a=1.3, b=0.6, alpha=1.5, beta=2.5)
        points = RandomPoints(extent=extent, cells=(40,) if len(extent) == 1 else (9, 7))
        if which == "trig-decay":
            case = build_mms_case(params, Grid(extent=extent, cells=(4,) * len(extent)))
            closed_form = trig_decay(extent)
        else:
            case = equilibrium_case(params, Grid(extent=extent, cells=(4,) * len(extent)))
            c = (params.a / (params.b * np.prod(extent))) ** (1.0 / params.beta)
            closed_form = constant(c)
        assert case.description == which
        references = symbolic_case(params, extent, closed_form)
        hands = (case.u_exact, case.v_exact, *one_time(case.forcing))
        coords = points.cell_centers()
        for t in np.random.default_rng(11).uniform(0.0, 3.0, 3):
            for hand, reference in zip(hands, references):
                expected, scale = reference(coords, t)
                got = hand(t, points)
                assert got.shape == points.shape
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


class TestConvergenceStudy:
    def test_orders_populated_and_csv(self, params, tmp_path):
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32, 64)]
        dts = [2e-4 * (16 / n) ** 2 for n in (16, 32, 64)]
        case = build_mms_case(params, grids[0])
        table = convergence_study(case, grids, dts, t_end=0.02, face_scheme="central")
        assert table.rows[0].order_u is None
        assert all(r.order_u > 1.5 for r in table.rows[1:])
        path = tmp_path / "conv.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,h,dt,error_u,error_v,order_u,order_v"
        assert len(lines) == 4

    def test_unsampled_dt_change_raises(self, params, monkeypatch):
        # two consecutive halved steps realign with the sample times, so
        # the last step's dt, the only one sampled, is the requested one
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32)]
        dts = [2e-4 * (16 / n) ** 2 for n in (16, 32)]
        propose, calls = stepper.adapt_dt, []

        def halve_two_steps(*args):
            calls.append(None)
            proposed = propose(*args)
            return [d / 2 for d in proposed] if len(calls) in (40, 41) else proposed

        monkeypatch.setattr(stepper, "adapt_dt", halve_two_steps)
        case = build_mms_case(params, grids[0])
        with pytest.raises(RuntimeError, match=r"level 0: .* \(101 steps for 100 .* 0 retries"):
            convergence_study(case, grids, dts, t_end=0.02, face_scheme="central")

    def test_two_failing_levels_report_the_lower(self, params, monkeypatch):
        # levels 1 and 2 take dt far above the transport bound; the pool gets
        # level 0, the costliest, then level 2, yet level 1 is the one reported.
        # The study is below the pool's cost threshold, so the threshold goes
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32, 64)]
        dts = [2e-4, 0.01, 0.01]
        case = build_mms_case(ModelParams(chi=50.0, a=1.0, b=1.0, alpha=2.0, beta=2.0), grids[0])
        monkeypatch.setattr(stepper, "_POOL_COST", 0)
        messages = []
        for cpus in (2, 1):
            monkeypatch.setattr(stepper, "_usable_cpus", lambda: cpus)
            with pytest.raises(RuntimeError, match=r"^level 1: adaptive dt engaged") as info:
                convergence_study(case, grids, dts, t_end=0.02, face_scheme="central")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        # the 64-cell level fails on its own too, so two levels failed above
        with pytest.raises(RuntimeError, match=r"^level 0: .* of dt = 0.01,"):
            convergence_study(case, grids[:0:-1], dts[:0:-1], t_end=0.02, face_scheme="central")

    def test_repeated_level_rejected_before_running(self, params, monkeypatch):
        # every dt snaps to t_end: levels 1 and 2 would repeat level 0 and read 0/0
        grid = Grid(extent=(1.0,), cells=(8,))
        dts = [0.004 / 2**i for i in range(3)]

        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(verification, "run", no_run)
        with pytest.raises(ValueError, match=r"^level 1 repeats level 0's h = 0.125, dt = 0.001"):
            convergence_study(build_mms_case(params, grid), [grid] * 3, dts, t_end=0.001)
        assert level_dts([grid] * 3, [0.004, 0.0005, 0.00025], 0.001) == [0.001, 0.0005, 0.00025]

    @pytest.mark.parametrize("t_end, dts, name", [
        (math.inf, [1e-3, 5e-4], "t_end"),
        (math.nan, [1e-3, 5e-4], "t_end"),
        (0.0, [1e-3, 5e-4], "t_end"),
        (0.02, [1e-3, 0.0], "dts[1]"),
        (0.02, [-1e-3, 5e-4], "dts[0]"),
        (0.02, [1e-3, math.nan], "dts[1]"),
        (0.02, [math.inf, 5e-4], "dts[0]"),
    ])
    def test_non_finite_or_non_positive_input_named(self, params, monkeypatch, t_end, dts, name):
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (8, 16)]

        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(verification, "run", no_run)
        message = rf"^{re.escape(name)} finite > 0 required, got "
        with pytest.raises(ValueError, match=message):
            level_dts(grids, dts, t_end)
        with pytest.raises(ValueError, match=message):
            convergence_study(build_mms_case(params, grids[0]), grids, dts, t_end)

    @pytest.mark.parametrize("levels, t_end, dts, field, message", [
        (1, 0.02, [1e-3], "levels", "levels >= 2 required, got 1"),
        (0, 0.02, [], "levels", "levels >= 2 required, got 0"),
        # finite and positive, but t_end / dt overflows: no step count
        (2, 1e10, [1e-308, 5e-309], "dts",
         "dts[0] with a finite step count t_end / dt required, got 1e-308"),
        (2, 1.0, [1e-3, 5e-324], "dts",
         "dts[1] with a finite step count t_end / dt required, got 5e-324"),
        (65, 0.02, [1e-3 / 2**k for k in range(65)], "levels", "levels <= 64 required, got 65"),
    ])
    def test_study_rules_named_by_field(self, params, monkeypatch, levels, t_end, dts, field,
                                        message):
        grids = [Grid(extent=(1.0,), cells=(8 * 2**k,)) for k in range(levels)]

        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(verification, "run", no_run)
        case = build_mms_case(params, Grid(extent=(1.0,), cells=(8,)))
        for study in (level_dts, functools.partial(convergence_study, case)):
            with pytest.raises(FieldError, match=f"^{re.escape(message)}$") as info:
                study(grids, dts, t_end)
            assert info.value.field == field

    def test_zero_forcing_equilibrium_machine_precision(self, params):
        grid = Grid(extent=(1.0,), cells=(32,))
        case = equilibrium_case(params, grid)
        cfg = StepperConfig(dt_max=1e-3, cfl_safety=1.0)
        result = run(
            case.initial_state(grid), params, grid, cfg, 0.5,
            Recorder(k_list=(2.0,), sample_interval=0.5), forcing=case.forcing,
        )
        assert result.termination is Termination.REACHED_T_END
        err = np.max(np.abs(result.state.u - case.u_exact(result.state.t, grid)))
        assert err <= 1e-12

    def test_mismatched_lengths_rejected(self, params):
        grids = [Grid(extent=(1.0,), cells=(16,))]
        with pytest.raises(ValueError):
            convergence_study(build_mms_case(params, grids[0]), grids, [1e-3, 1e-3], 0.1)


class PidStamped:
    """A forcing field that appends the id of each process evaluating it to ``path``."""

    def __init__(self, field, path):
        self.field, self.path = field, path

    def __call__(self, t, grid):
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return self.field(t, grid)


class TestLevelsSideBySide:
    """The pooled study (two usable CPUs) against the in-process one (one).
    These studies are small, so the pool's cost threshold is lifted."""

    def study(self, monkeypatch, cpus, case, grids, dts, t_end):
        monkeypatch.setattr(stepper, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(stepper, "_POOL_COST", 0)
        return convergence_study(case, grids, dts, t_end, face_scheme="central").rows

    def test_study_below_the_cost_threshold_stays_in_process(self, params, monkeypatch,
                                                             inline_pools):
        # 100 steps of 16 cells and 400 of 32: a cost of 14400 (steps x cells)
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32)]
        dts = [2e-4 * (16 / n) ** 2 for n in (16, 32)]
        case = build_mms_case(params, grids[0])
        pools = inline_pools()
        monkeypatch.setattr(stepper, "_usable_cpus", lambda: 2)
        assert stepper._POOL_COST > 14400
        rows = convergence_study(case, grids, dts, 0.02, face_scheme="central").rows
        assert pools == []
        monkeypatch.setattr(stepper, "_POOL_COST", 14400)
        assert convergence_study(case, grids, dts, 0.02, face_scheme="central").rows == rows
        (pool,) = pools
        assert pool.max_workers == 2 and pool.shut_down

    @pytest.mark.parametrize(
        "cells, dts, t_end",
        [
            ([(16,), (32,), (64,)], [2e-4 * (16 / n) ** 2 for n in (16, 32, 64)], 0.02),
            ([(32,)] * 3, [2e-3, 1e-3, 5e-4], 0.1),
            ([(8, 8), (16, 16)], [1e-3, 2.5e-4], 0.01),
        ],
        ids=["1d-spatial", "1d-temporal", "2d-spatial"],
    )
    def test_pooled_rows_equal_in_process(self, params, monkeypatch, cells, dts, t_end):
        grids = [Grid(extent=(1.0,) * len(c), cells=c) for c in cells]
        case = build_mms_case(params, grids[0])
        pooled = self.study(monkeypatch, 2, case, grids, dts, t_end)
        serial = self.study(monkeypatch, 1, case, grids, dts, t_end)
        assert pooled == serial
        assert all(row.order_u is not None for row in pooled[1:])

    def test_levels_run_in_worker_processes(self, params, monkeypatch, tmp_path):
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32)]
        dts = [2e-4 * (16 / n) ** 2 for n in (16, 32)]
        case = build_mms_case(params, grids[0])
        path = tmp_path / "pids.txt"
        stamped = dataclasses.replace(
            case, forcing=Forcing(u_fn=PidStamped(case.forcing.u_fn, path), v_fn=case.forcing.v_fn)
        )
        pooled = self.study(monkeypatch, 2, stamped, grids, dts, 0.02)
        pids = set(path.read_text().split())
        assert pids and str(os.getpid()) not in pids
        # the stamp changes no bits
        assert pooled == self.study(monkeypatch, 1, case, grids, dts, 0.02)

    def test_failed_level_leaves_later_levels_unrun(self, monkeypatch, inline_pools):
        # chi = 50 at dt = 0.01 engages the adaptive dt on both levels; the
        # 64-cell level 0 costs most, so the pool gets it first
        grids = [Grid(extent=(1.0,), cells=(n,)) for n in (64, 32)]
        case = build_mms_case(ModelParams(chi=50.0, a=1.0, b=1.0, alpha=2.0, beta=2.0), grids[0])
        run_level, ran = verification._run_level, []

        def recorded(case, grid, *rest):
            ran.append(grid.cells)
            return run_level(case, grid, *rest)

        monkeypatch.setattr(verification, "_run_level", recorded)
        pools = inline_pools()
        for cpus in (8, 1):
            ran.clear()
            with pytest.raises(RuntimeError, match=r"^level 0: adaptive dt engaged"):
                self.study(monkeypatch, cpus, case, grids, [0.01, 0.01], 0.02)
            assert ran == [(64,)]
        (pool,) = pools  # one usable CPU runs the levels in this process
        assert pool.max_workers == 2 and pool.shut_down
        assert [f.args[1].cells for f in pool.futures] == [(64,), (32,)]
        assert [f.state for f in pool.futures] == ["finished", "cancelled"]


class Counted:
    """A forcing field that counts its evaluations and the rows they make."""

    def __init__(self, rows):
        self.rows, self.calls, self.made = rows, 0, 0

    def __call__(self, ts, grid):
        self.calls += 1
        self.made += len(ts)
        return self.rows(ts, grid)


def counted(case):
    """``case`` with both forcing fields Counted."""
    forcing = Forcing(u_fn=Counted(case.forcing.u_fn), v_fn=Counted(case.forcing.v_fn))
    return dataclasses.replace(case, forcing=forcing)


def same_run(a, b):
    """Whether two RunResults hold the same bits."""
    return (
        a.state.u.tobytes() == b.state.u.tobytes()
        and a.state.v.tobytes() == b.state.v.tobytes()
        and (a.state.t, a.state.dt_last) == (b.state.t, b.state.dt_last)
        and np.array(a.series.rows).tobytes() == np.array(b.series.rows).tobytes()
        and (a.termination, a.diagnostics, a.cause) == (b.termination, b.diagnostics, b.cause)
    )


class TestForcingBlocks:
    """A forcing answers a column of times in one call, and a study level
    answers its step times from blocks evaluated ahead, with the bits of one
    call per time."""

    GRIDS = [Grid(extent=(1.7,), cells=(40,)), Grid(extent=(1.3, 0.8), cells=(12, 8))]

    @staticmethod
    def step_times():
        ts = [0.0]
        for _ in range(299):
            ts.append(ts[-1] + 1.5e-5)
        return ts

    @pytest.mark.parametrize("build", [build_mms_case, equilibrium_case])
    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
    def test_column_rows_equal_one_time_rows(self, build, grid):
        params = ModelParams(chi=0.7, a=1.3, b=0.6, alpha=1.5, beta=2.5)
        case = build(params, grid)
        ts = self.step_times() + [0.7, 3.0, 50.0]
        for rows in (case.forcing.u, case.forcing.v):
            column = rows(ts, grid)
            assert column.shape == (len(ts), *grid.shape)
            for t, row in zip(ts, column):
                assert row.tobytes() == rows([t], grid)[0].tobytes()
            # the march's view of a level: one time per call, served from blocks
            block = verification._StepTimes(rows, 1.5e-5, math.inf)
            for t in ts:
                assert block([t], grid).tobytes() == rows([t], grid).tobytes()

    @pytest.mark.parametrize(
        "cells, dts, t_end",
        [([(16,), (32,)], [2e-4, 5e-5], 0.02), ([(8, 8), (16, 16)], [1e-3, 2.5e-4], 0.01)],
        ids=["1d", "2d"],
    )
    def test_level_from_blocks_equals_time_by_time(self, params, monkeypatch, cells, dts, t_end):
        grids = [Grid(extent=(1.0,) * len(c), cells=c) for c in cells]
        case = counted(build_mms_case(params, grids[0]))
        blocks = convergence_study(case, grids, dts, t_end, face_scheme="central").rows
        results = [verification._run_level(case, g, dt, t_end, "central")
                   for g, dt in zip(grids, level_dts(grids, dts, t_end))]
        assert case.forcing.u_fn.calls < sum(r.diagnostics.steps for r in results)
        # a "block" that is the one field evaluated at each time the march asks for
        monkeypatch.setattr(verification, "_StepTimes", lambda rows, dt, t_end: rows)
        direct = convergence_study(case, grids, dts, t_end, face_scheme="central").rows
        assert blocks == direct
        for g, dt, result in zip(grids, level_dts(grids, dts, t_end), results):
            case.forcing.u_fn.calls = 0
            assert same_run(result, verification._run_level(case, g, dt, t_end, "central"))
            assert case.forcing.u_fn.calls == result.diagnostics.steps

    def test_untabulated_times_get_direct_bits(self, params, one_step):
        grid = Grid(extent=(1.0,), cells=(32,))
        case = build_mms_case(params, grid)
        dt, cfg = 1e-4, StepperConfig(dt_max=1e-4, cfl_safety=1.0)
        fields = Counted(case.forcing.u_fn), Counted(case.forcing.v_fn)
        blocks = Forcing(*(verification._StepTimes(f, dt, 1.0) for f in fields))
        # steps of dt, dt (at the time the first tabulated), dt / 2, dt capped to
        # dt / 3 and dt: the steps after the halved and the capped one ask for
        # times no block holds, and start one
        state = direct = case.initial_state(grid)
        for proposal, cap in ((dt, None), (dt, None), (dt / 2, None), (None, dt / 3), (dt, None)):
            state, outcome = one_step(state, params, grid, cfg, blocks, cap, proposal)
            direct, expected = one_step(direct, params, grid, cfg, case.forcing, cap, proposal)
            assert outcome == expected
            assert (state.u.tobytes(), state.v.tobytes(), state.t) == (
                direct.u.tobytes(), direct.v.tobytes(), direct.t
            )
        assert [f.calls for f in fields] == [3, 3]
        # a run whose t_end caps its last step: each step time is tabulated once
        rec = Recorder(k_list=(2.0,), sample_interval=1e-3)
        for f in fields:
            f.calls = f.made = 0
        t_end = 10.5 * dt
        blocks = Forcing(*(verification._StepTimes(f, dt, t_end) for f in fields))
        result = run(case.initial_state(grid), params, grid, cfg, t_end, rec, forcing=blocks)
        assert result.diagnostics.steps == 11 and result.state.dt_last < dt
        assert [(f.calls, f.made) for f in fields] == [(1, 11), (1, 11)]
        assert same_run(result, run(case.initial_state(grid), params, grid, cfg, t_end, rec,
                                    forcing=case.forcing))

    def test_level_makes_one_evaluation_per_block(self, params):
        # 1311 steps at 128 cells, in blocks of K rows
        grid = Grid(extent=(1.0,), cells=(128,))
        dt = level_dts([grid] * 2, [(1.0 / 128) ** 2 / k for k in (4.0, 8.0)], 0.02)[0]
        case = counted(build_mms_case(params, grid))
        result = verification._run_level(case, grid, dt, 0.02, "central")
        steps, block = result.diagnostics.steps, verification._BLOCK_BYTES // (8 * 128)
        assert (steps, result.diagnostics.total_retries, block) == (1311, 0, 128)
        # the blocks hold the accumulated times below t_end: the step times, and
        # the time the last step ends at, which rounding leaves short of t_end
        t, below = 0.0, 0
        while t < 0.02:
            t, below = t + dt, below + 1
        assert below == steps + 1
        for field in (case.forcing.u_fn, case.forcing.v_fn):
            assert field.calls == math.ceil(steps / block)
            assert field.made == below


# the mass-envelope acceptance configuration at half resolution (128 of 256)
HALF_RES_ACCEPTANCE = """
model.chi = 5.0
model.a = 1.0
model.b = 1.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 128
ic.u = bump
ic.u_mass = 4.0
ic.u_width = 0.05
run.t_end = 50.0
run.sample_interval = 0.1
"""


def compare_series(production, reference, columns, t_min=None):
    """Max relative deviation per column, reference-interpolated in time.

    Deviations are relative to max(|reference|, 1e-12).  ``t_min`` restricts
    the comparison window; stiff initial transients are shape-sensitive
    across resolutions and are usually excluded when judging refinement
    agreement of the settled dynamics.
    """
    t_p = production.t
    t_r = reference.t
    lo, hi = max(t_p[0], t_r[0]), min(t_p[-1], t_r[-1])
    if t_min is not None:
        lo = max(lo, t_min)
    mask = (t_p >= lo) & (t_p <= hi)
    if not mask.any():
        raise ValueError("series do not overlap in time")
    out = {}
    for name in columns:
        prod = production.column(name)[mask]
        ref = np.interp(t_p[mask], t_r, reference.column(name))
        scale = np.maximum(np.abs(ref), 1e-12)
        out[name] = float(np.max(np.abs(prod - ref) / scale))
    return out


class TestFineGridOracle:
    def test_equilibrium_config_identical_series(self):
        text = """
model.chi = 2.0
model.alpha = 2.0
model.beta = 2.0
grid.cells_x = 32
ic.u = constant
ic.u_value = 1.0
ic.v = equal_u
run.t_end = 0.5
run.sample_interval = 0.1
stepper.dt_max = 1e-3
"""
        cfg = parse_config(text=text)
        production = run_from_config(cfg, output_dir=None)
        reference = run_from_config(refine_config(cfg, 2), output_dir=None)
        devs = compare_series(production.series, reference.series, ["mass", "linf_u"])
        assert devs["mass"] <= 1e-9
        assert devs["linf_u"] <= 1e-9

    def test_acceptance_config_mass_self_refinement(self):
        # the first ~0.1 time units are a stiff collapse whose depth is
        # shape-sensitive across resolutions; past it the mass column of the
        # half-resolution run tracks the full-resolution one within 0.5%
        cfg = parse_config(text=HALF_RES_ACCEPTANCE)
        production = run_from_config(cfg, output_dir=None)
        reference = run_from_config(refine_config(cfg, 2), output_dir=None)
        devs = compare_series(
            production.series, reference.series, ["mass"], t_min=2.0
        )
        assert devs["mass"] <= 0.005


class TestCompareSeries:
    def test_interpolates_to_common_times(self):
        from kschemo import ObservableSeries

        a = ObservableSeries.for_run(())
        b = ObservableSeries.for_run(())
        w = len(a.columns)
        for t in (0.0, 0.5, 1.0):
            a.append((t, 1.0) + (0.0,) * (w - 2))
        for t in (0.0, 0.25, 0.75, 1.0):
            b.append((t, 1.0) + (0.0,) * (w - 2))
        assert compare_series(a, b, ["mass"])["mass"] == 0.0

    def test_disjoint_series_rejected(self):
        from kschemo import ObservableSeries

        a = ObservableSeries.for_run(())
        b = ObservableSeries.for_run(())
        w = len(a.columns)
        a.append((0.0, 1.0) + (0.0,) * (w - 2))
        a.append((1.0, 1.0) + (0.0,) * (w - 2))
        b.append((2.0, 1.0) + (0.0,) * (w - 2))
        b.append((3.0, 1.0) + (0.0,) * (w - 2))
        with pytest.raises(ValueError):
            compare_series(a, b, ["mass"])
