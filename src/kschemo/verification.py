"""Manufactured-solution harness and independent reference oracles.

A manufactured case starts from closed-form targets (u*, v*) and appends
forcing fields to both equations so the pair solves the forced system
exactly.  The forcings are derived symbolically from the closed forms and
the nonlocal integral of u*^beta is evaluated by composite Gauss-Legendre
quadrature (8 panels x 8 nodes per axis), so nothing in the forcing depends
on the discretization under test: halving h must shrink the error at the
scheme's order, which is the whole point of the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import sympy as sp

from .grid import Grid, State, lp_norm_pow
from .observables import ObservableSeries
from .params import ModelParams
from .stepper import Recorder, RunResult, StepperConfig, Termination, run

GL_PANELS = 8
GL_ORDER = 8


def _axis_quadrature(extent: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    width = extent / GL_PANELS
    xs, ws = [], []
    for p in range(GL_PANELS):
        xs.append((nodes + 1.0) * (width / 2.0) + p * width)
        ws.append(weights * (width / 2.0))
    return np.concatenate(xs), np.concatenate(ws)


class _ExactField:
    """Lambdified closed form evaluated on cell centers of any grid."""

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, t: float, grid: Grid) -> np.ndarray:
        coords = grid.cell_centers()
        out = np.asarray(self._fn(*coords, t), dtype=float)
        if out.shape != grid.shape:  # constant expressions collapse to scalars
            out = np.full(grid.shape, float(out))
        return out


@dataclass
class Forcing:
    """Forcing fields appended to the two equations, evaluated per step."""

    u_fn: Callable[[float, Grid], np.ndarray]
    v_fn: Callable[[float, Grid], np.ndarray]

    def u(self, t: float, grid: Grid) -> np.ndarray:
        return self.u_fn(t, grid)

    def v(self, t: float, grid: Grid) -> np.ndarray:
        return self.v_fn(t, grid)


@dataclass
class ManufacturedCase:
    params: ModelParams
    extent: tuple[float, ...]
    u_exact: _ExactField
    v_exact: _ExactField
    forcing: Forcing
    description: str = ""

    def initial_state(self, grid: Grid) -> State:
        return State(u=self.u_exact(0.0, grid), v=self.v_exact(0.0, grid))


def case_from_closed_forms(
    params: ModelParams,
    extent: Sequence[float],
    u_expr: sp.Expr,
    v_expr: sp.Expr,
    symbols: Sequence[sp.Symbol],
    description: str = "",
) -> ManufacturedCase:
    """Derive forcings so (u_expr, v_expr) solves the forced system exactly.

    ``symbols`` lists the space symbols then the time symbol, matching the
    grid dimension.  u_expr must stay positive so fractional powers remain
    smooth; the caller owns Neumann compatibility of the closed forms.
    """
    extent = tuple(float(L) for L in extent)
    *space, t_sym = symbols
    if len(space) != len(extent):
        raise ValueError("symbol count does not match extent dimension")
    dim = len(space)

    lap_u = sum(sp.diff(u_expr, s, 2) for s in space)
    lap_v = sum(sp.diff(v_expr, s, 2) for s in space)
    chemo = sum(sp.diff(u_expr * sp.diff(v_expr, s), s) for s in space)

    # everything except the nonlocal piece, which needs the quadrature below
    f_u_local = (
        sp.diff(u_expr, t_sym)
        - lap_u
        + params.chi * chemo
        - params.a * u_expr**params.alpha
    )
    f_v_expr = params.tau * sp.diff(v_expr, t_sym) - lap_v + v_expr - u_expr

    args = (*space, t_sym)
    f_u_fn = sp.lambdify(args, f_u_local, modules="numpy")
    f_v_fn = sp.lambdify(args, f_v_expr, modules="numpy")
    u_alpha_fn = sp.lambdify(args, u_expr**params.alpha, modules="numpy")
    u_beta_fn = sp.lambdify(args, u_expr**params.beta, modules="numpy")
    u_fn = sp.lambdify(args, u_expr, modules="numpy")
    v_fn = sp.lambdify(args, v_expr, modules="numpy")

    axes = [_axis_quadrature(L) for L in extent]
    if dim == 1:
        q_nodes = (axes[0][0],)
        q_weights = axes[0][1]
    else:
        X, Y = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
        q_nodes = (X, Y)
        q_weights = np.outer(axes[0][1], axes[1][1])

    def nonlocal_integral(t: float) -> float:
        return float(np.sum(q_weights * u_beta_fn(*q_nodes, t)))

    def forcing_u(t: float, grid: Grid) -> np.ndarray:
        coords = grid.cell_centers()
        local = np.asarray(f_u_fn(*coords, t), dtype=float)
        u_alpha = np.asarray(u_alpha_fn(*coords, t), dtype=float)
        out = local + params.b * u_alpha * nonlocal_integral(t)
        if out.shape != grid.shape:
            out = np.full(grid.shape, float(out))
        return out

    def forcing_v(t: float, grid: Grid) -> np.ndarray:
        out = np.asarray(f_v_fn(*grid.cell_centers(), t), dtype=float)
        if out.shape != grid.shape:
            out = np.full(grid.shape, float(out))
        return out

    return ManufacturedCase(
        params=params,
        extent=extent,
        u_exact=_ExactField(u_fn),
        v_exact=_ExactField(v_fn),
        forcing=Forcing(u_fn=forcing_u, v_fn=forcing_v),
        description=description,
    )


def build_mms_case(params: ModelParams, grid: Grid) -> ManufacturedCase:
    """Default smooth case: decaying cosine bumps over a constant floor.

    u* = 2 + cos(pi x / Lx) e^{-t},  v* = 2 + 0.5 cos(pi x / Lx) e^{-t},
    tensorized with cos(pi y / Ly) in 2D.  Both satisfy zero normal
    derivative at the box faces and keep u* >= 1.
    """
    t = sp.Symbol("t")
    if grid.dim == 1:
        x = sp.Symbol("x")
        shape = sp.cos(sp.pi * x / grid.extent[0])
        symbols = (x, t)
    else:
        x, y = sp.symbols("x y")
        shape = sp.cos(sp.pi * x / grid.extent[0]) * sp.cos(sp.pi * y / grid.extent[1])
        symbols = (x, y, t)
    u_expr = 2 + shape * sp.exp(-t)
    v_expr = 2 + shape * sp.exp(-t) / 2
    return case_from_closed_forms(
        params, grid.extent, u_expr, v_expr, symbols, description="trig-decay"
    )


def equilibrium_case(params: ModelParams, grid: Grid) -> ManufacturedCase:
    """Spatially homogeneous steady state; forcings vanish analytically."""
    c = (params.a / (params.b * grid.measure)) ** (1.0 / params.beta)
    t = sp.Symbol("t")
    if grid.dim == 1:
        symbols = (sp.Symbol("x"), t)
    else:
        symbols = (*sp.symbols("x y"), t)
    c_expr = sp.Float(c, 30)
    return case_from_closed_forms(
        params, grid.extent, c_expr, c_expr, symbols, description="equilibrium"
    )


@dataclass
class ConvergenceRow:
    level: int
    h: float
    dt: float
    error_u: float
    error_v: float
    order_u: Optional[float] = None
    order_v: Optional[float] = None


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("level,h,dt,error_u,error_v,order_u,order_v\n")
            for r in self.rows:
                ou = "" if r.order_u is None else f"{r.order_u:.17g}"
                ov = "" if r.order_v is None else f"{r.order_v:.17g}"
                fh.write(
                    f"{r.level},{r.h:.17g},{r.dt:.17g},"
                    f"{r.error_u:.17g},{r.error_v:.17g},{ou},{ov}\n"
                )


def _l2_error(numeric: np.ndarray, exact: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(lp_norm_pow(numeric - exact, grid, 2)))


def convergence_study(
    case: ManufacturedCase,
    grids: Sequence[Grid],
    dts: Sequence[float],
    t_end: float,
    face_scheme: str = "central",
) -> ConvergenceTable:
    """Forced runs over refinement levels; L2 errors at t_end and observed orders.

    Each level runs at the fixed dt supplied for it (the study insists the
    adaptive bound never engages, so the step sequence is exactly the one
    requested).  Orders are computed against the previous level from the
    spacing ratio for the spatial direction, or the dt ratio when the grids
    repeat (temporal study).
    """
    if len(grids) != len(dts):
        raise ValueError("need one dt per grid")
    if len(grids) < 2:
        raise ValueError("need at least two refinement levels")

    rows: list[ConvergenceRow] = []
    for level, (grid, dt_req) in enumerate(zip(grids, dts)):
        # snap dt to an exact divisor of the horizon so no step gets capped
        dt = t_end / max(1, round(t_end / dt_req))
        cfg = StepperConfig(
            dt_min=dt * 1e-8,
            dt_max=dt,
            cfl_safety=1.0,
            face_scheme=face_scheme,
        )
        recorder = Recorder(k_list=(2.0,), sample_interval=t_end)
        result = run(
            case.initial_state(grid), case.params, grid, cfg, t_end, recorder,
            forcing=case.forcing,
        )
        if result.termination is not Termination.REACHED_T_END:
            raise RuntimeError(f"level {level} run ended with {result.termination}")
        dts_used = result.series.column("dt")[1:]
        if dts_used.size and not np.allclose(dts_used, dt, rtol=1e-9):
            raise RuntimeError(
                f"level {level}: adaptive dt engaged ({dts_used.min():g} < {dt:g}); "
                "weaken chi or reduce dt for a clean study"
            )
        err_u = _l2_error(result.state.u, case.u_exact(result.state.t, grid), grid)
        err_v = _l2_error(result.state.v, case.v_exact(result.state.t, grid), grid)
        row = ConvergenceRow(level=level, h=max(grid.h), dt=dt,
                             error_u=err_u, error_v=err_v)
        if rows:
            prev = rows[-1]
            if prev.h != row.h:
                ratio = np.log(prev.h / row.h)
            else:
                ratio = np.log(prev.dt / row.dt)
            row.order_u = float(np.log(prev.error_u / row.error_u) / ratio)
            row.order_v = float(np.log(prev.error_v / row.error_v) / ratio)
        rows.append(row)
    return ConvergenceTable(rows)


def semidiscrete_residual(case: ManufacturedCase, grid: Grid, t: float = 0.0) -> float:
    """Sup norm of d/dt u* - RHS_h(u*, v*) - f_u on exact samples.

    Refining the grid must shrink this at the stencil's order; it is the
    spot check that the symbolic forcings match the discrete operators.
    """
    from .operators import chemo_divergence, laplacian, nonlocal_source

    p = case.params
    u = case.u_exact(t, grid)
    v = case.v_exact(t, grid)
    eps = 1e-6
    dudt = (case.u_exact(t + eps, grid) - case.u_exact(t - eps, grid)) / (2 * eps)
    source, _ = nonlocal_source(u, grid, p)
    rhs = laplacian(u, grid) + source + case.forcing.u(t, grid)
    if p.chi != 0.0:
        rhs = rhs - p.chi * chemo_divergence(u, v, grid, scheme="central")
    return float(np.max(np.abs(dudt - rhs)))


def fine_grid_oracle(config, factor: int = 4) -> RunResult:
    """Re-run a configuration refined by ``factor`` in h and dt.

    The refined series serves as the reference in oracle-equivalence tests:
    production columns must track it within a small relative band at common
    sample times.
    """
    from .config import refine_config, run_from_config

    if factor < 2:
        raise ValueError("refinement factor must be at least 2")
    return run_from_config(refine_config(config, factor), output_dir=None)


def compare_series(
    production: ObservableSeries,
    reference: ObservableSeries,
    columns: Sequence[str],
    floor: float = 1e-12,
    t_min: float | None = None,
) -> dict[str, float]:
    """Max relative deviation per column, reference-interpolated in time.

    ``t_min`` restricts the comparison window; stiff initial transients are
    shape-sensitive across resolutions and are usually excluded when judging
    refinement agreement of the settled dynamics.
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
        scale = np.maximum(np.abs(ref), floor)
        out[name] = float(np.max(np.abs(prod - ref) / scale))
    return out
