"""Manufactured-solution harness: forced cases and their convergence studies.

A manufactured case starts from closed-form targets (u*, v*) and appends
forcing fields to both equations so the pair solves the forced system
exactly.  The forcings are written out by hand from the closed forms (a
test rederives them symbolically), and the nonlocal integral of u*^beta is
evaluated by composite Gauss-Legendre quadrature (8 panels x 8 nodes per
axis), so nothing in the forcing depends on the discretization under test:
halving h must shrink the error at the scheme's order, which is the whole
point of the harness.

A forcing answers for a column of times at once: ``forcing.u(ts, grid)``
returns one row per time, stacked ``(len(ts), *grid.shape)``, and a march
makes one such call per field and step for all its members.  The cases
evaluate a column in one vectorised pass whose row k has the bits of a call
at ts[k] alone.  A study level marches at a fixed dt, so it asks for the
times t, t + dt, t + dt + dt, ... and gets them from a block of rows
evaluated ahead (_StepTimes); the bits are those of one call per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Grid, State, lp_norm_pow
from .observables import Termination
from .operators import _column
from .params import ModelParams, require
from .stepper import (
    Recorder, RunResult, StepperConfig, _job_results, require_horizon, require_memory, run,
)

GL_PANELS = 8
GL_ORDER = 8

# a field of a manufactured case: (t, grid) -> values on the cell centers
Field = Callable[[float, Grid], np.ndarray]
# a forcing field: (times, grid) -> its values at each time, (len(times), *grid.shape)
Rows = Callable[[Sequence[float], Grid], np.ndarray]

# Bytes of one block of a level's forcing rows (_StepTimes): 128 rows of a
# 128-cell field, 1 from 128^2 up.  A block and the temporaries that build
# it stay below glibc's default mmap threshold, so they reuse heap pages:
# at 128 cells f_u's field arithmetic cost 1.3 us a row in blocks of 64 or
# 128 rows, and 2.0 us in blocks of 256, whose temporaries took 160 fresh
# pages per block.
_BLOCK_BYTES = 1 << 17


def _axis_quadrature(extent: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    width = extent / GL_PANELS
    xs, ws = [], []
    for p in range(GL_PANELS):
        xs.append((nodes + 1.0) * (width / 2.0) + p * width)
        ws.append(weights * (width / 2.0))
    return np.concatenate(xs), np.concatenate(ws)


def _cosine_shape(
    extent: Sequence[float], coords: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """C = prod_i cos(pi x_i / L_i) and |grad C|^2 at the coordinate arrays."""
    cos = [np.cos(math.pi * x / L) for x, L in zip(coords, extent)]
    shape = math.prod(cos)
    grad2 = 0.0
    for i, (x, L) in enumerate(zip(coords, extent)):
        others = math.prod(c for j, c in enumerate(cos) if j != i)
        grad2 = grad2 + (math.pi / L * np.sin(math.pi * x / L) * others) ** 2
    return shape, grad2


@dataclass
class Forcing:
    """Forcing fields appended to the two equations.

    ``u(ts, grid)`` and ``v(ts, grid)`` return the field at each of the
    times ``ts``, one row per time, stacked ``(len(ts), *grid.shape)``; a
    march calls each once per step with the times of all its members.
    """

    u_fn: Rows
    v_fn: Rows

    def u(self, ts: Sequence[float], grid: Grid) -> np.ndarray:
        return self.u_fn(ts, grid)

    def v(self, ts: Sequence[float], grid: Grid) -> np.ndarray:
        return self.v_fn(ts, grid)


class _StepTimes:
    """A forcing field for a march at fixed ``dt`` to ``t_end``, answered
    from a block of rows at its upcoming step times.

    A call for the one time the block holds next gets that row.  Any other
    call starts a block at its time t (the first step, the step after a
    halved retry, a new grid): the times t, t + dt, t + dt + dt, ..., each
    the sum the march forms for the next step's time, those below t_end and
    at most as many as fit in _BLOCK_BYTES, evaluated in one call of
    ``rows``.  Each row has the bits of a call at its time alone, so no bit
    of the march depends on the block.  A call for several times goes to
    ``rows`` directly.  A row handed out is a read-only view of the block.
    """

    def __init__(self, rows: Rows, dt: float, t_end: float):
        self.rows, self.dt, self.t_end = rows, dt, t_end
        self.grid: Optional[Grid] = None
        self.times: list[float] = []
        self.block: Optional[np.ndarray] = None
        self.next = 0

    def __call__(self, ts: Sequence[float], grid: Grid) -> np.ndarray:
        if len(ts) != 1:
            return self.rows(ts, grid)
        k = self.next
        if grid is self.grid and k < len(self.times) and ts[0] == self.times[k]:
            self.next = k + 1
            return self.block[k : k + 1]
        times = [ts[0]]
        count = _BLOCK_BYTES // (8 * math.prod(grid.cells))
        while len(times) < count and times[-1] + self.dt < self.t_end:
            times.append(times[-1] + self.dt)
        self.block = self.rows(times, grid)
        self.block.flags.writeable = False
        self.grid, self.times, self.next = grid, times, 1
        return self.block[:1]


@dataclass
class ManufacturedCase:
    params: ModelParams
    u_exact: Field
    v_exact: Field
    forcing: Forcing
    description: str = ""

    def initial_state(self, grid: Grid) -> State:
        return State(u=self.u_exact(0.0, grid), v=self.v_exact(0.0, grid))


class _TrigDecay:
    """Exact fields and forcings of the trig-decay case, as bound methods.

    A module-level class rather than closures, so a case pickles and can
    be shipped to a worker process under any start method.
    """

    def __init__(self, params: ModelParams, extent: tuple[float, ...]):
        self.params, self.extent = params, extent
        self.k2 = sum((math.pi / L) ** 2 for L in extent)
        axes = [_axis_quadrature(L) for L in extent]
        q_nodes = [x.ravel() for x in np.meshgrid(*(x for x, _ in axes), indexing="ij")]
        self.q_weights = math.prod(np.ix_(*(w for _, w in axes))).ravel()
        self.q_shape = _cosine_shape(extent, q_nodes)[0]
        self.shapes: dict[Grid, tuple[np.ndarray, np.ndarray]] = {}

    def shape(self, g: Grid) -> tuple[np.ndarray, np.ndarray]:
        if g not in self.shapes:
            if g.dim != len(self.extent):
                raise ValueError(f"{g.dim}D grid for a {len(self.extent)}D case")
            c, grad2 = _cosine_shape(self.extent, g.cell_centers())
            self.shapes[g] = c, grad2 - self.k2 * c * c
        return self.shapes[g]

    def u_exact(self, t: float, g: Grid) -> np.ndarray:
        return 2.0 + self.shape(g)[0] * math.exp(-t)

    def v_exact(self, t: float, g: Grid) -> np.ndarray:
        return 2.0 + self.shape(g)[0] * (0.5 * math.exp(-t))

    def forcing_u(self, ts: Sequence[float], g: Grid) -> np.ndarray:
        p, k2 = self.params, self.k2
        c, chemo_shape = self.shape(g)
        decays = [math.exp(-t) for t in ts]
        # one row of quadrature nodes per time, each summed by the dot
        # product it gets alone (a matrix-vector product rounds otherwise)
        powers = (2.0 + self.q_shape * _column(decays, 1)) ** p.beta
        integral = _column(list(map(self.q_weights.dot, powers)), g.dim)
        e = _column(decays, g.dim)
        return (
            ((k2 - 1.0 - p.chi * k2) * e) * c
            + (0.5 * p.chi * e * e) * chemo_shape
            + (p.b * integral - p.a) * (2.0 + c * e) ** p.alpha
        )

    def forcing_v(self, ts: Sequence[float], g: Grid) -> np.ndarray:
        decays = [math.exp(-t) for t in ts]
        return (0.5 * (self.k2 - 2.0) * _column(decays, g.dim)) * self.shape(g)[0]


def build_mms_case(params: ModelParams, grid: Grid) -> ManufacturedCase:
    """Default smooth case: decaying cosine bumps over a constant floor.

    u* = 2 + C e^{-t},  v* = 2 + C e^{-t} / 2,  C = prod_i cos(pi x_i / L_i)
    over the extent of ``grid``.  Both satisfy zero normal derivative at the
    box faces and keep u* >= 1.  With k2 = pi^2 sum_i 1/L_i^2, Delta C = -k2 C
    and div(u* grad v*) = e^{-2t} |grad C|^2 / 2 - k2 e^{-t} u* C / 2, so

        f_u = (k2 - 1 - chi k2) e^{-t} C + chi e^{-2t} (|grad C|^2 - k2 C^2) / 2
              + (b I(t) - a) u*^alpha
        f_v = (k2 - 2) e^{-t} C / 2

    with I(t) the quadrature of u*^beta.  C and |grad C|^2 - k2 C^2 are
    computed once per grid the case is evaluated on, C at the quadrature
    nodes once.  The forcing evaluates a column of times in one pass, one
    row per time with the bits of that time alone (e^{-t} by math.exp, I(t)
    by one dot product per time).  The case pickles.
    """
    fields = _TrigDecay(params, grid.extent)
    return ManufacturedCase(
        params=params,
        u_exact=fields.u_exact,
        v_exact=fields.v_exact,
        forcing=Forcing(u_fn=fields.forcing_u, v_fn=fields.forcing_v),
        description="trig-decay",
    )


class _Equilibrium:
    """The constant fields and zero forcing of ``equilibrium_case``; picklable."""

    def __init__(self, c: float):
        self.c = c

    def constant(self, t: float, g: Grid) -> np.ndarray:
        return g.full(self.c)

    def zero(self, ts: Sequence[float], g: Grid) -> np.ndarray:
        return np.zeros((len(ts), *g.shape))


def equilibrium_case(params: ModelParams, grid: Grid) -> ManufacturedCase:
    """Spatially homogeneous steady state c with b c^beta |Omega| = a; zero forcing."""
    fields = _Equilibrium((params.a / (params.b * grid.measure)) ** (1.0 / params.beta))
    return ManufacturedCase(
        params=params,
        u_exact=fields.constant,
        v_exact=fields.constant,
        forcing=Forcing(u_fn=fields.zero, v_fn=fields.zero),
        description="equilibrium",
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


def check_levels(count: int) -> None:
    """FieldError ``levels`` unless a study of ``count`` levels can run: at
    least two, as an order needs a previous level, and at most 64: a study
    halves h or dt per level, so its 64th would make 2^63 times the steps
    of its first, and a halving from a normal h or dt stays in the float
    range that far.  A caller that builds the levels checks their count
    first, as level k's cell count is a k-bit integer."""
    require(count >= 2, "levels", ">= 2", count)
    require(count <= 64, "levels", "<= 64", count)


def level_dts(grids: Sequence[Grid], dts: Sequence[float], t_end: float) -> list[float]:
    """The dt each level of a study runs at: the requested one snapped to an
    exact divisor of ``t_end``, so no step gets capped.

    This is the study's one input check.  FieldError names the field of the
    first rule broken, in this order:
      * ``levels``: the count check_levels allows;
      * ``cells``: each level's march fits in memory (stepper.require_memory);
      * ``t_end``: finite and more than the march's end tolerance past 0
        (stepper.require_horizon);
      * ``dts`` (``dts[k]`` in the message): each finite and > 0, and with a
        finite step count t_end / dt, which the snapping rounds to an integer.
    ValueError names a dt list whose length is not the grids', and the first
    level that repeats the previous level's h and snapped dt: its order is 0/0.
    """
    if len(grids) != len(dts):
        raise ValueError("need one dt per grid")
    check_levels(len(grids))
    for grid in grids:
        require_memory(grid)
    require_horizon(0.0, t_end)
    for k, dt in enumerate(dts):
        require(0 < dt < math.inf, "dts", "finite > 0", dt, k)
        require(t_end / dt < math.inf, "dts", "with a finite step count t_end / dt", dt, k)
    snapped = [t_end / max(1, round(t_end / dt)) for dt in dts]
    for level in range(1, len(grids)):
        h, prev_h = max(grids[level].h), max(grids[level - 1].h)
        if h == prev_h and snapped[level] == snapped[level - 1]:
            raise ValueError(
                f"level {level} repeats level {level - 1}'s h = {h:g}, dt = {snapped[level]:g} "
                f"(each dt snaps to a divisor of t_end = {t_end:g}); no order to observe"
            )
    return snapped


def _run_level(case: ManufacturedCase, grid: Grid, dt: float, t_end: float,
               face_scheme: str) -> RunResult:
    """One level of a study: the forced run at fixed ``dt``, its forcing
    answered from blocks of step times; module-level, so a pool can run it."""
    cfg = StepperConfig(dt_min=dt * 1e-8, dt_max=dt, cfl_safety=1.0)
    recorder = Recorder(k_list=(2.0,), sample_interval=t_end)
    u_rows, v_rows = case.forcing.u_fn, case.forcing.v_fn
    forcing = Forcing(_StepTimes(u_rows, dt, t_end), _StepTimes(v_rows, dt, t_end))
    return run(case.initial_state(grid), case.params, grid, cfg, t_end, recorder, forcing,
               face_scheme=face_scheme)


def convergence_study(
    case: ManufacturedCase,
    grids: Sequence[Grid],
    dts: Sequence[float],
    t_end: float,
    face_scheme: str = "central",
) -> ConvergenceTable:
    """Forced runs over refinement levels; L2 errors at t_end and observed orders.

    Each level runs at the fixed dt supplied for it, checked and snapped
    by ``level_dts`` (the study insists, by the step count, the retries and
    the sampled dt, that the adaptive bound never engages, so the step
    sequence is exactly the one requested).  Orders are computed against
    the previous level from the spacing ratio for the spatial direction, or
    the dt ratio when the grids repeat (temporal study).

    The levels are independent, so they go to ``stepper._job_results``
    with one worker asked per usable CPU: min(usable CPUs, levels)
    processes, the costliest level (steps x cells) first, or this process
    alone with one usable CPU or a total cost below stepper._POOL_COST.
    Results are read back and checked in level order, and the first failed
    check cancels the levels not yet started, so the table, and the error
    raised for the lowest failing level, are the same bits either way.
    """
    snapped = level_dts(grids, dts, t_end)
    levels = [(case, grid, dt, t_end, face_scheme) for grid, dt in zip(grids, snapped)]
    costs = [round(t_end / dt) * math.prod(grid.cells) for grid, dt in zip(grids, snapped)]
    rows: list[ConvergenceRow] = []
    with _job_results(_run_level, levels, costs=costs) as results:
        for level, (grid, dt, result) in enumerate(zip(grids, snapped, results)):
            if result.termination is not Termination.REACHED_T_END:
                raise RuntimeError(f"level {level} run ended with {result.termination}")
            # the series samples only some steps; the counts vouch for the rest
            steps, expected = result.diagnostics.steps, round(t_end / dt)
            retries = result.diagnostics.total_retries
            dts_used = result.series.column("dt")[1:]
            if steps != expected or retries or not np.allclose(dts_used, dt, rtol=1e-9):
                sampled = "no sampled step"
                if dts_used.size:
                    sampled = f"sampled dt down to {dts_used.min():g}"
                raise RuntimeError(
                    f"level {level}: adaptive dt engaged ({steps} steps for {expected} "
                    f"of dt = {dt:g}, {retries} retries, {sampled}); weaken chi or reduce dt "
                    "for a clean study"
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
