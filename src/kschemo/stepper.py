"""IMEX time integration with adaptive dt and blow-up detection.

One step of size dt from (u_n, v_n):

  (i)   explicit terms at t_n: E_u = -chi * div(u grad v) + nonlocal source
  (ii)  u_{n+1} solves (I - dt*L_h) u = u_n + dt*E_u          (implicit diffusion)
  (iii) tau=1: v_{n+1} solves ((1+dt) I - dt*L_h) v = v_n + dt*u_n
        tau=0: v_{n+1} solves (I - L_h) v = u_{n+1}           (stationary signal)
  (iv)  positivity/finiteness audit; on violation halve dt and retry from (i)

Diffusion and transport are exactly mass-neutral (flux form + mean-preserving
Helmholtz solves), so per accepted step

    int(u_{n+1}) - int(u_n) = dt * int(source)

up to solver residuals.  Blow-up is reported when the sup norm crosses the
configured threshold or dt collapses below dt_min: that realizes the
extensibility dichotomy (run forever or watch the sup norm escape), and is
a report about the discrete trajectory, never a claim about the PDE.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import dctn, idctn

from .grid import Grid, State, integrate
from .observables import ObservableError, ObservableSeries, record
from .operators import FACE_SCHEMES, chemo_divergence, laplacian, nonlocal_source
from .params import ModelParams

_EPS_RATE = 1e-30


class LinearSolverError(RuntimeError):
    """Helmholtz solve failed its residual tolerance."""


@dataclass(frozen=True)
class StepperConfig:
    dt_init: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    cfl_safety: float = 0.4
    linear_tol: float = 1e-10
    blowup_linf_threshold: float = 1e8
    positivity_tol: float = 1e-12
    face_scheme: str = "upwind"
    max_retries: int = 20

    def __post_init__(self) -> None:
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety in (0, 1] required, got {self.cfl_safety}")
        for name in ("linear_tol", "blowup_linf_threshold", "positivity_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.face_scheme not in FACE_SCHEMES:
            raise ValueError(f"unknown face scheme {self.face_scheme!r}")
        if self.max_retries < 1:
            raise ValueError("max_retries >= 1 required")


class StepStatus(enum.Enum):
    ADVANCED = "Advanced"
    DT_REDUCED = "DtReduced"
    BLOWUP_DETECTED = "BlowupDetected"
    SOLVER_FAILURE = "SolverFailure"


class Termination(enum.Enum):
    REACHED_T_END = "ReachedTEnd"
    BLOWUP_DETECTED = "BlowupDetected"
    SOLVER_FAILURE = "SolverFailure"

    def __str__(self) -> str:
        return self.value


@dataclass
class StepOutcome:
    status: StepStatus
    dt: float = 0.0
    retries: int = 0
    residual_u: float = 0.0
    residual_v: float = 0.0
    max_source: float = 0.0
    nonlocal_integral: float = 0.0
    source_integral: float = 0.0
    mass_new: float = 0.0
    linf_u: float = 0.0
    min_u: float = 0.0
    min_v: float = 0.0
    message: str = ""


def _neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the flux-form Neumann Laplacian in the DCT-II basis."""
    k = np.arange(n)
    return -4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / h**2


@functools.lru_cache(maxsize=8)
def _grid_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of L_h on ``grid`` in the DCT-II basis (read-only).

    The modes are products of per-axis cosines, so each eigenvalue is the
    sum of its per-axis ones.
    """
    lam = np.zeros(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.cells, grid.h)):
        shape = [1] * grid.dim
        shape[axis] = n
        lam += _neumann_eigenvalues(n, h).reshape(shape)
    lam.flags.writeable = False
    return lam


def _helmholtz_core(rhs: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    spectral = dctn(rhs, type=2, norm="ortho")
    spectral /= 1.0 - sigma * _grid_eigenvalues(grid)
    w = idctn(spectral, type=2, norm="ortho")
    if rhs.min() >= 0.0:
        # (I - sigma*L_h)^-1 is entrywise nonnegative, so a negative entry
        # here is transform rounding; clipping it moves w toward the exact
        # solution
        np.maximum(w, 0.0, out=w)
    return w


def _helmholtz_checked(
    rhs: np.ndarray, grid: Grid, sigma: float, tol: float
) -> tuple[np.ndarray, float]:
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma > 0 required, got {sigma}")
    arr = np.asarray(rhs, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError("rhs shape does not match grid")
    w = _helmholtz_core(arr, grid, sigma)
    residual = w - sigma * laplacian(w, grid) - arr
    # normwise backward error: the rounding in sigma*L_h w grows like
    # eps * ||A|| * ||w||, so dividing by ||rhs|| alone fails fine grids
    # whose solves are exact to working precision
    a_norm = 1.0 + 4.0 * sigma * sum(1.0 / h**2 for h in grid.h)
    scale = a_norm * float(np.linalg.norm(w)) + float(np.linalg.norm(arr))
    rel = float(np.linalg.norm(residual)) / max(scale, 1e-300)
    if not (rel <= tol):
        raise LinearSolverError(
            f"helmholtz backward error {rel:.3e} exceeds tolerance {tol:.3e}"
        )
    return w, rel


def helmholtz_solve(
    rhs: np.ndarray, grid: Grid, sigma: float, tol: float = 1e-10
) -> np.ndarray:
    """Solve (I - sigma * L_h) w = rhs with Neumann boundaries, sigma > 0.

    The DCT-II modes are exact eigenvectors of the flux-form Neumann
    stencil in every axis, so one cosine transform over all axes
    diagonalizes the system in 1D and 2D alike.  The normwise backward
    error ||r|| / (||A|| ||w|| + ||rhs||), with ||A|| bounded by
    1 + 4 sigma sum(1/h^2), is always verified against ``tol``; failure
    raises LinearSolverError.
    """
    w, _ = _helmholtz_checked(rhs, grid, sigma, tol)
    return w


def adapt_dt(
    u: np.ndarray,
    v: np.ndarray,
    grid: Grid,
    params: ModelParams,
    cfg: StepperConfig,
    nonlocal_integral: float,
) -> float:
    """Propose dt from transport and reaction stability bounds, clamped.

    transport bound (per axis): h / (chi * max|grad_h v| + eps)
    reaction  bound: 1 / ((a + b*I) * max(u)^(alpha-1) + eps)
    """
    bound = math.inf
    if params.chi > 0:
        for axis in range(grid.dim):
            h = grid.h[axis]
            dv = np.abs(np.diff(v, axis=axis)) / h
            grad_max = float(dv.max()) if dv.size else 0.0
            bound = min(bound, h / (params.chi * grad_max + _EPS_RATE))
    umax = max(float(u.max()), 0.0)
    if params.alpha == 1.0:
        umax_pow = 1.0
    else:
        umax_pow = umax ** (params.alpha - 1.0)
    rate = (params.a + params.b * nonlocal_integral) * umax_pow
    bound = min(bound, 1.0 / (rate + _EPS_RATE))
    dt = cfg.cfl_safety * bound
    return min(max(dt, cfg.dt_min), cfg.dt_max)


def step(
    state: State,
    params: ModelParams,
    grid: Grid,
    cfg: StepperConfig,
    forcing=None,
    dt_cap: Optional[float] = None,
    dt_override: Optional[float] = None,
) -> tuple[State, StepOutcome]:
    """Advance one accepted IMEX step, or report blow-up/solver failure.

    ``forcing`` (used by the verification harness) provides fields
    ``forcing.u(t, grid)`` and ``forcing.v(t, grid)`` appended to the two
    equations.  ``dt_cap`` limits dt (e.g. to land exactly on t_end) and may
    go below dt_min without triggering the blow-up flag.  ``dt_override``
    bypasses the stability proposal entirely (experimentation hook); the
    positivity audit and halving retries still apply to it.
    """
    u, v, t = state.u, state.v, state.t

    try:
        source, nl_integral = nonlocal_source(u, grid, params, cfg.positivity_tol)
        explicit = source
        if params.chi != 0.0:
            chemo = chemo_divergence(
                u, v, grid, params.chi, cfg.face_scheme, cfg.positivity_tol
            )
            explicit = explicit - params.chi * chemo
        if forcing is not None:
            explicit = explicit + forcing.u(t, grid)

        if dt_override is not None:
            if dt_override <= 0:
                raise ValueError("dt_override must be positive")
            dt = dt_override
        else:
            dt = adapt_dt(u, v, grid, params, cfg, nl_integral)
        if dt_cap is not None:
            dt = min(dt, dt_cap)

        retries = 0
        while True:
            u_new, res_u = _helmholtz_checked(
                u + dt * explicit, grid, dt, cfg.linear_tol
            )
            if params.tau == 1:
                rhs_v = v + dt * u
                if forcing is not None:
                    rhs_v = rhs_v + dt * forcing.v(t, grid)
                v_new, res_v = _helmholtz_checked(
                    rhs_v / (1.0 + dt), grid, dt / (1.0 + dt), cfg.linear_tol
                )
            else:
                rhs_v = u_new
                if forcing is not None:
                    rhs_v = rhs_v + forcing.v(t, grid)
                v_new, res_v = _helmholtz_checked(rhs_v, grid, 1.0, cfg.linear_tol)

            finite = bool(np.isfinite(u_new).all() and np.isfinite(v_new).all())
            if finite:
                linf_u = float(np.abs(u_new).max())
                if linf_u > cfg.blowup_linf_threshold:
                    return state, StepOutcome(
                        status=StepStatus.BLOWUP_DETECTED,
                        dt=dt,
                        retries=retries,
                        linf_u=linf_u,
                        message=f"sup norm {linf_u:.3e} above threshold",
                    )
                umin = float(u_new.min())
                vmin = float(v_new.min())
                if umin >= -cfg.positivity_tol and vmin >= -cfg.positivity_tol:
                    break
            # violation: halve dt and retry from the same explicit stage
            retries += 1
            if retries > cfg.max_retries:
                message = f"retry cap of {cfg.max_retries} reached"
            elif dt / 2.0 < cfg.dt_min:
                message = "dt collapsed below dt_min during retries"
            else:
                dt /= 2.0
                continue
            return state, StepOutcome(
                status=StepStatus.BLOWUP_DETECTED,
                dt=dt,
                retries=retries,
                message=message,
            )
    except LinearSolverError as exc:
        return state, StepOutcome(status=StepStatus.SOLVER_FAILURE, message=str(exc))

    new_state = State(
        u=u_new, v=v_new, t=t + dt, step_index=state.step_index + 1, dt_last=dt
    )
    status = StepStatus.ADVANCED if retries == 0 else StepStatus.DT_REDUCED
    outcome = StepOutcome(
        status=status,
        dt=dt,
        retries=retries,
        residual_u=res_u,
        residual_v=res_v,
        max_source=float(np.abs(source).max()),
        nonlocal_integral=nl_integral,
        source_integral=integrate(source, grid),
        mass_new=integrate(u_new, grid),
        linf_u=linf_u,
        min_u=umin,
        min_v=vmin,
    )
    return new_state, outcome


@dataclass(frozen=True)
class Recorder:
    """Sampling policy for a run: which L^k powers, how often."""

    k_list: tuple[float, ...] = (2.0, 4.0, 8.0)
    sample_interval: float = 0.1

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        for k in self.k_list:
            if k <= 1:
                raise ValueError(f"k_list entries must exceed 1, got {k}")


@dataclass
class RunDiagnostics:
    steps: int = 0
    total_retries: int = 0
    max_mass_identity_violation: float = 0.0
    min_u: float = math.inf
    min_v: float = math.inf


@dataclass
class RunResult:
    state: State
    series: ObservableSeries
    termination: Termination
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)


def run(
    initial: State,
    params: ModelParams,
    grid: Grid,
    cfg: StepperConfig,
    t_end: float,
    recorder: Recorder,
    forcing=None,
) -> RunResult:
    """March from ``initial`` until t >= t_end, blow-up, or solver failure.

    One run is strictly sequential in time and touches no global state, so
    any number of runs can execute in parallel workers.  For a fixed config
    the observable series is bitwise reproducible.
    """
    if t_end <= initial.t:
        raise ValueError("t_end must exceed the initial time")
    initial.validate(grid, cfg.positivity_tol)

    series = ObservableSeries.for_run(recorder.k_list)
    diag = RunDiagnostics()
    state = initial
    cumulative_retries = 0

    def sample(st: State) -> None:
        series.append(record(st, grid, params, recorder.k_list, cumulative_retries))

    try:
        sample(state)
    except ObservableError:
        return RunResult(state, series, Termination.SOLVER_FAILURE, diag)

    mass_prev = integrate(state.u, grid)
    diag.min_u = float(state.u.min())
    diag.min_v = float(state.v.min())
    next_sample = state.t + recorder.sample_interval
    termination = Termination.REACHED_T_END
    time_tol = 1e-12 * max(1.0, abs(t_end))

    while state.t < t_end - time_tol:
        new_state, outcome = step(
            state, params, grid, cfg, forcing, dt_cap=t_end - state.t
        )
        if outcome.status is StepStatus.BLOWUP_DETECTED:
            termination = Termination.BLOWUP_DETECTED
            break
        if outcome.status is StepStatus.SOLVER_FAILURE:
            termination = Termination.SOLVER_FAILURE
            break

        diag.steps += 1
        diag.total_retries += outcome.retries
        cumulative_retries += outcome.retries
        violation = abs(
            outcome.mass_new - mass_prev - outcome.dt * outcome.source_integral
        ) / max(outcome.mass_new, 1e-300)
        diag.max_mass_identity_violation = max(
            diag.max_mass_identity_violation, violation
        )
        diag.min_u = min(diag.min_u, outcome.min_u)
        diag.min_v = min(diag.min_v, outcome.min_v)

        mass_prev = outcome.mass_new
        state = new_state
        if state.t >= next_sample - time_tol or state.t >= t_end - time_tol:
            try:
                sample(state)
            except ObservableError:
                termination = Termination.SOLVER_FAILURE
                break
            while next_sample <= state.t + time_tol:
                next_sample += recorder.sample_interval

    return RunResult(state, series, termination, diag)
