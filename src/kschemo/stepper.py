"""IMEX time integration with adaptive dt and blow-up detection.

One step of size dt from (u_n, v_n):

  (i)   explicit terms at t_n: E_u = -chi * div(u grad v) + nonlocal source
  (ii)  u_{n+1} solves (I - dt*L_h) u = u_n + dt*E_u          (implicit diffusion)
  (iii) tau=1: v_{n+1} solves ((1+dt) I - dt*L_h) v = v_n + dt*u_n
              this rhs does not need u_{n+1}, so (ii) and (iii) are one
              rhs array over the u rows and then the v rows of all members,
              sigma = dt for u and dt/(1+dt) for v.  Small grids solve it as
              one stacked call (one transform pair, one gate); when a half
              holds at least _THREAD_CELLS cells and more than one CPU is
              usable, the u half is solved and gated on a helper thread
              that lives for that one solve while the calling thread does
              the v half; the stepper keeps no process-wide state
        tau=0: v_{n+1} solves (I - L_h) v = u_{n+1}           (stationary signal)
              a second solve, since its rhs is the result of (ii)
  (iv)  audit: a non-finite or negative result halves dt and retries from
        the explicit stage of (i); a solve that fails its backward-error gate
        is a solver failure; a sup norm above the threshold is a blow-up

Diffusion and transport are exactly mass-neutral (flux form + mean-preserving
Helmholtz solves), so per accepted step

    int(u_{n+1}) - int(u_n) = dt * int(source)

up to solver residuals.  Blow-up is reported when the sup norm crosses the
configured threshold, dt collapses below dt_min or the retries hit their
cap: that realizes the extensibility dichotomy (run forever or watch the sup
norm escape), and is a report about the discrete trajectory, never a claim
about the PDE.

There is one march, run_batch().  It advances B members, the parameter
points of a sweep, as fields stacked ``(B, *grid.shape)``.  Each member has
its own coefficients, t, dt, retries, sample times, diagnostics and
termination; the grid, StepperConfig, tau, t_end, Recorder and forcing are
shared.  A member's numbers come from the same elementwise operations and
the same row reductions whatever the batch, so its series is bitwise the
one it gets alone.  run() and step() are the B = 1 case.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import fftpack
from scipy.fft import dctn, idctn

from .grid import _POSITIVITY_TOL, Grid, State, _require_finite, integrate
from .observables import ObservableError, ObservableSeries, record
from .operators import (
    FACE_SCHEMES,
    _chemo_divergence,
    _column,
    _laplacian,
    _nonlocal_source,
)
from .params import ModelParams, require

_EPS_RATE = 1e-30

# bound on the normwise backward error of every Helmholtz solve
_LINEAR_TOL = 1e-10

# halvings of dt one step may make before it reports a blow-up
_MAX_RETRIES = 20

# Cells per half (rows * cells per row) from which a tau=1 step solves its u
# half on a helper thread while the caller solves the v half.  Medians of
# the checked solve of one u row and one v row on 2 vCPUs, serial -> two
# threads with the helper started and joined per call, three runs: 1D 256
# cells 0.07 -> 0.3-0.5 ms, 64^2 0.3-0.5 -> 0.7-1.1 ms, 128^2 1.4-2.1 ->
# 1.5-2.3 ms, 256^2 5.8-7.7 -> 5.6-7.2 ms, 512^2 30-35 -> 29-33 ms.  One
# whole step of a 2D bump: 256^2 8.2-9.1 -> 6.4-7.7 ms, 512^2 39-47 -> 29-32
# ms.  Break-even lies near 128^2 (2^14 cells), so 2^16 threads only wins.
_THREAD_CELLS = 1 << 16

# the audit decides what overflow and NaN mean, so numpy need not warn
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


class LinearSolverError(RuntimeError):
    """Helmholtz solve failed its residual tolerance."""


@dataclass(frozen=True)
class StepperConfig:
    """dt clamp, CFL factor, sup norm threshold and face scheme.  The gate,
    positivity floor and retry cap are fixed numerics, not settings."""

    dt_min: float = 1e-12
    dt_max: float = 1e-2
    cfl_safety: float = 0.4
    blowup_linf_threshold: float = 1e8
    face_scheme: str = "upwind"

    def __post_init__(self) -> None:
        require(self.dt_max > 0, "dt_max", "> 0", self.dt_max)
        require(
            0 < self.dt_min <= self.dt_max, "dt_min", f"in (0, dt_max={self.dt_max}]", self.dt_min
        )
        require(0 < self.cfl_safety <= 1, "cfl_safety", "in (0, 1]", self.cfl_safety)
        threshold = self.blowup_linf_threshold
        require(threshold > 0, "blowup_linf_threshold", "> 0", threshold)
        scheme = self.face_scheme
        require(scheme in FACE_SCHEMES, "face_scheme", f"in {FACE_SCHEMES}", scheme)


class StepStatus(enum.Enum):
    ADVANCED = "Advanced"
    DT_REDUCED = "DtReduced"
    BLOWUP_DETECTED = "BlowupDetected"
    SOLVER_FAILURE = "SolverFailure"


_ACCEPTED = (StepStatus.ADVANCED, StepStatus.DT_REDUCED)


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


def _cosine_transform(x: np.ndarray, grid: Grid, inverse: bool = False) -> np.ndarray:
    """Orthonormal DCT-II (or its inverse) over the field axes of a batch.

    The inverse transforms in place and consumes ``x``.  1D calls
    scipy.fftpack: same pocketfft kernel and bits as scipy.fft, without its
    backend dispatch, which costs more than the transform of a short field.
    """
    if grid.dim == 1:
        transform = fftpack.idct if inverse else fftpack.dct
        return transform(x, type=2, norm="ortho", axis=-1, overwrite_x=inverse)
    transform = idctn if inverse else dctn
    return transform(x, type=2, norm="ortho", axes=grid.field_axes, overwrite_x=inverse)


def _helmholtz_core(rhs: np.ndarray, grid: Grid, sigma) -> np.ndarray:
    """Solve (I - sigma*L_h) w = rhs for each row of ``rhs``.

    ``sigma`` is a scalar or a (R, 1, ...) column with one entry per row.
    Rows are transformed, divided and clipped independently, so a row gets
    the same bits whatever rows it is stacked with: under tau=1 the stepper
    passes the u rows of all members followed by their v rows, under tau=0
    the u rows and then, in a second call, the v rows.
    """
    spectral = _cosine_transform(rhs, grid)
    denominator = sigma * _grid_eigenvalues(grid)
    np.subtract(1.0, denominator, out=denominator)
    spectral /= denominator
    w = _cosine_transform(spectral, grid, inverse=True)
    # (I - sigma*L_h)^-1 is entrywise nonnegative, so a negative entry in a
    # member whose rhs is nonnegative is transform rounding; clipping it
    # moves w toward the exact solution
    nonnegative = rhs.min(axis=grid.field_axes) >= 0.0
    if nonnegative.all():
        np.maximum(w, 0.0, out=w)
    else:
        for i in np.flatnonzero(nonnegative):
            np.maximum(w[i], 0.0, out=w[i])
    return w


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the bits the row gets alone.

    A pairwise sum along each contiguous row depends on the row length only;
    einsum's chunking depends on the shape of the whole call.
    """
    flat = x.reshape(x.shape[0], -1)
    return np.sqrt(np.add.reduce(np.square(flat), axis=1))


def _helmholtz_checked(rhs: np.ndarray, grid: Grid, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Solve each row as _helmholtz_core does; return (w, backward error of each row).

    Under tau=1 one call carries the u and the v rows of a step and the
    caller splits w and the errors at the member count, or, on large grids,
    _solve_halves makes one call per half on two threads.  Each row's error
    has the bits it gets alone, so both ways agree.  A non-finite row gets a
    meaningless error; callers test finiteness first.
    """
    w = _helmholtz_core(rhs, grid, sigma)
    # w - sigma*L_h w - rhs, built in the Laplacian's array: negating the
    # product and adding w gives the same bits as subtracting the product
    residual = _laplacian(w, grid)
    residual *= -sigma
    residual += w
    residual -= rhs
    # normwise backward error: the rounding in sigma*L_h w grows like
    # eps * ||A|| * ||w||, so dividing by ||rhs|| alone fails fine grids
    # whose solves are exact to working precision
    a_norm = 1.0 + 4.0 * np.ravel(sigma) * sum(1.0 / h**2 for h in grid.h)
    scale = a_norm * _row_norms(w) + _row_norms(rhs)
    return w, _row_norms(residual) / np.maximum(scale, 1e-300)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _checked_quietly(rhs: np.ndarray, grid: Grid, sigma) -> tuple[np.ndarray, np.ndarray]:
    # numpy's error state belongs to the thread, so the helper sets its own
    with np.errstate(**_QUIET):
        return _helmholtz_checked(rhs, grid, sigma)


def _solve_halves(
    rhs: np.ndarray, n: int, grid: Grid, sigma_u, sigma_v
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Checked tau=1 solve of the u rows ``rhs[:n]`` and the v rows ``rhs[n:]``.

    Returns (w_u, w_v, rel_u, rel_v).  Rows are solved and gated
    independently, so the halves get the same bits on one thread or two.
    When a half holds at least _THREAD_CELLS cells and the process may use
    more than one CPU, the u half runs on a helper thread started for this
    call and joined before it returns, while this thread solves the v half:
    numpy's large ufuncs and scipy.fft release the GIL, so the two overlap.
    Otherwise it is one stacked call.
    """
    if n * math.prod(grid.cells) >= _THREAD_CELLS and _usable_cpus() > 1:
        # leaving the block joins the helper, also when the v half raises
        with ThreadPoolExecutor(1, thread_name_prefix="kschemo-helmholtz") as helper:
            u_half = helper.submit(_checked_quietly, rhs[:n], grid, sigma_u)
            w_v, rel_v = _helmholtz_checked(rhs[n:], grid, sigma_v)
            w_u, rel_u = u_half.result()
        return w_u, w_v, rel_u, rel_v
    w, rel = _helmholtz_checked(rhs, grid, np.concatenate([sigma_u, sigma_v]))
    return w[:n], w[n:], rel[:n], rel[n:]


def _gate_message(rel: float) -> str:
    return f"helmholtz backward error {rel:.3e} exceeds tolerance {_LINEAR_TOL:.3e}"


def helmholtz_solve(rhs: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """Solve (I - sigma * L_h) w = rhs with Neumann boundaries, sigma > 0.

    The DCT-II modes are exact eigenvectors of the flux-form Neumann
    stencil in every axis, so one cosine transform over all axes
    diagonalizes the system in 1D and 2D alike.  The normwise backward
    error ||r|| / (||A|| ||w|| + ||rhs||), with ||A|| bounded by
    1 + 4 sigma sum(1/h^2), is always verified against the stepper's gate
    of 1e-10; failure raises LinearSolverError.
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma > 0 required, got {sigma}")
    arr = _require_finite(rhs, "rhs")
    if arr.shape != grid.shape:
        raise ValueError("rhs shape does not match grid")
    w, rel = _helmholtz_checked(arr[None], grid, sigma)
    if not (rel[0] <= _LINEAR_TOL):
        raise LinearSolverError(_gate_message(rel[0]))
    return w[0]


def _propose_dt(
    u: np.ndarray, grid: Grid, params: Sequence[ModelParams], cfg: StepperConfig,
    integrals: Sequence[float], grad_max: Sequence[np.ndarray],
) -> list[float]:
    """adapt_dt for each member row of a batch.  ``grad_max`` is the per-axis
    max|grad_h v| that _chemo_divergence returns, empty when no chi > 0."""
    grad_max = [(h, g.tolist()) for h, g in zip(grid.h, grad_max)]
    umax = u.max(axis=grid.field_axes).tolist()
    dts = []
    for i, (p, integral) in enumerate(zip(params, integrals)):
        bound = math.inf
        if p.chi > 0:
            for h, g in grad_max:
                bound = min(bound, h / (p.chi * g[i] + _EPS_RATE))
        if p.alpha == 1.0:
            umax_pow = 1.0
        else:
            try:
                umax_pow = max(umax[i], 0.0) ** (p.alpha - 1.0)
            except OverflowError:
                umax_pow = math.inf
        rate = (p.a + p.b * integral) * umax_pow
        bound = min(bound, 1.0 / (rate + _EPS_RATE))
        dt = cfg.cfl_safety * bound
        dts.append(min(max(dt, cfg.dt_min), cfg.dt_max))
    return dts


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
    grad_h v is read off the face gradients of the transport kernel, as in a step.
    """
    u_rows, v_rows = _stack([u]), _stack([v])
    grad_max = ()
    if params.chi > 0:
        grad_max = _chemo_divergence(u_rows, v_rows, grid, cfg.face_scheme)[1]
    return _propose_dt(u_rows, grid, [params], cfg, [nonlocal_integral], grad_max)[0]


def _stack(fields) -> np.ndarray:
    """Member fields as one (B, *shape) array; a single member is a view."""
    if len(fields) == 1:
        return np.asarray(fields[0], dtype=float)[None]
    return np.stack([np.asarray(f, dtype=float) for f in fields])


def _audit(
    rows: list[int],
    u_new: np.ndarray,
    v_new: np.ndarray,
    rel_u: np.ndarray,
    rel_v: np.ndarray,
    dts: list[float],
    outcomes: list[StepOutcome],
    grid: Grid,
    cfg: StepperConfig,
) -> list[int]:
    """Decide each member solved in ``rows``; return those to retry at half dt.

    The checks run in order: finiteness, the backward-error gate, the sup
    norm threshold, positivity.  The extrema propagate NaN and reach inf, so
    they double as the finiteness check.
    """
    axes = grid.field_axes
    u_hi, u_lo = u_new.max(axis=axes).tolist(), u_new.min(axis=axes).tolist()
    v_hi, v_lo = v_new.max(axis=axes).tolist(), v_new.min(axis=axes).tolist()
    rel_u, rel_v = rel_u.tolist(), rel_v.tolist()
    retry = []
    for j, i in enumerate(rows):
        out = outcomes[i]
        out.dt = dts[i]
        if all(math.isfinite(x) for x in (u_hi[j], u_lo[j], v_hi[j], v_lo[j])):
            out.residual_u, out.residual_v = rel_u[j], rel_v[j]
            linf = max(u_hi[j], -u_lo[j])
            if not (rel_u[j] <= _LINEAR_TOL and rel_v[j] <= _LINEAR_TOL):
                out.status = StepStatus.SOLVER_FAILURE
                out.message = _gate_message(max(rel_u[j], rel_v[j]))
                continue
            if linf > cfg.blowup_linf_threshold:
                out.status = StepStatus.BLOWUP_DETECTED
                out.linf_u = linf
                out.message = f"sup norm {linf:.3e} above threshold"
                continue
            if u_lo[j] >= -_POSITIVITY_TOL and v_lo[j] >= -_POSITIVITY_TOL:
                out.status = StepStatus.ADVANCED if out.retries == 0 else StepStatus.DT_REDUCED
                out.linf_u, out.min_u, out.min_v = linf, u_lo[j], v_lo[j]
                continue
        # non-finite or negative: halve this member's dt and retry from the
        # same explicit stage
        out.retries += 1
        if out.retries > _MAX_RETRIES:
            out.message = f"retry cap of {_MAX_RETRIES} reached"
        elif dts[i] / 2.0 < cfg.dt_min:
            out.message = "dt collapsed below dt_min during retries"
        else:
            dts[i] /= 2.0
            retry.append(i)
            continue
        out.status = StepStatus.BLOWUP_DETECTED
    return retry


def _advance(
    u: np.ndarray,
    v: np.ndarray,
    ts: Sequence[float],
    params: Sequence[ModelParams],
    grid: Grid,
    cfg: StepperConfig,
    forcing=None,
    dt_cap: Optional[Sequence[float]] = None,
    dt_override: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, list[StepOutcome]]:
    """Attempt one step for every member of a batch of trusted states.

    Returns the new fields and one StepOutcome per member; a member's row
    holds its new state only when its outcome is accepted.  Retries
    re-solve only the members that failed their audit.
    """
    axes = grid.field_axes
    count = len(params)
    source, integrals = _nonlocal_source(u, grid, params)
    # the source's integral is taken now so that its array can become the
    # explicit stage or be freed before the solves
    source_sum = source.sum(axis=axes).tolist()
    explicit, grad_max = source, ()
    if any(p.chi != 0.0 for p in params):
        explicit, grad_max = _chemo_divergence(u, v, grid, cfg.face_scheme)
        explicit *= _column([p.chi for p in params], grid.dim)
        np.subtract(source, explicit, out=explicit)
    del source
    forcing_v = None
    if forcing is not None:
        # each member's forcing at its own time
        explicit += _stack([forcing.u(t, grid) for t in ts])
        forcing_v = _stack([forcing.v(t, grid) for t in ts])

    if dt_override is not None:
        dts = [dt_override] * count
    else:
        dts = _propose_dt(u, grid, params, cfg, integrals, grad_max)
    if dt_cap is not None:
        dts = [min(dt, cap) for dt, cap in zip(dts, dt_cap)]

    outcomes = [StepOutcome(StepStatus.ADVANCED, nonlocal_integral=i) for i in integrals]
    stacked = params[0].tau == 1
    u_new = v_new = None
    rows = list(range(count))
    while rows:
        n = len(rows)
        whole = n == count
        if whole:
            u_r, v_r, e_r, f_r = u, v, explicit, forcing_v
        else:
            u_r, v_r, e_r = u[rows], v[rows], explicit[rows]
            f_r = None if forcing_v is None else forcing_v[rows]
        dt = _column([dts[i] for i in rows], grid.dim)
        if stacked:
            # rows [:n] are u + dt*E_u, rows [n:] are (v + dt*u [+ dt*f_v]) / (1+dt)
            rhs = np.empty((2 * n,) + grid.shape)
            rhs_u, rhs_v = rhs[:n], rhs[n:]
            np.multiply(dt, e_r, out=rhs_u)
            rhs_u += u_r
            np.multiply(dt, u_r, out=rhs_v)
            rhs_v += v_r
            if f_r is not None:
                rhs_v += dt * f_r
            shift = 1.0 + dt
            rhs_v /= shift
            cand_u, cand_v, rel_u, rel_v = _solve_halves(rhs, n, grid, dt, dt / shift)
        else:
            cand_u, rel_u = _helmholtz_checked(u_r + dt * e_r, grid, dt)
            rhs_v = cand_u if f_r is None else cand_u + f_r
            cand_v, rel_v = _helmholtz_checked(rhs_v, grid, 1.0)
        if whole:
            u_new, v_new = cand_u, cand_v
        else:
            u_new[rows] = cand_u
            v_new[rows] = cand_v
        rows = _audit(rows, cand_u, cand_v, rel_u, rel_v, dts, outcomes, grid, cfg)

    accepted = [i for i, out in enumerate(outcomes) if out.status in _ACCEPTED]
    if accepted:
        cell_volume = grid.cell_volume
        mass = u_new.sum(axis=axes).tolist()
        for i in accepted:
            outcomes[i].mass_new = cell_volume * mass[i]
            outcomes[i].source_integral = cell_volume * source_sum[i]
    return u_new, v_new, outcomes


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
    positivity audit and halving retries still apply to it.  A non-finite
    or negative input state raises ValueError; a non-finite result is
    audited like a negative one.
    """
    state.validate(grid)
    if dt_override is not None and dt_override <= 0:
        raise ValueError("dt_override must be positive")
    caps = None if dt_cap is None else [dt_cap]
    with np.errstate(**_QUIET):
        u_new, v_new, (outcome,) = _advance(
            _stack([state.u]), _stack([state.v]), [state.t], [params], grid, cfg,
            forcing, caps, dt_override,
        )
    if outcome.status not in _ACCEPTED:
        return state, outcome
    new_state = State(
        u=u_new[0],
        v=v_new[0],
        t=state.t + outcome.dt,
        step_index=state.step_index + 1,
        dt_last=outcome.dt,
    )
    return new_state, outcome


@dataclass(frozen=True)
class Recorder:
    """Sampling policy for a run: which L^k powers, how often."""

    k_list: tuple[float, ...] = (2.0, 4.0, 8.0)
    sample_interval: float = 0.1

    def __post_init__(self) -> None:
        require(all(k > 1 for k in self.k_list), "k_list", "entries > 1", self.k_list)
        require(self.sample_interval > 0, "sample_interval", "> 0", self.sample_interval)


@dataclass
class RunDiagnostics:
    steps: int = 0
    total_retries: int = 0
    max_mass_identity_violation: float = 0.0
    min_u: float = math.inf
    min_v: float = math.inf


@dataclass
class RunResult:
    """Final state, series and termination of one run.

    ``cause`` says what ended it: "t_end reached", the step's blow-up
    message (sup norm, dt collapse or retry cap), the failed solver gate,
    or the observable check that failed.
    """

    state: State
    series: ObservableSeries
    termination: Termination
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)
    cause: str = ""


_REACHED_T_END = "t_end reached"


class _Member:
    """One batch member's state, sample clock, series and diagnostics."""

    def __init__(self, initial: State, params: ModelParams, grid: Grid, recorder: Recorder):
        self.state = initial
        self.params = params
        self.grid = grid
        self.recorder = recorder
        self.series = ObservableSeries.for_run(recorder.k_list)
        self.diag = RunDiagnostics()
        self.next_sample = initial.t + recorder.sample_interval
        self.termination: Optional[Termination] = None
        self.cause = ""
        self.mass = 0.0

    def start(self, t_end: float, time_tol: float) -> bool:
        """Record the initial row; False when the member is already done."""
        if not self.sample():
            return False
        u, v = self.state.u, self.state.v
        self.mass = integrate(u, self.grid)
        self.diag.min_u = float(np.min(u))
        self.diag.min_v = float(np.min(v))
        if self.state.t >= t_end - time_tol:
            self.finish(Termination.REACHED_T_END, _REACHED_T_END)
            return False
        return True

    def sample(self) -> bool:
        """Append a series row; an inconsistent row ends the member."""
        try:
            row = record(
                self.state, self.grid, self.params, self.recorder.k_list,
                self.diag.total_retries,
            )
        except ObservableError as exc:
            self.finish(Termination.SOLVER_FAILURE, str(exc))
            return False
        self.series.append(row)
        return True

    def accept(self, outcome: StepOutcome, u: np.ndarray, v: np.ndarray) -> None:
        st = self.state
        self.state = State(
            u=u, v=v, t=st.t + outcome.dt, step_index=st.step_index + 1,
            dt_last=outcome.dt,
        )
        diag = self.diag
        diag.steps += 1
        diag.total_retries += outcome.retries
        violation = abs(
            outcome.mass_new - self.mass - outcome.dt * outcome.source_integral
        ) / max(outcome.mass_new, 1e-300)
        diag.max_mass_identity_violation = max(diag.max_mass_identity_violation, violation)
        diag.min_u = min(diag.min_u, outcome.min_u)
        diag.min_v = min(diag.min_v, outcome.min_v)
        self.mass = outcome.mass_new

    def finish(self, termination: Termination, cause: str) -> None:
        self.termination = termination
        self.cause = cause

    def detach(self) -> None:
        """Copy the final fields out of the batch arrays they view."""
        st = self.state
        self.state = State(st.u.copy(), st.v.copy(), st.t, st.step_index, st.dt_last)

    def result(self) -> RunResult:
        return RunResult(self.state, self.series, self.termination, self.diag, self.cause)


def run_batch(
    initials: Sequence[State],
    params: Sequence[ModelParams],
    grid: Grid,
    cfg: StepperConfig,
    t_end: float,
    recorder: Recorder,
    forcing=None,
) -> list[RunResult]:
    """March each member from its initial state until t_end, blow-up or solver failure.

    ``initials[i]`` and ``params[i]`` make member i; the members must share
    tau.  Everything else is shared by construction.  A member that
    finishes leaves the batch and the others go on.  For a fixed input each
    member's series is bitwise reproducible and independent of the batch it
    runs in.  A batch touches no process-wide state (a threaded solve's
    helper thread ends with that solve), so batches can run in parallel
    workers, forked or spawned.
    """
    if not params or len(initials) != len(params):
        raise ValueError("need one ModelParams per initial state")
    if len({p.tau for p in params}) != 1:
        raise ValueError("batch members must share tau")
    for initial in initials:
        if t_end <= initial.t:
            raise ValueError("t_end must exceed the initial time")
        initial.validate(grid)

    time_tol = 1e-12 * max(1.0, abs(t_end))
    members = [_Member(st, p, grid, recorder) for st, p in zip(initials, params)]
    with np.errstate(**_QUIET):
        active = [m for m in members if m.start(t_end, time_tol)]
        u = _stack([m.state.u for m in active]) if active else None
        v = _stack([m.state.v for m in active]) if active else None
        while active:
            u_new, v_new, outcomes = _advance(
                u, v, [m.state.t for m in active], [m.params for m in active],
                grid, cfg, forcing, dt_cap=[t_end - m.state.t for m in active],
            )
            keep = []
            for i, (m, outcome) in enumerate(zip(active, outcomes)):
                if outcome.status is StepStatus.BLOWUP_DETECTED:
                    m.finish(Termination.BLOWUP_DETECTED, outcome.message)
                    continue
                if outcome.status is StepStatus.SOLVER_FAILURE:
                    m.finish(Termination.SOLVER_FAILURE, outcome.message)
                    continue
                m.accept(outcome, u_new[i], v_new[i])
                t = m.state.t
                if t >= m.next_sample - time_tol or t >= t_end - time_tol:
                    if not m.sample():
                        continue
                    while m.next_sample <= t + time_tol:
                        m.next_sample += recorder.sample_interval
                if t < t_end - time_tol:
                    keep.append(i)
                else:
                    m.finish(Termination.REACHED_T_END, _REACHED_T_END)
            if len(keep) < len(active):
                if len(active) > 1:
                    for m in active:
                        if m.termination is not None:
                            m.detach()
                active = [active[i] for i in keep]
                u, v = u_new[keep], v_new[keep]
            else:
                u, v = u_new, v_new
    return [m.result() for m in members]


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

    The single-member case of run_batch().  One run is strictly sequential
    in time and keeps no state outside its call, so any number of runs can
    execute in parallel workers.  For a
    fixed config the observable series is bitwise reproducible.
    """
    (result,) = run_batch([initial], [params], grid, cfg, t_end, recorder, forcing)
    return result
