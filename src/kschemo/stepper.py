"""IMEX time integration with adaptive dt and blow-up detection.

One step of size dt from (u_n, v_n):

  (i)   explicit terms at t_n: E_u = nonlocal source - chi * div(u grad v)
        the transport kernel subtracts its face fluxes from the source array
        itself, so no transport field is built; in a split step (iii) the
        march's helper thread writes one of two row slabs of it, and the
        source stays whole.  dt is the stability proposal of adapt_dt;
        the max u of each row that its reaction bound reads is carried from
        the extrema (iv) took off the solve that made u, or from a member's
        initial u
  (ii)  u_{n+1} solves (I - dt*L_h) u = u_n + dt*E_u          (implicit diffusion)
  (iii) v_{n+1} solves ((1+dt) I - dt*L_h) v = v_n + dt*u_n
        this rhs does not need u_{n+1}, so (ii) and (iii) are one rhs array
        over the u rows and then the v rows of all members, sigma = dt for u
        and dt/(1+dt) for v, solved in one stacked call (one transform pair,
        one gate).  A split step, decided once per active set (the march has
        a helper thread, a half holds at least _THREAD_CELLS cells and more
        than one CPU is usable), builds, solves and gates the u half on the
        helper and the v half on the calling thread.  A march (run_batch)
        starts at most one helper and joins it before it returns, so the
        stepper keeps no process-wide state
  (iv)  audit: a non-finite or negative result halves the member's dt and
        the batch is solved again from the explicit stage of (i); a solve
        that fails its backward-error gate (_helmholtz_checked) is a solver
        failure; a sup norm above the threshold is a blow-up

Diffusion and transport are exactly mass-neutral (flux form + mean-preserving
Helmholtz solves), so per accepted step

    int(u_{n+1}) - int(u_n) = dt * int(source)

up to solver residuals.  Blow-up is reported when the sup norm crosses the
configured threshold, dt collapses below dt_min or the retries hit their
cap: that realizes the extensibility dichotomy (run forever or watch the sup
norm escape), and is a report about the discrete trajectory, never a claim
about the PDE.  A dt collapse or the retry cap stays BlowupDetected although
it is a fact about the scheme at that state, not a sup norm that escaped;
such a run ends before t_end, so no verdict of observables.summarize can
read true on it.  Steps and runs share one vocabulary: a step accepts a
member's row (the row is not in its _Step's ``ends``) or names the
Termination that ends the member's run, with the cause the run reports.

There is one march, run_batch().  It advances B members, the parameter
points of a sweep, as fields stacked ``(B, *grid.shape)``.  Each member has
its own coefficients, t, dt, retries, sample times, diagnostics and
termination; the grid, StepperConfig, face scheme, t_end, Recorder and
forcing are shared.  The face scheme is an argument of the march that no
config key sets: every config run is upwind, and the manufactured-solution
study asks for central faces.  A member's numbers come from the same
elementwise operations and the same row reductions whatever the batch, so
its series is bitwise the one it gets alone.  run() is the B = 1 case.  A
forcing is asked once per field and step for all members:
``forcing.u(ts, grid)`` and ``forcing.v(ts, grid)`` take the members' times
and return their rows stacked ``(B, *grid.shape)``, which the march reads
and never writes.

A march keeps one step plan (_Plan), which _march builds from what the march
shares: its grid, StepperConfig, forcing, face scheme and helper thread, and
the per-axis eigenvalues of the grid.  A step (_advance) takes only what is
its own: the members' fields, times, dt caps and max u.  Per active set, the
rows' ModelParams, which run_batch sets when the march starts and when a
member leaves, the plan decides the split and holds the transports of
stage (i) (_transport_stage: none, the whole field, or the two row slabs of
a split step), the coefficient lists and the exponents of the source, and
each row's (chi, alpha - 1, a, b) that the dt proposal reads; per dt column,
the rows' dts, the dt and 1+dt, the shape of the stacked rhs and, per
checked solve of a step, its sigma, each row's ||A|| bound and sigma/h^2 for
the gate.  A value every row shares is held as a 0-d array, which numpy
broadcasts at half the cost of a (B, 1, ...) column (_per_row, _exponents).
The one rule: the plan builds a key's values once, when the key changes (a
new proposal, a retry halving, the t_end cap, a member leaving), and writes
none of them again.  A dt held at dt_max repeats the column (7097 of the
7408 solves of the 256-cell Criterion 2 run).  Each solve divides by its own
1 - sigma*lambda, a temporary.  The plan holds the values each solve would
compute, so no bit moves.

A step is a pure function of its member's fields, coefficients and dt,
whatever the batch or the thread split.  So when an accepted step of an
unforced member took no retry, ran at its proposed dt (not the t_end cap)
and returned u and v bit for bit, every later step that the cap would not
shorten is that same step: same dt, fields, extrema and residuals.  The
member replays such steps instead of solving them (_Member.replay): each
costs its time addition and a test of the next sample time.  t advances by
the same additions; the diagnostics move by what each step adds, its count
(its retries, mass identity violation and minima repeat the step's own);
record runs once, at the first due sample of the tail, and each later due
sample takes that row with its own time, as dt and the retry count do not
change either.  The march solves only the capped last step.  The series,
final state and diagnostics are bitwise those of solving every step;
RunDiagnostics counts the replayed steps apart.  Forced runs solve every
step.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import fftpack

from .grid import _POSITIVITY_TOL, Grid, State, integrate
from .observables import ObservableError, ObservableSeries, Termination, _k_column, record
from .operators import (
    FACE_SCHEMES,
    _ZERO,
    _chemo_divergence,
    _diffuse,
    _exponents,
    _nonlocal_source,
    _per_row,
    _transport,
)
from .params import ModelParams, mass_envelope, require

_EPS_RATE = 1e-30

# bound on the normwise backward error of every Helmholtz solve
_LINEAR_TOL = 1e-10

# halvings of dt one step may make before it reports a blow-up
_MAX_RETRIES = 20

# Cells (member rows * cells per row) from which a step runs its per-cell
# work on two threads: the transport in two row slabs, and the u and v
# halves of the solve, handed to the march's live helper thread.  Below it
# call dispatch outweighs the arithmetic.  Medians of five alternating runs
# (measured before the transport wrote the explicit stage itself) on 2
# vCPUs, serial -> helper, one bump member: the
# transport stage 128^2 0.36 -> 0.88 ms, 182^2 0.70 -> 1.03 ms, 256^2 1.77
# -> 1.37 ms; the checked solve of one u row and one v row 128^2 1.97 ->
# 1.96 ms, 182^2 5.5 -> 3.7 ms, 256^2 10.6 -> 5.6 ms.  A single member
# breaks even between 128^2 and 182^2.  Many small rows win from 2^16 on
# as well: 16 bump members at 64^2 (chi = 5, alpha x beta in {1.5..3} x
# {2..5}) to t_end 0.05 took 0.069 s split against 0.085 s serial on the
# same 2 vCPUs (medians of 6 alternating runs), so the threshold stays at
# 2^16.
_THREAD_CELLS = 1 << 16

# Cells per row up to which the gate takes a row's squared norm as one
# np.vecdot, a BLAS dot product, with no squared temporary.  OpenBLAS, which
# numpy's wheels ship, runs a dot product of 10000 elements or more on
# threads of its own, which then spin beside the march's helper thread: with
# np.vecdot on every row a 512^2 bump run (16 steps, 2 vCPUs) took
# 0.49-0.61 s against 0.32 s.  A longer row sums its squares, one array at
# a time.  Either way a row's bits depend on its own length and values only.
_DOT_CELLS = 1 << 13

# the row gradients adapt_dt reads when no row has chi > 0
_NO_GRADIENTS = itertools.repeat(())

# the audit decides what overflow and NaN mean, so numpy need not warn
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class StepperConfig:
    """dt clamp, CFL factor and sup norm threshold: the four ``stepper.*``
    keys of a config file.  The gate, positivity floor and retry cap are
    fixed numerics, not settings; the face scheme is an argument of the
    march (run_batch), which no config file sets."""

    dt_min: float = 1e-12
    dt_max: float = 1e-2
    cfl_safety: float = 0.4
    blowup_linf_threshold: float = 1e8

    def __post_init__(self) -> None:
        require(math.isfinite(self.dt_max) and self.dt_max > 0, "dt_max", "> 0", self.dt_max)
        require(
            0 < self.dt_min <= self.dt_max, "dt_min", f"in (0, dt_max={self.dt_max}]", self.dt_min
        )
        require(0 < self.cfl_safety <= 1, "cfl_safety", "in (0, 1]", self.cfl_safety)
        limit = self.blowup_linf_threshold
        require(math.isfinite(limit) and limit > 0, "blowup_linf_threshold", "> 0", limit)


def _neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the flux-form Neumann Laplacian in the DCT-II basis."""
    k = np.arange(n)
    return -4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / h**2


def _axis_eigenvalues(grid: Grid) -> list[np.ndarray]:
    """Eigenvalues of L_h along each axis in the DCT-II basis, each shaped to
    broadcast over a field.

    The modes are products of per-axis cosines, so each eigenvalue of the
    grid is the sum of its per-axis ones, taken from 0.0 in axis order
    (_denominator): the first axis comes with 0.0 added, which turns its
    -0.0 into 0.0.
    """
    eigenvalues = []
    for axis, (n, h) in enumerate(zip(grid.cells, grid.h)):
        shape = [1] * grid.dim
        shape[axis] = n
        eigenvalues.append(_neumann_eigenvalues(n, h).reshape(shape))
    eigenvalues[0] = 0.0 + eigenvalues[0]
    return eigenvalues


# per grid dimension, the orthonormal DCT-II over the field axes of a batch
# and its inverse, which transforms in place and consumes its input.
# scipy.fftpack runs the same pocketfft kernel with the same bits as
# scipy.fft, without its backend dispatch, which costs about 8 us a call
# (two 32^2 rows: 35 against 44 us); 1D calls the one-axis dct, cheaper than
# a one-axis dctn
_TRANSFORMS = {
    1: (
        functools.partial(fftpack.dct, type=2, norm="ortho", axis=-1),
        functools.partial(fftpack.idct, type=2, norm="ortho", axis=-1, overwrite_x=True),
    ),
    2: (
        functools.partial(fftpack.dctn, type=2, norm="ortho", axes=(-2, -1)),
        functools.partial(fftpack.idctn, type=2, norm="ortho", axes=(-2, -1), overwrite_x=True),
    ),
}


def _denominator(sigma, eigenvalues: list[np.ndarray]) -> np.ndarray:
    """1 - sigma*lambda for each row: the divisor of its cosine coefficients.

    lambda, the grid's eigenvalues, is summed from the per-axis ones of
    _axis_eigenvalues in the output array itself, so no grid-sized
    eigenvalue array outlives the call.
    """
    if len(eigenvalues) == 1:
        out = np.multiply(sigma, eigenvalues[0])
    else:
        first, second = eigenvalues
        out = np.empty(np.broadcast_shapes(np.shape(sigma), first.shape, second.shape))
        np.add(first, second, out=out)
        out *= sigma
    return np.subtract(1.0, out, out=out)


def _a_norm(sigmas: Sequence[float], grid: Grid) -> list[float]:
    """1 + 4 sigma sum(1/h^2) for each of ``sigmas``: the gate's bound on ||I - sigma*L_h||."""
    inverse_h2 = sum(1.0 / h**2 for h in grid.h)
    return [4.0 * sigma * inverse_h2 + 1.0 for sigma in sigmas]


class _Held(NamedTuple):
    """What a march's _Plan holds for the rows of one checked solve, built
    once per dt column: the per-axis eigenvalues, each row's ||A|| bound
    and the gate's ``stencil`` (the _diffuse stencil of the rows'
    sigma/h^2 per axis, as _per_row gives them)."""

    eigenvalues: list[np.ndarray]
    a_norm: list[float]
    stencil: tuple


def _hold(sigmas: Sequence[float], grid: Grid, eigenvalues) -> _Held:
    """The _Held of rows at ``sigmas``."""
    stencil = tuple(
        (_per_row([sigma / (h * h) for sigma in sigmas], grid.dim), left, right)
        for h, left, right in grid.faces
    )
    return _Held(eigenvalues, _a_norm(sigmas, grid), stencil)


def _helmholtz_core(rhs: np.ndarray, grid: Grid, sigma, held: _Held) -> np.ndarray:
    """Solve (I - sigma*L_h) w = rhs for each row of ``rhs``.

    The DCT-II modes are exact eigenvectors of the flux-form Neumann
    stencil in every axis, so one cosine transform over all axes
    diagonalizes the system in 1D and 2D alike.  ``sigma`` is a scalar or
    a (R, 1, ...) column with one entry per row; ``held`` is what the
    march's plan holds for these rows.  Rows are transformed, divided and
    clipped independently, so a row gets the same bits whatever rows it is
    stacked with: the stepper passes the u rows of all members followed by
    their v rows.
    """
    forward, inverse = _TRANSFORMS[len(grid.cells)]
    spectral = forward(rhs)
    spectral /= _denominator(sigma, held.eigenvalues)
    w = inverse(spectral)
    # (I - sigma*L_h)^-1 is entrywise nonnegative, so a negative entry in a
    # member whose rhs is nonnegative is transform rounding; clipping it
    # moves w toward the exact solution
    if np.minimum.reduce(rhs, axis=None) >= 0.0:
        np.maximum(w, _ZERO, out=w)
    else:
        nonnegative = rhs.min(axis=grid.field_axes) >= 0.0
        for i in np.flatnonzero(nonnegative):
            np.maximum(w[i], _ZERO, out=w[i])
    return w


def _helmholtz_checked(rhs: np.ndarray, grid: Grid, sigma, held: _Held) -> tuple:
    """Solve each row as _helmholtz_core does; return (w, and as lists by
    row the backward error, maximum and minimum of w).

    The backward error is ||r|| / (||A|| ||w|| + ||rhs||) with r = w -
    sigma*L_h w - rhs and the held ||A|| bound: the rounding in sigma*L_h w
    grows like eps * ||A|| * ||w||, so dividing by ||rhs|| alone fails fine
    grids whose solves are exact to working precision.  r is built from w -
    rhs with no Laplacian array: _diffuse runs the held sigma/h^2 stencil
    on it, the one diffusion kernel.  The squared norms are one np.vecdot
    per array, a dot product per row, on rows of up to _DOT_CELLS cells, and
    a sum of squares per row on longer ones.

    One call carries the u and the v rows of a step and the caller splits
    w and the lists at the member count, or, when the plan splits the
    step, _solve_halves makes one call per half on two threads.  Each
    row's numbers have the bits it gets alone, so both ways agree.  A
    non-finite row gets a meaningless error; callers test finiteness
    first, on the extrema, which propagate NaN and reach inf.
    """
    w = _helmholtz_core(rhs, grid, sigma, held)
    residual = w - rhs
    _diffuse(residual, w, held.stencil)
    # by row: the squared norms of w, rhs and the residual, the max and the
    # min of w, brought back in one list
    rows = len(w)
    stats = np.empty((5, rows))
    flat = (w, rhs, residual) if w.ndim == 2 else [x.reshape(rows, -1) for x in (w, rhs, residual)]
    w_rows, rhs_rows, residual_rows = flat
    if w_rows.shape[1] <= _DOT_CELLS:
        vecdot = np.vecdot
        vecdot(w_rows, w_rows, out=stats[0])
        vecdot(rhs_rows, rhs_rows, out=stats[1])
        vecdot(residual_rows, residual_rows, out=stats[2])
    else:
        for x, out in zip(flat, stats):
            np.add.reduce(np.square(x), axis=1, out=out)
    axes = grid.field_axes
    np.maximum.reduce(w, axes, out=stats[3])
    np.minimum.reduce(w, axes, out=stats[4])
    w_squares, rhs_squares, residual_squares, hi, lo = stats.tolist()
    # max keeps a NaN scale as its first argument, as np.maximum propagates it
    sqrt = math.sqrt
    errors = [
        sqrt(residual_square) / max(a * sqrt(w_square) + sqrt(rhs_square), 1e-300)
        for a, w_square, rhs_square, residual_square in zip(
            held.a_norm, w_squares, rhs_squares, residual_squares
        )
    ]
    return w, errors, hi, lo


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Peak bytes a march allocates per cell of one member's grid, its initial
# state, records and artifacts included: tracemalloc peaks over the cells.
# A config run (chi = 5 bump, 4 to 20 steps, each recorded, artifacts
# written) 1D 65536 cells 113, 2^20 112; 2D 256^2 108, 512^2 105 (4096
# cells: 133, its fixed costs spread over few cells).  An MMS level (4
# forced steps) 1D 65536 and 2^20 144; 2D 128^2 145, 256^2 140, 512^2 137
_PEAK_BYTES_PER_CELL = 145


def _physical_memory() -> float:
    """Bytes of physical memory, os.sysconf's page size x pages; inf where
    the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return math.inf


def require_memory(grid: Grid) -> None:
    """FieldError ``cells`` (at the axis with the most) unless a march of one
    member on ``grid``, at _PEAK_BYTES_PER_CELL, fits in physical memory.
    Callers check it before any field is allocated: a grid that does not
    fit would be killed while it allocates."""
    cells = math.prod(grid.cells)
    memory = _physical_memory()
    axis = grid.cells.index(max(grid.cells))
    rule = f"with {cells} cells x {_PEAK_BYTES_PER_CELL} B <= {memory} B of physical memory"
    require(cells * _PEAK_BYTES_PER_CELL <= memory, "cells", rule, grid.cells[axis], axis)


# Job cost (steps x cells) below which a pool's start and shutdown outweigh
# its gain.  A 16/32/64-cell MMS study on 2 vCPUs, pooled against in-process
# (medians of 5 alternating rounds): 109 vs 93 ms to t_end 0.02 (cost 24k),
# 212 vs 232 ms to 0.05 (60k), 277 vs 353 ms to 0.075 (90k)
_POOL_COST = 50_000


@contextlib.contextmanager
def _job_results(fn, jobs: Sequence[tuple], workers: int | None = None, costs=None):
    """Iterate fn(*job) over ``jobs`` in job order: on min(workers, jobs,
    usable CPUs) processes (``workers`` None: one per usable CPU), or in this
    process when that is 1 or the jobs' ``costs`` sum below _POOL_COST, each
    job as the iterator reaches it.  A pool gets the costliest job first;
    leaving the block shuts it down and cancels the jobs not yet started."""
    cpus = _usable_cpus()
    count = min(cpus if workers is None else workers, len(jobs), cpus)
    if count <= 1 or (costs is not None and sum(costs) < _POOL_COST):
        yield (fn(*job) for job in jobs)
        return
    pool = ProcessPoolExecutor(max_workers=count)
    try:
        # sorted is stable, so without costs the jobs go in job order
        order = sorted(range(len(jobs)), key=lambda k: 0 if costs is None else -costs[k])
        futures = {k: pool.submit(fn, *jobs[k]) for k in order}
        yield (futures[k].result() for k in range(len(jobs)))
    finally:
        pool.shutdown(cancel_futures=True)


def _threaded(rows: int, grid: Grid) -> bool:
    """Whether a step over ``rows`` member rows splits its per-cell work over two threads."""
    return rows * math.prod(grid.cells) >= _THREAD_CELLS and _usable_cpus() > 1


def _rates(params: Sequence[ModelParams]) -> list[tuple]:
    """What the dt proposal reads of each row's ModelParams: (chi, alpha - 1
    or None at alpha = 1, a, b)."""
    return [(p.chi, None if p.alpha == 1.0 else p.alpha - 1.0, p.a, p.b) for p in params]


class _Plan:
    """What a march's steps share: its grid, StepperConfig, forcing, face
    scheme and helper thread (or None), and the constants of its steps.

    Two keys decide what a step can take from the step before:
      * the active set, the rows' ModelParams, which run_batch sets
        (``members``) when the march starts and when a member leaves:
        ``split``, whether the helper takes half of each step's per-cell
        work (the march has one and the rows are _threaded), the rows'
        ``transports`` (none when every chi is 0, else the whole field's
        unsplit and the two row slabs' split), the coefficient and exponent
        lists of the source and the _rates of the dt proposal;
      * the dt column, the rows' dts: ``dt`` and ``shift`` = 1+dt (both
        _per_row), ``rhs_shape`` (the u rows stacked on the v rows) and
        ``solves``, one (sigma, _Held) per _helmholtz_checked call of a
        step, each sigma as _per_row gives it: the stacked rows (dt for u,
        dt/(1+dt) for v) unsplit, the u rows and the v rows split.
    Each key's values are built once, when the key changes, and none of
    them is written again.
    """

    def __init__(self, grid: Grid, cfg: StepperConfig, forcing, scheme: str,
                 helper: Optional[ThreadPoolExecutor]):
        self.grid = grid
        self.cfg = cfg
        self.forcing = forcing
        self.scheme = scheme
        self.helper = helper
        # per axis, not grid-sized: a 512^2 eigenvalue array held from the
        # start of a march made its steps fault about 1800 more pages each
        # (33k against 4k minor faults over a 16-step run, 18% of its time)
        self.eigenvalues = _axis_eigenvalues(grid)
        self.split = False
        self.transports: tuple = ()
        self.a = self.b = self.alphas = self.betas = None
        self.rates: list[tuple] = []
        self._dts: Optional[tuple] = None
        self.dt = self.shift = self.rhs_shape = None
        self.solves: tuple = ()

    def members(self, params: Sequence[ModelParams]) -> None:
        """Set the active set to ``params``, one per row, and decide its
        thread split."""
        grid = self.grid
        self.split = self.helper is not None and _threaded(len(params), grid)
        chis = [p.chi for p in params]
        self.transports = ()
        if any(c != 0.0 for c in chis):
            n = grid.cells[0]
            slabs = ((0, n // 2), (n // 2, n)) if self.split else (None,)
            self.transports = tuple(_transport(grid, self.scheme, chis, rows) for rows in slabs)
        self.a = [p.a for p in params]
        self.b = [p.b for p in params]
        alphas, betas = [p.alpha for p in params], [p.beta for p in params]
        self.alphas = _exponents(alphas)
        self.betas = self.alphas if betas == alphas else _exponents(betas)
        self.rates = _rates(params)

    def column(self, dts: Sequence[float]) -> None:
        """Set the dt column to ``dts``, one per member row."""
        key = tuple(dts)
        if key == self._dts:
            return
        self._dts = key
        grid = self.grid
        # Python floats round as numpy does on a column, so no bit moves
        shifts = [1.0 + dt for dt in key]
        sigmas = [*key, *(dt / shift for dt, shift in zip(key, shifts))]
        self.rhs_shape = (len(sigmas), *grid.shape)
        self.dt = _per_row(key, grid.dim)
        self.shift = _per_row(shifts, grid.dim)
        calls = (sigmas[: len(key)], sigmas[len(key) :]) if self.split else (sigmas,)
        self.solves = tuple(
            (_per_row(part, grid.dim), _hold(part, grid, self.eigenvalues)) for part in calls
        )


@contextlib.contextmanager
def _march(rows: int, grid: Grid, cfg: StepperConfig, forcing, scheme: str):
    """numpy's quiet error state and the _Plan of a march of ``rows`` member
    rows on ``grid`` under ``cfg``, ``forcing`` (or None) and the face
    ``scheme``, whose helper thread is live when _threaded, else None.
    numpy's error state belongs to the thread, so the helper sets its own
    once, for every task it runs; leaving the block joins it, also when the
    march raises."""
    with np.errstate(**_QUIET):
        if not _threaded(rows, grid):
            yield _Plan(grid, cfg, forcing, scheme, None)
            return
        quiet = functools.partial(np.seterr, **_QUIET)
        with ThreadPoolExecutor(1, "kschemo-step", initializer=quiet) as helper:
            yield _Plan(grid, cfg, forcing, scheme, helper)


def _beside(helper: ThreadPoolExecutor, helper_call, own_call) -> tuple:
    """(helper_call(), own_call()), the first on the march's helper thread: numpy's
    large ufuncs and scipy.fft release the GIL, so the two overlap."""
    theirs = helper.submit(helper_call)
    mine = own_call()
    return theirs.result(), mine


def _transport_stage(plan: _Plan, explicit, u, v):
    """explicit -= chi * div(u grad v) in place for the plan's active set;
    return _chemo_divergence's maxima, () when every chi is 0.

    Split, the plan's two transports are row slabs of the first field axis:
    the helper writes the first cells[0] // 2 rows and this thread the
    rest, each reading the faces of its rows, so every cell gets the
    whole-field bits.  Max is exact and propagates NaN, so the slabs'
    maxima combine exactly."""
    transports = plan.transports
    if len(transports) == 1:
        return _chemo_divergence(explicit, u, v, transports[0])
    if not transports:
        return ()
    slabs = (functools.partial(_chemo_divergence, explicit, u, v, t) for t in transports)
    top, bottom = _beside(plan.helper, *slabs)
    return [np.maximum(a, b) for a, b in zip(top, bottom)]


def _u_rhs(out, u, explicit, plan: _Plan) -> None:
    """The u rows' rhs u + dt*E_u, into ``out``."""
    np.multiply(plan.dt, explicit, out=out)
    np.add(out, u, out=out)


def _v_rhs(out, u, v, forcing_v, plan: _Plan) -> None:
    """The v rows' rhs (v + dt*(u [+ f_v])) / (1+dt), into ``out``."""
    if forcing_v is None:
        np.multiply(plan.dt, u, out=out)
    else:
        np.add(u, forcing_v, out=out)
        np.multiply(plan.dt, out, out=out)
    np.add(out, v, out=out)
    np.divide(out, plan.shift, out=out)


def _solve_halves(plan: _Plan, u, v, explicit, forcing_v) -> tuple:
    """Checked solve of the u rows (_u_rhs) and the v rows (_v_rhs) of a
    step at the plan's dt column.

    Returns (w_u, w_v, errors, maxima, minima), the last three lists over
    the u rows and then the v rows.  Rows are solved, gated and reduced
    independently, so a half gets the same bits alone or stacked.  One
    call per record of ``plan.solves``: unsplit, one stacked call solves
    both halves; split, the helper builds, solves, gates and reduces the u
    half while this thread does the v half.
    """
    n, grid = len(u), plan.grid
    rhs = np.empty(plan.rhs_shape)
    u_rhs, v_rhs = rhs[:n], rhs[n:]
    if not plan.split:
        _u_rhs(u_rhs, u, explicit, plan)
        _v_rhs(v_rhs, u, v, forcing_v, plan)
        w, rel, hi, lo = _helmholtz_checked(rhs, grid, *plan.solves[0])
        return w[:n], w[n:], rel, hi, lo

    u_solve, v_solve = plan.solves

    def u_half():
        _u_rhs(u_rhs, u, explicit, plan)
        return _helmholtz_checked(u_rhs, grid, *u_solve)

    def v_half():
        _v_rhs(v_rhs, u, v, forcing_v, plan)
        return _helmholtz_checked(v_rhs, grid, *v_solve)

    (w_u, rel_u, hi_u, lo_u), (w_v, rel_v, hi_v, lo_v) = _beside(plan.helper, u_half, v_half)
    return w_u, w_v, rel_u + rel_v, hi_u + hi_v, lo_u + lo_v


def _gate_message(rel: float) -> str:
    return f"helmholtz backward error {rel:.3e} exceeds tolerance {_LINEAR_TOL:.3e}"


def adapt_dt(
    umax: Sequence[float], rates: Sequence[tuple], grid: Grid, cfg: StepperConfig,
    integrals: Sequence[float], grad_max: Sequence[np.ndarray], caps: Sequence[float],
) -> list[float]:
    """Propose each member row's dt from its transport and reaction
    stability bounds, clamped to [dt_min, dt_max] and then to the row's
    cap (math.inf: none):

      transport bound (per axis): h / (chi * max|grad_h v| + eps)
      reaction  bound: 1 / ((a + b*I) * max(u)^(alpha-1) + eps)

    The rows' u have maxima ``umax``, their ModelParams give ``rates``
    (_rates) and their nonlocal integrals I are ``integrals``;
    ``grad_max`` is the per-axis max|grad_h v| that _chemo_divergence
    returns, empty when no chi > 0."""
    grads = zip(*map(np.ndarray.tolist, grad_max)) if grad_max else _NO_GRADIENTS
    dts = []
    for (chi, power, a, b), top, integral, row_grads, cap in zip(
        rates, umax, integrals, grads, caps
    ):
        bound = math.inf
        if chi > 0:
            for h, g in zip(grid.h, row_grads):
                bound = min(bound, h / (chi * g + _EPS_RATE))
        rate = a + b * integral
        if power is not None:
            try:
                rate *= max(top, 0.0) ** power
            except OverflowError:
                rate *= math.inf
        bound = min(bound, 1.0 / (rate + _EPS_RATE))
        dts.append(min(min(max(cfg.cfl_safety * bound, cfg.dt_min), cfg.dt_max), cap))
    return dts


def _stack(fields) -> np.ndarray:
    """Member fields as one (B, *shape) array; a single member is a view."""
    if len(fields) == 1:
        return np.asarray(fields[0], dtype=float)[None]
    return np.stack([np.asarray(f, dtype=float) for f in fields])


class _Step(NamedTuple):
    """What one step attempt did for a batch, as lists by member row.

    A row in ``ends`` ended its member's run, with the (Termination, cause)
    there; every other row was accepted, at ``dt`` after ``retries``
    halvings, with new fields whose u has maximum ``max_u``, minimum
    ``min_u`` and integral ``mass`` and whose v has minimum ``min_v``.
    ``source`` is the integral of each row's source at the start of the
    step, and ``rel`` the backward errors of each row's last solve, of the
    u rows and then the v rows.
    """

    dt: list
    retries: list
    ends: dict
    rel: list
    max_u: list
    min_u: list
    min_v: list
    mass: list
    source: list


def _audit(
    plan: _Plan,
    rows: Sequence[int],
    rel: list[float],
    hi: list[float],
    lo: list[float],
    dts: list[float],
    retries: list[int],
    ends: dict,
) -> list[int]:
    """Decide each member i in ``rows``; return those to retry at half dt.

    ``rel``, ``hi`` and ``lo`` are _solve_halves' backward errors, maxima
    and minima of every row of the batch: member i's u row at i, its v row
    at count + i, count = len(dts); the audit reads them and makes no array
    pass.  A retried member i has dts[i] halved and retries[i] counted; an
    ending one gets ends[i] = (Termination, cause).  The checks run in
    order: finiteness, the backward-error gate, the sup norm threshold,
    positivity.  The extrema propagate NaN and reach inf, so they double
    as the finiteness check.
    """
    # every row passes every check, in one test: the sums propagate NaN and
    # inf (finite terms that overflow only send the rows through the checks
    # below), and the backward errors, each >= 0, are at most their sum
    threshold = plan.cfg.blowup_linf_threshold
    if (
        math.isfinite(sum(hi) + sum(lo))
        and sum(rel) <= _LINEAR_TOL
        and max(hi) <= threshold
        and -threshold <= min(lo) >= -_POSITIVITY_TOL
    ):
        return []
    count = len(dts)
    retry = []
    for i in rows:
        u_hi, u_lo, v_hi, v_lo = hi[i], lo[i], hi[count + i], lo[count + i]
        rel_u, rel_v = rel[i], rel[count + i]
        if all(map(math.isfinite, (u_hi, u_lo, v_hi, v_lo))):
            if not (rel_u <= _LINEAR_TOL and rel_v <= _LINEAR_TOL):
                ends[i] = Termination.SOLVER_FAILURE, _gate_message(max(rel_u, rel_v))
                continue
            linf = max(u_hi, -u_lo)
            if linf > threshold:
                ends[i] = Termination.BLOWUP_DETECTED, f"sup norm {linf:.3e} above threshold"
                continue
            if u_lo >= -_POSITIVITY_TOL and v_lo >= -_POSITIVITY_TOL:
                continue
        # non-finite or negative: halve this member's dt and retry from the
        # same explicit stage
        retries[i] += 1
        if retries[i] > _MAX_RETRIES:
            cause = f"retry cap of {_MAX_RETRIES} reached"
        elif dts[i] / 2.0 < plan.cfg.dt_min:
            cause = "dt collapsed below dt_min during retries"
        else:
            dts[i] /= 2.0
            retry.append(i)
            continue
        ends[i] = Termination.BLOWUP_DETECTED, cause
    return retry


def _advance(
    plan: _Plan, u: np.ndarray, v: np.ndarray, ts: Sequence[float], caps: Sequence[float],
    umax: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, _Step]:
    """Take one step, (i)-(iv) above, for every member of the plan's active
    set, from trusted states.

    Returns the new fields and the _Step; a member's row holds its new
    state only when the step accepted it.  A retry halves the dt of the
    members that failed their audit and solves the whole batch again from
    the same explicit stage: a row's solve has the bits it gets alone, so
    every other member comes back bit for bit.  ``ts`` are the members'
    times, at which the forcing is asked; ``caps`` bound each member's dt
    (math.inf: no bound); ``umax`` is the max of each row of ``u`` (a march
    carries each member's from the step that made its row).
    """
    grid, forcing = plan.grid, plan.forcing
    explicit, integrals = _nonlocal_source(u, grid, plan.a, plan.b, plan.alphas, plan.betas)
    # the source's integral is taken now, as the explicit stage overwrites it
    source = np.add.reduce(explicit, axis=grid.field_axes).tolist()
    grad_max = _transport_stage(plan, explicit, u, v)
    forcing_v = None
    if forcing is not None:
        # one call per field for all members, each row at its member's time
        explicit += forcing.u(ts, grid)
        forcing_v = forcing.v(ts, grid)

    dts = adapt_dt(umax, plan.rates, grid, plan.cfg, integrals, grad_max, caps)
    count = len(dts)
    retries, ends = [0] * count, {}
    rows = range(count)
    while rows:
        plan.column(dts)
        u_new, v_new, rel, hi, lo = _solve_halves(plan, u, v, explicit, forcing_v)
        rows = _audit(plan, rows, rel, hi, lo, dts, retries, ends)

    volume, mass = grid.cell_volume, []
    for i, row_sum in enumerate(np.add.reduce(u_new, axis=grid.field_axes).tolist()):
        mass.append(volume * row_sum)
        source[i] *= volume
    return u_new, v_new, _Step(
        dts, retries, ends, rel, hi[:count], lo[:count], lo[count:], mass, source
    )


@dataclass(frozen=True)
class Recorder:
    """Sampling policy for a run: which L^k powers, how often."""

    k_list: tuple[float, ...] = (2.0, 4.0, 8.0)
    sample_interval: float = 0.1

    def __post_init__(self) -> None:
        finite = all(map(math.isfinite, self.k_list))
        require(finite and all(k > 1 for k in self.k_list), "k_list", "entries > 1", self.k_list)
        names = {_k_column(k) for k in self.k_list}  # series columns
        require(len(names) == len(self.k_list), "k_list", "with distinct columns", self.k_list)
        interval = self.sample_interval
        require(math.isfinite(interval) and interval > 0, "sample_interval", "> 0", interval)


@dataclass
class RunDiagnostics:
    """Counts and extrema of a run's accepted steps.  ``steps`` counts every
    accepted step; ``replayed_steps`` counts those of them taken as a replay
    of a fixed point rather than solved (see _fixed_point).
    ``max_gain_above_y1`` is the largest dt * int(source) of a solved step
    that started at or above its member's _barrier, -inf when none did;
    the comparison lemma makes it <= 0 (see _Member.accept)."""

    steps: int = 0
    replayed_steps: int = 0
    total_retries: int = 0
    max_mass_identity_violation: float = 0.0
    min_u: float = math.inf
    min_v: float = math.inf
    max_gain_above_y1: float = -math.inf


@dataclass
class RunResult:
    """Final state, series and termination of one run.

    ``cause`` says what ended it: "t_end reached", the ending step's cause
    (sup norm, dt collapse or retry cap, or the failed solver gate), or the
    observable check that failed.
    """

    state: State
    series: ObservableSeries
    termination: Termination
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)
    cause: str = ""


_REACHED_T_END = "t_end reached"

def _barrier(params: ModelParams, grid: Grid) -> float:
    """y1 * (1 + delta): the computed mass from which no step of an unforced
    march computes a positive source; inf when b = 0 or y1 is not finite
    (or underflows at a > 0), 0 at a = 0, where the source -b*I_n is <= 0.

    Exactly, a u_n >= 0 of mass m_n >= y1 has, by Jensen's inequality over
    the N cells of volume V, I_n = sum V u_n^beta >= (N*V)^(1-beta) m_n^beta
    >= a/b, as a/b = |Omega|^(1-beta) y1^beta.  Rounding is monotone, so the
    computed a - b*I_n is then <= 0, and the source integral, a sum of
    u^alpha times that one coefficient, has its sign.  delta covers the
    relative rounding errors of the numbers the chain passes through, in
    units u = 2^-53, with s = ceil(log2(N / 128)) + 26 the additions a term
    passes through in a pairwise sum of N cells (grid's module docstring):
    m_n, s + 1; I_n, whose powers are within one ulp, s + 3; y1, from a
    quotient, a product and two powers, the outer one at the rounded
    exponent 1/beta, which moves it by u*|ln y1|, 6 + ceil(|ln y1|); N*V
    against |Omega|, 4; the barrier's own product, 2.  Each enters as a
    product of (1 + e)^(+-1), |e| <= u, so with K their sum the ratio of the
    two sides is at most 1 + gamma_2K, gamma_k = k*u / (1 - k*u) (Higham,
    ch. 3), which delta is: about 1.5e-14 at 256 cells and y1 = 1.
    """
    try:
        y1 = mass_envelope(params, 0.0, grid.measure)[0]
    except ValueError:  # b = 0, or y1 is not finite
        return math.inf
    if y1 == 0.0:
        return 0.0 if params.a == 0 else math.inf
    s = math.ceil(math.log2(max(math.prod(grid.cells) / 128, 1.0))) + 26
    k = 2 * (2 * s + 16 + math.ceil(abs(math.log(y1))))
    return y1 * (1.0 + k / (2.0**53 - k))


def _end_tolerance(t_end: float) -> float:
    """How far short of ``t_end`` a member's time counts as t_end: 1e-12
    relative, and 1e-12 absolute below |t_end| = 1."""
    return 1e-12 * max(1.0, abs(t_end))


def require_horizon(t0: float, t_end: float) -> None:
    """FieldError ``t_end`` unless a march from ``t0`` to it takes a step:
    t_end finite and more than its _end_tolerance past t0.  An infinite
    t_end never ends a march, a NaN one ends it at its first sample, and
    one within the tolerance of t0 ends it at t0."""
    require(
        math.isfinite(t_end) and t_end - t0 > _end_tolerance(t_end),
        "t_end", f"finite > {t0!r} + 1e-12*max(1, |t_end|)", t_end,
    )


class _Member:
    """One batch member's fields, clock, series and diagnostics."""

    def __init__(
        self, initial: State, params: ModelParams, grid: Grid, recorder: Recorder, t_end: float,
        forced: bool,
    ):
        self.u, self.v, self.t, self.dt = initial.u, initial.v, initial.t, initial.dt_last
        self.params = params
        self.forced = forced
        # a forcing adds mass the lemma does not see (see accept)
        self.barrier = math.inf if forced else _barrier(params, grid)
        self.grid = grid
        self.recorder = recorder
        self.t_end = t_end
        self.time_tol = _end_tolerance(t_end)
        self.end = t_end - self.time_tol  # a step ending at or past it reaches t_end
        self.series = ObservableSeries.for_run(recorder.k_list)
        self.diag = RunDiagnostics()
        self.next_sample = initial.t + recorder.sample_interval
        # a step ending at or past it samples or reaches t_end (see arrive)
        self.due = min(self.next_sample - self.time_tol, self.end)
        self.termination: Optional[Termination] = None
        self.cause = ""
        self.mass = self.top = 0.0  # the mass and max u of the member's fields

    @property
    def state(self) -> State:
        return State(self.u, self.v, self.t, self.dt)

    def start(self) -> bool:
        """Record the initial row; False when the member is already done."""
        if not self.sample():
            return False
        u, v = self.u, self.v
        self.mass = integrate(u, self.grid)
        self.top = float(np.max(u))
        self.diag.min_u = float(np.min(u))
        self.diag.min_v = float(np.min(v))
        if self.t >= self.end:
            self.finish(Termination.REACHED_T_END, _REACHED_T_END)
            return False
        return True

    def sample(self, row: Optional[tuple] = None) -> bool:
        """Append a series row at the member's time: ``row``, a row of the
        same fields taken earlier, with its time replaced, else a row
        recorded now; an inconsistent row ends the member."""
        if row is not None:
            self.series.append((self.t, *row[1:]))
            return True
        try:
            row = record(
                self.state, self.grid, self.params, self.recorder.k_list, self.diag.total_retries
            )
        except ObservableError as exc:
            self.finish(Termination.SOLVER_FAILURE, str(exc))
            return False
        self.series.append(row)
        return True

    def arrive(self, row: Optional[tuple] = None) -> bool:
        """The sample and t_end rules, for a step that ended at or past
        ``due``: sample (``row`` as sample takes it), move the sample clock
        past t and finish at t_end; False when the member is done."""
        t, tol = self.t, self.time_tol
        if not self.sample(row):
            return False
        while self.next_sample <= t + tol:
            self.next_sample += self.recorder.sample_interval
        self.due = min(self.next_sample - tol, self.end)
        if t < self.end:
            return True
        self.finish(Termination.REACHED_T_END, _REACHED_T_END)
        return False

    def accept(self, step: _Step, i: int, u: np.ndarray, v: np.ndarray) -> bool:
        """Take row i of an accepted ``step`` to fields (u, v), sample when
        due and finish at t_end; unless the member is forced, replay the
        step while it is a fixed point (see _fixed_point).  False when the
        member is done.  A step that started at a mass at or above the
        _barrier checks the comparison lemma, dt * int(source) <= 0, into
        RunDiagnostics.max_gain_above_y1; a replayed step repeats its own
        step's numbers, so it needs no check."""
        dt, mass = step.dt[i], step.mass[i]
        fixed = not self.forced and _fixed_point(
            step, i, self.t_end - self.t, self.mass, self.top, self.u, self.v, u, v
        )
        self.u, self.v, self.dt = u, v, dt
        self.t = t = self.t + dt
        diag = self.diag
        if self.mass >= self.barrier:
            gain = dt * step.source[i]
            if gain > diag.max_gain_above_y1:
                diag.max_gain_above_y1 = gain
        diag.steps += 1
        diag.total_retries += step.retries[i]
        # each "if" takes the other value exactly when max or min would
        violation = abs(mass - self.mass - dt * step.source[i]) / max(mass, 1e-300)
        if violation > diag.max_mass_identity_violation:
            diag.max_mass_identity_violation = violation
        if step.min_u[i] < diag.min_u:
            diag.min_u = step.min_u[i]
        if step.min_v[i] < diag.min_v:
            diag.min_v = step.min_v[i]
        self.mass, self.top = mass, step.max_u[i]
        if t >= self.due and not self.arrive():
            return False
        return not fixed or self.replay()

    def replay(self) -> bool:
        """Take the accepted step that left the fields unchanged again, for
        every later step the t_end cap would not shorten; False when the
        member is done.

        Each replayed step adds its dt to t and counts as a step; it moves
        no other diagnostic, as its retries (0), mass identity violation and
        minima are the ones the step itself counted.  The first due sample
        records a row and later ones take it with their own time, the
        fields, dt and retries being the same."""
        dt, t_end, t, due = self.dt, self.t_end, self.t, self.due
        row, replayed = None, 0
        while t_end - t >= dt:
            t += dt
            replayed += 1
            if t >= due:
                self.t = t
                if not self.arrive(row):
                    break
                row, due = self.series.rows[-1], self.due
        self.t = t
        self.diag.steps += replayed
        self.diag.replayed_steps += replayed
        return self.termination is None

    def finish(self, termination: Termination, cause: str) -> None:
        self.termination = termination
        self.cause = cause

    def detach(self) -> None:
        """Copy the final fields out of the batch arrays they view."""
        self.u, self.v = self.u.copy(), self.v.copy()

    def result(self) -> RunResult:
        return RunResult(self.state, self.series, self.termination, self.diag, self.cause)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float rows hold the same bits (0.0 and -0.0 differ)."""
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _fixed_point(
    step: _Step, i: int, cap: float, mass: float, top: float, u, v, u_new, v_new
) -> bool:
    """Whether row i of an accepted step is a fixed point of the step map:
    it took no retry, its dt was the proposal and not the t_end ``cap``,
    and its new rows ``u_new``, ``v_new`` are its old rows ``u``, ``v`` bit
    for bit.  ``mass`` and ``top`` are the member's mass and max u before
    the step; comparing them first keeps the array passes off every step
    whose mass or max moved (the max moves on 3108 of the 3235 steps of the
    256-cell Criterion 2 run whose mass holds)."""
    return (
        step.retries[i] == 0
        and step.dt[i] < cap
        and step.mass[i] == mass
        and step.max_u[i] == top
        and _same_bits(u_new, u)
        and _same_bits(v_new, v)
    )


def run_batch(
    initials: Sequence[State],
    params: Sequence[ModelParams],
    grid: Grid,
    cfg: StepperConfig,
    t_end: float,
    recorder: Recorder,
    forcing=None,
    face_scheme: str = "upwind",
) -> list[RunResult]:
    """March each member from its initial state until t_end, blow-up or solver failure.

    ``initials[i]`` and ``params[i]`` make member i; everything else is
    shared by construction.  ``forcing``, when given, is called once per
    field and step for all active members, ``forcing.u(ts, grid)`` with
    their times ``ts``, and returns their rows stacked ``(B, *grid.shape)``
    (see verification.Forcing).  ``face_scheme``, one of
    operators.FACE_SCHEMES, sets the transport's face value of u; FieldError
    names any other, and ``t_end`` unless it is finite and exceeds every
    initial time.  A member that finishes leaves the batch
    and the others go on.  For a fixed input each member's series is bitwise
    reproducible and independent of the batch it runs in.  A batch touches
    no process-wide state (a threaded march's one helper thread ends with
    the march), so batches can run in parallel workers, forked or spawned.
    """
    if not params or len(initials) != len(params):
        raise ValueError("need one ModelParams per initial state")
    require(face_scheme in FACE_SCHEMES, "face_scheme", f"in {FACE_SCHEMES}", face_scheme)
    for initial in initials:
        require_horizon(initial.t, t_end)
        initial.validate(grid)

    forced = forcing is not None
    members = [_Member(st, p, grid, recorder, t_end, forced) for st, p in zip(initials, params)]
    with _march(len(members), grid, cfg, forcing, face_scheme) as plan:
        active = [m for m in members if m.start()]
        if active:
            u, v = _stack([m.u for m in active]), _stack([m.v for m in active])
            plan.members([m.params for m in active])
        while active:
            ts = [m.t for m in active]
            caps = [t_end - t for t in ts]
            u_new, v_new, step = _advance(plan, u, v, ts, caps, [m.top for m in active])
            left = False
            for i, m in enumerate(active):
                if i in step.ends:
                    m.finish(*step.ends[i])
                    left = True
                elif not m.accept(step, i, u_new[i], v_new[i]):
                    left = True
            u, v = u_new, v_new
            if left:
                keep = [i for i, m in enumerate(active) if m.termination is None]
                if len(active) > 1:
                    for m in active:
                        if m.termination is not None:
                            m.detach()
                active = [active[i] for i in keep]
                u, v = u[keep], v[keep]
                if active:
                    plan.members([m.params for m in active])
    return [m.result() for m in members]


def run(
    initial: State,
    params: ModelParams,
    grid: Grid,
    cfg: StepperConfig,
    t_end: float,
    recorder: Recorder,
    forcing=None,
    face_scheme: str = "upwind",
) -> RunResult:
    """March from ``initial`` until t >= t_end, blow-up, or solver failure.

    The single-member case of run_batch().  One run is strictly sequential
    in time and keeps no state outside its call, so any number of runs can
    execute in parallel workers.  For a
    fixed config the observable series is bitwise reproducible.
    """
    (result,) = run_batch([initial], [params], grid, cfg, t_end, recorder, forcing, face_scheme)
    return result
