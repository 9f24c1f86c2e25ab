"""Discrete spatial operators: diffusion, chemotactic transport, nonlocal source.

Diffusion and transport are flux differences on cell faces, built from the
fluxes on the n-1 interior faces of each axis: a face's flux leaves the
cell left of it and enters the one right of it.  The boundary faces carry
zero flux by construction, so the discrete integrals of both operators
telescope to zero regardless of the input fields.  That telescoping is
what makes the per-step mass identity of the stepper exact up to
solver/rounding noise.

Each has one kernel, and the module holds only what a march runs.
_diffuse() serves the stepper's residual gate at sigma/h^2.
_chemo_divergence() writes chi * div(u grad v) straight into the explicit
stage, with chi/h^2 folded into each face flux; its face value, gradient
maxima and row slabs (a _Transport: every cell, or the rows of one slab of
the first axis, so that two threads fill one stage) keep it from _diffuse.

Every kernel acts on the trailing ``grid.dim`` axes, so a batch of fields
``(B, *grid.shape)`` is one call.  The kernels trust their input: they
serve the stepper, whose audit already vouches for each accepted state.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .grid import Grid, _constant

FACE_SCHEMES = ("upwind", "central")

_ZERO = _constant(0.0)


def _column(values: Sequence[float], dim: int) -> np.ndarray:
    """Per-member scalars as a (B, 1, ...) column that broadcasts over fields."""
    return np.array(values, dtype=float).reshape((-1,) + (1,) * dim)


def _per_row(values: Sequence[float], dim: int) -> np.ndarray:
    """Per-member scalars as an operand that broadcasts over the rows'
    fields: their one value, as a 0-d array, when every row has the same
    bits, else the _column.  numpy broadcasts a 0-d operand at half the
    cost of a column (0.5 against 1.0 us for one 256-cell row)."""
    first = values[0]
    if values.count(first) == len(values) and (
        first != 0.0 or len({math.copysign(1.0, value) for value in values}) == 1
    ):
        return np.array(first)
    return _column(values, dim)


def _pow_rows(base: np.ndarray, exponents) -> np.ndarray:
    """base[i] ** exponents[i] for each member row i, with ``exponents`` as
    _exponents gives them: None is base itself; one exponent that every
    row shares is one call; mixed ones go row by row through the same
    scalar power, so every member gets the bits it gets alone."""
    if exponents is None:
        return base
    if not isinstance(exponents, list):
        return base**exponents
    out = np.empty_like(base)
    for i, e in enumerate(exponents):
        out[i] = base[i] ** e
    return out


def _exponents(values: list[float]):
    """``values``, one exponent per member row, as _pow_rows takes them:
    None when every one is 1, a 0-d array of the one every row shares (a
    power takes it with the bits of the float and 0.4-0.6 us sooner on 256
    cells), else the list."""
    first = values[0]
    if values.count(first) != len(values):
        return values
    return None if first == 1.0 else np.array(first)


def _diffuse(out: np.ndarray, f: np.ndarray, stencil) -> None:
    """out -= sum over axes of scale * h^2 * (the axis' part of L_h f), in
    place, for a batch.  ``stencil`` holds, per axis, (scale, left, right):
    a scalar or _per_row operand and the cells left and right of the
    interior faces (Grid.faces).  Each face moves scale * (f[right] -
    f[left]) out of the cell left of it and into the one right of it."""
    for scale, left, right in stencil:
        flux = f[right] - f[left]
        flux *= scale
        cells = out[left]
        cells -= flux
        cells = out[right]
        cells += flux
        # freed before the next axis allocates its own
        del flux


class _Transport(NamedTuple):
    """What _chemo_divergence reads besides its three arrays.

    ``faces`` holds, per axis, (chi/h^2, h, left, right, lower, lower_faces,
    upper, upper_faces): chi/h^2 of the rows (_per_row; chi/(2h^2) for
    central faces, whose face value is the sum of the two cells), the
    axis' h, the cells left and right of the faces the call takes, as
    indices into u and v, and the cells of the output left of those faces
    (``lower``) and right of them (``upper``) that the call writes, with
    the faces that reach them (None: all it takes).
    """

    upwind: bool
    axes: tuple
    faces: tuple


def _transport(grid: Grid, scheme: str, chis: Sequence[float],
               rows: Optional[tuple[int, int]] = None) -> _Transport:
    """The _Transport of chi * div(u grad v) on ``grid`` for rows with
    ``chis``, under the face ``scheme``.  ``rows`` = (start, stop) confines
    the writes to those rows of the first field axis, a slab: the call
    takes every face with a cell in it and writes only the cells in it."""
    n = grid.cells[0]
    start, stop = (0, n) if rows is None else rows
    inner = (slice(None),) * (grid.dim - 1)
    # the first axis' faces from first to last - 1: face j is the right
    # face of cell j; the cells each side of them that the slab owns
    first, last = max(start - 1, 0), min(stop, n - 1)
    low, high = max(first, start), min(last + 1, stop)

    def along(begin, end):
        return (Ellipsis, slice(begin, end)) + inner

    def taken(begin, end):  # faces first + begin to first + end, None: all
        return None if (begin, end) == (0, last - first) else along(begin, end)

    faces = [(
        along(first, last), along(first + 1, last + 1),
        along(low, last), taken(low - first, last - first),
        along(first + 1, high), taken(0, high - first - 1),
    )]
    if grid.dim == 2:
        own = slice(None) if rows is None else slice(start, stop)
        left, right = (Ellipsis, own, slice(None, -1)), (Ellipsis, own, slice(1, None))
        faces.append((left, right, left, None, right, None))
    # a central face's mean halves the sum of its cells, which is exact, so
    # the half folds into chi/h^2 with the bits of halving the sum
    fold = 1.0 if scheme == "upwind" else 2.0
    return _Transport(scheme == "upwind", grid.field_axes, tuple(
        (_per_row([chi / (fold * h * h) for chi in chis], grid.dim), h_axis, *indices)
        for h, (h_axis, _, _), indices in zip(grid.h, grid.faces, faces)
    ))


def _chemo_divergence(out: np.ndarray, u: np.ndarray, v: np.ndarray,
                      transport: _Transport) -> list:
    """Subtract chi * div(u grad v) of a batch from ``out`` in place, where
    ``transport`` says; return, per axis, max|grad_h v| of each row over
    the faces it takes.

    Each face's flux chi/h^2 * u_face * (v_R - v_L) leaves the cell left of
    it and enters the one right of it, the first axis before the second, so
    no face gradient is formed as an array.  With upwind faces the face
    value of u comes from the side that sign(v_R - v_L) picks, which keeps
    the explicit transport update nonnegative under the stepper's dt bound
    at first order; central faces take the face mean (second order, not
    positivity-safe).  ModelParams keeps chi nonnegative.  The stepper's
    transport bound reads the maxima of the face gradients, taken as
    max|dv| / h, which is max|dv / h| exactly (rounding is monotone).  A
    cell's update is the same sequence of roundings whichever call writes
    it, so two slabs (_transport's ``rows``) that share no row give their
    cells the bits of the whole-field call, and the maxima of the two cover
    every face."""
    grad_max = []
    upwind, axes = transport.upwind, transport.axes
    for chi_h2, h, left, right, lower, lower_faces, upper, upper_faces in transport.faces:
        dv = v[right] - v[left]
        grad_max.append(np.maximum.reduce(np.abs(dv), axis=axes) / h)
        flux = np.where(dv > _ZERO, u[left], u[right]) if upwind else u[left] + u[right]
        flux *= dv
        flux *= chi_h2
        cells = out[lower]
        cells -= flux if lower_faces is None else flux[lower_faces]
        cells = out[upper]
        cells += flux if upper_faces is None else flux[upper_faces]
        # freed before the next axis allocates its own
        del dv, flux
    return grad_max


def _nonlocal_source(
    u: np.ndarray, grid: Grid, a: list[float], b: list[float], alphas, betas
) -> tuple[np.ndarray, list[float]]:
    """Source fields a*u^alpha - b*u^alpha * I, with I = int(u^beta), of a
    batch ``u``; returns (fields, I of each row).

    ``a`` and ``b`` are the rows' coefficients and ``alphas`` and
    ``betas`` their _exponents.  I is taken from the current u (explicit
    treatment).  Values in [-1e-12, 0) (the positivity floor) count as 0,
    so fractional powers stay real.  When ``betas`` is ``alphas``, u^beta
    is u^alpha: the same power of the same values.  The powers are this
    call's own arrays, so the source is built in place.
    """
    u_pos = np.maximum(u, _ZERO)
    u_alpha = _pow_rows(u_pos, alphas)
    u_beta = u_alpha if betas is alphas else _pow_rows(u_pos, betas)
    volume, integrals, coefficients = grid.cell_volume, [], []
    for a_i, b_i, row_sum in zip(a, b, np.add.reduce(u_beta, axis=grid.field_axes).tolist()):
        integral = volume * row_sum
        integrals.append(integral)
        coefficients.append(a_i - b_i * integral)
    del u_beta  # freed before the source is built
    u_alpha *= _per_row(coefficients, u.ndim - 1)
    return u_alpha, integrals
