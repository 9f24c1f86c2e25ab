"""Discrete spatial operators: diffusion, chemotactic transport, nonlocal source.

_laplacian() and _chemo_divergence() are flux differences on cell faces,
assembled by one kernel, _flux_divergence(), from the fluxes on the n-1
interior faces of each axis.  The boundary faces carry zero flux by
construction, so the discrete integrals of both operators telescope to zero
regardless of the input fields.  That telescoping is what makes the
per-step mass identity of the stepper exact up to solver/rounding noise.

Every kernel acts on the trailing ``grid.dim`` axes, so a batch of fields
``(B, *grid.shape)`` is one call.  The kernels trust their input: they
serve the stepper, whose audit already vouches for each accepted state.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import Grid, _constant

FACE_SCHEMES = ("upwind", "central")

_ZERO, _HALF = _constant(0.0), _constant(0.5)


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


def _flux_divergence(face_flux: np.ndarray, left, right, h: float, out: np.ndarray) -> None:
    """Add (F_{i+1/2} - F_{i-1/2}) / h into ``out`` along the axis whose
    cells ``left`` and ``right`` of its interior faces Grid.faces gives.

    ``face_flux`` holds the n-1 interior faces: face j is the right face of
    cell j and the left face of cell j+1.  The two boundary faces are
    zero-flux and contribute nothing.  ``face_flux`` is divided in place,
    so callers pass an array they own.
    """
    face_flux /= h
    left_cells, right_cells = out[left], out[right]
    left_cells += face_flux
    right_cells -= face_flux


def _laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian (3-point/5-point stencil) in flux form."""
    out = np.zeros(f.shape)
    for h, left, right in grid.faces:
        gradient = f[right] - f[left]
        gradient /= h
        _flux_divergence(gradient, left, right, h, out)
        # freed before the next axis allocates its own
        del gradient
    return out


def _chemo_divergence(u: np.ndarray, v: np.ndarray, grid: Grid, scheme: str) -> tuple:
    """The transport field div(u grad v) of a batch and, per axis,
    max|grad_h v| of each row.

    With ``scheme`` "upwind" the face value of u comes from the side that
    sign(v_R - v_L) picks, which keeps the explicit transport update
    nonnegative under the stepper's dt bound at first order; "central"
    takes the face mean (second order, not positivity-safe).  Callers
    multiply by chi, which ModelParams keeps nonnegative.  The stepper's
    transport bound reads the maxima of the face gradients (max|dv / h| is
    max|dv| / h exactly: rounding is monotone).  Only
    grid.faces and grid.field_axes are read, so a slab of rows along the first
    field axis with a one-cell halo on each inner side gives its inner
    cells the exact bits of the whole-field call, and its maxima cover its
    own faces."""
    out = np.zeros(u.shape)
    grad_max = []
    axes = grid.field_axes
    for h, left, right in grid.faces:
        dv = v[right] - v[left]
        dv /= h
        grad_max.append(np.maximum.reduce(np.abs(dv), axis=axes))
        if scheme == "upwind":
            u_face = np.where(dv > _ZERO, u[left], u[right])
        else:
            u_face = u[left] + u[right]
            u_face *= _HALF
        u_face *= dv
        _flux_divergence(u_face, left, right, h, out)
        # freed before the next axis allocates its own
        del dv, u_face
    return out, grad_max


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
