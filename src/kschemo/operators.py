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

from typing import Sequence

import numpy as np

from .grid import Grid
from .params import ModelParams

FACE_SCHEMES = ("upwind", "central")


def _column(values: Sequence[float], dim: int) -> np.ndarray:
    """Per-member scalars as a (B, 1, ...) column that broadcasts over fields."""
    return np.array(values, dtype=float).reshape((-1,) + (1,) * dim)


def _pow_rows(base: np.ndarray, exponents: list[float]) -> np.ndarray:
    """base[i] ** exponents[i] for each member row i (base itself for 1).

    A shared exponent is one call.  Mixed exponents go row by row through
    the same scalar power, so every member gets the bits it gets alone.
    """
    first = exponents[0]
    if exponents.count(first) == len(exponents):
        return base if first == 1.0 else base**first
    out = np.empty_like(base)
    for i, e in enumerate(exponents):
        out[i] = base[i] ** e
    return out


# per negative field axis, the cells left and right of each interior face
_FACES = {
    -1: ((Ellipsis, slice(None, -1)), (Ellipsis, slice(1, None))),
    -2: ((Ellipsis, slice(None, -1), slice(None)), (Ellipsis, slice(1, None), slice(None))),
}


def _flux_divergence(face_flux: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    """Add (F_{i+1/2} - F_{i-1/2}) / h into ``out`` along ``axis``.

    ``face_flux`` holds the n-1 interior faces: face j is the right face of
    cell j and the left face of cell j+1.  The two boundary faces are
    zero-flux and contribute nothing.  ``face_flux`` is divided in place,
    so callers pass an array they own.
    """
    face_flux /= h
    left, right = _FACES[axis]
    left_cells, right_cells = out[left], out[right]
    left_cells += face_flux
    right_cells -= face_flux


def _laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian (3-point/5-point stencil) in flux form."""
    out = np.zeros(f.shape)
    for axis, h in zip(grid.field_axes, grid.h):
        left, right = _FACES[axis]
        gradient = f[right] - f[left]
        gradient /= h
        _flux_divergence(gradient, axis, h, out)
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
    grid.h and grid.field_axes are read, so a slab of rows along the first
    field axis with a one-cell halo on each inner side gives its inner
    cells the exact bits of the whole-field call, and its maxima cover its
    own faces."""
    out = np.zeros(u.shape)
    grad_max = []
    for axis, h in zip(grid.field_axes, grid.h):
        left, right = _FACES[axis]
        dv = v[right] - v[left]
        dv /= h
        grad_max.append(np.maximum.reduce(np.abs(dv), axis=grid.field_axes))
        u_l, u_r = u[left], u[right]
        if scheme == "upwind":
            u_face = np.where(dv > 0, u_l, u_r)
        else:
            u_face = u_l + u_r
            u_face *= 0.5
        u_face *= dv
        _flux_divergence(u_face, axis, h, out)
        # freed before the next axis allocates its own
        del dv, u_face
    return out, grad_max


def _nonlocal_source(
    u: np.ndarray,
    grid: Grid,
    params: Sequence[ModelParams],
    alphas: list[float],
    betas: list[float],
) -> tuple[np.ndarray, list[float]]:
    """Source fields a*u^alpha - b*u^alpha * I, with I = int(u^beta), of a
    batch ``u`` with one ModelParams per member row; returns (fields, I of
    each row).

    I is taken from the current u (explicit treatment).  Values in
    [-1e-12, 0) (the positivity floor) count as 0, so fractional powers
    stay real.  ``alphas`` and ``betas`` are the rows' exponents.  When they
    agree row for row, u^beta is u^alpha: the same power of the same
    values.  The powers are this call's own arrays, so the source is built
    in place.
    """
    u_pos = np.maximum(u, 0.0)
    u_alpha = _pow_rows(u_pos, alphas)
    u_beta = u_alpha if alphas == betas else _pow_rows(u_pos, betas)
    sums = np.add.reduce(u_beta, axis=grid.field_axes)
    del u_beta  # freed before the source is built
    integrals = [grid.cell_volume * s for s in sums.tolist()]
    u_alpha *= _column([p.a - p.b * i for p, i in zip(params, integrals)], u.ndim - 1)
    return u_alpha, integrals

