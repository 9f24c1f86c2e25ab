"""Discrete spatial operators: diffusion, chemotactic transport, nonlocal source.

laplacian() and chemo_divergence() are flux differences on cell faces,
assembled by one kernel, _flux_divergence(), from the fluxes on the n-1
interior faces of each axis.  The boundary faces carry zero flux by
construction, so the discrete integrals of both operators telescope to zero
regardless of the input fields.  That telescoping is what makes the
per-step mass identity of the stepper exact up to solver/rounding noise.

Every kernel acts on the trailing ``grid.dim`` axes, so a batch of fields
``(B, *grid.shape)`` is one call.  The underscored kernels trust their
input and serve the stepper, whose audit already vouches for each accepted
state; the public functions validate first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import Grid, _require_finite, _require_nonnegative
from .params import ModelParams

FACE_SCHEMES = ("upwind", "central")


def _column(values: Sequence[float], dim: int) -> np.ndarray:
    """Per-member scalars as a (B, 1, ...) column that broadcasts over fields."""
    return np.array(values, dtype=float).reshape((-1,) + (1,) * dim)


def _pow_rows(base: np.ndarray, exponents: Sequence[float]) -> np.ndarray:
    """base[i] ** exponents[i] for each member row i (base itself for 1).

    A shared exponent is one call.  Mixed exponents go row by row through
    the same scalar power, so every member gets the bits it gets alone.
    """
    first = exponents[0]
    if all(e == first for e in exponents):
        return base if first == 1.0 else base**first
    out = np.empty_like(base)
    for i, e in enumerate(exponents):
        out[i] = base[i] ** e
    return out


def _face_slabs(arr: np.ndarray, axis: int):
    """The cells left and right of each interior face along a negative ``axis``."""
    tail = (slice(None),) * (-axis - 1)
    return arr[(Ellipsis, slice(None, -1)) + tail], arr[(Ellipsis, slice(1, None)) + tail]


def _flux_divergence(face_flux: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    """Add (F_{i+1/2} - F_{i-1/2}) / h into ``out`` along ``axis``.

    ``face_flux`` holds the n-1 interior faces: face j is the right face of
    cell j and the left face of cell j+1.  The two boundary faces are
    zero-flux and contribute nothing.  ``face_flux`` is divided in place,
    so callers pass an array they own.
    """
    face_flux /= h
    left_cells, right_cells = _face_slabs(out, axis)
    left_cells += face_flux
    right_cells -= face_flux


def _laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(f)
    for axis, h in zip(grid.field_axes, grid.h):
        f_l, f_r = _face_slabs(f, axis)
        gradient = f_r - f_l
        gradient /= h
        _flux_divergence(gradient, axis, h, out)
        # freed before the next axis allocates its own
        del gradient
    return out


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian (3-point/5-point stencil) in flux form."""
    return _laplacian(_require_finite(f), grid)


def _chemo_divergence(u: np.ndarray, v: np.ndarray, grid: Grid, scheme: str) -> tuple:
    """The transport field of a batch and, per axis, max|grad_h v| of each row.

    The stepper's transport bound reads these maxima of the face gradients
    (max|dv / h| is max|dv| / h exactly: rounding is monotone)."""
    out = np.zeros_like(u)
    grad_max = []
    for axis, h in zip(grid.field_axes, grid.h):
        v_l, v_r = _face_slabs(v, axis)
        dv = v_r - v_l
        dv /= h
        grad_max.append(np.abs(dv).max(axis=grid.field_axes))
        u_l, u_r = _face_slabs(u, axis)
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


def chemo_divergence(
    u: np.ndarray, v: np.ndarray, grid: Grid, scheme: str = "upwind"
) -> np.ndarray:
    """Flux-form div(u * grad(v)); face value of u upwinded on sign(v_R - v_L).

    Upwinding preserves nonnegativity of the explicit transport update under
    the stepper's dt bound at first-order accuracy; scheme="central" uses the
    arithmetic face mean instead (second order, not positivity-safe).  Callers
    multiply the result by chi, which ModelParams keeps nonnegative, so the
    upwind side is decided by the sign of (v_R - v_L) alone.
    """
    if scheme not in FACE_SCHEMES:
        raise ValueError(f"unknown face scheme {scheme!r}")
    ua = _require_finite(u, "u")
    va = _require_finite(v, "v")
    _require_nonnegative(ua, "u")
    return _chemo_divergence(ua, va, grid, scheme)[0]


def _nonlocal_source(
    u: np.ndarray, grid: Grid, params: Sequence[ModelParams]
) -> tuple[np.ndarray, list[float]]:
    """Source fields of a batch ``u`` with one ModelParams per member row."""
    u_pos = np.maximum(u, 0.0)
    u_alpha = _pow_rows(u_pos, [p.alpha for p in params])
    sums = _pow_rows(u_pos, [p.beta for p in params]).sum(axis=grid.field_axes)
    integrals = [grid.cell_volume * s for s in sums.tolist()]
    coefficient = _column([p.a - p.b * i for p, i in zip(params, integrals)], grid.dim)
    return coefficient * u_alpha, integrals


def nonlocal_source(
    u: np.ndarray, grid: Grid, params: ModelParams
) -> tuple[np.ndarray, float]:
    """Reaction field a*u^alpha - b*u^alpha * I with I = int(u^beta).

    Returns (source field, I).  The integral is taken from the current u
    (explicit treatment), which keeps the reaction pointwise once I is
    known.  Values of u in [-1e-12, 0) (the positivity floor) are treated
    as 0 so fractional powers stay real; larger negatives are scheme errors.
    """
    ua = _require_finite(u, "u")
    _require_nonnegative(ua, "u")
    source, (integral,) = _nonlocal_source(ua[None], grid, [params])
    return source[0], integral
