"""Discrete spatial operators: diffusion, chemotactic transport, nonlocal source.

laplacian() and chemo_divergence() are flux differences on cell faces,
assembled by one kernel, _flux_divergence(), from the fluxes on the n-1
interior faces of each axis.  The boundary faces carry zero flux by
construction, so the discrete integrals of both operators telescope to zero
regardless of the input fields.  That telescoping is what makes the
per-step mass identity of the stepper exact up to solver/rounding noise.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, _require_finite, lp_norm_pow
from .params import ModelParams

FACE_SCHEMES = ("upwind", "central")


def _face_slabs(arr: np.ndarray, axis: int):
    left = tuple(slice(None, -1) if ax == axis else slice(None) for ax in range(arr.ndim))
    right = tuple(slice(1, None) if ax == axis else slice(None) for ax in range(arr.ndim))
    return arr[left], arr[right]


def _flux_divergence(face_flux: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    """Add (F_{i+1/2} - F_{i-1/2}) / h into ``out`` along ``axis``.

    ``face_flux`` holds the n-1 interior faces: face j is the right face of
    cell j and the left face of cell j+1.  The two boundary faces are
    zero-flux and contribute nothing.
    """
    flux = face_flux / h
    left_cells, right_cells = _face_slabs(out, axis)
    left_cells += flux
    right_cells -= flux


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian (3-point/5-point stencil) in flux form."""
    arr = _require_finite(f)
    out = np.zeros_like(arr)
    for axis, h in enumerate(grid.h):
        f_l, f_r = _face_slabs(arr, axis)
        _flux_divergence((f_r - f_l) / h, axis, h, out)
    return out


def chemo_divergence(
    u: np.ndarray,
    v: np.ndarray,
    grid: Grid,
    chi: float,
    scheme: str = "upwind",
    positivity_tol: float = 1e-12,
) -> np.ndarray:
    """Flux-form div(u * grad(v)); face value of u upwinded on sign(v_R - v_L).

    Upwinding preserves nonnegativity of the explicit transport update under
    the stepper's dt bound at first-order accuracy; scheme="central" uses the
    arithmetic face mean instead (second order, not positivity-safe).  The
    sensitivity chi fixes the transport direction; it is nonnegative here so
    the upwind side is decided by the sign of (v_R - v_L) alone.
    """
    if scheme not in FACE_SCHEMES:
        raise ValueError(f"unknown face scheme {scheme!r}")
    if chi < 0:
        raise ValueError(f"chi >= 0 required, got {chi}")
    ua = _require_finite(u, "u")
    va = _require_finite(v, "v")
    umin = float(ua.min())
    if umin < -positivity_tol:
        raise ValueError(f"u dips to {umin}, below -{positivity_tol}")

    out = np.zeros_like(ua)
    for axis, h in enumerate(grid.h):
        v_l, v_r = _face_slabs(va, axis)
        dv = (v_r - v_l) / h
        u_l, u_r = _face_slabs(ua, axis)
        if scheme == "upwind":
            u_face = np.where(dv > 0, u_l, u_r)
        else:
            u_face = 0.5 * (u_l + u_r)
        _flux_divergence(u_face * dv, axis, h, out)
    return out


def nonlocal_source(
    u: np.ndarray,
    grid: Grid,
    params: ModelParams,
    positivity_tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Reaction field a*u^alpha - b*u^alpha * I with I = int(u^beta).

    Returns (source field, I).  The integral is taken from the current u
    (explicit treatment), which keeps the reaction pointwise once I is
    known.  Values of u in [-positivity_tol, 0) are treated as 0 so
    fractional powers stay real; larger negatives are scheme errors.
    """
    ua = _require_finite(u, "u")
    umin = float(ua.min())
    if umin < -positivity_tol:
        raise ValueError(f"u dips to {umin}, below -{positivity_tol}")
    u_pos = np.maximum(ua, 0.0)
    if params.alpha == 1.0:
        u_alpha = u_pos
    else:
        u_alpha = u_pos**params.alpha
    nl_integral = lp_norm_pow(u_pos, grid, params.beta)
    source = (params.a - params.b * nl_integral) * u_alpha
    return source, nl_integral
