"""Model parameters, growth-regime classification and the total-mass envelope.

The simulated system is

    u_t = lap(u) - chi * div(u * grad(v)) + a*u^alpha - b*u^alpha * int(u^beta)
    tau * v_t = lap(v) - v + u

on a box with zero-flux boundaries.  Two parameter regions are known to
produce globally bounded solutions:

    subquadratic:   1 <= alpha < 2   and  beta > (n + 4)/2 - alpha
    superquadratic: beta > n/2       and  2 <= alpha < 1 + 2*beta/n

All inequalities apart from the alpha range edges are strict; boundary
equalities classify as ``UNCOVERED`` (no extrapolation beyond the known
region).  Total mass obeys int(u(t)) <= m0 = max(int(u0), y1) with
y1 = (a / (b * |Omega|^(1-beta)))^(1/beta), the equilibrium cap of the
comparison ODE y' = gamma(t) * (a - b*|Omega|^(1-beta) * y^beta).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional


class FieldError(ValueError):
    """A dataclass field holds a value outside its admissible range.

    ``field`` names the field; ``axis`` is the tuple index of a per-axis
    field such as Grid.cells, None otherwise.
    """

    def __init__(self, field: str, message: str, axis: int | None = None):
        super().__init__(message)
        self.field = field
        self.axis = axis


def require(holds: bool, field: str, rule: str, value, axis: int | None = None) -> None:
    """Raise FieldError "<field> <rule> required, got <value>" unless ``holds``."""
    if not holds:
        name = field if axis is None else f"{field}[{axis}]"
        raise FieldError(field, f"{name} {rule} required, got {value!r}", axis)


class Regime(enum.Enum):
    """Growth/dampening parameter region of the boundedness result."""

    SUBQUADRATIC_BOUNDED = "SubquadraticBounded"
    SUPERQUADRATIC_BOUNDED = "SuperquadraticBounded"
    UNCOVERED = "Uncovered"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the chemotaxis system.

    chi   : chemotactic sensitivity, >= 0
    a     : growth coefficient, >= 0
    b     : nonlocal dampening coefficient, >= 0
    alpha : growth exponent, >= 1
    beta  : dampening exponent, >= 1
    tau   : signal time-scale flag, 0 (stationary signal) or 1 (evolving)

    The boundedness theory assumes chi, a, b strictly positive; zero values
    are accepted so degenerate modes (pure Keller-Segel a = b = 0, taxis-free
    chi = 0) remain expressible for conservation and convergence checks.
    """

    chi: float
    a: float
    b: float
    alpha: float
    beta: float
    tau: int = 1

    def __post_init__(self) -> None:
        for name, lo in (("chi", 0), ("a", 0), ("b", 0), ("alpha", 1), ("beta", 1)):
            value = getattr(self, name)
            require(math.isfinite(value) and value >= lo, name, f">= {lo}", value)
        require(self.tau in (0, 1), "tau", "in (0, 1)", self.tau)


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a parameter point plus its mass envelope.

    y1 is the equilibrium cap of the total-mass comparison ODE and
    mass_envelope = max(initial mass, y1).
    """

    regime: Regime
    n: int
    y1: float
    mass_envelope: float


def classify_regime(params: ModelParams, n: int) -> Regime:
    """Classify (alpha, beta, n) against the two boundedness regions.

    Depends only on alpha, beta and the spatial dimension n; chi, a, b do
    not enter the predicates.  Boundary equalities return UNCOVERED since
    the region inequalities are strict.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    alpha, beta = params.alpha, params.beta
    if 1 <= alpha < 2 and beta > (n + 4) / 2 - alpha:
        return Regime.SUBQUADRATIC_BOUNDED
    if alpha >= 2 and beta > n / 2 and alpha < 1 + 2 * beta / n:
        return Regime.SUPERQUADRATIC_BOUNDED
    return Regime.UNCOVERED


def mass_envelope(
    params: ModelParams, initial_mass: float, domain_measure: float
) -> tuple[float, float]:
    """Return (y1, m0): the ODE equilibrium cap and the total-mass envelope.

    y1 = (a / (b * |Omega|^(1-beta)))^(1/beta),  m0 = max(initial_mass, y1).
    Requires b > 0 and finite inputs; a = 0 gives y1 = 0 (pure dampening).
    A y1 that does not fit a finite float raises ValueError.
    """
    if not (math.isfinite(initial_mass) and initial_mass >= 0):
        raise ValueError(f"finite initial_mass >= 0 required, got {initial_mass}")
    if not (math.isfinite(domain_measure) and domain_measure > 0):
        raise ValueError(f"finite domain_measure > 0 required, got {domain_measure}")
    if params.b <= 0:
        raise ValueError("mass envelope requires b > 0")
    try:
        y1 = 0.0 if params.a == 0 else (
            params.a / (params.b * domain_measure ** (1.0 - params.beta))
        ) ** (1.0 / params.beta)
    except ArithmeticError:  # the power overflows, or underflows to a zero divisor
        y1 = math.inf
    if not math.isfinite(y1):
        args = f"a={params.a}, b={params.b}, beta={params.beta}, domain_measure={domain_measure}"
        raise ValueError(f"mass envelope y1 is not finite for {args}")
    return y1, max(initial_mass, y1)


def regime_report(
    params: ModelParams, n: int, initial_mass: float, domain_measure: float
) -> RegimeReport:
    """Bundle classification and mass envelope for one parameter point."""
    y1, m0 = mass_envelope(params, initial_mass, domain_measure)
    return RegimeReport(classify_regime(params, n), n, y1, m0)


@dataclass(frozen=True)
class OdeComparisonResult:
    """Outcome of the comparison-ODE integration.

    y_max is the maximum of the integrated trajectory (including y(0)).
    hypothesis_ok is False when sampling found phi(t, y) > 0 at some
    y > y1, in which case violation holds one offending (t, y, phi).
    """

    y_max: float
    hypothesis_ok: bool
    violation: Optional[tuple[float, float, float]] = None


def ode_comparison_oracle(
    phi: Callable[[float, float], float],
    y0: float,
    y1: float,
    t_end: float,
    dt: float,
    hypothesis_samples: tuple[int, int] = (64, 64),
) -> OdeComparisonResult:
    """Integrate y' = phi(t, y) with classical RK4 and report the trajectory max.

    The comparison argument guarantees y <= max(y1, y(0)) whenever
    phi(t, y) <= 0 for all y > y1.  That sign hypothesis is checked by
    dense sampling of t in [0, t_end] and y in (y1, 2*max(y0, y1) + 1].
    A violation is reported (warning + result flag), never guessed around.

    This integrator is deliberately independent of the PDE stepper: fixed
    step, one-step explicit method, no adaptivity.
    """
    if dt <= 0:
        raise ValueError(f"dt > 0 required, got {dt}")
    if y0 < 0:
        raise ValueError(f"y0 >= 0 required, got {y0}")
    if y1 <= 0:
        raise ValueError(f"y1 > 0 required, got {y1}")

    t_lo, t_hi, y_lo, y_hi = 0.0, t_end, y1 * (1.0 + 1e-9), 2.0 * max(y0, y1) + 1.0
    hypothesis_ok = True
    violation = None
    nt, ny = hypothesis_samples
    for i in range(nt):
        ts = t_lo + (t_hi - t_lo) * i / max(nt - 1, 1)
        for j in range(ny):
            ys = y_lo + (y_hi - y_lo) * j / max(ny - 1, 1)
            if ys <= y1:
                continue
            val = phi(ts, ys)
            if val > 0:
                hypothesis_ok = False
                violation = (ts, ys, val)
                break
        if not hypothesis_ok:
            break
    if not hypothesis_ok:
        warnings.warn(
            "comparison hypothesis violated: phi(%g, %g) = %g > 0 above y1 = %g"
            % (*violation, y1),
            stacklevel=2,
        )

    y = float(y0)
    y_max = y
    t = 0.0
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(dt, t_end - t)
        k1 = phi(t, y)
        k2 = phi(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = phi(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = phi(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if y > y_max:
            y_max = y

    return OdeComparisonResult(y_max=y_max, hypothesis_ok=hypothesis_ok, violation=violation)
