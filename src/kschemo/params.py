"""Model parameters, growth-regime classification and the total-mass envelope.

The simulated system is

    u_t = lap(u) - chi * div(u * grad(v)) + a*u^alpha - b*u^alpha * int(u^beta)
    v_t = lap(v) - v + u

on a box with zero-flux boundaries.  Two parameter regions are known to
produce globally bounded solutions:

    subquadratic:   1 <= alpha < 2   and  beta > (n + 4)/2 - alpha
    superquadratic: beta > n/2       and  2 <= alpha < 1 + 2*beta/n

All inequalities apart from the alpha range edges are strict; boundary
equalities classify as ``UNCOVERED`` (no extrapolation beyond the known
region).  Total mass obeys int(u(t)) <= m0 = max(int(u0), y1) with
y1 = (a / (b * |Omega|^(1-beta)))^(1/beta).  Integrating the u equation
kills diffusion and transport, and Jensen's inequality
int(u^beta) >= |Omega|^(1-beta) * y^beta turns what is left into the
comparison ODE y' <= gamma(t) * (a - b*|Omega|^(1-beta) * y^beta), with
gamma = int(u^alpha) >= 0, whose right side is <= 0 once y >= y1.  The
same inequality holds for the cell averages of the discrete scheme, so
the stepper checks this argument on every solved step of a run (see
stepper._Member.accept).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass


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
    b     : nonlocal dampening coefficient, >= 0 (> 0 for a mass envelope)
    alpha : growth exponent, >= 1
    beta  : dampening exponent, >= 1
    tau   : signal time-scale flag; only 1, the fully parabolic system

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
        require(self.tau == 1, "tau", "== 1", self.tau)

    def require_envelope(self) -> None:
        """FieldError ``b`` unless these coefficients have a mass envelope: b > 0."""
        require(self.b > 0, "b", "> 0", self.b)


def classify_regime(params: ModelParams, n: int) -> Regime:
    """Classify (alpha, beta, n) against the two boundedness regions.

    Depends only on alpha, beta and the spatial dimension n; chi, a, b do
    not enter the predicates.  Boundary equalities return UNCOVERED since
    the region inequalities are strict.  FieldError ``n`` unless n is an
    integer >= 1 within the float range, as the predicates divide by it.
    """
    require(1 <= n <= sys.float_info.max and int(n) == n, "n", "finite integer >= 1", n)
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
    FieldError names the first rule broken: ``b`` unless b > 0
    (ModelParams.require_envelope), ``initial_mass`` unless it is finite and
    >= 0, ``domain_measure`` unless finite and > 0.  a = 0 gives y1 = 0
    (pure dampening).  A y1 that does not fit a finite float raises
    ValueError.
    """
    params.require_envelope()
    require(0 <= initial_mass < math.inf, "initial_mass", "finite >= 0", initial_mass)
    require(0 < domain_measure < math.inf, "domain_measure", "finite > 0", domain_measure)
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
