"""Where does dampening win? A tour of the boundedness regions.

The source term a*u^alpha - b*u^alpha * int(u^beta) pits growth (alpha)
against a nonlocal death term (beta).  Two parameter regions guarantee
uniformly bounded populations in dimension n:

    subquadratic:   1 <= alpha < 2   and  beta > (n + 4)/2 - alpha
    superquadratic: beta > n/2       and  2 <= alpha < 1 + 2*beta/n

This script classifies a few hand-picked points, then prints a coarse
(alpha, beta) map for n = 2 so the boundary curves are visible.
"""

import numpy as np

from kschemo import ModelParams, classify_regime, mass_envelope

POINTS = [
    (1.0, 3.0, 3),   # gentle growth, strong dampening
    (2.0, 2.0, 2),   # quadratic growth still tamed in the plane
    (2.0, 1.0, 2),   # beta = n/2 exactly: outside the guarantee
    (1.5, 1.0, 3),   # dampening too weak for n = 3
    (3.0, 2.0, 2),   # alpha = 1 + 2 beta / n exactly: outside again
]

print("hand-picked points")
print("alpha  beta  n   regime")
for alpha, beta, n in POINTS:
    params = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=alpha, beta=beta)
    print(f"{alpha:5.2f}  {beta:4.2f}  {n}   {classify_regime(params, n)}")

# classification ignores chi, a, b; the envelope does not
y1, m0 = mass_envelope(
    ModelParams(chi=7.0, a=4.0, b=1.0, alpha=1.0, beta=2.0),
    initial_mass=0.5, domain_measure=1.0,
)
print()
print(f"envelope example: y1 = {y1:g} so any run starting below mass "
      f"{m0:g} stays below it")

print()
print("coarse map at n = 2  (S = subquadratic, Q = superquadratic, . = uncovered)")
betas = np.arange(1.0, 4.01, 0.25)
alphas = np.arange(1.0, 3.01, 0.25)
print("beta:  " + " ".join(f"{b:4.2f}" for b in betas))
for alpha in alphas:
    cells = []
    for beta in betas:
        regime = classify_regime(
            ModelParams(chi=1.0, a=1.0, b=1.0, alpha=alpha, beta=beta), 2
        )
        cells.append({"SubquadraticBounded": "S", "SuperquadraticBounded": "Q"}.get(
            regime.value, "."
        ))
    print(f"a={alpha:4.2f} " + "    ".join(cells))

print()
print("the same map is produced as CSV by: kschemo sweep --alpha-min 1 "
      "--alpha-max 3 --beta-min 1 --beta-max 4 --n 2 --output sweep_out")
