"""Does the discretization converge at its design order?

A closed-form pair (u*, v*) is made an exact solution by appending
forcings worked out by hand from it (the nonlocal integral is evaluated by
Gauss-Legendre quadrature, far below scheme error).  Since the forcing
never sees the mesh, halving h must cut the L2 error by the scheme's
order: ~2 in space with central faces, ~1 in time for the IMEX Euler
splitting.
"""

from kschemo import Grid, ModelParams
from kschemo.verification import build_mms_case, convergence_study

params = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0)
case = build_mms_case(params, Grid(extent=(1.0,), cells=(32,)))
print(f"manufactured case: {case.description}; u* stays >= 1 so fractional")
print("powers and the source remain smooth\n")

print("spatial refinement (dt tied to h^2, central faces)")
cells = (32, 64, 128, 256)
grids = [Grid(extent=(1.0,), cells=(n,)) for n in cells]
dts = [(1.0 / n) ** 2 * 2.0 for n in cells]
table = convergence_study(case, grids, dts, t_end=0.1, face_scheme="central")
print("cells     h        error_u     error_v     order_u  order_v")
for n, row in zip(cells, table.rows):
    ou = "  -  " if row.order_u is None else f"{row.order_u:5.2f}"
    ov = "  -  " if row.order_v is None else f"{row.order_v:5.2f}"
    print(f"{n:5d}  {row.h:8.5f}  {row.error_u:.4e}  {row.error_v:.4e}   {ou}    {ov}")

print()
print("temporal refinement (fixed 512-cell grid)")
grid = Grid(extent=(1.0,), cells=(512,))
dts = [2e-3, 1e-3, 5e-4]
table = convergence_study(case, [grid] * len(dts), dts, t_end=0.5, face_scheme="central")
print("   dt        error_u     error_v     order_u  order_v")
for row in table.rows:
    ou = "  -  " if row.order_u is None else f"{row.order_u:5.2f}"
    ov = "  -  " if row.order_v is None else f"{row.order_v:5.2f}"
    print(f"{row.dt:.2e}  {row.error_u:.4e}  {row.error_v:.4e}   {ou}    {ov}")

print()
print("the CLI equivalent writes a CSV: kschemo mms --dim 1 --levels 4 --output mms.csv")
