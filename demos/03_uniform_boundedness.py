"""Desk-scale witnesses of uniform-in-time boundedness.

Inside either guaranteed region, large-mass initial bumps must not
concentrate: the sup norm and every monitored L^k integral settle onto a
plateau instead of escaping.  Two short runs, one per region, print their
plateau verdicts.  (These runs witness the statement at desk scale; they
prove nothing.)
"""

from kschemo import ModelParams, classify_regime
from kschemo.config import parse_config, run_from_config
from kschemo.observables import summarize

SUBQUADRATIC = """
model.chi = 10.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.05
run.t_end = 40.0
run.sample_interval = 0.1
"""

SUPERQUADRATIC = """
model.chi = 5.0
model.alpha = 2.0
model.beta = 2.0
grid.dim = 2
grid.cells_x = 64
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.1
run.t_end = 20.0
run.sample_interval = 0.1
"""

for label, text, n in (("subquadratic", SUBQUADRATIC, 1), ("superquadratic", SUPERQUADRATIC, 2)):
    cfg = parse_config(text=text)
    regime = classify_regime(cfg.model, n)
    print(f"--- {label} run (alpha={cfg.model.alpha}, beta={cfg.model.beta}, n={n})")
    print(f"classified: {regime}")
    result = run_from_config(cfg, output_dir=None)
    summary = summarize(result.series, result.termination)
    print(f"termination: {result.termination} in {result.diagnostics.steps} steps")
    print(f"peak |u|_inf over the run: {summary.linf_u_max:.4g}")
    print(f"final |u|_inf: {result.series.column('linf_u')[-1]:.4g}")
    for key, verdict in summary.printed().items():
        if key.startswith("plateau_"):
            print(f"{key} = {verdict}")
    print()

print("a plateau verdict compares the last quartile of a column against its")
print("mid-quartiles (factor 1.05); it is the 'settled' heuristic used by the")
print("run summary, not a proved bound.  It reads true only over a run that")
print("reached t_end with at least 4 samples, and inconclusive otherwise.")
