"""Desk-scale witnesses of uniform-in-time boundedness.

Inside either guaranteed region the sup norm and every monitored L^k
integral must settle onto a plateau instead of escaping.  The first two
runs, one per region, start from large-mass bumps: the damping removes the
excess mass before chemotaxis can gather it, so their sup norms peak at
t = 0 and only decay.  They show settling, not gathering held in check.
The third run starts from a small bump that chemotaxis does gather: its
sup norm climbs about 18-fold before the damping bounds it (Criterion 14
of the acceptance suite).  Each run prints its plateau verdicts, and a
closing table gives each run's sup-norm peak and the time it is reached.
(These runs witness the statement at desk scale; they prove nothing.)
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

AGGREGATING = """
model.chi = 40.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 64
ic.u = bump
ic.u_mass = 0.05
ic.u_width = 0.1
ic.u_center_x = 0.3
run.t_end = 20.0
run.sample_interval = 0.1
"""

RUNS = (
    ("subquadratic", SUBQUADRATIC, 1),
    ("superquadratic", SUPERQUADRATIC, 2),
    ("aggregating", AGGREGATING, 1),
)
peaks = []
for label, text, n in RUNS:
    cfg = parse_config(text=text)
    regime = classify_regime(cfg.model, n)
    print(f"--- {label} run (alpha={cfg.model.alpha}, beta={cfg.model.beta}, n={n})")
    print(f"classified: {regime}")
    result = run_from_config(cfg, output_dir=None)
    summary = summarize(result.series, result.termination)
    print(f"termination: {result.termination} in {result.diagnostics.steps} steps")
    linf = result.series.column("linf_u")
    print(f"peak |u|_inf over the run: {summary.linf_u_max:.4g}")
    print(f"final |u|_inf: {linf[-1]:.4g}")
    top = int(linf.argmax())
    peaks.append((label, linf[0], linf[top], result.series.column("t")[top]))
    for name in vars(summary):
        if name.startswith("plateau_"):
            print(f"{name} = {summary.text(name)}")
    print()

print(f"{'run':<16}{'initial |u|_inf':>16}{'peak |u|_inf':>14}{'at t':>8}")
for label, start, peak, t in peaks:
    print(f"{label:<16}{start:>16.4g}{peak:>14.4g}{t:>8.4g}")
print()

print("a plateau verdict compares the last quartile of a column against its")
print("mid-quartiles (factor 1.05); it is the 'settled' heuristic used by the")
print("run summary, not a proved bound.  It reads true only over a run that")
print("reached t_end with at least 4 samples, and inconclusive otherwise.")
