"""The total-mass envelope in action.

Integrating the u equation over the box kills diffusion and transport
(zero-flux boundaries), leaving an ODE bound for y(t) = int(u):

    y' <= gamma(t) * (a - b * |Omega|^(1-beta) * y^beta)

whose barrier is y1 = (a / (b |Omega|^(1-beta)))^(1/beta).  Whatever the
initial mass, y(t) <= m0 = max(y(0), y1).  Here a bump of mass 4 (four
times the barrier) is released with strong taxis; its mass never exceeds
4 and relaxes under the barrier.

The samples show the envelope every half time unit.  The run also checks
the argument behind it on every solved step: the cell averages obey the
same Jensen inequality, so a step that starts at or above y1 cannot gain
mass, and the largest such gain the run saw is <= 0.
"""

import numpy as np

from kschemo import mass_envelope
from kschemo.config import parse_config, run_from_config, run_record

CONFIG = """
model.chi = 5.0
model.a = 1.0
model.b = 1.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 4.0
ic.u_width = 0.05
run.t_end = 20.0
run.sample_interval = 0.5
"""

cfg = parse_config(text=CONFIG)
result = run_from_config(cfg, output_dir=None)
series = result.series
mass = series.column("mass")
y1, m0 = mass_envelope(cfg.model, mass[0], cfg.grid.measure)

print(f"barrier y1 = {y1:g}, envelope m0 = {m0:g}")
print(f"termination: {result.termination} after {result.diagnostics.steps} steps")
print()
print("   t      int(u)    |u|_inf")
for i in range(0, len(series), 4):
    t = series.t[i]
    print(f"{t:6.1f}  {mass[i]:9.5f}  {series.column('linf_u')[i]:9.4f}")

print()
print(f"max mass over the run: {mass.max():.12g}  (envelope {m0:g})")
assert np.all(mass <= m0 * (1 + 1e-6)), "envelope violated"
gain = result.diagnostics.max_gain_above_y1
record = run_record(cfg, cfg.model, result)
print(f"largest one-step mass gain from at or above y1: {gain:.3g}  "
      f"(mass_envelope_ok={record.text('mass_envelope_ok')})")
assert record.mass_envelope_ok, "a step gained mass above y1"
print(f"final mass {mass[-1]:.6g} settled below the barrier {y1:g}")
print()
print("the same audit runs on any finished run directory via:")
print("  kschemo bound-check --run-dir <run-dir>")
print("which reads series.csv, resolved_config.txt and summary.txt there")
