"""The four benchmark workloads and the correctness gates applied to their output.

Each workload is a closed batch job driven from one process through the
public entry points (``kschemo.config.run_from_config``,
``kschemo.verification.convergence_study`` and ``kschemo.cli.main``).  A
repetition (``rep``) is the timed section: it produces a solution and checks
it, so its wall time is the time to a checked solution.  Every gate miss or
exception counts one failed operation; an operation is one run, one MMS
level or one sweep point.

The seed only moves the bump centre within ``CENTRE_BAND``; everything else
is fixed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import multiprocessing
import os
import random
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import kschemo.cli as cli
import kschemo.config as config
import kschemo.verification as verification
from kschemo.grid import Grid
from kschemo.params import ModelParams, classify_regime

CENTRE_BAND = (0.45, 0.55)

# Gate thresholds: the acceptance criteria of the package, applied to every run.
MASS_RTOL = 1e-6
IDENTITY_TOL = 1e-9
POSITIVITY_TOL = 1e-12
MIN_ORDER = 1.9

BOUNDED_1D = """\
model.chi = 10.0
model.a = 1.0
model.b = 1.0
model.alpha = 1.5
model.beta = 3.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.05
ic.u_center_x = {cx!r}
run.t_end = 100.0
run.sample_interval = 0.1
"""

BUMP_2D = """\
model.chi = 5.0
model.a = 1.0
model.b = 1.0
model.alpha = 2.0
model.beta = 2.0
grid.dim = 2
grid.cells_x = 512
ic.u = bump
ic.u_mass = 8.0
ic.u_width = 0.1
ic.u_center_x = {cx!r}
ic.u_center_y = {cy!r}
run.t_end = 0.01
run.sample_interval = 0.005
"""

SWEEP_BASE = """\
model.chi = 5.0
grid.dim = 1
grid.cells_x = 256
ic.u = bump
ic.u_mass = 4.0
ic.u_width = 0.05
ic.u_center_x = {cx!r}
"""
# The (1, 1) point's transient is sensitive to the bump position: 535 steps
# at the midpoint, 862 at 0.45.  A narrow band keeps the sweep's total step
# count within 1% across seeds.
SWEEP_CENTRE_BAND = (0.49, 0.51)
SWEEP_ALPHAS = (1.0, 1.5, 2.0, 2.5)
SWEEP_BETAS = (1.0, 2.0, 3.0, 4.0)
SWEEP_N = 1
SWEEP_T_END = 4.0
SWEEP_WORKERS = 2

MMS_PARAMS = ModelParams(chi=0.25, a=1.0, b=1.0, alpha=2.0, beta=2.0, tau=1)
MMS_CELLS = (32, 64, 128)
MMS_T_END = 0.1


def bump_centre(seed: int, dim: int, band=CENTRE_BAND) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(round(rng.uniform(*band), 4) for _ in range(dim))


@dataclass
class Rep:
    """Outcome of one repetition: accepted steps, operations and their failures."""

    steps: int
    ops: int
    failures: list[str] = field(default_factory=list)
    artifacts_bytes: int = 0


# ---------------------------------------------------------------- gates


def parse_summary(lines) -> dict[str, str]:
    """``key=value`` lines (summary.txt or ``config.summary_lines``) to a dict."""
    out = {}
    for line in lines:
        line = line.strip()
        if line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _number(summary: dict, key: str) -> float:
    try:
        return float(summary[key])
    except (KeyError, ValueError):
        return math.nan


def run_failures(summary: dict) -> list[str]:
    """Gates every simulated run must pass; comparisons are NaN-safe."""
    misses = []
    if summary.get("termination") != "ReachedTEnd":
        misses.append(f"termination {summary.get('termination')}")
    violation = _number(summary, "max_mass_identity_violation")
    if not violation <= IDENTITY_TOL:
        misses.append(f"mass identity violation {violation:.3e}")
    for key in ("min_u", "min_v"):
        value = _number(summary, key)
        if not value >= -POSITIVITY_TOL:
            misses.append(f"{key} {value:.3e}")
    return misses


def bounded_failures(summary: dict, regime: str) -> list[str]:
    """Criterion-2 gates: the run gates plus regime, envelope and plateaus."""
    misses = run_failures(summary)
    if regime != "SubquadraticBounded":
        misses.append(f"regime {regime}")
    mass_max, m0 = _number(summary, "mass_max"), _number(summary, "m0")
    if not mass_max <= m0 * (1.0 + MASS_RTOL):
        misses.append(f"mass_max {mass_max!r} above m0 {m0!r}")
    plateaus = {k: v for k, v in summary.items() if k.startswith("plateau_")}
    if not plateaus or any(v != "true" for v in plateaus.values()):
        misses.append(f"plateaus {plateaus}")
    return misses


def mms_failures(rows, levels: int) -> list[str]:
    """One entry per failing level: every refined level needs order >= MIN_ORDER."""
    if len(rows) != levels:
        return [f"{len(rows)} of {levels} levels reported"] * levels
    misses = []
    for row in rows[1:]:
        orders = (row.order_u, row.order_v)
        if not all(o is not None and o >= MIN_ORDER for o in orders):
            misses.append(f"level {row.level} orders {orders}")
    return misses


def sweep_failures(exit_code: int, rows: list[dict], points, n: int) -> list[str]:
    """One entry per failing sweep point: missing, duplicated or wrong rows."""
    if exit_code != 0:
        return [f"sweep exit code {exit_code}"] * len(points)
    by_point: dict[tuple[float, float], list[dict]] = {}
    for row in rows:
        by_point.setdefault((float(row["alpha"]), float(row["beta"])), []).append(row)
    misses = []
    for alpha, beta in points:
        found = by_point.get((alpha, beta), [])
        if len(found) != 1:
            misses.append(f"point {alpha:g},{beta:g}: {len(found)} rows")
            continue
        row = found[0]
        params = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=alpha, beta=beta)
        expected = str(classify_regime(params, n))
        if row["regime"] != expected or row["termination"] != "ReachedTEnd":
            misses.append(
                f"point {alpha:g},{beta:g}: {row['regime']}/{row['termination']}"
            )
    if len(rows) != len(points):
        misses.append(f"{len(rows)} rows for {len(points)} points")
    return misses[: len(points)]


def read_sweep_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


# ---------------------------------------------------------------- workloads


def _one(misses: list[str]) -> list[str]:
    """The gate misses of a single operation, as at most one failure."""
    return ["; ".join(misses)] if misses else []


class Workload:
    """Defaults: one operation per repetition, one process, the dispatch kernel."""

    name = ""
    ops = 1
    workers = 1
    kernel = "dispatch"

    def prepare(self) -> None:
        """Untimed work before the first repetition."""


class Bounded1D(Workload):
    """Criterion 2: the long single 1D run users make, with run artifacts."""

    name = "bounded-1d"

    def __init__(self, seed: int, workdir: str):
        self.centre = bump_centre(seed, 1)
        self.text = BOUNDED_1D.format(cx=self.centre[0])
        self.workdir = workdir

    def describe(self) -> str:
        return f"bump centre x={self.centre[0]} (seeded, band {CENTRE_BAND})"

    def setup(self) -> None:
        config.build_initial_state(config.parse_config(text=self.text))

    def rep(self) -> Rep:
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            cfg = config.parse_config(text=self.text)
            config.run_from_config(cfg, output_dir=out)
            with open(os.path.join(out, "summary.txt")) as fh:
                summary = parse_summary(fh)
            regime = str(classify_regime(cfg.model, cfg.grid.dim))
            misses = bounded_failures(summary, regime)
            nbytes = dir_bytes(out)
        finally:
            shutil.rmtree(out)
        return Rep(int(summary.get("steps", "0")), self.ops, _one(misses), nbytes)


class Bump2D(Workload):
    """Criterion-3 parameters on 512^2: array-bound 2D stepping."""

    name = "bump-2d"
    kernel = "arrays"

    def __init__(self, seed: int, workdir: str):
        self.centre = bump_centre(seed, 2)
        self.text = BUMP_2D.format(cx=self.centre[0], cy=self.centre[1])

    def describe(self) -> str:
        return (
            f"bump centre (x, y)={self.centre} (seeded, band {CENTRE_BAND}); "
            "512x512 float64 field = 2.0 MiB"
        )

    def setup(self) -> None:
        config.build_initial_state(config.parse_config(text=self.text))

    def rep(self) -> Rep:
        cfg = config.parse_config(text=self.text)
        result = config.run_from_config(cfg, output_dir=None)
        misses = run_failures(parse_summary(config.summary_lines(cfg, result)))
        return Rep(result.diagnostics.steps, self.ops, _one(misses))


class Mms1D(Workload):
    """Spatial manufactured-solution study at 32, 64 and 128 cells."""

    name = "mms-1d"
    ops = len(MMS_CELLS)

    def __init__(self, seed: int, workdir: str):
        self.grids = [Grid(extent=(1.0,), cells=(n,)) for n in MMS_CELLS]
        self.dts = [(1.0 / n) ** 2 / 4.0 for n in MMS_CELLS]

    def describe(self) -> str:
        return "fixed manufactured case; the seed is not used"

    def setup(self) -> None:
        case = verification.build_mms_case(MMS_PARAMS, self.grids[0])
        case.initial_state(self.grids[0])

    def rep(self) -> Rep:
        case = verification.build_mms_case(MMS_PARAMS, self.grids[0])
        table = verification.convergence_study(
            case, self.grids, self.dts, MMS_T_END, face_scheme="central"
        )
        steps = sum(round(MMS_T_END / row.dt) for row in table.rows)
        return Rep(steps, self.ops, mms_failures(table.rows, len(MMS_CELLS)))


def _sweep_point_steps(task) -> int:
    """Accepted steps of one sweep point, built the way ``kschemo sweep`` builds it."""
    alpha, beta, base_path = task
    overrides = {
        "model.alpha": repr(alpha),
        "model.beta": repr(beta),
        "run.t_end": repr(SWEEP_T_END),
    }
    cfg = config.parse_config(path=base_path, overrides=overrides)
    return config.run_from_config(cfg, output_dir=None).diagnostics.steps


class Sweep1D(Workload):
    """``kschemo sweep --simulate`` over a 4x4 (alpha, beta) grid, 2 workers."""

    name = "sweep-1d"
    ops = len(SWEEP_ALPHAS) * len(SWEEP_BETAS)
    workers = SWEEP_WORKERS

    def __init__(self, seed: int, workdir: str):
        self.centre = bump_centre(seed, 1, SWEEP_CENTRE_BAND)
        self.base_text = SWEEP_BASE.format(cx=self.centre[0])
        self.base_path = os.path.join(workdir, "sweep_base.cfg")
        self.workdir = workdir
        self.points = [(a, b) for a in SWEEP_ALPHAS for b in SWEEP_BETAS]
        self.steps = 0

    def describe(self) -> str:
        return (
            f"base bump centre x={self.centre[0]} (seeded, band {SWEEP_CENTRE_BAND}); "
            f"{self.ops} points, t_end={SWEEP_T_END:g}, --workers {self.workers}"
        )

    def setup(self) -> None:
        config.build_initial_state(config.parse_config(text=self.base_text))

    def prepare(self) -> None:
        """Write the base config and count the steps of every point, untimed.

        The sweep rows carry no step count, so steps_per_s needs this
        reference pass; it runs in its own spawned pool.
        """
        with open(self.base_path, "w") as fh:
            fh.write(self.base_text)
        tasks = [(a, b, self.base_path) for a, b in self.points]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx) as pool:
            self.steps = sum(pool.map(_sweep_point_steps, tasks))

    def argv(self, out: str) -> list[str]:
        return [
            "sweep", "--simulate", "--n", str(SWEEP_N),
            "--alpha-min", repr(SWEEP_ALPHAS[0]), "--alpha-max", repr(SWEEP_ALPHAS[-1]),
            "--alpha-step", repr(SWEEP_ALPHAS[1] - SWEEP_ALPHAS[0]),
            "--beta-min", repr(SWEEP_BETAS[0]), "--beta-max", repr(SWEEP_BETAS[-1]),
            "--beta-step", repr(SWEEP_BETAS[1] - SWEEP_BETAS[0]),
            "--config", self.base_path, "--t-end", repr(SWEEP_T_END),
            "--workers", str(self.workers), "--output", out,
        ]

    def rep(self) -> Rep:
        # a fresh directory each time: a leftover sweep_done.txt ledger would
        # make the sweep skip every point
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(out))
            rows = read_sweep_rows(os.path.join(out, "sweep.csv"))
        finally:
            shutil.rmtree(out)
        return Rep(self.steps, self.ops, sweep_failures(code, rows, self.points, SWEEP_N))


WORKLOADS = {cls.name: cls for cls in (Bounded1D, Bump2D, Mms1D, Sweep1D)}
