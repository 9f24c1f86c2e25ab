"""Plain-text run configuration: parsing, validation, artifacts.

Config files are line-oriented ``key = value`` with ``#`` comments and
dotted sections, e.g.::

    # subquadratic demo
    model.chi = 5.0
    model.alpha = 1.5
    grid.cells_x = 256
    ic.u = bump
    ic.u_mass = 4.0
    run.t_end = 50

Unknown keys, type mismatches and constraint violations are rejected with
the offending key and line number.  Every run echoes its fully resolved
configuration to ``resolved_config.txt``; re-parsing that file yields an
identical RunConfig, which keeps experiment definitions diffable.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .grid import Grid, State, field_to_csv, integrate, write_snapshot
from .observables import ObservableSeries, RunRecord, summarize
from .params import FieldError, ModelParams, mass_envelope, require
from .stepper import Recorder, RunResult, StepperConfig, require_horizon, require_memory, run


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        ctx = ""
        if line is not None:
            ctx += f"line {line}: "
        if key is not None:
            ctx += f"{key}: "
        super().__init__(ctx + message)
        self.message = message
        self.key = key
        self.line = line


_U_KINDS = ("constant", "bump", "random")
_V_KINDS = ("constant", "equal_u")


@dataclass(frozen=True)
class InitialCondition:
    """Builder settings for (u0, v0); every builder yields nonnegative fields."""

    u_kind: str = "constant"  # constant | bump | random
    u_value: float = 1.0
    u_mass: float = 1.0
    u_width: float = 0.05
    u_center: tuple[float, ...] = (0.5,)
    u_base: float = 1.0
    u_amplitude: float = 0.5
    seed: int = 1234
    v_kind: str = "constant"  # constant | equal_u
    v_value: float = 0.0

    def __post_init__(self) -> None:
        require(self.u_kind in _U_KINDS, "u_kind", f"in {_U_KINDS}", self.u_kind)
        require(math.isfinite(self.u_value) and self.u_value >= 0, "u_value", ">= 0", self.u_value)
        require(math.isfinite(self.u_mass) and self.u_mass >= 0, "u_mass", ">= 0", self.u_mass)
        require(math.isfinite(self.u_width) and self.u_width > 0, "u_width", "> 0", self.u_width)
        require(math.isfinite(self.u_base) and self.u_base >= 0, "u_base", ">= 0", self.u_base)
        require(0 <= self.u_amplitude <= 1, "u_amplitude", "in [0, 1]", self.u_amplitude)
        require(isinstance(self.seed, numbers.Integral), "seed", "integer", self.seed)
        require(self.seed >= 0, "seed", ">= 0", self.seed)
        require(self.v_kind in _V_KINDS, "v_kind", f"in {_V_KINDS}", self.v_kind)
        require(math.isfinite(self.v_value) and self.v_value >= 0, "v_value", ">= 0", self.v_value)


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    grid: Grid
    stepper: StepperConfig
    ic: InitialCondition
    recorder: Recorder = Recorder()
    t_end: float = 10.0

    def __post_init__(self) -> None:
        require_horizon(0.0, self.t_end)
        require_memory(self.grid)
        for axis, (c, L) in enumerate(zip(self.ic.u_center, self.grid.extent)):
            if not (0 <= c <= L):
                raise FieldError("u_center", f"bump center {c} outside domain [0, {L}]", axis)


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"finite number required, got {s!r}")
    return v


def _parse_int(s: str) -> int:
    v = _parse_float(s)
    if v != int(v):
        raise ValueError("integer required")
    return int(v)


def _parse_klist(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("at least one k value required")
    return tuple(_parse_float(p) for p in parts)


class _Key(NamedTuple):
    """Where one config key lives in RunConfig and how its value is read.

    The admissible values are the business of the dataclass that holds the
    field; parse_config maps its FieldError back to the key.
    """

    section: str  # RunConfig attribute holding the value; "run" is RunConfig itself
    field: str  # constructor argument; a *_x / *_y key is one entry of its tuple
    parse: Callable[[str], object]
    default: object = None  # None: the dataclass default, or see _fold_axes


_SECTIONS = {
    "model": ModelParams,
    "grid": Grid,
    "ic": InitialCondition,
    "stepper": StepperConfig,
    "recorder": Recorder,
}

_KEYS: dict[str, _Key] = {
    "model.chi": _Key("model", "chi", _parse_float, 1.0),
    "model.a": _Key("model", "a", _parse_float, 1.0),
    "model.b": _Key("model", "b", _parse_float, 1.0),
    "model.alpha": _Key("model", "alpha", _parse_float, 1.0),
    "model.beta": _Key("model", "beta", _parse_float, 1.0),
    "grid.dim": _Key("grid", "dim", _parse_int, 1),
    "grid.extent_x": _Key("grid", "extent", _parse_float, 1.0),
    "grid.extent_y": _Key("grid", "extent", _parse_float),
    "grid.cells_x": _Key("grid", "cells", _parse_int, 256),
    "grid.cells_y": _Key("grid", "cells", _parse_int),
    "ic.u": _Key("ic", "u_kind", str),
    "ic.u_value": _Key("ic", "u_value", _parse_float),
    "ic.u_mass": _Key("ic", "u_mass", _parse_float),
    "ic.u_width": _Key("ic", "u_width", _parse_float),
    "ic.u_center_x": _Key("ic", "u_center", _parse_float),
    "ic.u_center_y": _Key("ic", "u_center", _parse_float),
    "ic.u_base": _Key("ic", "u_base", _parse_float),
    "ic.u_amplitude": _Key("ic", "u_amplitude", _parse_float),
    "ic.seed": _Key("ic", "seed", _parse_int),
    "ic.v": _Key("ic", "v_kind", str),
    "ic.v_value": _Key("ic", "v_value", _parse_float),
    "stepper.dt_min": _Key("stepper", "dt_min", _parse_float),
    "stepper.dt_max": _Key("stepper", "dt_max", _parse_float),
    "stepper.cfl_safety": _Key("stepper", "cfl_safety", _parse_float),
    "stepper.blowup_linf_threshold": _Key("stepper", "blowup_linf_threshold", _parse_float),
    "run.t_end": _Key("run", "t_end", _parse_float),
    "run.sample_interval": _Key("recorder", "sample_interval", _parse_float),
    "run.k_list": _Key("recorder", "k_list", _parse_klist),
}


def _axis(key: str) -> int | None:
    """Tuple index of a per-axis key (*_x -> 0, *_y -> 1), None otherwise."""
    return {"_x": 0, "_y": 1}.get(key[-2:])


def _read_raw(text: str) -> dict[str, tuple[str, int]]:
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        raw[key] = (value, lineno)
    return raw


def _fold_axes(kwargs: dict[str, dict], dim: int) -> None:
    """Turn the [x, y] entries of per-axis keys into tuples of length ``dim``.

    An unset y entry inherits x, and an unset bump center is the midpoint of
    the domain on that axis.  The grid is checked on both axes first, so a
    bad y entry is rejected in 1D too.
    """
    grid, ic = kwargs["grid"], kwargs["ic"]
    for name in ("extent", "cells"):
        x, y = grid[name]
        grid[name] = (x, x if y is None else y)
    Grid(**grid)
    for name in ("extent", "cells"):
        grid[name] = grid[name][:dim]
    center = ic["u_center"]
    ic["u_center"] = tuple(L / 2.0 if c is None else c for c, L in zip(center, grid["extent"]))


def parse_config(
    path=None, text: str | None = None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Parse and fully validate a run configuration.

    ``overrides`` maps keys to raw value strings (CLI flags); they replace
    file values before validation.
    """
    if (path is None) == (text is None):
        raise ValueError("provide exactly one of path or text")
    if path is not None:
        with open(path) as fh:
            text = fh.read()
    raw = _read_raw(text)
    if overrides:
        for key, value in overrides.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown key {key!r}", key=key)
            raw[key] = (str(value), None)

    kwargs: dict[str, dict] = {section: {} for section in (*_SECTIONS, "run")}
    for key, row in _KEYS.items():
        value = row.default
        if key in raw:
            text_value, lineno = raw[key]
            try:
                value = row.parse(text_value)
            except ValueError as exc:
                raise ConfigError(str(exc), key=key, line=lineno) from None
        axis = _axis(key)
        if axis is not None:
            kwargs[row.section].setdefault(row.field, [None, None])[axis] = value
        elif value is not None:
            kwargs[row.section][row.field] = value

    def line(key: str | None) -> int | None:
        return raw.get(key, (None, None))[1]

    # Grid derives dim from its tuples, so dim is the one key checked here
    dim = kwargs["grid"].pop("dim")
    if dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2", key="grid.dim", line=line("grid.dim"))
    try:
        _fold_axes(kwargs, dim)
        built = {section: cls(**kwargs[section]) for section, cls in _SECTIONS.items()}
        return RunConfig(**built, **kwargs["run"])
    except FieldError as exc:
        key = next(
            (k for k, row in _KEYS.items() if (row.field, _axis(k)) == (exc.field, exc.axis)),
            None,
        )
        raise ConfigError(str(exc), key=key, line=line(key)) from None


def config_items(cfg: RunConfig) -> dict[str, str]:
    """Serialize a RunConfig to the flat key/value form (str round-trips).

    A y entry of a 1D config repeats its x entry.
    """
    items = {}
    for key, row in _KEYS.items():
        value = getattr(cfg if row.section == "run" else getattr(cfg, row.section), row.field)
        axis = _axis(key)
        if axis is not None:
            value = value[min(axis, len(value) - 1)]
        items[key] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return items


def resolved_text(cfg: RunConfig) -> str:
    """The text of resolved_config.txt: one ``key = value`` line per key, sorted."""
    items = config_items(cfg)
    return "".join(f"{key} = {items[key]}\n" for key in sorted(items))


def write_resolved(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(resolved_text(cfg))


def build_initial_state(cfg: RunConfig) -> State:
    """Construct (u0, v0) from the IC settings; reproducible for a fixed seed.

    ConfigError names the ``ic.*`` key that scaled u when u is not finite
    (say, a large ``ic.u_mass`` in a narrow bump), so no run starts from it.
    """
    grid, ic = cfg.grid, cfg.ic
    if ic.u_kind == "constant":
        u0, key = grid.full(ic.u_value), "ic.u_value"
    elif ic.u_kind == "bump":
        coords = grid.cell_centers()
        r2 = sum((c - c0) ** 2 for c, c0 in zip(coords, ic.u_center))
        profile = np.exp(-r2 / (2.0 * ic.u_width**2))
        total = integrate(profile, grid)
        if ic.u_mass > 0 and total == 0:
            raise ConfigError("the bump misses every cell centre", key="ic.u_width")
        with np.errstate(over="ignore", invalid="ignore"):
            u0 = (ic.u_mass / total) * profile if ic.u_mass > 0 else grid.zeros()
        key = "ic.u_mass"
    else:  # random
        rng = np.random.default_rng(ic.seed)
        noise = 2.0 * rng.random(grid.shape) - 1.0
        with np.errstate(over="ignore"):
            u0 = ic.u_base * (1.0 + ic.u_amplitude * noise)
        key = "ic.u_base"
    if not np.isfinite(u0).all():
        raise ConfigError(f"initial u is not finite on the {grid.shape} grid", key=key)
    if ic.v_kind == "constant":
        v0 = grid.full(ic.v_value)
    else:
        v0 = u0.copy()
    return State(u=u0, v=v0)


def refine_config(cfg: RunConfig, factor: int) -> RunConfig:
    """Same run, ``factor`` times finer in every axis and in dt."""
    grid = Grid(
        extent=cfg.grid.extent, cells=tuple(n * factor for n in cfg.grid.cells)
    )
    stepper = replace(
        cfg.stepper,
        dt_min=cfg.stepper.dt_min / factor,
        dt_max=cfg.stepper.dt_max / factor,
    )
    return replace(cfg, grid=grid, stepper=stepper)


def initial_mass(series: ObservableSeries, u0, grid: Grid) -> float:
    """The mass m0 starts from: the first sample, or without one the mass of
    ``u0``, the initial u the run never left; inf when that sum overflows."""
    if len(series):
        return float(series.column("mass")[0])
    with np.errstate(over="ignore"):
        return integrate(u0, grid)


def audit_record(cfg: RunConfig, params: ModelParams, series: ObservableSeries, u0,
                 march: RunRecord) -> RunRecord:
    """The envelope and the summarize fields of the record of a run of
    ``params`` on ``cfg``'s grid, from its ``series`` and the termination
    and max_gain_above_y1 of ``march``, a finished run's record or the one
    its summary.txt holds (a field it lacks reads None: a run that stopped
    early, and one whose steps were not checked), m0 by the initial_mass
    rule from ``u0``.  It holds no y1 and m0 when mass_envelope has none
    (b = 0, or a non-finite initial mass or y1), and no mass_envelope_ok at
    b = 0, where there is no envelope to check."""
    try:
        y1, m0 = mass_envelope(params, initial_mass(series, u0, cfg.grid), cfg.grid.measure)
        envelope = RunRecord(y1=y1, m0=m0)
    except ValueError:
        envelope = RunRecord()
    threshold, gain = cfg.stepper.blowup_linf_threshold, march.max_gain_above_y1
    summary = summarize(series, march.termination, envelope.m0, threshold, gain)
    if params.b <= 0:
        del summary.mass_envelope_ok
    return RunRecord(**vars(envelope), **vars(summary))


def run_record(cfg: RunConfig, params: ModelParams, result: RunResult) -> RunRecord:
    """The record of a finished run of ``params`` on ``cfg``'s grid: how it
    ended, its RunDiagnostics and its audit_record."""
    march = RunRecord(termination=result.termination, termination_cause=result.cause,
                      **asdict(result.diagnostics))
    audit = audit_record(cfg, params, result.series, result.state.u, march)
    return RunRecord(**vars(march), **vars(audit))


def summary_lines(cfg: RunConfig, result: RunResult) -> list[str]:
    """summary.txt of a finished run: the lines of its record."""
    return run_record(cfg, cfg.model, result).lines()


def run_from_config(
    cfg: RunConfig, *, output_dir: str | None, export_fields_csv: bool = False
) -> RunResult:
    """Run a configuration; write artifacts into ``output_dir`` unless it is None.

    Artifacts: resolved_config.txt, series.csv, summary.txt, initial and
    final snapshots of both fields (plus CSV field exports on request).
    """
    initial = build_initial_state(cfg)

    out = None
    if output_dir is not None:
        out = output_dir
        os.makedirs(out, exist_ok=True)
        write_resolved(cfg, os.path.join(out, "resolved_config.txt"))
        write_snapshot(os.path.join(out, "u_initial.snap"), initial.u, cfg.grid, initial.t)
        write_snapshot(os.path.join(out, "v_initial.snap"), initial.v, cfg.grid, initial.t)

    result = run(initial, cfg.model, cfg.grid, cfg.stepper, cfg.t_end, cfg.recorder)

    if out is not None:
        result.series.to_csv(os.path.join(out, "series.csv"))
        final = result.state
        write_snapshot(os.path.join(out, "u_final.snap"), final.u, cfg.grid, final.t)
        write_snapshot(os.path.join(out, "v_final.snap"), final.v, cfg.grid, final.t)
        with open(os.path.join(out, "summary.txt"), "w") as fh:
            fh.write("\n".join(summary_lines(cfg, result)) + "\n")
        if export_fields_csv:
            field_to_csv(os.path.join(out, "u_final.csv"), final.u, cfg.grid)
            field_to_csv(os.path.join(out, "v_final.csv"), final.v, cfg.grid)
    return result
