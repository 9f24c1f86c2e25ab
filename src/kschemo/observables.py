"""Time series of the bounded quantities: mass, L^k integrals, sup norms.

Column order is fixed and part of the CSV contract:

    t, mass, int_u_beta, int_u_k<k> (one per configured k), linf_u, linf_v,
    dt, retries

Floats are printed with 17 significant digits so a written series re-reads
bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, State, integrate, linf_norm, lp_norm_pow
from .params import ModelParams

_CONSISTENCY_RTOL = 1e-9


class ObservableError(RuntimeError):
    """A recorded row is non-finite or internally inconsistent."""


def _k_column(k: float) -> str:
    return f"int_u_k{k:g}"


@dataclass
class ObservableSeries:
    """Append-only record of one run, one row per sample time."""

    k_list: tuple[float, ...]
    columns: tuple[str, ...] = ()
    rows: list[tuple[float, ...]] = field(default_factory=list)

    @classmethod
    def for_run(cls, k_list: tuple[float, ...]) -> "ObservableSeries":
        columns = (
            "t",
            "mass",
            "int_u_beta",
            *[_k_column(k) for k in k_list],
            "linf_u",
            "linf_v",
            "dt",
            "retries",
        )
        return cls(k_list=tuple(float(k) for k in k_list), columns=columns)

    def append(self, row: tuple[float, ...]) -> None:
        if len(row) != len(self.columns):
            raise ValueError("row width does not match columns")
        if self.rows and row[0] <= self.rows[-1][0]:
            raise ValueError("sample times must be strictly increasing")
        self.rows.append(tuple(float(x) for x in row))

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}") from None
        return np.array([r[idx] for r in self.rows])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "ObservableSeries":
        """Read a series that to_csv wrote; its header must be a run header."""
        with open(path) as fh:
            header = fh.readline().strip()
            if not header:
                raise ValueError(f"{path}: empty series file")
            columns = tuple(header.split(","))
            try:
                series = cls.for_run(
                    [float(c[len("int_u_k"):]) for c in columns if c.startswith("int_u_k")]
                )
            except ValueError:
                series = None
            if series is None or series.columns != columns:
                raise ValueError(f"{path}: header {header!r} is not a series header")
            for number, line in enumerate(fh, start=2):
                try:
                    if line.strip():
                        series.append(tuple(float(x) for x in line.split(",")))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {number}: {exc}") from None
        return series


def record(
    state: State,
    grid: Grid,
    params: ModelParams,
    k_list: tuple[float, ...],
    cumulative_retries: int = 0,
) -> tuple[float, ...]:
    """Compute one series row from a state; raises ObservableError when sick.

    Besides finiteness, two structural facts of nonnegative fields are
    asserted on every row: the normalized L^k means are nondecreasing in k,
    and none exceeds the sup norm.  A violation means a reduction bug, not
    bad data, so it aborts the run.
    """
    try:
        mass = integrate(state.u, grid)
        int_beta = lp_norm_pow(state.u, grid, params.beta)
        int_k = [lp_norm_pow(state.u, grid, k) for k in k_list]
        sup_u = linf_norm(state.u)
        sup_v = linf_norm(state.v)
    except ValueError as exc:
        raise ObservableError(str(exc)) from exc

    row = (state.t, mass, int_beta, *int_k, sup_u, sup_v, state.dt_last,
           float(cumulative_retries))
    if not all(math.isfinite(x) for x in row):
        raise ObservableError(f"non-finite observable at t = {state.t}")

    measure = grid.measure
    means = sorted(
        [(1.0, abs(mass)), (params.beta, int_beta)] + list(zip(k_list, int_k))
    )
    prev_mean = 0.0
    for k, value in means:
        mean_k = (value / measure) ** (1.0 / k)
        if mean_k < prev_mean * (1.0 - _CONSISTENCY_RTOL):
            raise ObservableError(
                f"power-mean monotonicity violated at t = {state.t} (k = {k:g})"
            )
        if mean_k > sup_u * (1.0 + _CONSISTENCY_RTOL) + 1e-300:
            raise ObservableError(
                f"L^{k:g} mean exceeds the sup norm at t = {state.t}"
            )
        prev_mean = max(prev_mean, mean_k)
    return row


@dataclass(frozen=True)
class SeriesSummary:
    """Verdict over a whole series: per-column maxima and plateau flags."""

    column_max: dict
    mass_envelope_ok: bool | None
    linf_bounded: bool | None
    plateau: dict
    plateaus_ok: bool


def _plateau(values: np.ndarray) -> bool:
    """Last-quartile max no more than 5% above the mid-quartile max.

    The quartile split and the 1.05 factor are fixture constants of the
    verdict, a heuristic reading of 'settled', not a proved bound.
    """
    n = len(values)
    if n < 4:
        return True
    mid = values[n // 4 : (3 * n) // 4]
    last = values[(3 * n) // 4 :]
    return float(last.max()) <= 1.05 * float(mid.max()) + 1e-300


def summarize(
    series: ObservableSeries,
    mass_cap: float | None = None,
    linf_threshold: float | None = None,
) -> SeriesSummary:
    """Reduce a series to maxima plus boundedness/plateau verdicts."""
    if len(series) == 0:
        raise ValueError("cannot summarize an empty series")
    column_max = {name: float(series.column(name).max()) for name in series.columns}

    mass_ok = None
    if mass_cap is not None:
        mass_ok = column_max["mass"] <= mass_cap * (1.0 + 1e-6)
    linf_ok = None
    if linf_threshold is not None:
        linf_ok = column_max["linf_u"] < linf_threshold

    plateau_cols = [c for c in series.columns if c.startswith("int_u_k")]
    plateau_cols.append("linf_u")
    plateau = {c: _plateau(series.column(c)) for c in plateau_cols}
    return SeriesSummary(
        column_max=column_max,
        mass_envelope_ok=mass_ok,
        linf_bounded=linf_ok,
        plateau=plateau,
        plateaus_ok=all(plateau.values()),
    )
