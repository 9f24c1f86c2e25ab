"""Time series of the bounded quantities: mass, L^k integrals, sup norms.

Column order is fixed and part of the CSV contract:

    t, mass, int_u_beta, int_u_k<k> (one per configured k), linf_u, linf_v,
    dt, retries

Floats are printed with 17 significant digits so a written series re-reads
bitwise identical.
"""

from __future__ import annotations

import collections
import enum
import fnmatch
import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .grid import Grid, State, _require_field
from .params import ModelParams

_CONSISTENCY_RTOL = 1e-9
_NORMAL_MIN = float(np.finfo(float).tiny)  # smallest normal float


class ObservableError(RuntimeError):
    """A recorded row is non-finite or internally inconsistent."""


class Termination(enum.Enum):
    """How a run ended, or how a step ended its run; summary.txt prints the value."""

    REACHED_T_END = "ReachedTEnd"
    BLOWUP_DETECTED = "BlowupDetected"
    SOLVER_FAILURE = "SolverFailure"

    def __str__(self) -> str:
        return self.value


def _k_column(k: float) -> str:
    return f"int_u_k{k:g}"


@dataclass
class ObservableSeries:
    """Append-only record of one run, one row per sample time."""

    columns: tuple[str, ...]
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
        return cls(columns=columns)

    def append(self, row: tuple[float, ...]) -> None:
        if len(row) != len(self.columns):
            raise ValueError("row width does not match columns")
        if self.rows and row[0] <= self.rows[-1][0]:
            raise ValueError("sample times must be strictly increasing")
        self.rows.append(tuple(map(float, row)))

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
    """Compute one series row from a state; raises ObservableError when sick:
    an entry is not finite, or the means break a structural fact of
    nonnegative fields (``_check_power_means``), which means a reduction bug."""
    try:
        u = _require_field(state.u, grid, "u")
        v = _require_field(state.v, grid, "v")
    except ValueError as exc:
        raise ObservableError(str(exc)) from exc
    # the same reductions as integrate and lp_norm_pow, over one |u|, by
    # the ufuncs that ndarray.sum and ndarray.max call
    volume = grid.cell_volume
    abs_u = np.abs(u)
    total, most = np.add.reduce, np.maximum.reduce
    mass = volume * float(total(u, axis=None))
    # each distinct power once: beta may also be a k (beta = 2 and the default k_list)
    powers = (params.beta, *k_list)
    integral = {k: volume * float(total(abs_u if k == 1 else abs_u**k, axis=None))
                for k in dict.fromkeys(powers)}
    int_beta, *int_k = map(integral.get, powers)
    sup_u, sup_v = float(most(abs_u, axis=None)), float(most(np.abs(v), axis=None))

    row = (state.t, mass, int_beta, *int_k, sup_u, sup_v, state.dt_last,
           float(cumulative_retries))
    if not all(map(math.isfinite, row)):
        raise ObservableError(f"non-finite observable at t = {state.t}")

    integrals = [abs(mass), int_beta, *int_k]
    order = _power_means(params.beta, tuple(k_list))
    _check_power_means(state.t, integrals, order, sup_u, grid.measure)
    return row


@functools.lru_cache(maxsize=64)
def _power_means(beta: float, k_list: tuple[float, ...]) -> tuple:
    """The order in which _check_power_means takes the integrals of u^1,
    u^beta and u^k for each k of ``k_list``, held in that order: by
    increasing k, each as (k, 1/k, _NORMAL_MIN ** (1/k), its position).
    Where k ties, the integrals keep their order, which is increasing:
    |int(u)| <= int(|u|) at beta = 1 (one summation order, monotone
    rounding), and at beta in k_list the two are one expression.  They
    depend on (beta, k_list) alone, so a run computes them once."""
    ks = sorted(enumerate((1.0, beta, *k_list)), key=lambda pair: (pair[1], pair[0]))
    return tuple((k, 1.0 / k, _NORMAL_MIN ** (1.0 / k), i) for i, k in ks)


def _check_power_means(
    t: float, integrals: list, order: tuple, sup_u: float, measure: float
) -> None:
    """Raise ObservableError unless the L^k means (integral / measure)^(1/k)
    of the ``integrals``, taken in the _power_means ``order``, never fall as
    k grows and none exceeds ``sup_u``; a k whose largest term sup_u^k or
    integral is subnormal is skipped, as underflow took the digits of its
    mean."""
    prev_mean = 0.0
    for k, inverse, floor, i in order:
        value = integrals[i]
        if sup_u < floor or value < _NORMAL_MIN:
            continue
        mean_k = (value / measure) ** inverse
        if mean_k < prev_mean * (1.0 - _CONSISTENCY_RTOL):
            raise ObservableError(f"power-mean monotonicity violated at t = {t} (k = {k:g})")
        if mean_k > sup_u * (1.0 + _CONSISTENCY_RTOL) + 1e-300:
            raise ObservableError(f"L^{k:g} mean exceeds the sup norm at t = {t}")
        prev_mean = max(prev_mean, mean_k)


# How a record field of one kind is written and read back: ``format`` gives
# its text, ``parse`` its value again (KeyError or ValueError on a text it
# cannot read), and ``refusal`` says why, from {path}, {name} and {text}.
_Kind = collections.namedtuple("_Kind", "format parse refusal")
_VERDICT_TEXT = {True: "true", False: "false", None: "inconclusive"}
_TEXT = _Kind(str, str, "")
_COUNT = _Kind(str, int, "{path}: {name} {text!r} is not a count")
# 17 digits re-read bitwise; None, a maximum without a sample, is empty
_NUMBER = _Kind(lambda x: "" if x is None else f"{x:.17g}", lambda t: float(t) if t else None,
                "{path}: {name} {text!r} is not a number")
_VERDICT = _Kind(_VERDICT_TEXT.__getitem__, {v: k for k, v in _VERDICT_TEXT.items()}.__getitem__,
                 "{path}: {name} {text!r} is not true, false or inconclusive")
_TERMINATION = _Kind(str, Termination, "{path}: unknown {name} {text!r}")

# The fields of a run record in the order of its summary.txt lines: the one
# place a field is declared.  plateau_* stands for one plateau_<column> field
# per plateau column, in name order.
RECORD_FIELDS: dict[str, _Kind] = {
    "termination": _TERMINATION,
    "termination_cause": _TEXT,
    "steps": _COUNT,
    "replayed_steps": _COUNT,
    "total_retries": _COUNT,
    "max_mass_identity_violation": _NUMBER,
    "max_gain_above_y1": _NUMBER,
    "min_u": _NUMBER,
    "min_v": _NUMBER,
    "y1": _NUMBER,
    "m0": _NUMBER,
    "mass_max": _NUMBER,
    "linf_u_max": _NUMBER,
    "mass_envelope_ok": _VERDICT,
    "linf_bounded": _VERDICT,
    "plateau_*": _VERDICT,
    "plateaus_ok": _VERDICT,
}


def _field(name: str) -> tuple[int, _Kind]:
    """The position and kind of field ``name`` in RECORD_FIELDS;
    AttributeError, as a record raises for it, when no field has it."""
    for position, (key, kind) in enumerate(RECORD_FIELDS.items()):
        if fnmatch.fnmatchcase(name, key):
            return position, kind
    raise AttributeError(f"no record field {name!r}")


class RunRecord(SimpleNamespace):
    """The record of a run: one attribute per field it holds, in the order
    of RECORD_FIELDS.  A field it does not hold reads None: y1 and m0 of a
    run without an envelope, mass_envelope_ok at b = 0, and in a record read
    back, each field whose line the file lacks."""

    def __init__(self, **fields):
        super().__init__(**dict(sorted(fields.items(), key=lambda f: (_field(f[0])[0], f[0]))))

    def __getattr__(self, name: str):
        # reached only for an attribute the record does not hold: a table
        # field reads None, and _field raises AttributeError for any other name
        _field(name)
        return None

    def text(self, name: str) -> str:
        """Field ``name`` as its summary.txt line prints it."""
        return _field(name)[1].format(getattr(self, name))

    def lines(self) -> list[str]:
        """The lines of summary.txt: ``name=text``, one per field held."""
        return [f"{name}={self.text(name)}" for name in vars(self)]

    @classmethod
    def read(cls, path) -> "RunRecord":
        """The record whose lines() ``path`` holds; ValueError names the
        file and the first line that no field of RECORD_FIELDS reads."""
        fields = {}
        with open(path) as fh:
            for line in fh:
                name, _, text = line.rstrip("\n").partition("=")
                try:
                    kind = _field(name)[1]
                    fields[name] = kind.parse(text)
                except AttributeError as exc:
                    raise ValueError(f"{path}: {exc}") from None
                except (KeyError, ValueError):
                    raise ValueError(kind.refusal.format(path=path, name=name, text=text)) from None
        return cls(**fields)


def _plateau(values: np.ndarray) -> bool | None:
    """Last-quartile max no more than 5% above the mid-quartile max; None
    below 4 rows.  The split and the factor are fixture constants, a
    heuristic reading of 'settled', not a proved bound."""
    n = len(values)
    if n < 4:
        return None
    mid, last = values[n // 4 : (3 * n) // 4], values[(3 * n) // 4 :]
    return bool(float(last.max()) <= 1.05 * float(mid.max()) + 1e-300)


def _verdict(holds: bool | None, reached: bool) -> bool | None:
    """False on a violation, True when it holds over a finished run, else None."""
    return False if holds is False else (True if holds and reached else None)


def summarize(
    series: ObservableSeries,
    termination: Termination | None,
    mass_cap: float | None = None,
    linf_threshold: float | None = None,
    mass_gain: float | None = -math.inf,
) -> RunRecord:
    """The maxima and verdicts of the record of a run that ended with
    ``termination``; None reads as a run that stopped early.  ``mass_gain``
    is the run's per-step RunDiagnostics.max_gain_above_y1 (-inf: no step
    checked; None: not known).  The one rule for every verdict:

    - False when the run shows a violation: a mass above
      mass_cap * (1 + 1e-6), a positive mass_gain, a sup norm at or above
      linf_threshold, a non-finite sample, or a plateau that fails over at
      least 4 rows.
    - True only when nothing is violated, the run reached t_end and, for a
      plateau, the series has at least 4 rows.
    - None (inconclusive) otherwise, an empty series, an absent bound or a
      None mass_gain included.  plateaus_ok is False if any plateau is, True
      if all are.
    """
    reached = termination is Termination.REACHED_T_END
    mass_max = linf_u_max = mass_holds = linf_holds = None
    if len(series):
        mass_max = float(series.column("mass").max())
        linf_u_max = float(series.column("linf_u").max())
        if mass_cap is not None:
            mass_holds = bool(mass_max <= mass_cap * (1.0 + 1e-6))
        if linf_threshold is not None:
            linf_holds = bool(linf_u_max < linf_threshold)
    per_step = None if mass_gain is None else bool(mass_gain <= 0.0)
    mass_holds = False if False in (mass_holds, per_step) else mass_holds and per_step
    columns = [c for c in series.columns if c.startswith("int_u_k")] + ["linf_u"]
    plateau = {f"plateau_{c}": _verdict(_plateau(series.column(c)), reached) for c in columns}
    flags = list(plateau.values())
    return RunRecord(
        mass_max=mass_max, linf_u_max=linf_u_max, mass_envelope_ok=_verdict(mass_holds, reached),
        linf_bounded=_verdict(linf_holds, reached), **plateau,
        plateaus_ok=False if False in flags else (True if all(flags) else None),
    )
