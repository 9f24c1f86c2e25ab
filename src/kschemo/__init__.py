"""Simulator and verification harness for Keller-Segel chemotaxis with a
nonlocal logistic source on boxes with zero-flux boundaries."""

from .grid import (
    Grid,
    State,
    field_to_csv,
    integrate,
    lp_norm_pow,
    read_snapshot,
    write_snapshot,
)
from .observables import ObservableSeries, RunRecord, Termination, record, summarize
from .params import ModelParams, Regime, classify_regime, mass_envelope
from .stepper import Recorder, RunResult, StepperConfig, run, run_batch

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "State",
    "ModelParams",
    "Regime",
    "classify_regime",
    "mass_envelope",
    "integrate",
    "lp_norm_pow",
    "write_snapshot",
    "read_snapshot",
    "field_to_csv",
    "StepperConfig",
    "Termination",
    "Recorder",
    "RunResult",
    "run",
    "run_batch",
    "ObservableSeries",
    "RunRecord",
    "record",
    "summarize",
    "__version__",
]
