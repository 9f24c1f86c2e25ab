"""Simulator and verification harness for Keller-Segel chemotaxis with a
nonlocal logistic source on boxes with zero-flux boundaries."""

from .grid import (
    Grid,
    State,
    field_to_csv,
    integrate,
    linf_norm,
    lp_norm_pow,
    read_snapshot,
    write_snapshot,
)
from .observables import ObservableSeries, SeriesSummary, Termination, record, summarize
from .operators import chemo_divergence, laplacian, nonlocal_source
from .params import (
    ModelParams,
    OdeComparisonResult,
    Regime,
    classify_regime,
    mass_envelope,
    ode_comparison_oracle,
)
from .stepper import (
    LinearSolverError,
    Recorder,
    RunResult,
    StepOutcome,
    StepperConfig,
    adapt_dt,
    helmholtz_solve,
    run,
    run_batch,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "State",
    "ModelParams",
    "Regime",
    "OdeComparisonResult",
    "classify_regime",
    "mass_envelope",
    "ode_comparison_oracle",
    "integrate",
    "lp_norm_pow",
    "linf_norm",
    "write_snapshot",
    "read_snapshot",
    "field_to_csv",
    "laplacian",
    "chemo_divergence",
    "nonlocal_source",
    "StepperConfig",
    "StepOutcome",
    "Termination",
    "Recorder",
    "RunResult",
    "LinearSolverError",
    "helmholtz_solve",
    "adapt_dt",
    "step",
    "run",
    "run_batch",
    "ObservableSeries",
    "SeriesSummary",
    "record",
    "summarize",
    "__version__",
]
