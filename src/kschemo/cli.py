"""Command-line entry points: classify | run | sweep | mms | bound-check.

Exit codes: 0 ok, 2 config error, 3 blow-up detected, 4 solver failure
(bound-check additionally exits 1 when its verdict is not true: false, or
inconclusive on a run that did not reach t_end).  Any failure prints a
single machine-parsable ``error: ...`` line on stderr; a bad flag, config
or output path exits 2 before any step runs or any sweep output is made,
and names the flag or config key that set the refused value
(_config_errors).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

from . import config  # a wrapper set on config.build_initial_state sees the sweep's calls
from .config import (
    ConfigError, audit_record, initial_mass, parse_config, resolved_text, run_from_config,
    run_record, write_resolved,
)
from .grid import Grid, read_snapshot
from .observables import ObservableSeries, RunRecord, Termination
from .params import FieldError, ModelParams, classify_regime, mass_envelope
from .stepper import _job_results, run_batch
from .verification import build_mms_case, check_levels, convergence_study, level_dts

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SOLVER = 4

# cells per simulated sweep batch: one 512^2 field, so a 2D sweep at that
# size runs its points one at a time instead of multiplying memory by them
_BATCH_CELLS = 512 * 512

# points per sweep axis: a tiny --*-step must not build an enormous grid
_MAX_RANGE_POINTS = 1000

# the record fields of a --simulate sweep row, after its alpha,beta,n,regime cells
_SWEEP_FIELDS = ("y1", "m0", "termination", "mass_max", "linf_u_max", "plateaus_ok")


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _config_errors(fields: dict[str, str], default: str | None = None):
    """Re-raise a refusal in the block as a ConfigError naming the command's
    flag or key.  ``fields`` maps a FieldError's field, or a ConfigError's
    key, to it; a FieldError of an unmapped field and any other ValueError
    or OSError name ``default`` (None: no key), and a ConfigError with an
    unmapped key passes unchanged."""
    try:
        yield
    except ConfigError as exc:
        if exc.key not in fields:
            raise
        raise ConfigError(exc.message, key=fields[exc.key], line=exc.line) from None
    except FieldError as exc:
        raise ConfigError(str(exc), key=fields.get(exc.field, default)) from None
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc), key=default) from None


def _collect_overrides(extras: list[str]) -> dict[str, str]:
    """Turn leftover ``--section.key value`` pairs into config overrides."""
    overrides: dict[str, str] = {}
    tokens = iter(extras)
    for token in tokens:
        if not (token.startswith("--") and "." in token):
            raise ConfigError(f"unrecognized argument {token!r}")
        key, eq, value = token[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"missing value for override {token!r}")
        if key in overrides:
            raise ConfigError(f"duplicate key {key!r}", key=key)
        overrides[key] = value
    return overrides


def _point_id(alpha: float, beta: float) -> str:
    return f"{alpha:.12g},{beta:.12g}"


def _point_cells(params: ModelParams, n: int) -> str:
    """The alpha,beta,n,regime cells of a classify line or sweep row, alpha
    and beta with 12 significant digits."""
    return f"{_point_id(params.alpha, params.beta)},{n},{classify_regime(params, n)}"


def _classification_line(params: ModelParams, n: int, envelope: tuple) -> str:
    """A classify line or plain sweep row: the point's cells, then the
    envelope's y1 and m0 with 17 significant digits."""
    return "{},{:.17g},{:.17g}".format(_point_cells(params, n), *envelope)


def _cmd_classify(args) -> int:
    fields = {"alpha": "--alpha", "beta": "--beta", "n": "--n", "a": "--a", "b": "--b",
              "initial_mass": "--initial-mass", "domain_measure": "--domain-measure"}
    # a y1 that is not finite is set by no one flag, so its refusal names none
    with _config_errors(fields):
        # neither the regime nor the envelope depends on chi
        params = ModelParams(chi=1.0, a=args.a, b=args.b, alpha=args.alpha, beta=args.beta)
        envelope = mass_envelope(params, args.initial_mass, args.domain_measure)
        line = _classification_line(params, args.n, envelope)
    print(line)
    return EXIT_OK


def _cmd_run(args, extras: list[str]) -> int:
    with _config_errors({}, "--config"):
        cfg = parse_config(path=args.config, overrides=_collect_overrides(extras))
    _make_output_dir(args.output)
    result = run_from_config(
        cfg, output_dir=args.output, export_fields_csv=args.export_fields_csv
    )
    print(f"termination={result.termination}")
    print(f"output_dir={args.output}")
    where = f"t={result.state.t:.17g} cause={result.cause}"
    if result.termination is Termination.BLOWUP_DETECTED:
        return _fail(EXIT_BLOWUP, "blowup-detected", where)
    if result.termination is Termination.SOLVER_FAILURE:
        return _fail(EXIT_SOLVER, "solver-failure", where)
    return EXIT_OK


def _frange(flag: str, lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, from the --{flag}-min/-max/-step values."""
    # argparse's float() accepts nan and inf, which no range can hold
    for suffix, value in (("min", lo), ("max", hi), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"finite value required, got {value}", key=f"--{flag}-{suffix}")
    if step <= 0:
        raise ConfigError("step must be positive", key=f"--{flag}-step")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ConfigError(f"(max - min) / step overflows, got {span}", key=f"--{flag}-step")
    count = int(math.floor(span + 1e-9)) + 1
    if count > _MAX_RANGE_POINTS:
        raise ConfigError(
            f"{count} points exceed the limit of {_MAX_RANGE_POINTS}", key=f"--{flag}-step"
        )
    return [lo + i * step for i in range(max(count, 0))]


def _make_output_dir(path: str) -> None:
    """os.makedirs(path), or a ConfigError naming --output."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}", key="--output") from None


def _sweep_batch(points: list, n: int, base) -> list[str]:
    """The rows of one batch of sweep points, in order.

    ``base`` is the parsed base config under --simulate and None otherwise;
    each simulated point is the base's model with its own alpha and beta,
    and the points march from the base's initial state as one member batch.
    Batches run by ``stepper._job_results`` on min(--workers, batches, usable
    CPUs) processes, or in this one at 1.
    """
    if base is None:
        # the envelope for unit coefficients on the unit box with zero
        # initial mass, i.e. the bare barrier value
        units = [ModelParams(chi=1.0, a=1.0, b=1.0, alpha=a, beta=b) for a, b in points]
        return [_classification_line(p, n, mass_envelope(p, 0.0, 1.0)) for p in units]
    initial = config.build_initial_state(base)
    params = [replace(base.model, alpha=a, beta=b) for a, b in points]
    results = run_batch([initial] * len(points), params, base.grid, base.stepper, base.t_end,
                        base.recorder)
    return [",".join([_point_cells(p, n), *map(run_record(base, p, r).text, _SWEEP_FIELDS)])
            for p, r in zip(params, results)]


def _batches(points: list, workers: int, max_size: int) -> list[list]:
    """Contiguous runs of points: one per requested worker, at most ``max_size`` each."""
    size = min(max(1, math.ceil(len(points) / workers)), max_size)
    return [points[i : i + size] for i in range(0, len(points), size)]


def _resume_sweep(csv_path: str, ledger_path: str, header: str, n: int, base) -> set[str]:
    """The finished points: those the ledger lists and those of every
    complete row of ``csv_path``, so that a row whose ledger line a kill cut
    off is not written twice.  ``csv_path`` is made with ``header``, or cut
    back to its last complete line so that a row torn by a kill is redone; a
    file of another kind of sweep (plain against --simulate) or of another
    --n raises ConfigError, and so does a resolved_config.txt beside it that
    is not ``base``'s (under --simulate); a missing one is written once
    nothing was refused."""
    cells = header.split(",")
    record = os.path.join(os.path.dirname(csv_path), "resolved_config.txt")
    try:
        if base is not None and os.path.exists(record):
            with open(record) as fh:
                if fh.read() != resolved_text(base):
                    raise ConfigError(f"{record} holds another base or --t-end", key="--output")
        with open(csv_path, "a+b") as fh:
            fh.seek(0)
            data = fh.read()
            complete = data[: data.rfind(b"\n") + 1]
            head, *rows = (r.split(",") for r in complete.decode().splitlines() or [header])
            if head != cells or any(len(r) != len(cells) or r[2] != str(n) for r in rows):
                raise ConfigError(f"{csv_path} holds another kind of sweep or --n", key="--output")
            fh.truncate(len(complete))
            fh.write(b"" if complete else header.encode() + b"\n")
        if base is not None:
            write_resolved(base, record)
        with open(ledger_path, "a+") as fh:
            fh.seek(0)
            ledger = {line.strip() for line in fh if line.strip()}
        # a row's alpha,beta cells are its _point_id
        return ledger | {",".join(r[:2]) for r in rows}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc), key="--output") from None


def _cmd_sweep(args, extras: list[str]) -> int:
    if args.workers < 1:
        raise ConfigError(f"workers >= 1 required, got {args.workers}", key="--workers")
    overrides = _collect_overrides(extras)
    if "run.t_end" in overrides:
        raise ConfigError("sweep takes its run length from --t-end", key="--run.t_end")
    unread = [f"--{key}" for key in overrides]
    unread += [flag for flag, value in (("--config", args.config), ("--t-end", args.t_end))
               if value is not None]
    if unread and not args.simulate:
        raise ConfigError("only --simulate reads this flag", key=unread[0])
    alphas = _frange("alpha", args.alpha_min, args.alpha_max, args.alpha_step)
    betas = _frange("beta", args.beta_min, args.beta_max, args.beta_step)
    if not alphas or not betas:
        raise ConfigError("empty sweep range")
    # --t-end's value replaces any run.t_end of the base file; an OSError or
    # another ValueError can only come from reading --config
    fields = {"alpha": "--alpha-min", "beta": "--beta-min", "n": "--n", "b": "model.b",
              "run.t_end": "--t-end"}
    with _config_errors(fields, "--config"):
        # the ranges ascend, so the first point holds the smallest alpha and beta
        first = ModelParams(chi=1.0, a=1.0, b=1.0, alpha=alphas[0], beta=betas[0])
        classify_regime(first, args.n)
        base = None
        max_batch = len(alphas) * len(betas)
        if args.simulate:
            # every point shares the base config; reject it before any point runs
            overrides["run.t_end"] = repr(2.0 if args.t_end is None else args.t_end)
            source = {"path": args.config} if args.config is not None else {"text": ""}
            base = parse_config(**source, overrides=overrides)
            base.model.require_envelope()
            if base.grid.dim != args.n:
                raise ConfigError(f"differs from the base's grid.dim = {base.grid.dim}", key="--n")
            # every point starts from the base state; an IC that overflows fails here
            config.build_initial_state(base)
            max_batch = max(1, _BATCH_CELLS // math.prod(base.grid.shape))

    _make_output_dir(args.output)
    csv_path = os.path.join(args.output, "sweep.csv")
    ledger_path = os.path.join(args.output, "sweep_done.txt")
    header = "alpha,beta,n,regime," + (",".join(_SWEEP_FIELDS) if args.simulate else "y1,m0")
    done = _resume_sweep(csv_path, ledger_path, header, args.n, base)

    points = [(a, b) for a in alphas for b in betas if _point_id(a, b) not in done]
    chunks = _batches(points, args.workers, max_batch)
    jobs = [(chunk, args.n, base) for chunk in chunks]
    with _job_results(_sweep_batch, jobs, args.workers) as results:
        for chunk, rows in zip(chunks, results):
            # this process alone writes: a batch's rows, then the ledger lines marking them done
            with open(csv_path, "a") as fh:
                fh.writelines(row + "\n" for row in rows)
            with open(ledger_path, "a") as fh:
                fh.writelines(_point_id(alpha, beta) + "\n" for alpha, beta in chunk)
    print(f"sweep_rows={len(points)}")
    print(f"sweep_csv={csv_path}")
    return EXIT_OK


def _mms_study(args) -> tuple[ModelParams, list[Grid], list[float]]:
    """The study's params, grids and dts; ConfigError names a bad flag.
    verification checks the levels (check_levels, before any level is
    built), t_end and dts (level_dts)."""
    spatial = args.mode == "spatial"
    fields = {"chi": "--chi", "levels": "--levels", "t_end": "--t-end", "dts": "--dt0",
              "cells": "--cells0" if spatial else "--cells"}
    # the one plain ValueError is a level that repeats the one before
    with _config_errors(fields, "--dt0/--t-end"):
        params = ModelParams(chi=args.chi, a=1.0, b=1.0, alpha=2.0, beta=2.0)
        check_levels(args.levels)
        # a spatial level halves h and so quarters dt; a temporal level halves dt
        cells = [args.cells0 * 2**i if spatial else args.cells for i in range(args.levels)]
        grids = [Grid(extent=(1.0,) * args.dim, cells=(n,) * args.dim) for n in cells]
        dt0 = (1.0 / args.cells0) ** 2 / 4.0 if spatial else 2e-3
        dt0 = dt0 if args.dt0 is None else args.dt0
        dts = [math.ldexp(dt0, -(2 if spatial else 1) * i) for i in range(args.levels)]
        level_dts(grids, dts, args.t_end)
    _require_writable(args.output)
    return params, grids, dts


def _require_writable(path: str) -> None:
    """ConfigError naming --output unless a file can be written at ``path``; creates nothing."""
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(directory):
        problem = f"is in no existing directory ({directory})"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        problem = "is not writable"
    else:
        return
    raise ConfigError(f"{path} {problem}", key="--output")


def _cmd_mms(args) -> int:
    params, grids, dts = _mms_study(args)
    case = build_mms_case(params, grids[0])
    try:
        table = convergence_study(case, grids, dts, args.t_end)
    except RuntimeError as exc:  # a level left the fixed-dt study
        return _fail(EXIT_SOLVER, "solver-failure", str(exc))
    table.to_csv(args.output)
    for r in table.rows:
        ou = "-" if r.order_u is None else f"{r.order_u:.3f}"
        ov = "-" if r.order_v is None else f"{r.order_v:.3f}"
        print(
            f"level={r.level} h={r.h:.3e} dt={r.dt:.3e} "
            f"error_u={r.error_u:.6e} error_v={r.error_v:.6e} "
            f"order_u={ou} order_v={ov}"
        )
    print(f"mms_csv={args.output}")
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    def path(name: str) -> str:
        return os.path.join(args.run_dir, name)

    # the initial mass comes from the run's series or snapshot; a y1 that is
    # not finite is set by no one key, so its refusal names none
    with _config_errors({"b": "model.b", "initial_mass": "--run-dir"}):
        cfg = parse_config(path=path("resolved_config.txt"))
        series = ObservableSeries.from_csv(path("series.csv"))
        # the march's fields as written; a summary without a termination line
        # reads as a run that stopped early, and one without a
        # max_gain_above_y1 line as an unchecked run
        written = RunRecord.read(path("summary.txt"))
        # a run that ended at t = 0 without a sample left its initial u on disk
        u0 = None if len(series) else read_snapshot(path("u_initial.snap"))[0]
        # a run without an envelope exits 2
        mass_envelope(cfg.model, initial_mass(series, u0, cfg.grid), cfg.grid.measure)
        audit = audit_record(cfg, cfg.model, series, u0, written)

    print("\n".join(RunRecord(y1=audit.y1, m0=audit.m0, mass_max=audit.mass_max,
                              mass_envelope_ok=audit.mass_envelope_ok).lines()))
    return EXIT_OK if audit.mass_envelope_ok else EXIT_VERDICT_FALSE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ConfigErrors, so they print
    the one ``error: config: ...`` line; add_subparsers makes its
    subparsers of this class too."""

    def error(self, message: str):
        raise ConfigError(message.removeprefix("argument "))


def _path(value: str) -> str:
    """An --output value; the empty path names no file, so it is a usage error."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kschemo",
        description="Chemotaxis simulator with nonlocal logistic sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a parameter point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--domain-measure", type=float, default=1.0)
    p.add_argument("--initial-mass", type=float, default=0.0)

    p = sub.add_parser("run", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--output", type=_path, default="out", help="artifact directory (out)")
    p.add_argument("--export-fields-csv", action="store_true")

    p = sub.add_parser("sweep", help="classify (optionally short-run) a parameter grid")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-step", type=float, default=0.25)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-step", type=float, default=0.25)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", type=_path, required=True)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--config", default=None, help="base config for --simulate")
    p.add_argument("--t-end", type=float, default=None, help="--simulate run length (2)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="upper bound on worker processes (>= 1); at most one per batch and per usable CPU",
    )

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--cells0", type=int, default=32, help="coarsest cells (spatial)")
    p.add_argument("--cells", type=int, default=512, help="fixed cells (temporal)")
    p.add_argument("--dt0", type=float, default=None)
    p.add_argument("--t-end", type=float, default=0.1)
    p.add_argument("--chi", type=float, default=0.25)
    p.add_argument("--output", type=_path, default="mms.csv")

    p = sub.add_parser("bound-check", help="audit a finished run against the envelope")
    p.add_argument("--run-dir", required=True)

    return parser


def main(argv=None) -> int:
    # run and sweep read --section.key overrides from the leftover arguments
    with_overrides = {"run": _cmd_run, "sweep": _cmd_sweep}
    plain = {"classify": _cmd_classify, "mms": _cmd_mms, "bound-check": _cmd_bound_check}
    try:
        args, extras = _build_parser().parse_known_args(argv)
        if args.command in with_overrides:
            return with_overrides[args.command](args, extras)
        if extras:
            return _fail(EXIT_CONFIG, "config", f"unrecognized arguments {extras}")
        return plain[args.command](args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
