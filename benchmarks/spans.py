"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files, at the name each
calling module looks up (``kschemo.stepper.nonlocal_source``,
``kschemo.observables.integrate``, ...), so the package itself is not
changed.  A hook whose module or attribute no longer exists is skipped and
listed as absent.  Spans (name, start, end, parent, observation) are kept in
memory; in a forked worker process each root span's subtree is written to
``<span_dir>/spans-<pid>.pkl`` when it closes, so the parent can collect the
spans of the sweep's pool workers.  Untraced repetitions run without hooks.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import pickle
import statistics
import time

STEP = "stepper.step"
HELMHOLTZ = "stepper.helmholtz"
HELMHOLTZ_CORE = "stepper.helmholtz_core"
SWEEP_POINT = "cli.sweep_point"


def _step_outcome(result):
    """(accepted, retries) from the ``(state, StepOutcome)`` that ``step`` returns."""
    try:
        outcome = result[1]
        return outcome.status.name in ("ADVANCED", "DT_REDUCED"), int(outcome.retries)
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


# (module, attribute looked up by the caller, span name, observer of the result)
HOOKS = (
    ("kschemo.config", "run", "stepper.run", None),
    ("kschemo.verification", "run", "stepper.run", None),
    ("kschemo.stepper", "step", STEP, _step_outcome),
    ("kschemo.stepper", "_helmholtz_checked", HELMHOLTZ, None),
    ("kschemo.stepper", "_helmholtz_core", HELMHOLTZ_CORE, None),
    ("kschemo.stepper", "adapt_dt", "stepper.adapt_dt", None),
    ("kschemo.stepper", "laplacian", "operators.laplacian", None),
    ("kschemo.stepper", "chemo_divergence", "operators.chemo_divergence", None),
    ("kschemo.stepper", "nonlocal_source", "operators.nonlocal_source", None),
    ("kschemo.stepper", "integrate", "grid.integrate", None),
    ("kschemo.stepper", "record", "observables.record", None),
    ("kschemo.operators", "lp_norm_pow", "grid.lp_norm_pow", None),
    ("kschemo.observables", "integrate", "grid.integrate", None),
    ("kschemo.observables", "lp_norm_pow", "grid.lp_norm_pow", None),
    ("kschemo.observables", "linf_norm", "grid.linf_norm", None),
    ("kschemo.config", "integrate", "grid.integrate", None),
    ("kschemo.verification", "lp_norm_pow", "grid.lp_norm_pow", None),
    ("kschemo.verification", "Forcing.u", "verification.forcing", None),
    ("kschemo.verification", "Forcing.v", "verification.forcing", None),
    ("kschemo.verification", "build_mms_case", "verification.build_mms_case", None),
    ("kschemo.config", "parse_config", "config.parse_config", None),
    ("kschemo.cli", "parse_config", "config.parse_config", None),
    ("kschemo.config", "build_initial_state", "config.build_initial_state", None),
    ("kschemo.config", "run_from_config", "config.run_from_config", None),
    ("kschemo.cli", "run_from_config", "config.run_from_config", None),
    ("kschemo.cli", "_sweep_point", SWEEP_POINT, None),
)


def _resolve(module: str, attr: str):
    """(owner, name, original) for a hook, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Installs the hooks, records spans, and restores the originals."""

    def __init__(self, span_dir: str, hooks=HOOKS):
        self.span_dir = span_dir
        self.hooks = hooks
        self.owner_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.installed: list[tuple] = []
        self.absent: list[str] = []

    def install(self) -> None:
        self.absent = []
        for module, attr, span_name, observe in self.hooks:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap(original, span_name, observe))
            self.installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self.installed:
            owner, name, original = self.installed.pop()
            setattr(owner, name, original)

    def take(self) -> list[list]:
        """Spans recorded in this process since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def worker_spans(self) -> list[list[list]]:
        """Span lists written by worker processes, one per root span; files removed."""
        batches = []
        for entry in sorted(os.scandir(self.span_dir), key=lambda e: e.name):
            if not entry.name.startswith("spans-"):
                continue
            with open(entry.path, "rb") as fh:
                while True:
                    try:
                        batches.append(pickle.load(fh))
                    except EOFError:
                        break
            os.remove(entry.path)
        return batches

    def _wrap(self, fn, span_name, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            root = not stack
            if root and os.getpid() != self.owner_pid:
                spans.clear()  # drop what a forked worker inherited
            record = [span_name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if root and os.getpid() != self.owner_pid:
                    self._flush_worker()
            if observe is not None:
                record[4] = observe(result)
            return result

        return wrapper

    def _flush_worker(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "ab") as fh:
            pickle.dump([tuple(s) for s in self.spans], fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans.clear()


class LayerStats:
    """Self time and counts per span name, accumulated over span lists."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {STEP: [], SWEEP_POINT: []}
        self.helmholtz_core_s = 0.0
        self.accepted = 0
        self.attempts = 0
        self.retries = 0

    def add(self, spans) -> None:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if name == HELMHOLTZ_CORE and spans[parent][0] == HELMHOLTZ:
                    self.helmholtz_core_s += end - start
        for i, (name, start, end, _, observed) in enumerate(spans):
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s[i]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if name in self.durations:
                self.durations[name].append(duration)
            if observed is not None:
                accepted, retries = observed
                self.accepted += accepted
                self.retries += retries
                self.attempts += 1 + retries

    def mean_self(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.self_s[name] / n if n else 0.0

    def mean_total(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total_s[name] / n if n else 0.0

    def per_step(self, name: str, steps: int) -> float:
        return self.count.get(name, 0) / steps if steps else 0.0


def tail_percentile(samples) -> tuple[float, float]:
    """(p, value): the highest of p99.9/p99/p90/p75 with >= 10 samples beyond it.

    Nearest-rank percentiles; with too few samples for p75 it is the maximum.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0, 75.0):
        rank = math.ceil(round(n * p / 100.0, 6))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1] if ordered else 0.0


def layer_metrics(stats: LayerStats, *, steps: int, traced_reps: int, workers: int,
                  traced_walls, overhead_ratio: float, artifacts_bytes: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the accumulated spans.

    ``steps`` is the number of accepted steps over all traced repetitions;
    ``calls`` metrics are calls per accepted step and ``us`` metrics are mean
    self time per call.  A layer the workload never reaches reads 0.
    """
    us = 1e6
    helm_n = stats.count.get(HELMHOLTZ, 0)
    # the gate is everything in the checked solve except the solve itself
    gate = stats.total_s.get(HELMHOLTZ, 0.0) - stats.helmholtz_core_s
    gate = gate / helm_n if helm_n else 0.0
    step_durations = stats.durations[STEP]
    points = stats.durations[SWEEP_POINT]
    busy = sum(points) / (sum(traced_walls) * workers) if points else 0.0
    return {
        "grid.integrate.us": stats.mean_self("grid.integrate") * us,
        "grid.integrate.calls": stats.per_step("grid.integrate", steps),
        "grid.lp_norm_pow.us": stats.mean_self("grid.lp_norm_pow") * us,
        "grid.lp_norm_pow.calls": stats.per_step("grid.lp_norm_pow", steps),
        "grid.linf_norm.us": stats.mean_self("grid.linf_norm") * us,
        "stepper.helmholtz.solve_us": stats.mean_self(HELMHOLTZ_CORE) * us,
        "stepper.helmholtz.gate_us": gate * us,
        "stepper.helmholtz.calls": stats.per_step(HELMHOLTZ, steps),
        "operators.laplacian.us": stats.mean_self("operators.laplacian") * us,
        "operators.chemo_divergence.us": stats.mean_self("operators.chemo_divergence") * us,
        "operators.nonlocal_source.us": stats.mean_self("operators.nonlocal_source") * us,
        "stepper.adapt_dt.us": stats.mean_self("stepper.adapt_dt") * us,
        "stepper.step.self_us": stats.mean_self(STEP) * us,
        "stepper.step.p50_us": statistics.median(step_durations) * us if step_durations else 0.0,
        "stepper.step.tail_us": tail_percentile(step_durations)[1] * us,
        "stepper.run.self_us_per_step": (
            stats.self_s.get("stepper.run", 0.0) / steps * us if steps else 0.0
        ),
        "stepper.retries": stats.retries / traced_reps,
        "stepper.accept_ratio": stats.accepted / stats.attempts if stats.attempts else 0.0,
        "observables.record.us": stats.mean_self("observables.record") * us,
        "observables.record.calls": stats.per_step("observables.record", steps),
        "verification.forcing.us": stats.mean_self("verification.forcing") * us,
        "verification.forcing.calls": stats.per_step("verification.forcing", steps),
        "verification.build_case_s": stats.mean_total("verification.build_mms_case"),
        "config.parse_config.us": stats.mean_self("config.parse_config") * us,
        "config.build_initial_state.us": stats.mean_self("config.build_initial_state") * us,
        "config.artifacts_s": stats.mean_self("config.run_from_config"),
        "config.artifacts_bytes": artifacts_bytes,
        "cli.sweep_point.p50_ms": statistics.median(points) * 1e3 if points else 0.0,
        "cli.sweep.worker_busy_ratio": busy,
        "trace.overhead_ratio": overhead_ratio,
    }
