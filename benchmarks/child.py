"""Worker entry points started by run.py in fresh interpreters.

``probe``   times a cold start: from this file's first statement through
            ``import kschemo`` (with cli and verification, which pull in
            scipy.fft and sympy) to the workload's parsed config and initial
            state, then runs the calibration kernel and prints
            ``{"setup_s": ..., "speed_factor": ...}``.
``measure`` runs timed repetitions for the requested seconds (with
            --trace 1, untraced and traced ones alternate) with calibration
            samples between them, and writes its figures as JSON to
            --result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

MIN_REPS = 3


def _probe(args) -> None:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - _START
    import calibration

    # start-up is import-bound interpreter work on every workload
    factor = calibration.speed_factor("dispatch", calibration.kernel_samples("dispatch"))
    print(json.dumps({"setup_s": setup_s, "speed_factor": factor}))


def _timed(workload):
    """(wall seconds, Rep); an exception fails every operation of the repetition."""
    from workloads import Rep

    t0 = time.perf_counter()
    try:
        rep = workload.rep()
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, Rep(0, workload.ops, [f"exception: {exc!r}"] * workload.ops)
    return time.perf_counter() - t0, rep


def _peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus, for a pool, ``workers`` times its largest child.

    Forked workers share pages with this process and count them again, so
    the pool figure is an upper bound on the memory in use at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib = own + (workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                 if workers > 1 else 0)
    return kib / 1024.0


def _traced(workload, tracer, stats):
    """One repetition with the hooks installed; its spans go into ``stats``."""
    tracer.install()
    try:
        result = _timed(workload)
    finally:
        tracer.uninstall()
    stats.add(tracer.take())
    for batch in tracer.worker_spans():
        stats.add(batch)
    return result


def _measure(args) -> dict:
    import numpy
    import scipy
    import sympy

    import calibration
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    tracer = stats = None
    if args.trace:
        import spans

        span_dir = os.path.join(args.workdir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        tracer, stats = spans.Tracer(span_dir), spans.LayerStats()

    # Calibration samples are taken before and after every repetition (or
    # untraced/traced pair); each repetition is scaled by the median of the
    # samples on both sides of it.  No separate warm-up: one-time costs land
    # in the first repetition, which the median of at least MIN_REPS discards.
    reps, traced, brackets = [], [], []
    with calibration.Calibrator(workload.kernel, workload.workers) as calibrator:
        brackets.append(calibrator.samples())
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < args.seconds:
            reps.append(_timed(workload))
            if tracer is not None:
                traced.append(_traced(workload, tracer, stats))
            brackets.append(calibrator.samples())
    factors = [
        calibration.speed_factor(workload.kernel, before + after)
        for before, after in zip(brackets, brackets[1:])
    ]

    checked = [rep for _, rep in reps + traced]
    timed = [(wall, rep, f) for (wall, rep), f in zip(reps, factors) if wall is not None]
    out = {
        "workload": workload.name,
        "describe": workload.describe(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
        },
        "kernel": workload.kernel,
        "attempted": sum(rep.ops for rep in checked),
        "failed": sum(len(rep.failures) for rep in checked),
        "failures": sorted({miss for rep in checked for miss in rep.failures}),
        "raw_wall_s": [wall for wall, _, _ in timed],
        "speed_factor": factors,
        "calibration_samples": sum(len(b) for b in brackets),
        "wall_s": [wall / f for wall, _, f in timed],
        "steps_per_s": [rep.steps * f / wall for wall, rep, f in timed],
        "points_per_s": [rep.ops * f / wall for wall, rep, f in timed],
        "peak_rss_mib": _peak_rss_mib(workload.workers),
    }
    if tracer is not None:
        traced_ok = [(wall, rep) for wall, rep in traced if wall is not None]
        # each traced repetition directly follows an untraced one
        pairs = [t / u for (u, _), (t, _) in zip(reps, traced) if u is not None and t is not None]
        out["absent_hooks"] = tracer.absent
        out["layers"] = spans.layer_metrics(
            stats,
            steps=sum(rep.steps for _, rep in traced_ok),
            traced_reps=max(1, len(traced_ok)),
            workers=workload.workers,
            traced_walls=[wall for wall, _ in traced_ok] or [0.0],
            overhead_ratio=statistics.median(pairs) - 1.0 if pairs else 0.0,
            artifacts_bytes=statistics.mean(rep.artifacts_bytes for _, rep in traced_ok)
            if traced_ok else 0.0,
        )
        out["tail_percentile"] = spans.tail_percentile(stats.durations[spans.STEP])[0]
        out["step_samples"] = len(stats.durations[spans.STEP])
        out["traced_reps"] = len(traced_ok)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        _probe(args)
        return 0
    result = _measure(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
