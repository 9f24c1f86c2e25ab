"""kschemo benchmark: time to a checked solution on four workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload bounded-1d --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json (untraced runs);
--trace 1 prints the per-layer metrics from a run with span hooks
installed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are the
human-readable report.  The package is imported from ./src, so nothing has
to be installed; without ./src the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("bounded-1d", "bump-2d", "mms-1d", "sweep-1d")
SETUP_PROBES = 3
DEADLINE_S = 170.0
# one thread per process, so the sweep's two workers do not oversubscribe two
# cores; scipy.fft keeps its default of one worker
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {argv[0]} overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} exited with code {proc.returncode}")
    return out


def _cache_sizes() -> str:
    """Per-instance data/unified cache sizes of cpu0, e.g. 'L1d=48K L2=2048K L3=107520K'."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    parts = []
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue

            def read(name):
                with open(os.path.join(base, entry, name)) as fh:
                    return fh.read().strip()

            kind = read("type")
            if kind != "Instruction":
                parts.append(f"L{read('level')}{'d' if kind == 'Data' else ''}={read('size')}")
    except OSError:
        return "unknown"
    return " ".join(parts) or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kschemo", "__init__.py")):
        print(f"error: no kschemo sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        section = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    deadline = time.monotonic() + DEADLINE_S

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
        setup, setup_raw = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                line = _run_child(["probe", *common], deadline).strip().splitlines()[-1]
                probe = json.loads(line)
                setup_raw.append(probe["setup_s"])
                setup.append(probe["setup_s"] / probe["speed_factor"])
        result_path = os.path.join(workdir, "result.json")
        _run_child(
            ["measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", result_path],
            deadline,
        )
        with open(result_path) as fh:
            res = json.load(fh)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    if args.trace:
        metrics = res["layers"]
    else:
        series = {
            "wall_s": res["wall_s"],
            "steps_per_s": res["steps_per_s"],
            "points_per_s": res["points_per_s"],
            "setup_s": setup,
        }
        metrics = {name: statistics.median(vals) if vals else 0.0 for name, vals in series.items()}
        metrics["peak_rss_mib"] = res["peak_rss_mib"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC}",
              file=sys.stderr)
        return 1

    v = res["versions"]
    print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} caches: {_cache_sizes()}")
    print(f"versions: python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
          f"sympy={v['sympy']}; OMP/OpenBLAS/MKL threads=1, scipy.fft default workers")
    print(f"workload: {res['workload']} seed={args.seed}: {res['describe']}")
    ratio = res["failed"] / res["attempted"]
    print(f"failed_ratio = {ratio:.6g} ({res['failed']} of {res['attempted']} operations)")
    for failure in res["failures"]:
        print(f"  failed: {failure}")
    if args.trace:
        print(f"traced repetitions: {res['traced_reps']}; step samples: {res['step_samples']}, "
              f"stepper.step.tail_us is p{res['tail_percentile']:g}")
        for hook in res["absent_hooks"]:
            print(f"  absent hook (skipped): {hook}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        print(f"times are scaled to the reference speed by the {res['kernel']!r} kernel "
              f"({res['calibration_samples']} samples around the repetitions): speed factors "
              f"{_summary(res['speed_factor'])}")
        print(f"unscaled: wall_s median={statistics.median(res['raw_wall_s'] or [0.0]):.6g} s "
              f"({_summary(res['raw_wall_s'])}); setup_s median="
              f"{statistics.median(setup_raw or [0.0]):.6g} s ({_summary(setup_raw)})")
        for name, value in metrics.items():
            detail = f"median; {_summary(series[name])}" if name in series else "peak over the run"
            print(f"{name} = {value:.6g} {units[name]} ({detail})")

    payload = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
