"""Tests of the benchmark's own gates and tracer.

Each gate is fed one deliberately broken input and must trip.  Run from the
repository root (they are outside the package's test suite):

    python3 -m pytest benchmarks -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import kschemo.cli as cli  # noqa: E402
import kschemo.stepper as stepper  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kschemo.grid import Grid  # noqa: E402
from kschemo.verification import build_mms_case, convergence_study  # noqa: E402

GOOD_SUMMARY = {
    "termination": "ReachedTEnd",
    "steps": "10057",
    "max_mass_identity_violation": "7.0e-15",
    "min_u": "1.8e-20",
    "min_v": "0",
    "m0": "7.9999999999999991",
    "mass_max": "7.9999999999999991",
    "plateau_int_u_k2": "true",
    "plateau_linf_u": "true",
}


def test_good_summary_passes():
    assert workloads.bounded_failures(GOOD_SUMMARY, "SubquadraticBounded") == []
    assert workloads.run_failures(GOOD_SUMMARY) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("termination", "BlowupDetected"),
        ("max_mass_identity_violation", "2e-9"),
        ("max_mass_identity_violation", "nan"),
        ("min_u", "-1e-9"),
        ("min_v", "-1e-9"),
        ("mass_max", "8.0001"),
        ("plateau_linf_u", "false"),
    ],
)
def test_bounded_gate_trips(key, value):
    broken = dict(GOOD_SUMMARY, **{key: value})
    assert workloads.bounded_failures(broken, "SubquadraticBounded")


def test_bounded_gate_trips_on_regime_and_missing_plateaus():
    assert workloads.bounded_failures(GOOD_SUMMARY, "Uncovered")
    no_plateaus = {k: v for k, v in GOOD_SUMMARY.items() if not k.startswith("plateau_")}
    assert workloads.bounded_failures(no_plateaus, "SubquadraticBounded")


def test_run_gate_trips_on_missing_key():
    broken = {k: v for k, v in GOOD_SUMMARY.items() if k != "min_v"}
    assert workloads.run_failures(broken)


def test_first_order_mms_fails_order_check():
    grids = [Grid(extent=(1.0,), cells=(n,)) for n in (16, 32)]
    dts = [(1.0 / n) ** 2 / 4.0 for n in (16, 32)]
    case = build_mms_case(workloads.MMS_PARAMS, grids[0])
    table = convergence_study(case, grids, dts, 0.02, face_scheme="upwind")
    assert workloads.mms_failures(table.rows, 2) == [
        f"level 1 orders {(table.rows[1].order_u, table.rows[1].order_v)}"
    ]
    assert workloads.mms_failures(table.rows[:1], 2) == ["1 of 2 levels reported"] * 2


def _sweep(tmp_path, prefill_ledger: bool):
    base = tmp_path / "base.cfg"
    base.write_text("grid.dim = 1\ngrid.cells_x = 16\n")
    out = tmp_path / "sweep"
    out.mkdir()
    points = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
    if prefill_ledger:
        (out / "sweep_done.txt").write_text("".join(f"{a:g},{b:g}\n" for a, b in points))
    code = cli.main([
        "sweep", "--simulate", "--n", "1", "--alpha-min", "1", "--alpha-max", "2",
        "--alpha-step", "1", "--beta-min", "1", "--beta-max", "2", "--beta-step", "1",
        "--config", str(base), "--t-end", "0.01", "--output", str(out),
    ])
    rows = workloads.read_sweep_rows(str(out / "sweep.csv"))
    return workloads.sweep_failures(code, rows, points, 1)


def test_fresh_sweep_passes(tmp_path):
    assert _sweep(tmp_path, prefill_ledger=False) == []


def test_prefilled_ledger_fails_row_count(tmp_path):
    failures = _sweep(tmp_path, prefill_ledger=True)
    assert len(failures) == 4
    assert all("0 rows" in f for f in failures)


def test_sweep_gate_trips_on_wrong_regime_and_termination():
    points = [(1.0, 3.0), (2.0, 2.0)]
    rows = [
        {"alpha": "1", "beta": "3", "regime": "Uncovered", "termination": "ReachedTEnd"},
        {"alpha": "2", "beta": "2", "regime": "SuperquadraticBounded",
         "termination": "BlowupDetected"},
    ]
    assert len(workloads.sweep_failures(0, rows, points, 1)) == 2
    assert len(workloads.sweep_failures(3, rows, points, 1)) == 2


def test_absent_hook_is_listed_and_others_restored(tmp_path):
    hooks = (
        ("kschemo.stepper", "adapt_dt", "stepper.adapt_dt", None),
        ("kschemo.stepper", "no_such_function", "gone", None),
        ("kschemo.no_such_module", "f", "gone", None),
        ("kschemo.verification", "NoSuchClass.u", "gone", None),
    )
    original = stepper.adapt_dt
    tracer = spans.Tracer(str(tmp_path), hooks)
    tracer.install()
    try:
        assert stepper.adapt_dt is not original
        assert tracer.absent == [
            "kschemo.stepper.no_such_function",
            "kschemo.no_such_module.f",
            "kschemo.verification.NoSuchClass.u",
        ]
    finally:
        tracer.uninstall()
    assert stepper.adapt_dt is original


def test_self_time_subtracts_children():
    # step [0, 10] > helmholtz [1, 6] > core [2, 4]; step > integrate [7, 8]
    recorded = [
        ("stepper.step", 0.0, 10.0, -1, (True, 1)),
        ("stepper.helmholtz", 1.0, 6.0, 0, None),
        ("stepper.helmholtz_core", 2.0, 4.0, 1, None),
        ("grid.integrate", 7.0, 8.0, 0, None),
    ]
    stats = spans.LayerStats()
    stats.add(recorded)
    assert stats.self_s["stepper.step"] == pytest.approx(4.0)
    assert stats.self_s["stepper.helmholtz"] == pytest.approx(3.0)
    assert stats.helmholtz_core_s == pytest.approx(2.0)
    assert (stats.accepted, stats.attempts, stats.retries) == (1, 2, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(list(range(1000)))[0] == 99.0
    assert spans.tail_percentile(list(range(100)))[0] == 90.0
    assert spans.tail_percentile(list(range(20)))[0] == 100.0
