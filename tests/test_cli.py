import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from kschemo.cli import main
from kschemo.config import parse_config, run_configs, run_from_config
from kschemo.observables import summarize
from kschemo.params import classify_regime

RUN_CONFIG = """
model.chi = 2.0
model.alpha = 1.5
model.beta = 3.0
grid.cells_x = 64
ic.u = bump
ic.u_mass = 2.0
ic.u_width = 0.1
run.t_end = 0.3
run.sample_interval = 0.05
"""


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_subquadratic_line(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--alpha", "1", "--beta", "3", "--n", "3")
        assert code == 0
        assert out.startswith("1,3,3,SubquadraticBounded,")
        fields = out.strip().split(",")
        assert float(fields[4]) == pytest.approx(1.0)  # y1 for a=b=1, |O|=1
        assert float(fields[5]) == pytest.approx(1.0)  # m0 with zero initial mass

    def test_envelope_reflects_initial_mass(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--alpha", "2", "--beta", "2", "--n", "2",
            "--initial-mass", "7.5",
        )
        assert code == 0
        assert out.strip().endswith("7.5")
        assert "SuperquadraticBounded" in out

    def test_invalid_point_exits_2(self, capsys):
        code, _, err = invoke(capsys, "classify", "--alpha", "0.5", "--beta", "3", "--n", "1")
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--domain-measure", "inf"),
            ("--domain-measure", "1e300"),
            ("--domain-measure", "1e-300"),
            ("--domain-measure", "nan"),
            ("--initial-mass", "nan"),
            ("--initial-mass", "inf"),
        ],
    )
    def test_nonfinite_envelope_input_exits_2(self, capsys, flag, value):
        code, out, err = invoke(
            capsys, "classify", "--alpha", "1", "--beta", "3", "--n", "3", flag, value
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")
        assert len(err.splitlines()) == 1

    def test_zero_growth_envelope_with_underflowing_measure_power(self, capsys):
        # |Omega|^(1-beta) underflows to 0; a = 0 must still give y1 = 0
        code, out, err = invoke(
            capsys, "classify", "--alpha", "1", "--beta", "3", "--n", "3",
            "--a", "0", "--domain-measure", "1e300",
        )
        assert (code, err) == (0, "")
        assert out == "1,3,3,SubquadraticBounded,0,0\n"


class TestRun:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, out, _ = invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))
        assert code == 0
        assert "termination=ReachedTEnd" in out
        assert (out_dir / "series.csv").exists()

    def test_dotted_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, out, _ = invoke(
            capsys, "run", "--config", str(cfg), "--output", str(out_dir),
            "--run.t_end", "0.1", "--model.chi", "1.0",
        )
        assert code == 0
        resolved = (out_dir / "resolved_config.txt").read_text()
        assert "run.t_end = 0.1" in resolved
        assert "model.chi = 1.0" in resolved

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.alpha = 0.5\n")
        code, _, err = invoke(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "alpha" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = invoke(capsys, "run", "--config", "no-such-file.cfg")
        assert code == 2

    def test_blowup_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "model.a = 4.0\nmodel.alpha = 2.0\nmodel.beta = 2.0\n"
            "ic.u = constant\nic.u_value = 2.0\nic.v = equal_u\n"
            "stepper.blowup_linf_threshold = 1.0\nrun.t_end = 1.0\n"
        )
        code, out, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(tmp_path / "o"))
        assert code == 3
        assert err == "error: blowup-detected: t=0 cause=sup norm 2.000e+00 above threshold\n"
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "termination_cause=sup norm 2.000e+00 above threshold\n" in summary

    def test_solver_failure_exit_4_names_cause(self, tmp_path, capsys, monkeypatch):
        from kschemo import stepper

        exact_core = stepper._helmholtz_core

        def perturbed_core(rhs, grid, sigma):
            w = exact_core(rhs, grid, sigma)
            w.flat[5] += 1e-6 * np.linalg.norm(w)
            return w

        monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        code, _, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(tmp_path / "o"))
        assert code == 4
        assert err.startswith("error: solver-failure: t=0 cause=helmholtz backward error ")

    def test_bad_override_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        code, _, err = invoke(capsys, "run", "--config", str(cfg), "--model.gamma", "1")
        assert code == 2


class TestSweep:
    def test_classification_map_and_boundaries(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, out, _ = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "3", "--alpha-step", "0.25",
            "--beta-min", "1", "--beta-max", "4", "--beta-step", "0.25",
            "--n", "2", "--output", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,n,regime,y1,m0"
        assert len(lines) == 1 + 9 * 13
        table = {tuple(l.split(",")[:2]): l.split(",")[3] for l in lines[1:]}
        # boundary beta = n/2 = 1 stays uncovered at alpha = 2
        assert table[("2", "1")] == "Uncovered"
        # just above it the superquadratic region opens
        assert table[("2", "1.25")] == "SuperquadraticBounded"
        # alpha = 2 splits the subquadratic side
        assert table[("1.75", "2.5")] == "SubquadraticBounded"
        assert table[("2", "2.5")] == "SuperquadraticBounded"
        # curve beta = (n+4)/2 - alpha: equality uncovered, above it covered
        assert table[("1.5", "1.5")] == "Uncovered"
        assert table[("1.5", "1.75")] == "SubquadraticBounded"

    def test_resumable_via_ledger(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        args = (
            "sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "1", "--beta-max", "1.5", "--beta-step", "0.5",
            "--n", "1", "--output", str(out_dir),
        )
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert "sweep_rows=4" in out
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert "sweep_rows=0" in out
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # no duplicates after resume

    def test_alpha_below_one_exit_2(self, tmp_path, capsys):
        code, _, err = invoke(
            capsys, "sweep", "--alpha-min", "0.5", "--alpha-max", "1.5",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--output", str(tmp_path / "s"),
        )
        assert code == 2
        assert err.startswith("error: config: alpha >= 1")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flag", [f"--{p}-{s}" for p in ("alpha", "beta") for s in ("min", "max", "step")]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_range_flag_exit_2(self, tmp_path, capsys, flag, value):
        values = {
            "--alpha-min": "1", "--alpha-max": "2", "--alpha-step": "0.5",
            "--beta-min": "1", "--beta-max": "2", "--beta-step": "0.5",
        }
        values[flag] = value
        # "--flag=-inf": a bare "-inf" would parse as an option
        argv = [f"{key}={text}" for key, text in values.items()]
        out_dir = tmp_path / "s"
        code, _, err = invoke(capsys, "sweep", *argv, "--n", "1", "--output", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: config: {flag}: finite value required")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("axis", ["alpha", "beta"])
    @pytest.mark.parametrize(
        "lo, hi, step, message",
        [
            ("-1e308", "1e308", "1", "(max - min) / step overflows"),
            ("1", "2", "1e-9", "1000000000 points exceed the limit of 1000"),
        ],
    )
    def test_unbounded_range_exit_2(self, tmp_path, capsys, axis, lo, hi, step, message):
        values = {
            "--alpha-min": "1", "--alpha-max": "2", "--alpha-step": "0.5",
            "--beta-min": "1", "--beta-max": "2", "--beta-step": "0.5",
        }
        values.update({f"--{axis}-min": lo, f"--{axis}-max": hi, f"--{axis}-step": step})
        argv = [f"{key}={text}" for key, text in values.items()]
        out_dir = tmp_path / "s"
        code, _, err = invoke(capsys, "sweep", *argv, "--n", "1", "--output", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: config: --{axis}-step: {message}")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_simulate_without_envelope_exit_2_before_any_point(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, _, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--output", str(out_dir),
            "--simulate", "--t-end", "0.01", "--model.b", "0", "--grid.cells_x", "16",
        )
        assert code == 2
        assert err.startswith("error: config: model.b:")
        assert len(err.splitlines()) == 1
        assert not (out_dir / "sweep.csv").exists()

    def test_simulate_mode(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(
            "grid.cells_x = 32\nic.u = bump\nic.u_mass = 2.0\nic.u_width = 0.1\n"
            "run.sample_interval = 0.05\nmodel.chi = 1.0\n"
        )
        out_dir = tmp_path / "sweep"
        code, out, _ = invoke(
            capsys, "sweep", "--alpha-min", "1.5", "--alpha-max", "1.5",
            "--beta-min", "3", "--beta-max", "3.5", "--beta-step", "0.5",
            "--n", "1", "--output", str(out_dir), "--simulate",
            "--config", str(base), "--t-end", "0.2",
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].endswith(",termination,mass_max,linf_u_max,plateaus_ok")
        assert len(lines) == 3
        assert all("ReachedTEnd" in l for l in lines[1:])
        # envelope columns reflect the actual run: mass 2 bump with y1 = 1
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(1.0)  # y1
        assert float(first[5]) == pytest.approx(2.0, rel=1e-9)  # m0 = initial mass

    def test_worker_pool_matches_serial(self, tmp_path, capsys):
        args = lambda out: (
            "sweep", "--alpha-min", "1", "--alpha-max", "2", "--alpha-step", "0.5",
            "--beta-min", "1", "--beta-max", "2", "--beta-step", "0.5",
            "--n", "2", "--output", out,
        )
        code, _, _ = invoke(capsys, *args(str(tmp_path / "serial")))
        assert code == 0
        code, _, _ = invoke(capsys, *args(str(tmp_path / "pooled")), "--workers", "2")
        assert code == 0
        serial = (tmp_path / "serial" / "sweep.csv").read_text()
        pooled = (tmp_path / "pooled" / "sweep.csv").read_text()
        assert serial == pooled


SWEEP_BASE = (
    "grid.cells_x = 32\nic.u = bump\nic.u_mass = 2.0\nic.u_width = 0.1\n"
    "run.sample_interval = 0.05\nmodel.chi = 2.0\n"
)


def _simulated_sweep(capsys, base, out, alpha_max="2", *extra):
    return invoke(
        capsys, "sweep", "--alpha-min", "1", "--alpha-max", alpha_max, "--alpha-step", "0.5",
        "--beta-min", "1", "--beta-max", "3", "--beta-step", "1",
        "--n", "1", "--output", str(out), "--simulate",
        "--config", str(base), "--t-end", "0.3", *extra,
    )


class TestSimulatedSweep:
    def test_rows_match_single_runs(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        code, _, _ = _simulated_sweep(capsys, base, tmp_path / "sweep")
        assert code == 0
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        cfgs = [
            parse_config(
                path=base,
                overrides={"model.alpha": r["alpha"], "model.beta": r["beta"], "run.t_end": "0.3"},
            )
            for r in rows
        ]
        for row, cfg, batched in zip(rows, cfgs, run_configs(cfgs)):
            alone = run_from_config(cfg, output_dir=None)
            summary = summarize(alone.series)
            assert batched.diagnostics.steps == alone.diagnostics.steps
            assert row["regime"] == str(classify_regime(cfg.model, 1))
            assert row["termination"] == str(alone.termination)
            assert row["plateaus_ok"] == ("true" if summary.plateaus_ok else "false")
            for column, key in (("mass_max", "mass"), ("linf_u_max", "linf_u")):
                assert float(row[column]) == pytest.approx(
                    summary.column_max[key], rel=1e-12, abs=0.0
                )

    def test_workers_give_identical_csv(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        assert _simulated_sweep(capsys, base, tmp_path / "one", "2", "--workers", "1")[0] == 0
        assert _simulated_sweep(capsys, base, tmp_path / "two", "2", "--workers", "2")[0] == 0
        one = (tmp_path / "one" / "sweep.csv").read_bytes()
        two = (tmp_path / "two" / "sweep.csv").read_bytes()
        assert one == two
        assert len(one.splitlines()) == 1 + 9

    def test_ledger_resume(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        code, out, _ = _simulated_sweep(capsys, base, tmp_path / "resumed", "1.5")
        assert code == 0 and "sweep_rows=6" in out
        code, out, _ = _simulated_sweep(capsys, base, tmp_path / "resumed", "2", "--workers", "2")
        assert code == 0 and "sweep_rows=3" in out
        code, _, _ = _simulated_sweep(capsys, base, tmp_path / "fresh", "2")
        resumed = (tmp_path / "resumed" / "sweep.csv").read_bytes()
        assert resumed == (tmp_path / "fresh" / "sweep.csv").read_bytes()
        ledger = (tmp_path / "resumed" / "sweep_done.txt").read_text().splitlines()
        assert len(ledger) == len(set(ledger)) == 9


    def test_failed_first_sample_gives_solver_failure_rows(self, tmp_path, capsys):
        # u^8 overflows on the initial field, so no point records a sample
        base = tmp_path / "base.cfg"
        base.write_text("ic.u = constant\nic.u_value = 1e50\nrun.k_list = 8\ngrid.cells_x = 16\n")
        code, out, _ = invoke(
            capsys, "sweep", "--simulate", "--alpha-min", "1", "--alpha-max", "1",
            "--beta-min", "2", "--beta-max", "3", "--beta-step", "1", "--n", "1",
            "--t-end", "0.1", "--config", str(base), "--output", str(tmp_path / "sweep"),
        )
        assert code == 0 and "sweep_rows=2" in out
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["beta"] for r in rows] == ["2", "3"]
        for row in rows:
            assert row["termination"] == "SolverFailure"
            assert float(row["m0"]) == pytest.approx(1e50, rel=1e-12)
            assert float(row["y1"]) == pytest.approx(1.0)
            assert (row["mass_max"], row["linf_u_max"]) == ("", "")
            assert row["plateaus_ok"] == "false"


class TestMms:
    def test_spatial_study_csv(self, tmp_path, capsys):
        out = tmp_path / "mms.csv"
        code, stdout, _ = invoke(
            capsys, "mms", "--dim", "1", "--levels", "2", "--cells0", "16",
            "--t-end", "0.02", "--output", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "order_u" in stdout

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--levels", "1"], "--levels"),
            (["--cells0", "0"], "--cells0"),
            (["--mode", "temporal", "--cells", "3"], "--cells"),
            (["--chi", "nan"], "--chi"),
            (["--t-end", "0"], "--t-end"),
            (["--dt0=-1"], "--dt0"),
        ],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "mms.csv"
        code, _, err = invoke(
            capsys, "mms", "--levels", "2", "--cells0", "16", *argv, "--output", str(out),
        )
        assert code == 2
        assert err.startswith(f"error: config: {flag}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_adaptive_dt_engaged_exit_4(self, tmp_path, capsys):
        out = tmp_path / "mms.csv"
        code, _, err = invoke(
            capsys, "mms", "--levels", "2", "--cells0", "16", "--chi", "50",
            "--dt0", "0.01", "--output", str(out),
        )
        assert code == 4
        assert err.startswith("error: solver-failure: level 0: adaptive dt engaged")
        assert len(err.splitlines()) == 1
        assert not out.exists()


def test_cli_import_leaves_sympy_out():
    import kschemo

    src = os.path.dirname(os.path.dirname(kschemo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, kschemo.cli; print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestBoundCheck:
    def test_audit_on_finished_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 0
        assert "mass_envelope_ok=true" in out
        assert "ode_oracle_ok=true" in out

    def test_tampered_series_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))
        series = (out_dir / "series.csv").read_text().splitlines()
        parts = series[2].split(",")
        parts[1] = "99.0"  # inflate one mass sample beyond the envelope
        series[2] = ",".join(parts)
        (out_dir / "series.csv").write_text("\n".join(series) + "\n")
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 1
        assert "mass_envelope_ok=false" in out

    def test_no_envelope_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG + "model.b = 0\n")
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        code, _, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error: config: model.b:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["t,foo\n0,1\n", "t,mass\n0,nan\n"])
    def test_foreign_series_header_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        (out_dir / "series.csv").write_text(text)
        code, _, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: config: {out_dir / 'series.csv'}: header ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "edit,reason",
        [
            (lambda cells: cells[:-1], "row width does not match columns"),
            (
                lambda cells: cells[:1] + ["abc"] + cells[2:],
                "could not convert string to float: 'abc'",
            ),
        ],
        ids=["width", "cell"],
    )
    def test_bad_series_row_names_file_and_line(self, tmp_path, capsys, edit, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        series = (out_dir / "series.csv").read_text().splitlines()
        series[2] = ",".join(edit(series[2].split(",")))
        (out_dir / "series.csv").write_text("\n".join(series) + "\n")
        code, _, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 2
        assert err == f"error: config: {out_dir / 'series.csv'}: line 3: {reason}\n"

    def test_nonfinite_initial_mass_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        series = (out_dir / "series.csv").read_text().splitlines()
        parts = series[1].split(",")
        parts[1] = "nan"
        series[1] = ",".join(parts)
        (out_dir / "series.csv").write_text("\n".join(series) + "\n")
        code, _, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 2
        assert err == "error: config: finite initial_mass >= 0 required, got nan\n"

    def test_missing_dir_exit_2(self, capsys):
        code, _, err = invoke(capsys, "bound-check", "--run-dir", "nowhere")
        assert code == 2
