import csv
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from kschemo import cli, stepper
from kschemo.cli import main
from kschemo.config import (
    build_initial_state, parse_config, resolved_text, run_from_config, run_record,
)
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


# the smallest run a user makes: 32 cells to t = 0.1, no step replayed
TINY_RUN = (
    "grid.cells_x = 32\nic.u = bump\nic.u_mass = 2.0\nic.u_width = 0.1\n"
    "run.t_end = 0.1\nrun.sample_interval = 0.05\n"
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a bump of mass 1e308 a hundredth wide: u is inf at its centre
OVERFLOWING_IC = "grid.cells_x = 32\nic.u = bump\nic.u_mass = 1e308\nic.u_width = 0.01\n"

# |Omega| = 0.001: at beta = 200 the envelope's y1 = |Omega|^((beta-1)/beta) overflows
TINY_DOMAIN = (
    "grid.cells_x = 16\ngrid.extent_x = 0.001\nic.u = constant\nic.u_value = 1\n"
    "run.t_end = 0.0001\n"
)


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
        code, out, err = invoke(capsys, "classify", "--alpha", "0.5", "--beta", "3", "--n", "1")
        assert (code, out) == (2, "")
        assert err == "error: config: --alpha: alpha >= 1 required, got 0.5\n"

    @pytest.mark.parametrize(
        "flag,value,line",
        [
            pytest.param(
                "--domain-measure", "inf", "--domain-measure: domain_measure finite > 0 "
                "required, got inf", id="--domain-measure-inf"
            ),
            # |Omega|^(1-beta) underflows or overflows: no one flag sets y1, so none is named
            pytest.param(
                "--domain-measure", "1e300", "mass envelope y1 is not finite for a=1.0, b=1.0, "
                "beta=3.0, domain_measure=1e+300", id="--domain-measure-1e300"
            ),
            pytest.param(
                "--domain-measure", "1e-300", "mass envelope y1 is not finite for a=1.0, "
                "b=1.0, beta=3.0, domain_measure=1e-300", id="--domain-measure-1e-300"
            ),
            pytest.param(
                "--domain-measure", "nan", "--domain-measure: domain_measure finite > 0 "
                "required, got nan", id="--domain-measure-nan"
            ),
            pytest.param(
                "--initial-mass", "nan", "--initial-mass: initial_mass finite >= 0 required, "
                "got nan", id="--initial-mass-nan"
            ),
            pytest.param(
                "--initial-mass", "inf", "--initial-mass: initial_mass finite >= 0 required, "
                "got inf", id="--initial-mass-inf"
            ),
        ],
    )
    def test_nonfinite_envelope_input_exits_2(self, capsys, flag, value, line):
        code, out, err = invoke(
            capsys, "classify", "--alpha", "1", "--beta", "3", "--n", "3", flag, value
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: {line}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--alpha", "1", "--beta", "3", "--n", "1.5"],
             "--n: invalid int value: '1.5'"),
            (["sweep", "--alpha-min", "1"], "the following arguments are required: --alpha-max"),
            (["mms", "--dim", "3"], "--dim: invalid choice: 3"),
            ([], "the following arguments are required: command"),
            # neither the regime nor the envelope reads chi, so classify takes no --chi
            (["classify", "--alpha", "1", "--beta", "3", "--n", "1", "--chi", "5"],
             "unrecognized arguments ['--chi', '5']"),
        ],
        ids=["classify-bad-type", "sweep-missing", "mms-bad-choice", "no-command", "classify-chi"],
    )
    def test_usage_error_is_one_config_line(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: {message}")
        assert len(err.splitlines()) == 1

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kschemo classify")

    def test_zero_growth_envelope_with_underflowing_measure_power(self, capsys):
        # |Omega|^(1-beta) underflows to 0; a = 0 must still give y1 = 0
        code, out, err = invoke(
            capsys, "classify", "--alpha", "1", "--beta", "3", "--n", "3",
            "--a", "0", "--domain-measure", "1e300",
        )
        assert (code, err) == (0, "")
        assert out == "1,3,3,SubquadraticBounded,0,0\n"

    def test_line_matches_the_sweep_row(self, tmp_path, capsys):
        # alpha and beta keep 12 significant digits, as in a sweep row
        code, out, _ = invoke(
            capsys, "classify", "--alpha", "1.23456789", "--beta", "3", "--n", "1"
        )
        assert code == 0
        assert out.startswith("1.23456789,3,1,SubquadraticBounded,")
        code, _, _ = invoke(
            capsys, "sweep", "--alpha-min", "1.23456789", "--alpha-max", "1.23456789",
            "--beta-min", "3", "--beta-max", "3", "--n", "1", "--output", str(tmp_path / "s"),
        )
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1] + "\n" == out


class TestRun:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, out, _ = invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))
        assert code == 0
        assert "termination=ReachedTEnd" in out
        assert (out_dir / "series.csv").exists()

    def test_tiny_run_replays_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RUN)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        lines = (out_dir / "summary.txt").read_text().splitlines()
        steps = lines.index("steps=10")
        assert lines[steps + 1] == "replayed_steps=0"

    def test_resolved_config_reproduces_its_run(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RUN)
        first, again = tmp_path / "run", tmp_path / "rerun"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(first))[0] == 0
        resolved = first / "resolved_config.txt"
        assert invoke(capsys, "run", "--config", str(resolved), "--output", str(again))[0] == 0
        for name in ("series.csv", "summary.txt", "resolved_config.txt", "u_final.snap", "v_final.snap"):
            assert (first / name).read_bytes() == (again / name).read_bytes()

    def test_threaded_grid_run_passes_bound_check(self, tmp_path, capsys):
        # 2^16 cells: with two usable CPUs the transport slabs and the solve
        # halves run on the march's helper thread
        cfg = tmp_path / "bump256.cfg"
        cfg.write_text(
            "grid.dim = 2\ngrid.cells_x = 256\nic.u = bump\nic.u_mass = 2.0\n"
            "ic.u_width = 0.1\nrun.t_end = 0.05\nrun.sample_interval = 0.025\n"
        )
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 0 and "mass_envelope_ok=true" in out

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

    def test_stationary_signal_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # tau has one value, 1, so no config names it
        cfg.write_text(RUN_CONFIG + "model.tau = 0\n")
        code, out, err = invoke(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: config: line 11: unknown key 'model.tau'"]

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

        def perturbed_core(rhs, grid, sigma, *held):
            w = exact_core(rhs, grid, sigma, *held)
            w.flat[5] += 1e-6 * np.linalg.norm(w)
            return w

        monkeypatch.setattr(stepper, "_helmholtz_core", perturbed_core)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        code, _, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(tmp_path / "o"))
        assert code == 4
        assert err.startswith("error: solver-failure: t=0 cause=helmholtz backward error ")

    def test_overflowing_initial_u_exit_2_before_any_artifact(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(OVERFLOWING_IC)
        code, out, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: config: ic.u_mass: initial u is not finite on the (32,) grid\n"
        assert not (tmp_path / "o" / "resolved_config.txt").exists()

    def test_nonfinite_y1_run_has_no_envelope(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_DOMAIN)
        out_dir = tmp_path / "out"
        code, out, err = invoke(
            capsys, "run", "--config", str(cfg), "--model.beta", "200", "--output", str(out_dir)
        )
        assert (code, err) == (0, "")
        assert "termination=ReachedTEnd" in out
        lines = (out_dir / "summary.txt").read_text().splitlines()
        entries = dict(line.split("=", 1) for line in lines)
        assert "y1" not in entries and "m0" not in entries
        assert entries["mass_envelope_ok"] == "inconclusive"

    def test_tiny_field_reaches_t_end(self, tmp_path, capsys):
        # u^4 = 1e-320 is subnormal, so the k = 4 mean has lost its digits
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "grid.cells_x = 16\nic.u = constant\nic.u_value = 1e-80\nrun.t_end = 0.01\n"
        )
        code, out, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert "termination=ReachedTEnd" in out

    def test_bad_override_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        code, _, err = invoke(capsys, "run", "--config", str(cfg), "--model.gamma", "1")
        assert code == 2

    @pytest.mark.parametrize("second", [["--model.chi", "3"], ["--model.chi=3"]])
    def test_repeated_override_exit_2(self, tmp_path, capsys, second):
        # a config file refuses a repeated key, and so do the flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        code, out, err = invoke(
            capsys, "run", "--config", str(cfg), "--output", str(out_dir),
            "--model.chi", "1", *second,
        )
        assert (code, out) == (2, "")
        assert err == "error: config: model.chi: duplicate key 'model.chi'\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["--output"])
    def test_output_under_a_file_exit_2_before_any_step(self, tmp_path, capsys, monkeypatch, key):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_from_config", no_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        (tmp_path / "file").write_text("")
        code, out, err = invoke(
            capsys, "run", "--config", str(cfg), key, str(tmp_path / "file" / "sub")
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: {key}: {tmp_path / 'file' / 'sub'}: ")
        assert len(err.splitlines()) == 1

    def test_empty_output_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(RUN_CONFIG)
        code, out, err = invoke(capsys, "run", "--config", "run.cfg", "--output", "")
        assert (code, out) == (2, "")
        assert err == "error: config: --output: empty path\n"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    def test_output_defaults_to_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(TINY_RUN)
        code, out, _ = invoke(capsys, "run", "--config", "tiny.cfg")
        assert code == 0
        assert "output_dir=out\n" in out
        assert (tmp_path / "out" / "summary.txt").exists()


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

    def test_torn_last_row_is_redone(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        args = (
            "sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "1", "--beta-max", "1.5", "--beta-step", "0.5",
            "--n", "1", "--output", str(out_dir),
        )
        assert invoke(capsys, *args)[0] == 0
        csv_path, ledger_path = out_dir / "sweep.csv", out_dir / "sweep_done.txt"
        written = csv_path.read_bytes()
        ledger = ledger_path.read_text().splitlines()
        # a kill inside the last row's write: the row is cut short, and its
        # ledger line, written after it, is missing
        csv_path.write_bytes(written[:-4])
        ledger_path.write_text("".join(line + "\n" for line in ledger[:-1]))
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert "sweep_rows=1" in out
        assert csv_path.read_bytes() == written
        assert ledger_path.read_text().splitlines() == ledger

    def test_complete_rows_without_ledger_lines_are_not_redone(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        args = (
            "sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "1", "--beta-max", "1.5", "--beta-step", "0.5",
            "--n", "1", "--output", str(out_dir),
        )
        assert invoke(capsys, *args)[0] == 0
        csv_path = out_dir / "sweep.csv"
        written = csv_path.read_bytes()
        # a kill between a batch's row write and its ledger write leaves
        # complete rows that the ledger does not list
        (out_dir / "sweep_done.txt").write_text("")
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert "sweep_rows=0" in out
        assert csv_path.read_bytes() == written

    @pytest.mark.parametrize(
        "second",
        [
            ("--n", "2"),
            ("--n", "1", "--simulate", "--t-end", "0.05"),
        ],
    )
    def test_other_sweep_into_same_output_exit_2(self, tmp_path, capsys, second):
        out_dir = tmp_path / "sweep"
        ranges = (
            "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "3", "--beta-max", "3", "--output", str(out_dir),
        )
        assert invoke(capsys, "sweep", *ranges, "--n", "1")[0] == 0
        written = (out_dir / "sweep.csv").read_bytes()
        ledger = (out_dir / "sweep_done.txt").read_bytes()
        code, out, err = invoke(capsys, "sweep", *ranges, *second)
        assert code == 2
        assert err.startswith("error: config: --output: ")
        assert len(err.splitlines()) == 1
        assert out == ""
        assert (out_dir / "sweep.csv").read_bytes() == written
        assert (out_dir / "sweep_done.txt").read_bytes() == ledger
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep.csv", "sweep_done.txt"]

    def test_alpha_below_one_exit_2(self, tmp_path, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--alpha-min", "0.5", "--alpha-max", "1.5",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--output", str(tmp_path / "s"),
        )
        assert (code, out) == (2, "")
        assert err == "error: config: --alpha-min: alpha >= 1 required, got 0.5\n"
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

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize(
        "simulate", [[], ["--simulate", "--grid.cells_x", "16"]], ids=["classify", "simulate"]
    )
    def test_nonpositive_n_exit_2_creates_nothing(self, tmp_path, capsys, n, simulate):
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1", "--beta-min", "3",
            "--beta-max", "3", f"--n={n}", "--output", str(out_dir), *simulate,
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: --n: n finite integer >= 1 required, got {n}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exit_2_creates_nothing(self, tmp_path, capsys, workers):
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1", "--beta-min", "3",
            "--beta-max", "3", "--n", "1", "--output", str(out_dir), f"--workers={workers}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: --workers: workers >= 1 required, got {workers}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra", [("--config", "/nonexistent"), ("--model.chi", "5"), ("--t-end", "3")]
    )
    def test_flag_only_simulate_reads_exit_2_creates_nothing(self, tmp_path, capsys, extra):
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1", "--beta-min", "3",
            "--beta-max", "3", "--n", "1", "--output", str(out_dir), *extra,
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: {extra[0]}: only --simulate reads this flag\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["model.alpha", "model.beta"])
    def test_invalid_base_point_exit_2_creates_nothing(self, tmp_path, capsys, key):
        base = tmp_path / "base.cfg"
        base.write_text(f"grid.cells_x = 16\n{key} = 0.5\n")
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--simulate", "--config", str(base), "--alpha-min", "1",
            "--alpha-max", "1", "--beta-min", "3", "--beta-max", "3", "--n", "1",
            "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: line 2: {key}: ")
        assert not out_dir.exists()

    def test_overflowing_initial_u_exit_2_creates_nothing(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(OVERFLOWING_IC)
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--simulate", "--config", str(base), "--alpha-min", "1",
            "--alpha-max", "1", "--beta-min", "3", "--beta-max", "3", "--n", "1",
            "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == "error: config: ic.u_mass: initial u is not finite on the (32,) grid\n"
        assert not out_dir.exists()

    def test_output_under_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        code, out, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1", "--beta-min", "3",
            "--beta-max", "3", "--n", "1", "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: --output: {out_dir}: ")
        assert len(err.splitlines()) == 1

    def test_simulate_without_envelope_exit_2_before_any_point(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, _, err = invoke(
            capsys, "sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--alpha-step", "0.5",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--output", str(out_dir),
            "--simulate", "--t-end", "0.01", "--model.b", "0", "--grid.cells_x", "16",
        )
        assert code == 2
        assert err == "error: config: model.b: b > 0 required, got 0.0\n"
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
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["alpha", "beta", "n", "regime", *cli._SWEEP_FIELDS]
        assert len(rows) == 9
        cfgs = [
            parse_config(
                path=base,
                overrides={"model.alpha": r["alpha"], "model.beta": r["beta"], "run.t_end": "0.3"},
            )
            for r in rows
        ]
        initials = [build_initial_state(cfg) for cfg in cfgs]
        shared = cfgs[0].grid, cfgs[0].stepper, cfgs[0].t_end, cfgs[0].recorder
        batch = stepper.run_batch(initials, [cfg.model for cfg in cfgs], *shared)
        for row, cfg, batched in zip(rows, cfgs, batch):
            alone = run_from_config(cfg, output_dir=None)
            record = run_record(cfg, cfg.model, alone)
            assert batched.diagnostics.steps == alone.diagnostics.steps
            assert row["regime"] == str(classify_regime(cfg.model, 1))
            # every record column is that field of the point's own run, bit for bit
            assert {name: row[name] for name in cli._SWEEP_FIELDS} == {
                name: record.text(name) for name in cli._SWEEP_FIELDS
            }

    def test_one_initial_state_per_batch(self, tmp_path, capsys, monkeypatch):
        calls = []

        def spy(cfg):
            calls.append(cfg)
            return build_initial_state(cfg)

        # on the config module, where a profiler's wrapper sits: the sweep
        # must call it through that module, not a name of its own
        monkeypatch.setattr("kschemo.config.build_initial_state", spy)
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        code, out, _ = _simulated_sweep(capsys, base, tmp_path / "sweep", "2", "--workers", "1")
        assert code == 0 and "sweep_rows=9" in out
        # the check before any point runs, then one batch of all nine points
        assert len(calls) == 2

    def test_workers_give_identical_csv(self, tmp_path, capsys, monkeypatch, inline_pools):
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        written = {}
        for workers in ("1", "2", "8"):
            out = tmp_path / f"workers-{workers}"
            assert _simulated_sweep(capsys, base, out, "2", "--workers", workers)[0] == 0
            written[workers] = (out / "sweep.csv").read_bytes()
        assert written["1"] == written["2"] == written["8"]
        lines = written["1"].splitlines()
        assert len(lines) == 1 + 9
        # alpha in {1, 1.5} and beta in {1, 2} (the later --beta-max wins): 4
        # one-point batches, so a pool sized by --workers alone would be 64
        points = {(a, b) for a in (b"1", b"1.5") for b in (b"1", b"2")}
        four = [lines[0]] + [l for l in lines[1:] if tuple(l.split(b",")[:2]) in points]
        pools = inline_pools()
        for cpus in (3, 8):
            monkeypatch.setattr(stepper, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"workers-64-cpus-{cpus}"
            extra = ("--beta-max", "2", "--workers", "64")
            assert _simulated_sweep(capsys, base, out, "1.5", *extra)[0] == 0
            assert pools[-1].max_workers == min(64, 4, cpus)
            assert pools[-1].shut_down
            assert (out / "sweep.csv").read_bytes().splitlines() == four

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


    @pytest.mark.parametrize(
        "second", [("--t-end", "5"), ("--t-end", "0.05", "--model.chi", "3")],
        ids=["t-end", "base"],
    )
    def test_resume_refuses_another_base_or_t_end(self, tmp_path, capsys, second):
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        out_dir = tmp_path / "sweep"

        def sweep(alpha_max, *extra):
            return invoke(
                capsys, "sweep", "--simulate", "--config", str(base), "--alpha-min", "1",
                "--alpha-max", alpha_max, "--alpha-step", "0.5", "--beta-min", "3",
                "--beta-max", "3", "--n", "1", "--output", str(out_dir), *extra,
            )

        assert sweep("1", "--t-end", "0.05")[0] == 0
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(written) == ["resolved_config.txt", "sweep.csv", "sweep_done.txt"]
        resolved = parse_config(path=base, overrides={"run.t_end": "0.05"})
        assert written["resolved_config.txt"] == resolved_text(resolved).encode()
        code, out, err = sweep("1.5", *second)
        assert (code, out) == (2, "")
        assert err == (
            f"error: config: --output: {out_dir / 'resolved_config.txt'} "
            "holds another base or --t-end\n"
        )
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written

    def test_resume_without_a_base_record_writes_it(self, tmp_path, capsys):
        # a directory from before the base was recorded resumes as before
        base = tmp_path / "base.cfg"
        base.write_text(SWEEP_BASE)
        resumed = tmp_path / "resumed"
        assert _simulated_sweep(capsys, base, resumed, "1.5")[0] == 0
        (resumed / "resolved_config.txt").unlink()
        code, out, _ = _simulated_sweep(capsys, base, resumed, "2")
        assert code == 0 and "sweep_rows=3" in out
        assert _simulated_sweep(capsys, base, tmp_path / "fresh", "2")[0] == 0
        for name in ("sweep.csv", "sweep_done.txt", "resolved_config.txt"):
            assert (resumed / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("simulate", [True, False], ids=["simulate", "classify"])
    def test_run_t_end_override_refused(self, tmp_path, capsys, simulate):
        # the run length is --t-end's; a --run.t_end beside it was dropped without a word
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", *(["--simulate"] if simulate else []), "--alpha-min", "1",
            "--alpha-max", "1", "--beta-min", "3", "--beta-max", "3", "--n", "1",
            "--grid.cells_x", "32", "--run.t_end", "0.3", "--t-end", "0.5",
            "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == "error: config: --run.t_end: sweep takes its run length from --t-end\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "value, rule",
        [("nan", "finite number required, got 'nan'"), ("-1", "t_end > 0 required, got -1.0")],
    )
    def test_bad_t_end_names_its_flag(self, tmp_path, capsys, value, rule):
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--simulate", "--alpha-min", "1", "--alpha-max", "1",
            "--beta-min", "3", "--beta-max", "3", "--n", "1", "--grid.cells_x", "32",
            "--t-end", value, "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: --t-end: {rule}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("dim, n", [(1, 2), (2, 1)])
    def test_n_other_than_the_base_dim_refused(self, tmp_path, capsys, dim, n):
        # each row would carry the regime of n for a run in dim dimensions
        out_dir = tmp_path / "sweep"
        code, out, err = invoke(
            capsys, "sweep", "--simulate", "--alpha-min", "1", "--alpha-max", "1",
            "--beta-min", "3", "--beta-max", "3", "--n", str(n), "--grid.dim", str(dim),
            "--grid.cells_x", "16", "--t-end", "0.1", "--output", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err == f"error: config: --n: differs from the base's grid.dim = {dim}\n"
        assert not out_dir.exists()

    def test_nonfinite_y1_row_has_empty_envelope_cells(self, tmp_path, capsys):
        base = tmp_path / "base.cfg"
        base.write_text(TINY_DOMAIN)
        code, out, err = invoke(
            capsys, "sweep", "--simulate", "--config", str(base), "--alpha-min", "1",
            "--alpha-max", "1", "--beta-min", "1", "--beta-max", "200", "--beta-step", "199",
            "--n", "1", "--t-end", "0.0001", "--output", str(tmp_path / "sweep"),
        )
        assert (code, err) == (0, "")
        assert "sweep_rows=2" in out
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["beta"], r["y1"], r["m0"]) for r in rows] == [("1", "1", "1"), ("200", "", "")]
        assert all(r["termination"] == "ReachedTEnd" for r in rows)

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
            assert row["plateaus_ok"] == "inconclusive"


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
            # every dt snaps to t_end, so each level would repeat the one before
            (["--mode", "temporal", "--levels", "3", "--cells", "8", "--dt0", "0.004",
              "--t-end", "0.001"], "--dt0/--t-end"),
            (["--t-end", "nan"], "--t-end"),
            # finite and positive, but t_end / dt0 overflows: no step count
            (["--t-end", "1e10", "--dt0", "1e-308"], "--dt0"),
            # the finest h and dt would leave the float range
            (["--levels", "1200"], "--levels"),
            (["--mode", "temporal", "--levels", "1200"], "--levels"),
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

    def test_level_count_refused_before_any_grid(self, tmp_path, capsys, monkeypatch):
        grid_type, built = cli.Grid, []

        def counted(*args, **kwargs):
            built.append(kwargs["cells"])
            return grid_type(*args, **kwargs)

        monkeypatch.setattr(cli, "Grid", counted)
        out = tmp_path / "mms.csv"
        code, _, err = invoke(capsys, "mms", "--levels", "1000000000", "--output", str(out))
        assert code == 2
        assert err == "error: config: --levels: levels <= 64 required, got 1000000000\n"
        assert built == []
        assert not out.exists()
        # the spy sees the grids of a study refused after they are built
        code, _, err = invoke(
            capsys, "mms", "--levels", "2", "--cells0", "16", "--t-end", "nan",
            "--output", str(out),
        )
        assert code == 2 and err.startswith("error: config: --t-end: ")
        assert built == [(16,), (32,)]

    # "" is passed as it is: joined onto tmp_path it would name tmp_path
    @pytest.mark.parametrize("where", ["missing/mms.csv", ".", ""])
    def test_unwritable_output_exit_2_before_study(self, tmp_path, capsys, monkeypatch, where):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "convergence_study", no_study)
        output = str(tmp_path / where) if where else where
        code, stdout, err = invoke(capsys, "mms", "--output", output)
        assert code == 2 and stdout == ""
        assert err.startswith("error: config: --output: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "missing").exists()

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


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--alpha", "1", "--beta", "3", "--n", "1"],
        ["mms", "--levels", "2"],
        ["bound-check", "--run-dir", "no-such-dir"],
    ],
)
def test_commands_without_overrides_reject_extras(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--model.chi", "2")
    assert code == 2
    assert out == ""
    assert err == "error: config: unrecognized arguments ['--model.chi', '2']\n"


CLASSIFY_POINT = ["classify", "--alpha", "1", "--beta", "3", "--n", "1"]
SWEEP_POINT = ["sweep", "--alpha-min", "1", "--alpha-max", "1.5", "--beta-min", "3",
               "--beta-max", "3.5", "--n", "1"]
# an n whose (n + 4) / 2 does not fit a float
HUGE_N = "1" + "0" * 400


# a repeated flag overrides the earlier one, so each case breaks one rule of a valid point
@pytest.mark.parametrize(
    "argv, flag",
    [
        (CLASSIFY_POINT + ["--alpha", "0.5"], "--alpha"),
        (CLASSIFY_POINT + ["--beta", "0.5"], "--beta"),
        (CLASSIFY_POINT + ["--n", "0"], "--n"),
        (CLASSIFY_POINT + ["--n", HUGE_N], "--n"),
        (CLASSIFY_POINT + ["--a", "-1"], "--a"),
        (CLASSIFY_POINT + ["--b", "0"], "--b"),
        (CLASSIFY_POINT + ["--initial-mass", "-1"], "--initial-mass"),
        (CLASSIFY_POINT + ["--domain-measure", "0"], "--domain-measure"),
        (SWEEP_POINT + ["--alpha-min", "0.5"], "--alpha-min"),
        (SWEEP_POINT + ["--beta-min", "0.5"], "--beta-min"),
        (SWEEP_POINT + ["--n", HUGE_N], "--n"),
        (SWEEP_POINT + ["--simulate", "--config", "{binary}"], "--config"),
        (["run", "--config", "{binary}"], "--config"),
        (["bound-check", "--run-dir", "{no_envelope_run}"], "model.b"),
    ],
    ids=[
        "classify-alpha", "classify-beta", "classify-n", "classify-huge-n", "classify-a",
        "classify-b", "classify-initial-mass", "classify-domain-measure", "sweep-alpha-min",
        "sweep-beta-min", "sweep-huge-n", "sweep-undecodable-config", "run-undecodable-config",
        "bound-check-b",
    ],
)
def test_refusal_names_its_flag(tmp_path, capsys, argv, flag):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    run_dir = tmp_path / "run"
    if "{no_envelope_run}" in argv:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN + "model.b = 0\n")
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(run_dir))[0] == 0
    out_dir = tmp_path / "out"
    argv = [a.format(binary=binary, no_envelope_run=run_dir) for a in argv]
    output = ["--output", str(out_dir)] if argv[0] in ("sweep", "run") else []
    code, out, err = invoke(capsys, *argv, *output)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: config: {flag}: ")
    assert not out_dir.exists()


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


def _snapshot_header(nx: int, ny: int) -> bytes:
    """The 32-byte header of a 2D snapshot at t = 0 with nx x ny cells."""
    return struct.pack("<8sIII4xd", b"KSCHSNP1", 2, nx, ny, 0.0)


class TestBoundCheck:
    def test_audit_on_finished_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 0
        assert "mass_envelope_ok=true" in out
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert keys == ["y1", "m0", "mass_max", "mass_envelope_ok"]

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
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == "error: config: model.b: b > 0 required, got 0.0\n"

    def test_nonfinite_y1_exit_2_names_the_envelope(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_DOMAIN + "model.beta = 200\n")
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == (
            "error: config: mass envelope y1 is not finite for "
            "a=1.0, b=1.0, beta=200.0, domain_measure=0.001\n"
        )

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
        assert err == "error: config: --run-dir: initial_mass finite >= 0 required, got nan\n"

    def test_missing_dir_exit_2(self, capsys):
        code, _, err = invoke(capsys, "bound-check", "--run-dir", "nowhere")
        assert code == 2

    def test_missing_summary_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        (out_dir / "summary.txt").unlink()
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config: ")
        assert str(out_dir / "summary.txt") in err
        assert len(err.splitlines()) == 1

    def test_run_that_did_not_reach_t_end_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        summary = (out_dir / "summary.txt").read_text()
        edited = summary.replace("termination=ReachedTEnd\n", "termination=SolverFailure\n")
        assert edited != summary
        (out_dir / "summary.txt").write_text(edited)
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 1
        assert "mass_envelope_ok=inconclusive" in out

    @pytest.mark.parametrize(
        "line, code, verdict",
        [("", 1, "inconclusive"), ("max_gain_above_y1=1e-300\n", 1, "false"),
         ("max_gain_above_y1=0\n", 0, "true")],
        ids=["missing", "gain", "no-gain"],
    )
    def test_per_step_line(self, tmp_path, capsys, line, code, verdict):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        path = out_dir / "summary.txt"
        summary = path.read_text()
        # the bump's mass of 2 lies above y1 = 1, so the run checked its steps
        assert float(dict(r.split("=", 1) for r in summary.splitlines())["max_gain_above_y1"]) < 0
        path.write_text(re.sub(r"max_gain_above_y1=.*\n", line, summary))
        assert invoke(capsys, "bound-check", "--run-dir", str(out_dir))[:2] == (
            code, f"y1=1\nm0=2\nmass_max=2\nmass_envelope_ok={verdict}\n"
        )
        path.write_text(re.sub(r"max_gain_above_y1=.*\n", "max_gain_above_y1=x\n", summary))
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == f"error: config: {path}: max_gain_above_y1 'x' is not a number\n"

    @pytest.mark.parametrize("line", ["", "termination=\n", "termination=Reached\n"])
    def test_termination_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        summary = (out_dir / "summary.txt").read_text()
        (out_dir / "summary.txt").write_text(summary.replace("termination=ReachedTEnd\n", line))
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        if not line:
            # a summary without a termination line reads as a run that stopped early
            assert (code, err) == (1, "")
            assert "mass_envelope_ok=inconclusive" in out
        else:
            assert (code, out) == (2, "")
            value = line.strip().partition("=")[2]
            path = out_dir / "summary.txt"
            assert err == f"error: config: {path}: unknown termination {value!r}\n"

    def test_empty_series_reads_m0_from_the_initial_snapshot(self, tmp_path, capsys):
        # u^8 overflows the first sample, so the run ends at t = 0 without a row
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.cells_x = 32\nic.u = constant\nic.u_value = 1e40\nrun.t_end = 0.1\n")
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 4
        assert len((out_dir / "series.csv").read_text().splitlines()) == 1
        summary = (out_dir / "summary.txt").read_text().splitlines()
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "y1=1", "m0=1e+40", "mass_max=", "mass_envelope_ok=inconclusive",
        ]
        assert set(out.splitlines()) <= set(summary)
        (out_dir / "u_initial.snap").unlink()
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: config: ") and "u_initial.snap" in err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda data: data[:16] + (7).to_bytes(4, "little") + data[20:],
             "1D snapshot with ny = 7, not 0"),
            (lambda data: data + b"\0", "bytes after the snapshot payload"),
            # 2D headers whose payload would overflow an index or exhaust memory
            (lambda data: _snapshot_header(2**31, 2**31) + data[32:], "truncated snapshot payload"),
            (lambda data: _snapshot_header(2**28, 2**20) + data[32:], "truncated snapshot payload"),
        ],
        ids=["ny-in-1d", "trailing-bytes", "2d-2^62-cells", "2d-2^48-cells"],
    )
    def test_empty_series_beside_a_malformed_snapshot_exit_2(
        self, tmp_path, capsys, corrupt, message
    ):
        # the snapshot keeps the right 32 values, so only the reader can refuse it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.cells_x = 32\nic.u = constant\nic.u_value = 1e40\nrun.t_end = 0.1\n")
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 4
        snap = out_dir / "u_initial.snap"
        snap.write_bytes(corrupt(snap.read_bytes()))
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == f"error: config: {snap}: {message}\n"


# alpha = beta = 2, a = b = 1 is a covered point, yet at these masses the
# explicit damping collapses dt below dt_min at the first step
LARGE_MASS_1D = (
    "grid.cells_x = 32\nmodel.alpha = 2\nmodel.beta = 2\nmodel.chi = 1\n"
    "ic.u = bump\nic.u_mass = 10000\nic.u_width = 0.1\nrun.t_end = 0.5\n"
)
LARGE_MASS_2D = LARGE_MASS_1D.replace("ic.u_mass = 10000", "ic.u_mass = 6000") + "grid.dim = 2\n"


class TestNoVerdictWithoutATrajectory:
    @pytest.mark.parametrize("text", [LARGE_MASS_1D, LARGE_MASS_2D], ids=["1d", "2d"])
    def test_blowup_at_step_0_passes_no_verdict(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "out"
        code, _, err = invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))
        assert code == 3
        assert "dt collapsed below dt_min" in err
        summary = dict(
            line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
        )
        assert summary["steps"] == "0"
        verdicts = [
            "mass_envelope_ok", "linf_bounded", "plateau_int_u_k2", "plateau_int_u_k4",
            "plateau_int_u_k8", "plateau_linf_u", "plateaus_ok",
        ]
        assert [summary[key] for key in verdicts] == ["inconclusive"] * 7
        assert "true" not in summary.values()
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 1
        assert "mass_envelope_ok=inconclusive" in out

    def test_sweep_row_is_inconclusive(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LARGE_MASS_1D)
        code, _, _ = invoke(
            capsys, "sweep", "--simulate", "--alpha-min", "2", "--alpha-max", "2",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--t-end", "0.5",
            "--config", str(cfg), "--output", str(tmp_path / "sweep"),
        )
        assert code == 0
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["termination"] == "BlowupDetected"
        assert float(row["mass_max"]) == pytest.approx(10000.0, rel=1e-12)
        assert row["plateaus_ok"] == "inconclusive"

    def test_mass_above_the_cap_before_a_blowup_is_false(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LARGE_MASS_1D)
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 3
        series = (out_dir / "series.csv").read_text().splitlines()
        parts = series[1].split(",")
        parts[0], parts[1] = "0.01", "20000"  # a later sample above m0 = 10000
        series.append(",".join(parts))
        (out_dir / "series.csv").write_text("\n".join(series) + "\n")
        code, out, _ = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert code == 1
        assert "mass_envelope_ok=false" in out

    def test_three_rows_to_t_end(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG.replace("run.t_end = 0.3", "run.t_end = 0.1"))
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 0
        summary = dict(
            line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
        )
        assert summary["termination"] == "ReachedTEnd"
        assert len((out_dir / "series.csv").read_text().splitlines()) == 1 + 3
        assert summary["mass_envelope_ok"] == "true"
        assert summary["linf_bounded"] == "true"
        assert summary["plateaus_ok"] == "inconclusive"
        assert invoke(capsys, "bound-check", "--run-dir", str(out_dir))[0] == 0

    def test_overflowing_initial_mass_has_no_envelope(self, tmp_path, capsys):
        # the cell sum of u overflows, so the first sample fails and m0 is not finite
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ic.u = constant\nic.u_value = 1e307\ngrid.cells_x = 32\n")
        out_dir = tmp_path / "out"
        assert invoke(capsys, "run", "--config", str(cfg), "--output", str(out_dir))[0] == 4
        summary = dict(
            line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
        )
        assert "y1" not in summary and "m0" not in summary
        assert (summary["mass_max"], summary["mass_envelope_ok"]) == ("", "inconclusive")
        code, _, _ = invoke(
            capsys, "sweep", "--simulate", "--alpha-min", "1", "--alpha-max", "1",
            "--beta-min", "2", "--beta-max", "2", "--n", "1", "--t-end", "0.1",
            "--config", str(cfg), "--output", str(tmp_path / "sweep"),
        )
        assert code == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[1] == "1,2,1,SubquadraticBounded,,,SolverFailure,,,inconclusive"
        # bound-check agrees: the initial snapshot's mass is not finite either
        code, out, err = invoke(capsys, "bound-check", "--run-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == "error: config: --run-dir: initial_mass finite >= 0 required, got inf\n"
