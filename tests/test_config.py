import dataclasses
import math
import struct

import numpy as np
import pytest

from kschemo import Grid, Recorder, StepperConfig, integrate
from kschemo.config import (
    ConfigError,
    InitialCondition,
    build_initial_state,
    config_items,
    parse_config,
    refine_config,
    resolved_text,
    run_from_config,
    run_record,
    write_resolved,
)
from kschemo.grid import read_snapshot
from kschemo.observables import ObservableSeries, RunRecord
from kschemo.params import FieldError

MINIMAL = """
# growth side only; everything else defaults
model.alpha = 1.5
model.beta = 3.0
model.chi = 2.0
"""


class TestParse:
    def test_minimal_file_fills_defaults(self):
        cfg = parse_config(text=MINIMAL)
        assert cfg.model.alpha == 1.5
        assert cfg.grid.cells == (256,)
        assert cfg.stepper.dt_max == 1e-2
        assert cfg.recorder.k_list == (2.0, 4.0, 8.0)
        assert cfg.ic.u_kind == "constant"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(text="model.chi = 3.0  # inline comment\n\n# full line\n")
        assert cfg.model.chi == 3.0

    def test_alpha_below_one_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"line 2: model.alpha: alpha >= 1"):
            parse_config(text="\nmodel.alpha = 0.5\n")

    def test_tau_enum_rejected(self):
        # tau has one legal value, 1, so no config names it: every value is rejected
        for value in ("0", "1", "2"):
            with pytest.raises(ConfigError, match=r"^line 2: unknown key 'model.tau'$"):
                parse_config(text=f"model.chi = 1.0\nmodel.tau = {value}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'model.gamma'"):
            parse_config(text="model.gamma = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text="model.chi = 1\nmodel.chi = 2\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="grid.cells_x"):
            parse_config(text="grid.cells_x = many\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(text="grid.cells_x = 12.5\n")
        for key, value in (
            ("grid.cells_x", "1e400"),
            ("run.t_end", "inf"),
            ("stepper.dt_max", "inf"),
            ("model.chi", "inf"),
            ("model.a", "nan"),
            ("run.k_list", "2,inf"),
        ):
            with pytest.raises(ConfigError, match=rf"line 2: {key}: finite number required"):
                parse_config(text=f"\n{key} = {value}\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(text="model.chi 1.0\n")

    def test_overrides_replace_file_values(self):
        cfg = parse_config(text=MINIMAL, overrides={"model.alpha": "1.75"})
        assert cfg.model.alpha == 1.75

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text=MINIMAL, overrides={"model.gamma": "1"})

    def test_y_axis_inherits_x(self):
        cfg = parse_config(text="grid.dim = 2\ngrid.cells_x = 16\ngrid.extent_x = 2.0\n")
        assert cfg.grid.cells == (16, 16)
        assert cfg.grid.extent == (2.0, 2.0)

    def test_bump_center_defaults_to_midpoint(self):
        cfg = parse_config(text="grid.extent_x = 4.0\nic.u = bump\n")
        assert cfg.ic.u_center == (2.0,)

    def test_bump_center_outside_domain_rejected(self):
        with pytest.raises(ConfigError, match="outside domain"):
            parse_config(text="ic.u = bump\nic.u_center_x = 2.0\n")

    # one out-of-range value for every key that has a range or a choice
    REJECTED = (
        ("model.chi", "-1"),
        ("model.a", "-0.5"),
        ("model.b", "-1"),
        ("model.alpha", "0.5"),
        ("model.beta", "0.99"),
        ("grid.dim", "3"),
        ("grid.extent_x", "0"),
        ("grid.extent_y", "-1"),
        ("grid.cells_x", "3"),
        ("grid.cells_y", "2"),
        ("ic.u", "gaussian"),
        ("ic.u_value", "-1"),
        ("ic.u_mass", "-1"),
        ("ic.u_width", "0"),
        ("ic.u_center_x", "2.0"),
        ("ic.u_center_y", "-0.5"),
        ("ic.u_base", "-1"),
        ("ic.u_amplitude", "1.5"),
        ("ic.seed", "-1"),
        ("ic.v", "gradient"),
        ("ic.v_value", "-1"),
        ("stepper.dt_min", "0"),
        ("stepper.dt_max", "-1"),
        ("stepper.cfl_safety", "1.5"),
        ("stepper.blowup_linf_threshold", "0"),
        ("run.t_end", "0"),
        ("run.sample_interval", "0"),
        ("run.k_list", "2,1"),
    )

    @pytest.mark.parametrize("key,value", REJECTED)
    def test_out_of_range_value_names_key_and_line(self, key, value):
        # a y entry is checked in 1D too, except the bump center, which only
        # exists on the axes the grid has
        dims = (1, 2) if key not in ("grid.dim", "ic.u_center_y") else (2,)
        for dim in dims:
            first = "# range check" if key == "grid.dim" else f"grid.dim = {dim}"
            with pytest.raises(ConfigError) as info:
                parse_config(text=f"{first}\n{key} = {value}\n")
            assert (info.value.key, info.value.line) == (key, 2)
            assert str(info.value).startswith(f"line 2: {key}: ")

    # removed keys: a resolved_config.txt that still holds one is rejected
    REMOVED = (
        ("stepper.dt_init", "1e-4"),
        ("stepper.linear_tol", "1e-10"),
        ("stepper.positivity_tol", "1e-12"),
        ("stepper.max_retries", "20"),
        ("model.tau", "1"),
        ("stepper.face_scheme", "upwind"),
        ("run.output_dir", "out"),
    )

    @pytest.mark.parametrize("key,value", REMOVED)
    def test_dt_init_is_an_unknown_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'"):
            parse_config(text=f"stepper.dt_max = 1e-3\n{key} = {value}\n")

    def test_31_key_resolved_config_fails_at_model_tau(self):
        # the sorted 31-key file a default run wrote before those keys left
        items = config_items(parse_config(text=""))
        items.update({key: value for key, value in self.REMOVED[-3:]})
        text = "".join(f"{key} = {items[key]}\n" for key in sorted(items))
        with pytest.raises(ConfigError, match=r"^line 22: unknown key 'model.tau'$"):
            parse_config(text=text)

    @pytest.mark.parametrize("value", ["2.5, 2.50000001", "2, 2"])
    def test_k_values_sharing_a_column_name_rejected(self, value):
        # both would be the column int_u_k2.5 (int_u_k2) of series.csv
        with pytest.raises(ConfigError) as info:
            parse_config(text=f"run.k_list = {value}\n")
        assert (info.value.key, info.value.line) == ("run.k_list", 1)
        assert "distinct columns" in str(info.value)

    # values that no config file holds (the parser refuses a non-finite or
    # non-integer number before any type sees it), each given to its type
    UNHELD = (
        (StepperConfig, {"dt_max": math.inf}),
        (StepperConfig, {"blowup_linf_threshold": math.inf}),
        (Recorder, {"sample_interval": math.inf}),
        (Recorder, {"k_list": (math.inf,)}),
        (InitialCondition, {"u_value": math.inf}),
        (InitialCondition, {"u_mass": math.inf}),
        (InitialCondition, {"u_width": math.inf}),
        (InitialCondition, {"u_base": math.inf}),
        (InitialCondition, {"v_value": math.nan}),
        (InitialCondition, {"seed": 1.5}),
        (Grid, {"extent": (1.0,), "cells": (8.0,)}),
        (Grid, {"extent": (1.0, 1.0), "cells": (8, math.inf)}),
    )

    @pytest.mark.parametrize("cls,kwargs", UNHELD, ids=lambda v: getattr(v, "__name__", None))
    def test_types_reject_what_no_config_file_holds(self, cls, kwargs):
        field = list(kwargs)[-1]
        with pytest.raises(FieldError, match=f"^{field}") as info:
            cls(**kwargs)
        assert info.value.field == field

    def test_run_config_rejects_an_endless_run(self):
        cfg = parse_config(text="")
        with pytest.raises(FieldError, match=r"^t_end > 0 required, got inf$"):
            dataclasses.replace(cfg, t_end=math.inf)

    def test_numpy_integers_still_count_as_cells_and_seeds(self):
        assert Grid(extent=(1.0,), cells=(np.int64(8),)).zeros().shape == (8,)
        assert InitialCondition(seed=np.int64(3)).seed == 3

    def test_cross_field_dt_ordering(self):
        with pytest.raises(ConfigError, match="dt_min"):
            parse_config(text="stepper.dt_min = 1.0\nstepper.dt_max = 1e-2\n")


class TestRoundTrip:
    def test_resolved_config_roundtrips(self, tmp_path):
        cfg = parse_config(text=MINIMAL + "grid.dim = 2\nic.u = bump\nic.u_mass = 3.5\n")
        path = tmp_path / "resolved_config.txt"
        write_resolved(cfg, path)
        again = parse_config(path=path)
        assert again == cfg

    # a value off its default for every key
    EVERY_KEY = {
        "model.chi": "2.5", "model.a": "1.5", "model.b": "0.75", "model.alpha": "1.25",
        "model.beta": "2.5", "grid.dim": "2", "grid.extent_x": "2.0", "grid.extent_y": "1.5",
        "grid.cells_x": "24", "grid.cells_y": "16", "ic.u": "bump", "ic.u_value": "0.5",
        "ic.u_mass": "3.0", "ic.u_width": "0.2", "ic.u_center_x": "0.7", "ic.u_center_y": "0.4",
        "ic.u_base": "2.0", "ic.u_amplitude": "0.25", "ic.seed": "7", "ic.v": "equal_u",
        "ic.v_value": "0.5", "stepper.dt_min": "1e-10", "stepper.dt_max": "5e-3",
        "stepper.cfl_safety": "0.3", "stepper.blowup_linf_threshold": "1e6",
        "run.t_end": "3.5", "run.sample_interval": "0.25", "run.k_list": "2,3.5",
    }

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_config_setting_every_key_roundtrips(self, dim):
        from kschemo.config import _KEYS

        assert set(self.EVERY_KEY) == set(_KEYS)
        keys = {**self.EVERY_KEY, "grid.dim": dim}
        cfg = parse_config(text="".join(f"{key} = {value}\n" for key, value in keys.items()))
        assert parse_config(text=resolved_text(cfg)) == cfg
        defaults = config_items(parse_config(text=f"grid.dim = {dim}\n"))
        kept = [key for key, value in config_items(cfg).items() if value == defaults[key]]
        assert kept == ["grid.dim"]

    def test_every_section_field_has_a_key(self):
        # a field that no config file sets would hold a value that
        # resolved_config.txt drops, so the run could not be read back
        from kschemo.config import _KEYS, _SECTIONS

        # ModelParams.tau accepts only 1 and stays until the benchmark's MMS
        # params stop pinning tau=1 (ROADMAP item 11)
        pinned = {("model", "tau")}
        reached = {(key.section, key.field) for key in _KEYS.values()}
        fields = {
            (section, f.name) for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
        }
        assert fields - reached == pinned

    def test_items_cover_every_key(self):
        from kschemo.config import _KEYS

        cfg = parse_config(text=MINIMAL)
        items = config_items(cfg)
        assert set(items) == set(_KEYS)


class TestInitialConditions:
    def test_direct_construction_checks_ranges(self):
        with pytest.raises(ValueError, match="u_width"):
            InitialCondition(u_width=0.0)
        with pytest.raises(ValueError, match="u_kind"):
            InitialCondition(u_kind="gaussian")

    def test_constant(self):
        cfg = parse_config(text="ic.u = constant\nic.u_value = 2.5\nic.v_value = 0.5\n")
        state = build_initial_state(cfg)
        np.testing.assert_array_equal(state.u, 2.5)
        np.testing.assert_array_equal(state.v, 0.5)

    def test_bump_mass_parameterization_exact(self):
        cfg = parse_config(
            text="ic.u = bump\nic.u_mass = 4.0\nic.u_width = 0.05\ngrid.cells_x = 128\n"
        )
        state = build_initial_state(cfg)
        assert integrate(state.u, cfg.grid) == pytest.approx(4.0, rel=1e-13)
        assert state.u.min() >= 0

    def test_bump_2d(self):
        cfg = parse_config(
            text="grid.dim = 2\ngrid.cells_x = 32\nic.u = bump\nic.u_mass = 8.0\nic.u_width = 0.1\n"
        )
        state = build_initial_state(cfg)
        assert integrate(state.u, cfg.grid) == pytest.approx(8.0, rel=1e-13)

    def test_random_reproducible_and_nonnegative(self):
        text = "ic.u = random\nic.u_base = 1.0\nic.u_amplitude = 1.0\nic.seed = 42\n"
        s1 = build_initial_state(parse_config(text=text))
        s2 = build_initial_state(parse_config(text=text))
        np.testing.assert_array_equal(s1.u, s2.u)
        assert s1.u.min() >= 0
        s3 = build_initial_state(parse_config(text=text.replace("42", "43")))
        assert not np.array_equal(s1.u, s3.u)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("ic.u = bump\nic.u_mass = 1e308\nic.u_width = 0.01\n", "ic.u_mass"),
            ("ic.u = random\nic.u_base = 1.7e308\n", "ic.u_base"),
            # narrower than a cell and centred on a cell face
            ("ic.u = bump\nic.u_width = 1e-5\n", "ic.u_width"),
        ],
        ids=["bump-overflows", "random-overflows", "bump-between-centres"],
    )
    def test_unbuildable_u_names_its_key(self, text, key):
        cfg = parse_config(text="grid.cells_x = 32\n" + text)
        with pytest.raises(ConfigError, match=f"^{key}: ") as info:
            build_initial_state(cfg)
        assert info.value.key == key

    def test_v_equal_u(self):
        cfg = parse_config(text="ic.u = constant\nic.u_value = 1.5\nic.v = equal_u\n")
        state = build_initial_state(cfg)
        np.testing.assert_array_equal(state.v, state.u)


class TestRefine:
    def test_refine_scales_grid_and_dt(self):
        cfg = parse_config(text=MINIMAL)
        fine = refine_config(cfg, 4)
        assert fine.grid.cells == (1024,)
        assert fine.stepper.dt_max == pytest.approx(cfg.stepper.dt_max / 4)
        assert fine.stepper.dt_min == pytest.approx(cfg.stepper.dt_min / 4)
        assert fine.t_end == cfg.t_end


RUN_CONFIG = """
model.chi = 2.0
model.alpha = 1.5
model.beta = 3.0
grid.cells_x = 64
ic.u = bump
ic.u_mass = 2.0
ic.u_width = 0.1
run.t_end = 0.5
run.sample_interval = 0.05
"""


class TestRunFromConfig:
    def test_artifacts_written(self, tmp_path):
        cfg = parse_config(text=RUN_CONFIG)
        out = tmp_path / "out"
        result = run_from_config(cfg, output_dir=str(out), export_fields_csv=True)
        assert result.termination.value == "ReachedTEnd"
        for name in (
            "resolved_config.txt",
            "series.csv",
            "summary.txt",
            "u_initial.snap",
            "v_initial.snap",
            "u_final.snap",
            "v_final.snap",
            "u_final.csv",
            "v_final.csv",
        ):
            assert (out / name).exists(), name
        values, t = read_snapshot(out / "u_final.snap")
        np.testing.assert_array_equal(values, result.state.u)
        series = ObservableSeries.from_csv(out / "series.csv")
        assert series.rows == result.series.rows
        again = parse_config(path=out / "resolved_config.txt")
        assert again == cfg

    def test_summary_machine_parsable(self, tmp_path):
        cfg = parse_config(text=RUN_CONFIG)
        out = tmp_path / "out"
        run_from_config(cfg, output_dir=str(out))
        entries = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert entries["termination"] == "ReachedTEnd"
        assert entries["termination_cause"] == "t_end reached"
        assert entries["mass_envelope_ok"] == "true"
        assert float(entries["y1"]) == pytest.approx(1.0)
        assert float(entries["m0"]) == pytest.approx(2.0)
        assert "plateau_linf_u" in entries

    @pytest.mark.parametrize(
        "text",
        [
            RUN_CONFIG,
            RUN_CONFIG + "model.b = 0\n",
            # u^8 overflows the first sample, so the run ends at t = 0 without a row
            "grid.cells_x = 32\nic.u = constant\nic.u_value = 1e40\nrun.t_end = 0.1\n",
        ],
        ids=["b>0", "b=0", "no-sample"],
    )
    def test_summary_reads_back_to_its_record(self, tmp_path, text):
        cfg = parse_config(text=text)
        out = tmp_path / "out"
        result = run_from_config(cfg, output_dir=str(out))
        record = run_record(cfg, cfg.model, result)
        path = out / "summary.txt"
        assert path.read_text().splitlines() == record.lines()
        again = RunRecord.read(path)
        assert list(vars(again)) == list(vars(record))
        for name, value in vars(record).items():
            read = getattr(again, name)
            assert type(read) is type(value), name
            if isinstance(value, float):  # bit for bit, -inf included
                assert struct.pack("<d", read) == struct.pack("<d", value), name
            else:
                assert read == value, name
        plateaus = [name for name in vars(record) if name.startswith("plateau_")]
        assert plateaus == sorted(plateaus) and len(plateaus) == 4
        names = set(vars(again))
        if cfg.model.b == 0:
            assert not names & {"y1", "m0", "mass_envelope_ok"}
            assert again.y1 is again.m0 is again.mass_envelope_ok is None
            # without a barrier no step is checked: the -inf read back above
            assert again.max_gain_above_y1 == -math.inf
        else:
            assert {"y1", "m0", "mass_envelope_ok"} <= names
        if not len(result.series):
            assert "mass_max=" in record.lines() and again.mass_max is None

    def test_no_artifacts_in_memory_mode(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(text=RUN_CONFIG)
        run_from_config(cfg, output_dir=None)
        assert list(tmp_path.iterdir()) == []
