import argparse
import base64
import ctypes
import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrokin import cli
from pyrokin.cli import _parse_alpha_grid, check_mass_balance, main, vm_from_char
from pyrokin.errors import DomainError, InputError
from pyrokin.manifest import config_digest
from pyrokin.preprocess import DEFAULT_SMOOTH_WINDOW, compute_dtg, find_peaks
from pyrokin.report import predictions_to_csv
import numpy as np

from pyrokin.seqmodel.features import MODEL2, build_features
from pyrokin.seqmodel.lstm import CHECKPOINT_VERSION, load_model, save_model
from pyrokin.seqmodel.training import TrainConfig
from pyrokin.synthkin import simulate, suite_models
from pyrokin.tga_io import (
    DATE_SEEDS,
    MAX_GRID_POINTS,
    TgaCurve,
    curve_to_csv,
    load_curve,
    resample_uniform,
    sidecar_to_spec,
    spec_to_sidecar,
)

from reference_checkpoint import save_model_v1


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Single-step fixture curves on disk at four heating rates."""
    root = tmp_path_factory.mktemp("curves")
    name, model, spec = suite_models()[0]
    for beta in (5.0, 10.0, 15.0, 20.0):
        curve = simulate(model, beta, 0.5, spec=spec)
        (root / f"{name}_beta{beta:g}.csv").write_text(curve_to_csv(curve))
        (root / f"{name}_beta{beta:g}.json").write_text(spec_to_sidecar(spec, beta))
    return root


def curve_paths(synth_dir, betas=(5, 10, 15, 20)):
    return [str(synth_dir / f"single-step_beta{b}.csv") for b in betas]


class TestMassBalanceOps:
    def test_char_to_vm_pairs_exact(self):
        assert vm_from_char(27.74) == 72.26
        assert vm_from_char(27.84) == 72.16
        assert vm_from_char(28.41) == 71.59
        assert vm_from_char(26.39) == 73.61

    def test_boundaries(self):
        assert vm_from_char(0.0) == 100.0
        assert vm_from_char(100.0) == 0.0

    def test_sum_identity_exact(self):
        for k in range(0, 10001, 7):
            eta = k / 100.0
            assert vm_from_char(eta) + eta == 100.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            vm_from_char(101.0)

    def test_consistency_check(self):
        assert check_mass_balance(72.26, 27.74)
        assert not check_mass_balance(70.69, 29.04)  # sums to 99.73

    def test_cli_reports_vm(self, capsys):
        assert main(["massbalance", "--char", "27.74"]) == 0
        out = capsys.readouterr().out
        assert "72.26" in out

    def test_cli_flags_inconsistent_pair(self, capsys):
        assert main(["massbalance", "--char", "29.04", "--vm", "70.69"]) == 0
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_cli_confirms_consistent_pair(self, capsys):
        assert main(["massbalance", "--char", "29.04", "--vm", "70.96"]) == 0
        out = capsys.readouterr().out
        assert "mass balance: consistent (70.96 + 29.04 = 100)" in out


class TestSynthCommand:
    def test_writes_curve_and_sidecar_per_beta(self, tmp_path, capsys):
        rc = main(
            ["synth", "--preset", "single-step", "--beta", "5,10,15,20",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert len(list(tmp_path.glob("single-step_beta*.csv"))) == 4
        assert len(list(tmp_path.glob("single-step_beta*.json"))) == 4
        assert (tmp_path / "single-step_model.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_blend_preset(self, tmp_path):
        rc = main(
            ["synth", "--preset", "blend", "--frac", "0.5", "--beta", "10",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "blend-0.5_beta10.csv").exists()

    @pytest.mark.parametrize("frac, parent", [("1", "three-component-ds"),
                                              ("0", "three-component-scg")])
    def test_blend_of_one_parent_writes_that_parents_curves(self, tmp_path, frac, parent):
        """Parallel reactions are additive, so a blend that is all one parent
        is that parent, curve file for curve file."""
        assert main(["synth", "--preset", "blend", "--frac", frac,
                     "--out-dir", str(tmp_path / "blend")]) == 0
        assert main(["synth", "--preset", parent, "--out-dir", str(tmp_path / "parent")]) == 0
        for beta in (5, 10, 15, 20):
            assert ((tmp_path / "blend" / f"blend-{frac}_beta{beta}.csv").read_bytes()
                    == (tmp_path / "parent" / f"{parent}_beta{beta}.csv").read_bytes()), beta

    def test_empty_heating_rate_list_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--beta", "", "--out-dir", str(tmp_path / "out")]) == 2
        assert "need at least one heating rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        rc = main(["synth", "--preset", "nope", "--out-dir", str(tmp_path)])
        assert rc == 4

    @pytest.mark.parametrize("argv", [
        ["--preset", "blend-0.5"],  # a suite_models name, not a preset
        ["--preset", "blend-0.5", "--frac", "0.25"],
        ["--preset", "single-step", "--frac", "0.3"],  # --frac is the blend's
        ["--preset", "three-component-ds", "--frac", "0.75"],
        ["--frac", "0.5"],  # beside the default preset
    ])
    def test_frac_or_preset_that_would_not_make_the_curves_exits_4(self, argv, tmp_path,
                                                                   capsys):
        out = tmp_path / "out"
        assert main(["synth", *argv, "--beta", "10", "--out-dir", str(out)]) == 4
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name, recorded", [
        (["--preset", "blend"], "blend-0.75", {"preset": "blend", "frac": 0.75}),
        (["--preset", "blend", "--frac", "0.5"], "blend-0.5", {"preset": "blend", "frac": 0.5}),
        (["--preset", "single-step"], "single-step", {"preset": "single-step"}),
        ([], "single-step", {"preset": "single-step"}),
    ])
    def test_manifest_records_the_frac_that_made_the_curves(self, argv, name, recorded,
                                                            tmp_path):
        out = tmp_path / "out"
        assert main(["synth", *argv, "--beta", "10", "--out-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            f"{name}_beta10.csv", f"{name}_beta10.json", f"{name}_model.json", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(
            {**recorded, "betas": [10.0], "dt": 0.5})

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["synth", "--preset", "three-component-ds", "--beta", "5,20",
                       "--dt", "1.0", "--out-dir", str(out)])
            assert rc == 0
        names = sorted(p.name for p in out1.glob("three-component-ds_beta*"))
        assert len(names) == 4  # one .csv and one .json per heating rate
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_rate_whose_curve_is_nan_writes_nothing(self, tmp_path, capsys):
        """A/beta overflows at beta = 1e-300, and inf * 0 is NaN at the first
        grid point, so every mass would be NaN: such a curve could not be
        read back, and no bundle is written."""
        out = tmp_path / "out"
        assert main(["synth", "--beta", "1e-300", "--out-dir", str(out)]) == 2
        assert "mass fraction" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_rate_whose_a_over_beta_overflows_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synth", "--beta", "1e-300", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "heating rate 1e-300 K/min" in err and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("betas, first, file", [
        ("5,5", "5.0", "single-step_beta5.csv"),
        ("10,10.0000001", "10.0", "single-step_beta10.csv"),
    ])
    def test_rates_sharing_a_file_name_write_nothing(self, tmp_path, capsys, monkeypatch,
                                                      betas, first, file):
        """A second rate whose file stem equals an earlier one would overwrite
        its curve; both are rejected before anything is simulated."""
        monkeypatch.setattr(cli, "simulate", None)
        out = tmp_path / "out"
        assert main(["synth", "--beta", betas, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"heating rates {first} and {betas.split(',')[1]}" in err and file in err
        assert not out.exists()


class TestAnalyzeCommand:
    def test_recovers_ground_truth_within_one_percent(self, synth_dir, tmp_path, capsys):
        rc = main(
            ["analyze", *curve_paths(synth_dir), "--out-dir", str(tmp_path),
             "--format", "svg"]
        )
        assert rc == 0
        for name in ("kinetics.csv", "kinetics.txt", "ea_vs_alpha.csv",
                     "ea_vs_alpha.svg", "manifest.json"):
            assert (tmp_path / name).exists(), name
        rows = (tmp_path / "kinetics.csv").read_text().strip().splitlines()[1:]
        friedman_eas = [
            float(r.split(",")[2]) for r in rows if r.split(",")[1] == "friedman"
        ]
        assert all(abs(ea - 180.0) / 180.0 < 0.01 for ea in friedman_eas)

    def test_too_few_curves_exits_2_with_message(self, synth_dir, tmp_path, capsys):
        rc = main(
            ["analyze", *curve_paths(synth_dir, (5, 10)), "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "heating rates" in capsys.readouterr().err

    def test_alpha_grid_flag_controls_row_count(self, synth_dir, tmp_path):
        rc = main(
            ["analyze", *curve_paths(synth_dir), "--alpha-grid", "0.1:0.7:0.1",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "kinetics.csv").read_text().strip().splitlines()[1:]
        per_method = {}
        for r in rows:
            per_method.setdefault(r.split(",")[1], []).append(r)
        assert {len(v) for v in per_method.values()} == {7}

    def test_text_labels_tell_half_step_levels_apart(self, synth_dir, tmp_path):
        # two decimals would print 0.10, 0.12, 0.12, 0.14, 0.14
        assert main(["analyze", *curve_paths(synth_dir), "--alpha-grid", "0.105:0.145:0.01",
                     "--format", "text", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "kinetics.txt").read_text().splitlines()
        assert [line.split("|")[0].strip() for line in lines[3:8]] == [
            "0.105", "0.115", "0.125", "0.135", "0.145"]
        assert lines[1].startswith(" alpha |") and lines[-1].startswith("   Avg |")

    def test_reruns_are_byte_identical(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(out)]) == 0
        assert (out1 / "kinetics.csv").read_bytes() == (out2 / "kinetics.csv").read_bytes()
        assert (out1 / "kinetics.txt").read_bytes() == (out2 / "kinetics.txt").read_bytes()

    def test_missing_sidecar_exits_2(self, synth_dir, tmp_path):
        orphan = tmp_path / "orphan.csv"
        orphan.write_text((synth_dir / "single-step_beta5.csv").read_text())
        rc = main(
            ["analyze", str(orphan), *curve_paths(synth_dir, (10, 15)),
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize("field, value", [
        ("heating_rate_c_per_min", "ten"),
        ("heating_rate_c_per_min", None),
        ("heating_rate_c_per_min", 0.0),
        ("ds_fraction", [1.0]),
        ("cellulose_pct", float("nan")),
        ("heating_rate_c_per_min", 10**400),
        ("sample_id", ["DS"]),
        ("sample_id", "\ud800x"),  # a lone surrogate: valid JSON, not encodable as UTF-8
        ("ash_pct", "some"),
        ("ash_pct", float("nan")),
        ("vm_pct", float("inf")),
        # C0 controls, DEL and the noncharacters U+FFFE/U+FFFF: most of
        # them cannot be written in XML, so the SVG would not parse
        *(("sample_id", f"S{ch}CG") for ch in
          ("\x00", "\x01", "\t", "\n", "\r", "\x1f", "\x7f", "\ufffe", "\uffff")),
    ])
    def test_bad_sidecar_field_exits_2(self, synth_dir, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.csv"
        bad.write_text((synth_dir / "single-step_beta5.csv").read_text())
        doc = json.loads((synth_dir / "single-step_beta5.json").read_text())
        doc[field] = value
        bad.with_suffix(".json").write_text(json.dumps(doc))
        for command, flags in (("analyze", ["--format", "svg"]), ("features", [])):
            out = tmp_path / command
            rc = main([command, str(bad), *curve_paths(synth_dir, (10, 15)), *flags,
                       "--out-dir", str(out)])
            assert rc == 2
            assert field in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("column, row, value, sidecar, message", [
        ("mass_pct", 0, 0.0, {}, "initial mass must be positive"),
        ("mass_pct", 5, 100.5, {}, "mass fraction must lie in (0, 1]"),
        ("mass_pct", 5, 0.0, {}, "mass fraction must lie in (0, 1]"),
        ("temperature_c", 0, -300.0, {}, "temperature must be above 0 K"),
        (None, None, None, {"ds_fraction": 1.5, "scg_fraction": -0.5},
         "ds_fraction outside [0, 1]"),
    ], ids=["first-mass-zero", "later-mass-above-first", "later-mass-zero", "below-0-K",
            "blend-fractions-outside-0-1"])
    def test_curve_outside_the_curve_contract_exits_2(self, synth_dir, tmp_path, capsys,
                                                      column, row, value, sidecar, message):
        good = synth_dir / "single-step_beta5.csv"
        lines = good.read_text().splitlines()
        if column is not None:
            cells = lines[1 + row].split(",")
            cells[lines[0].split(",").index(column)] = str(value)
            lines[1 + row] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        doc = json.loads(good.with_suffix(".json").read_text())
        bad.with_suffix(".json").write_text(json.dumps({**doc, **sidecar}))
        out = tmp_path / "out"
        assert main(["analyze", str(bad), *curve_paths(synth_dir, (10, 15)),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_regression_exits_3(self, synth_dir, tmp_path, capsys):
        # identical curve data under three different claimed heating rates
        # gives zero temperature variance at every conversion level
        name, model, spec = suite_models()[0]
        curve_text = (synth_dir / "single-step_beta10.csv").read_text()
        paths = []
        for beta in (5.0, 10.0, 20.0):
            stem = tmp_path / f"dup{beta:g}"
            stem.with_suffix(".csv").write_text(curve_text)
            stem.with_suffix(".json").write_text(spec_to_sidecar(spec, beta))
            paths.append(str(stem.with_suffix(".csv")))
        rc = main(["analyze", *paths, "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    def test_overflowing_frequency_factor_exits_3(self, tmp_path, capsys):
        # logistic mass curves whose T_alpha moves 0.5 C per heating rate:
        # an apparent Ea of thousands of kJ/mol puts ln A far past a float's range
        paths = []
        for k, beta in enumerate((5.0, 10.0, 20.0)):
            T = np.arange(573.15, 1173.15, 0.5)
            mass = 1.0 - 0.8 / (1.0 + np.exp(-(T - (873.15 + 0.5 * k)) / 15.0))
            curve = TgaCurve(DATE_SEEDS, beta, (T - T[0]) * 60.0 / beta, T, mass / mass[0])
            stem = tmp_path / f"logistic{beta:g}"
            stem.with_suffix(".csv").write_text(curve_to_csv(curve))
            stem.with_suffix(".json").write_text(spec_to_sidecar(DATE_SEEDS, beta))
            paths.append(str(stem.with_suffix(".csv")))
        rc = main(["analyze", *paths, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical error: friedman at alpha=0.1: ")
        assert "ln A = " in err
        assert not (tmp_path / "out").exists()

    def test_reaction_model_out_of_float_range_exits_3(self, synth_dir, tmp_path, capsys):
        # f(alpha) = (1 - alpha)^n underflows to 0 at order 800 and alpha 0.7,
        # Friedman's first step; g(alpha) has (1 - alpha)^(1 - n), which
        # overflows at order 6750 and alpha 0.1. Only Friedman's A is past
        # that point on real curves, so the KAS case uses logistic curves
        # 150 K apart per heating rate: a small apparent Ea keeps Friedman's
        # ln A (707) inside a float's range
        slow = []
        for k, beta in enumerate((5.0, 10.0, 20.0)):
            T = np.arange(473.15, 1473.15, 0.5)
            mass = 1.0 - 0.8 / (1.0 + np.exp(-(T - (673.15 + 150.0 * k)) / 30.0))
            curve = TgaCurve(DATE_SEEDS, beta, (T - T[0]) * 60.0 / beta, T, mass / mass[0])
            stem = tmp_path / f"slow{beta:g}"
            stem.with_suffix(".csv").write_text(curve_to_csv(curve))
            stem.with_suffix(".json").write_text(spec_to_sidecar(DATE_SEEDS, beta))
            slow.append(str(stem.with_suffix(".csv")))
        for curves, order, level, message in (
            (curve_paths(synth_dir), "800", "0.7",
             "friedman at alpha=0.7: reaction model f(alpha) is 0 at order 800"),
            (slow, "6750", "0.1",
             "kas at alpha=0.1: reaction model g(alpha) is inf at order 6750"),
        ):
            out = tmp_path / f"out{order}"
            rc = main(["analyze", *curves, "--order", order, "--alpha-grid",
                       f"{level}:{level}:0.1", "--format", "csv", "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert rc == 3, err
            assert err.startswith(f"numerical error: {message}, not a positive finite float")
            assert "Traceback" not in err
            assert not out.exists()

    def test_svg_of_one_conversion_level_exits_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", *curve_paths(synth_dir), "--alpha-grid", "0.3:0.3:0.1",
                   "--format", "svg", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --format svg needs at least 2 included conversion levels, got 1 (0.3)\n")
        assert not out.exists()


class TestThermoCommand:
    def test_profile_from_explicit_tm(self, synth_dir, tmp_path):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        rc = main(
            ["thermo", "--kinetics", str(kin / "kinetics.csv"), "--tm", "625.0",
             "--out-dir", str(tmp_path), "--format", "svg"]
        )
        assert rc == 0
        text = (tmp_path / "thermo.csv").read_text()
        assert len(text.strip().splitlines()) == 1 + 3 * 3 * 7
        assert (tmp_path / "thermo_dh.svg").exists()

    def test_format_is_csv_or_svg_and_defaults_to_csv(self, synth_dir, tmp_path, capsys):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        argv = ["thermo", "--kinetics", str(kin / "kinetics.csv"), "--tm", "625.0"]
        assert main([*argv, "--out-dir", str(tmp_path / "bare")]) == 0
        assert main([*argv, "--format", "csv", "--out-dir", str(tmp_path / "csv")]) == 0
        written = sorted(p.name for p in (tmp_path / "bare").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "csv").iterdir())
        assert written == ["manifest.json", "thermo.csv"]
        assert ((tmp_path / "bare" / "thermo.csv").read_bytes()
                == (tmp_path / "csv" / "thermo.csv").read_bytes())
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "text", "--out-dir", str(tmp_path / "text")])
        assert exc.value.code == 2
        assert "invalid choice: 'text'" in capsys.readouterr().err
        assert not (tmp_path / "text").exists()

    def test_tm_from_curve_peak(self, synth_dir, tmp_path):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        # single-step peak (~625 K = 352 C) sits in the cellulose window
        kinetics, curve = str(kin / "kinetics.csv"), curve_paths(synth_dir, (10,))[0]
        argv = ["thermo", "--kinetics", kinetics, "--curve", curve, "--stage", "cellulose"]
        assert main([*argv, "--out-dir", str(tmp_path / "peak")]) == 0
        # the manifest lists the curve the reference temperature came from,
        # after the kinetics file
        manifest = json.loads((tmp_path / "peak" / "manifest.json").read_text())
        assert manifest["inputs"] == [kinetics, curve]

    def test_config_records_the_stage_only_when_a_curve_is_read(self, synth_dir, tmp_path):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        kinetics, path = str(kin / "kinetics.csv"), curve_paths(synth_dir, (10,))[0]
        argv = ["thermo", "--kinetics", kinetics]
        assert main([*argv, "--stage", "cellulose", "--curve", path,
                     "--out-dir", str(tmp_path / "peak")]) == 0
        assert main([*argv, "--tm", "625.0", "--out-dir", str(tmp_path / "tm")]) == 0
        spec, beta = sidecar_to_spec(Path(path).with_suffix(".json").read_text())
        curve = resample_uniform(load_curve(Path(path).read_text(), spec, beta), 0.5)
        peaks = find_peaks(compute_dtg(curve, DEFAULT_SMOOTH_WINDOW))
        t_m = next(p.T_peak for p in peaks if p.stage_label == "cellulose")
        for name, config in (("peak", {"tm": t_m, "stage": "cellulose"}),
                             ("tm", {"tm": 625.0})):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["config_digest"] == config_digest(config), name

    @pytest.mark.parametrize("flag, value", [
        ("--stage", "cellulose"),
        ("--stage", "hemicellulose"),  # the value a --curve run takes anyway
        ("--stage-windows", "hemicellulose:225:325"),
        ("--smooth-window", "9"),
        ("--dt", "0.5"),
    ])
    def test_curve_only_flag_beside_tm_exits_2(self, synth_dir, tmp_path, capsys, flag,
                                               value):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["thermo", "--kinetics", str(kin / "kinetics.csv"), "--tm", "625.0",
                     flag, value, "--out-dir", str(out)]) == 2
        assert f"only --curve reads {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_tm_beside_curve_exits_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--kinetics", str(tmp_path / "kinetics.csv"), "--tm", "625.0",
                  "--curve", curve_paths(synth_dir, (10,))[0], "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --curve: not allowed with argument --tm" in err
        assert not out.exists()

    def test_without_tm_or_curve_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--kinetics", str(tmp_path / "kinetics.csv"), "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "one of the arguments --tm --curve is required" in err
        assert not out.exists()

    def test_stage_windows_override_the_default_table(self, synth_dir, tmp_path, capsys):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        argv = ["thermo", "--kinetics", str(kin / "kinetics.csv"),
                "--curve", curve_paths(synth_dir, (10,))[0]]
        runs = {}
        for name, extra in (("default", []),
                            ("same", ["--stage-windows", "hemicellulose:225:325"]),
                            ("moved", ["--stage-windows", "hemicellulose:300:340"])):
            capsys.readouterr()
            assert main([*argv, *extra, "--out-dir", str(tmp_path / name)]) == 0
            runs[name] = (capsys.readouterr().out,
                          (tmp_path / name / "thermo.csv").read_bytes())
        # the default hemicellulose window, given as a flag, is the same window
        assert runs["same"] == runs["default"]
        # a window ending below the single-step peak (625.5 K) moves Tm to
        # its last grid point, 613.0 K, from the default window's 598.0 K
        assert "Tm = 598.00 K" in runs["default"][0]
        assert "Tm = 613.00 K" in runs["moved"][0]
        assert runs["moved"][1] != runs["default"][1]

    @pytest.mark.parametrize("windows", [
        "hemicellulose:225:325,hemicellulose:300:400",
        "hemicellulose:225:325, hemicellulose :300:400",
    ])
    def test_repeated_stage_name_exits_2_before_reading(self, tmp_path, capsys, windows):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--kinetics", str(tmp_path / "absent.csv"),
                  "--curve", str(tmp_path / "absent-curve.csv"),
                  "--stage-windows", windows, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "stage 'hemicellulose' is given twice" in err
        assert not out.exists()

    def test_bad_kinetics_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "kinetics.csv"
        bad.write_text("alpha,method\n0.1,friedman\n")
        rc = main(["thermo", "--kinetics", str(bad), "--tm", "625.0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_peak_requires_tm(self, synth_dir, tmp_path, capsys):
        kin = tmp_path / "k"
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(kin)]) == 0
        rc = main(
            ["thermo", "--kinetics", str(kin / "kinetics.csv"),
             "--curve", curve_paths(synth_dir, (10,))[0],
             "--stage", "moisture", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "--tm" in capsys.readouterr().err


class TestFeatureCommand:
    def test_row_count_and_columns(self, synth_dir, tmp_path):
        rc = main(
            ["features", curve_paths(synth_dir, (10,))[0], "--mode", "model2",
             "--dt", "1.0", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "features.csv").read_text().strip().splitlines()
        assert lines[0].count(",") == 8  # curve_id + 7 features + target
        assert len(lines) == 1 + 601
        path = synth_dir / "single-step_beta10.csv"
        spec, beta = sidecar_to_spec(path.with_suffix(".json").read_text())
        curve = resample_uniform(load_curve(path.read_text(), spec, beta), 1.0)
        table = np.column_stack([build_features(curve, MODEL2), curve.mass_fraction * 100.0])
        assert len(table) == len(lines) - 1
        for line, row in zip(lines[1:], table.tolist()):
            cells = [float(c) for c in line.split(",")[1:]]
            assert cells == row


@pytest.mark.parametrize("argv", [
    ["features"],
    ["train", "--dt", "6.0", "--epochs", "1", "--hidden", "4"],
], ids=["features", "train"])
def test_two_curves_with_one_curve_id_exit_2(synth_dir, tmp_path, capsys, argv):
    """A second run of one sample at one heating rate would share its windows'
    curve id, so holdout and features could not tell the two apart."""
    twin = tmp_path / "twin.csv"
    source = synth_dir / "single-step_beta10.csv"
    twin.write_bytes(source.read_bytes())
    twin.with_suffix(".json").write_bytes(source.with_suffix(".json").read_bytes())
    out = tmp_path / "out"
    rc = main([argv[0], *curve_paths(synth_dir, (5, 10)), str(twin), *argv[1:],
               "--out-dir", str(out)])
    assert rc == 2
    assert str(twin) in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main(
        ["train", *curve_paths(synth_dir), "--mode", "model2", "--dt", "4.0",
         "--look-back", "5", "--epochs", "4", "--hidden", "8", "--batch", "32",
         "--seed", "3", "--out-dir", str(out)]
    )
    assert rc == 0
    return out


# The model.json config of a train run on the CLI's defaults, with the look-back
# and epochs set small.
TRAIN_DEFAULTS = {"learning_rate": 0.005, "batch_size": 32, "epochs": 1, "dropout": 0.0,
                  "hidden_units": 32, "lstm_layers": 1, "activation": "tanh",
                  "optimizer": "adam", "look_back": 5, "early_stop_patience": 5, "seed": 0}


@pytest.mark.parametrize("flag, field, value", [
    ("--lr", "learning_rate", 0.0125),
    ("--batch", "batch_size", 16),
    ("--hidden", "hidden_units", 6),
    ("--layers", "lstm_layers", 2),
    ("--patience", "early_stop_patience", 2),
])
def test_train_flag_reaches_saved_config(synth_dir, tmp_path, flag, field, value):
    out = tmp_path / "out"
    assert main(["train", *curve_paths(synth_dir, (10, 15, 20)), "--dt", "6.0",
                 "--look-back", "5", "--epochs", "1", flag, str(value),
                 "--out-dir", str(out)]) == 0
    saved = json.loads((out / "model.json").read_text())["config"]
    assert saved == {**TRAIN_DEFAULTS, field: value}


def test_partial_config_file_trains_as_the_same_flags(synth_dir, tmp_path):
    """A field a --config file leaves out takes the default a flag left out
    takes: TrainConfig's."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "lstm_layers": 2}))
    curves = curve_paths(synth_dir, (10, 15, 20))
    assert main(["train", *curves, "--dt", "2", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "config")]) == 0
    assert main(["train", *curves, "--dt", "2", "--epochs", "1", "--layers", "2",
                 "--out-dir", str(tmp_path / "flags")]) == 0
    for name in ("model.json", "history.csv"):
        assert ((tmp_path / "config" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes()), name


class TestTrainFlagDefaults:
    """TrainConfig declares every training default; the parser declares only
    the seed, which the split and the manifest read too."""

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_seed_and_look_back_defaults_are_train_config_defaults(self, command,
                                                                   monkeypatch):
        args = cli._PARSER.parse_args([command, "c.csv"])
        assert args.seed == TrainConfig.seed
        # the look-back left out is TrainConfig's, for train's config and
        # for tune's windows
        windowed = []

        def windows(paths, mode, look_back, dt=None):
            windowed.append(look_back)
            raise InputError("stop before reading curves")
        monkeypatch.setattr(cli, "_windows", windows)
        assert main([command, "c.csv"]) == 2
        assert windowed == [TrainConfig.look_back]

    def test_no_hyperparameter_flag_has_a_default(self):
        args = cli._PARSER.parse_args(["train", "c.csv"])
        hyper = [f.name for f in fields(TrainConfig) if f.name != "seed"]
        assert {name: getattr(args, name) for name in hyper} == dict.fromkeys(hyper)

    def test_training_flags_beside_config_exit_4(self, synth_dir, tmp_path, capsys):
        """A flag that the file would override is refused, not dropped."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "lstm_layers": 2}))
        out = tmp_path / "out"
        assert main(["train", *curve_paths(synth_dir, (10, 15, 20)), "--dt", "2",
                     "--config", str(cfg), "--epochs", "3", "--look-back", "10",
                     "--seed", "4", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and "--epochs, --look-back" in err
        assert "--seed" not in err
        assert not out.exists()


def titles(svg_path):
    """The text of every <text> element of an SVG; parsing fails on bad XML."""
    root = ElementTree.parse(svg_path).getroot()
    return [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]


def test_markup_in_sample_id_is_escaped_in_svgs(synth_dir, trained, tmp_path):
    sample_id = "DS <75%> & SCG"
    paths = []
    for beta in (10, 15, 20):
        source = Path(curve_paths(synth_dir, (beta,))[0])
        path = tmp_path / source.name
        path.write_bytes(source.read_bytes())
        doc = json.loads(source.with_suffix(".json").read_text())
        path.with_suffix(".json").write_text(json.dumps({**doc, "sample_id": sample_id}))
        paths.append(str(path))
    assert main(["analyze", *paths, "--format", "svg", "--out-dir",
                 str(tmp_path / "kin")]) == 0
    assert f"Ea vs conversion: {sample_id}" in titles(tmp_path / "kin" / "ea_vs_alpha.svg")
    assert main(["predict", paths[1], "--model", str(trained / "model.json"),
                 "--dt", "4.0", "--out-dir", str(tmp_path / "pred")]) == 0
    assert (f"mass-loss prediction: {sample_id}@15"
            in titles(tmp_path / "pred" / "predictions.svg"))


class TestTrainPredictEvaluate:
    def test_train_writes_bundle(self, trained):
        assert (trained / "model.json").exists()
        history = (trained / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) >= 2

    def test_predict_writes_overlay(self, synth_dir, trained, tmp_path, capsys):
        rc = main(
            ["predict", curve_paths(synth_dir, (15,))[0], "--model",
             str(trained / "model.json"), "--dt", "4.0", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        svg = (tmp_path / "predictions.svg").read_text()
        assert ">actual</text>" in svg and ">predicted</text>" in svg
        assert (tmp_path / "predictions.csv").exists()

    def test_evaluate_model_on_curves(self, synth_dir, trained, tmp_path, capsys):
        rc = main(
            ["evaluate", curve_paths(synth_dir, (15,))[0], "--model",
             str(trained / "model.json"), "--dt", "4.0", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "R^2" in capsys.readouterr().out

    def test_evaluate_perfect_predictions_prints_r2_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        temps = [100.0, 200.0, 300.0]
        actual = [95.0, 60.0, 30.0]
        pred.write_text(predictions_to_csv(temps, actual, actual))
        rc = main(["evaluate", "--predictions", str(pred), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "R^2  = 1.0000" in capsys.readouterr().out

    def test_evaluate_without_inputs_exits_2(self, tmp_path):
        assert main(["evaluate", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("extra", [["--model", "MODEL", "CURVE"], ["--model", "MODEL"],
                                       ["CURVE"], ["--dt", "4.0"]])
    def test_evaluate_predictions_beside_other_inputs_exits_2(self, synth_dir, trained,
                                                              tmp_path, capsys, extra):
        """A predictions file is scored alone: a model, curves or a step
        beside it are named and refused, not ignored."""
        pred = tmp_path / "pred.csv"
        pred.write_text(predictions_to_csv([100.0, 200.0], [95.0, 60.0], [94.0, 61.0]))
        inputs = {"MODEL": str(trained / "model.json"), "CURVE": curve_paths(synth_dir, (15,))[0]}
        extra = [inputs.get(arg, arg) for arg in extra]
        out = tmp_path / "out"
        assert main(["evaluate", "--predictions", str(pred), *extra,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--predictions is scored alone" in err
        assert all(arg in err for arg in extra if arg != "4.0")
        assert not out.exists()

    def test_look_back_past_every_curve_exits_2(self, synth_dir, tmp_path, capsys):
        # at --dt 6 each fixture curve has 101 rows
        out = tmp_path / "out"
        rc = main(["train", *curve_paths(synth_dir, (5, 10, 15)), "--dt", "6.0",
                   "--look-back", "101", "--epochs", "1", "--hidden", "4",
                   "--out-dir", str(out)])
        assert rc == 2
        assert "no windows" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["features", "CURVES"],
    ["train", "CURVES", "--epochs", "1", "--hidden", "4", "--look-back", "5"],
    ["tune", "CURVES", "--trials", "1", "--look-back", "5", "--epochs-choices", "1",
     "--hidden-choices", "4"],
    ["predict", "CURVE", "--model", "MODEL"],
    ["evaluate", "CURVES", "--model", "MODEL"],
], ids=lambda argv: argv[0])
def test_zero_resampling_step_exits_2(synth_dir, trained, tmp_path, capsys, argv):
    """--dt 0 is a step, not the absence of one: it exits 2 as on analyze."""
    inputs = {"CURVES": curve_paths(synth_dir, (5, 10, 15)),
              "CURVE": curve_paths(synth_dir, (15,)),
              "MODEL": [str(trained / "model.json")]}
    argv = [a for arg in argv for a in inputs.get(arg, [arg])]
    out = tmp_path / "out"
    assert main([*argv, "--dt", "0", "--out-dir", str(out)]) == 2
    assert "dT must be positive" in capsys.readouterr().err
    assert not out.exists()


def _edited(edit):
    """A checkpoint mutation that applies ``edit`` to the parsed document."""
    def mutate(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return mutate


def _payload(key, edit):
    """A format_version 2 mutation that re-encodes weight ``key`` after
    applying ``edit`` to its float64 bytes."""
    def apply(doc):
        raw = base64.b64decode(doc["weights"][key])
        doc["weights"][key] = base64.b64encode(edit(raw)).decode("ascii")
    return _edited(apply)


def _weight_text(key, edit):
    """A mutation that applies ``edit`` to the stored value of weight ``key``."""
    return _edited(lambda doc: doc["weights"].update({key: edit(doc["weights"][key])}))


# mutations of a format_version 1 text, as tests/reference_checkpoint.py writes it
BAD_CHECKPOINTS = {
    "version-only": lambda text: '{"format_version": 1}',
    "version-true": _edited(lambda doc: doc.update(format_version=True)),
    "not-json": lambda text: text[: len(text) // 2],
    "json-list": lambda text: "[1, 2]",
    **{f"no-{key}": _edited(lambda doc, key=key: doc.pop(key))
       for key in ("config", "scaler", "weights", "feature_mode", "feature_count")},
    "unknown-config-field": _edited(lambda doc: doc["config"].update(bogus=1)),
    "mode-count-mismatch": _edited(lambda doc: doc.update(feature_mode="model1")),
    "short-weight-row": _edited(lambda doc: doc["weights"]["l0.Wi"].pop()),
    "wide-bias": _edited(lambda doc: doc["weights"]["l0.bf"].append(0.0)),
    "text-weight": _edited(lambda doc: doc["weights"].update({"dense.b": ["x"]})),
    "null-weight": _edited(lambda doc: doc["weights"].update({"dense.b": [None]})),
    "missing-weight": _edited(lambda doc: doc["weights"].pop("l0.Ug")),
    "extra-weight": _edited(lambda doc: doc["weights"].update({"l1.Wi": [[0.0]]})),
    "short-scaler": _edited(lambda doc: doc["scaler"]["feature_min"].pop()),
    "scaler-no-target": _edited(lambda doc: doc["scaler"].pop("target_min")),
    "float-hidden-units": _edited(
        lambda doc: doc["config"].update(hidden_units=float(doc["config"]["hidden_units"]))),
    "negative-learning-rate": _edited(lambda doc: doc["config"].update(learning_rate=-0.01)),
    "nan-learning-rate": _edited(
        lambda doc: doc["config"].update(learning_rate=float("nan"))),
    "huge-layer-count": _edited(lambda doc: doc["config"].update(lstm_layers=10**12)),
    "overflowing-weight": _edited(lambda doc: doc["weights"].update({"dense.b": [10**400]})),
    # base64 of the float64 1.0: a version 2 payload in a version 1 file
    "v1-base64-weight": _edited(lambda doc: doc["weights"].update({"dense.b": "AAAAAAAA8D8="})),
}

# mutations of the format_version 2 text that train writes
BAD_V2_CHECKPOINTS = {
    "over-long-integer": lambda text: text.replace(
        f'"format_version": {CHECKPOINT_VERSION}',
        f'"format_version": {CHECKPOINT_VERSION}' + "0" * 5000),
    "version-float": _edited(lambda doc: doc.update(format_version=float(CHECKPOINT_VERSION))),
    "v2-8-bytes-short": _payload("l0.Wi", lambda raw: raw[:-8]),
    "v2-8-bytes-long": _payload("l0.Wi", lambda raw: raw + raw[:8]),
    "v2-nan-payload": _payload("l0.Ug", lambda raw: raw[:-8] + np.array([np.nan]).tobytes()),
    "v2-inf-payload": _payload("dense.b", lambda raw: np.array([-np.inf]).tobytes()),
    # inserted, so a decoder that skipped it would read the right byte count
    "v2-non-alphabet": _weight_text("l0.Wi", lambda value: value[:4] + "*" + value[4:]),
    "v2-bad-padding": _weight_text("dense.b", lambda value: value.rstrip("=")),
    "v2-non-ascii": _weight_text("l0.Wi", lambda value: "\u00e9" + value[1:]),
    "v2-null-weight": _weight_text("dense.b", lambda value: None),
    # the same values as a version 1 list: the version, not the type, decides
    "v2-list-weight": _weight_text(
        "dense.w", lambda value: np.frombuffer(base64.b64decode(value), "<f8").tolist()),
}


class TestPredictRejectsBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS) + sorted(BAD_V2_CHECKPOINTS))
    def test_exits_2_without_traceback(self, synth_dir, trained, tmp_path, capsys, case):
        text = (trained / "model.json").read_text()
        if case in BAD_CHECKPOINTS:
            bad = BAD_CHECKPOINTS[case](save_model_v1(load_model(text)))
        else:
            bad = BAD_V2_CHECKPOINTS[case](text)
        assert bad != text
        model = tmp_path / "model.json"
        model.write_text(bad)
        rc = main(
            ["predict", curve_paths(synth_dir, (15,))[0], "--model", str(model),
             "--dt", "4.0", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_undecodable_bytes_exit_2(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "\xff\xfe": 0}')
        rc = main(
            ["predict", curve_paths(synth_dir, (15,))[0], "--model", str(model),
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "utf-8" in capsys.readouterr().err


class TestCheckpointVersions:
    def test_v1_file_loads_predicts_and_resaves_as_v2(self, synth_dir, trained, tmp_path):
        v2_text = (trained / "model.json").read_text()
        assert json.loads(v2_text)["format_version"] == CHECKPOINT_VERSION == 2
        model = load_model(v2_text)
        v1_text = save_model_v1(model)
        from_v1 = load_model(v1_text)
        assert from_v1.params.keys() == model.params.keys()
        for key, value in model.params.items():
            assert from_v1.params[key].dtype == value.dtype
            assert from_v1.params[key].tobytes() == value.tobytes(), key
        assert (from_v1.params.config, from_v1.feature_mode) == (model.params.config,
                                                                 model.feature_mode)
        resaved = save_model(from_v1)
        assert resaved == v2_text
        assert save_model(load_model(resaved)) == resaved
        predictions = []
        for name, text in (("v1", v1_text), ("v2", resaved)):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            rc = main(["predict", curve_paths(synth_dir, (15,))[0], "--model", str(path),
                       "--dt", "4.0", "--out-dir", str(tmp_path / name)])
            assert rc == 0
            predictions.append((tmp_path / name / "predictions.csv").read_bytes())
        assert predictions[0] == predictions[1]


class TestTuneCommand:
    def tune_args(self, synth_dir, out):
        return [
            "tune", *curve_paths(synth_dir, (5, 10, 20)), "--mode", "model1",
            "--dt", "6.0", "--look-back", "5", "--trials", "5", "--seed", "7",
            "--epochs-choices", "2", "--hidden-choices", "4,8",
            "--layers-choices", "1", "--batch-choices", "32",
            "--dropout-choices", "0.0", "--optimizers", "adam,sgd",
            "--activations", "tanh", "--out-dir", str(out),
        ]

    def test_leaderboard_deterministic_across_runs(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(self.tune_args(synth_dir, out1)) == 0
        assert main(self.tune_args(synth_dir, out2)) == 0
        b1 = (out1 / "leaderboard.csv").read_bytes()
        assert b1 == (out2 / "leaderboard.csv").read_bytes()
        assert len(b1.decode().strip().splitlines()) == 6
        assert (out1 / "best_config.json").read_bytes() == (
            out2 / "best_config.json"
        ).read_bytes()

    def test_best_config_is_valid_json(self, synth_dir, tmp_path):
        out = tmp_path / "t"
        assert main(self.tune_args(synth_dir, out)) == 0
        doc = json.loads((out / "best_config.json").read_text())
        assert doc["epochs"] == 2

    def test_best_config_feeds_train(self, synth_dir, tmp_path):
        tuned = tmp_path / "t"
        assert main(self.tune_args(synth_dir, tuned)) == 0
        out = tmp_path / "retrain"
        rc = main(
            ["train", *curve_paths(synth_dir, (5, 10, 20)), "--mode", "model1",
             "--dt", "6.0", "--config", str(tuned / "best_config.json"),
             "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "model.json").exists()

    def test_train_with_seed_retrains_the_best_trial(self, synth_dir, tmp_path):
        """With tune's curves, mode, --dt and --seed, train --config
        best_config.json splits as tune did and trains as the best trial
        did: the retrained best validation loss is the leaderboard's."""
        tuned, out = tmp_path / "t", tmp_path / "retrain"
        assert main(self.tune_args(synth_dir, tuned)) == 0
        assert main(["train", *curve_paths(synth_dir, (5, 10, 20)), "--mode", "model1",
                     "--dt", "6.0", "--config", str(tuned / "best_config.json"),
                     "--seed", "7", "--out-dir", str(out)]) == 0
        best_trial = (tuned / "leaderboard.csv").read_text().splitlines()[1].split(",")[2]
        history = (out / "history.csv").read_text().splitlines()[1:]
        retrained = min((row.split(",")[2] for row in history), key=float)
        assert retrained == best_trial

    @pytest.mark.parametrize("flag, value", [
        ("--activations", "tanh,bogus"),
        ("--batch-choices", "32,0"),
        ("--dropout-choices", "0.0,1.0"),
        ("--layers-choices", "1,0"),
    ])
    def test_catalogue_value_train_config_rejects_exits_4(self, synth_dir, tmp_path, capsys,
                                                         monkeypatch, flag, value):
        """Every catalogue value is checked before the first trial trains, not
        only the values a trial happens to draw: each seed's one trial would
        draw the valid value or the bad one, and neither trains."""
        def no_training(*args):
            raise AssertionError("a trial trained")
        monkeypatch.setattr("pyrokin.seqmodel.search.train", no_training)
        out = tmp_path / "out"
        for seed in range(4):
            argv = [*self.tune_args(synth_dir, out), "--trials", "1", "--seed", str(seed),
                    flag, value]
            assert main(argv) == 4
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_look_back_exits_4_before_reading_curves(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        for curves in (curve_paths(synth_dir, (5, 10, 20)), [str(tmp_path / "missing.csv")]):
            argv = ["tune", *curves, "--dt", "6.0", "--look-back", "0", "--trials", "1",
                    "--out-dir", str(out)]
            assert main(argv) == 4
            assert "look_back" in capsys.readouterr().err
            assert not out.exists()

    def test_malformed_config_file_exits_4(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(
            ["train", *curve_paths(synth_dir, (5, 10, 20)), "--dt", "6.0",
             "--config", str(bad), "--out-dir", str(tmp_path)]
        )
        assert rc == 4

    @pytest.mark.parametrize("content", [
        b'{"look_back": 1' + b"0" * 5000 + b"}",
        b"[" * 5000,
        b'{"look_back": "\xff"}',
    ], ids=["past-integer-digit-limit", "deep-nesting", "not-utf8"])
    def test_undecodable_config_file_exits_4(self, synth_dir, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = main(
            ["train", *curve_paths(synth_dir, (5, 10, 20)), "--dt", "6.0",
             "--config", str(bad), "--out-dir", str(tmp_path)]
        )
        assert rc == 4

    def test_float_look_back_in_config_exits_4(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"look_back": 20.0}))
        rc = main(
            ["train", *curve_paths(synth_dir, (5, 10, 20)), "--dt", "6.0",
             "--config", str(bad), "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "look_back" in capsys.readouterr().err


    def test_nan_learning_rate_in_config_exits_4(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": float("nan")}))
        rc = main(
            ["train", *curve_paths(synth_dir, (5, 10, 20)), "--dt", "6.0",
             "--config", str(bad), "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "learning_rate" in capsys.readouterr().err


class TestFlagScope:
    """--format belongs to analyze and thermo, --seed to train and tune."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "1"],
        ["predict", "curve.csv", "--model", "model.json", "--format", "svg"],
        ["massbalance", "--char", "27.74", "--seed", "1"],
        ["features", "curve.csv", "--format", "csv"],
    ])
    def test_flag_the_command_ignores_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


# a step whose grid over the fixtures' 600 K span holds MAX_GRID_POINTS + 1
# points: just over the limit, so a run that ignored it would still fit in memory
TOO_FINE = repr(600.0 / MAX_GRID_POINTS)

BAD_NUMBERS = [
    (["analyze", "CURVES", "--dt", TOO_FINE], 2),
    (["predict", "CURVE", "--model", "MODEL", "--dt", TOO_FINE], 2),
    (["synth", "--beta", "10", "--dt", TOO_FINE], 2),
    (["analyze", "CURVES", "--dt", "nan"], 2),
    (["analyze", "CURVES", "--order", "nan"], 2),
    (["analyze", "CURVES", "--order", "0"], 2),
    (["analyze", "CURVES", "--m0-at", "-inf"], 2),
    (["features", "CURVES", "--dt", "nan"], 2),
    (["synth", "--dt", "nan"], 2),
    (["synth", "--beta", "nan"], 2),
    (["synth", "--beta", "5,inf"], 2),
    (["synth", "--beta", "0"], 2),
    (["synth", "--preset", "blend", "--frac", "1.5"], 2),
    (["thermo", "--kinetics", "KINETICS", "--tm", "nan"], 2),
    (["train", "CURVES", "--lr", "inf"], 2),
    (["massbalance", "--char", "27.74", "--vm", "nan"], 2),
    (["analyze", "CURVES", "--alpha-grid", "nan:0.7:0.1"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0.1:inf:0.1"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0.1:0.7:1e-300"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0.1:0.7:0.005"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0.1:0.7:nan"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0:0.7:0.1"], 2),
    (["analyze", "CURVES", "--alpha-grid", "0.1:0.96:0.1"], 2),  # last level 1.0
    (["tune", "CURVES", "--lr-bounds", "0.01"], 4),
    (["tune", "CURVES", "--lr-bounds", "0.01,0.001"], 4),
    (["tune", "CURVES", "--batch-choices", ""], 4),
    (["tune", "CURVES", "--hidden-choices", "2.7"], 2),
    (["tune", "CURVES", "--lr-bounds", "0.001,nan"], 2),
    (["tune", "CURVES", "--trials", "0"], 4),
    *((["thermo", "--kinetics", "KINETICS", "--curve", "CURVE", "--stage-windows",
        f"hemicellulose:{window}"], 2)
      for window in ("-inf:inf", "200:1e400", "nan:325", "225", "325:225")),
]


class TestRejectsBadNumbers:
    """Every malformed number ends in its exit code, never a traceback."""

    @pytest.mark.parametrize("argv, code", BAD_NUMBERS,
                             ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in BAD_NUMBERS])
    def test_exit_code(self, synth_dir, tmp_path, capsys, request, argv, code):
        if "KINETICS" in argv:
            assert main(["analyze", *curve_paths(synth_dir), "--format", "csv",
                         "--out-dir", str(tmp_path)]) == 0
        inputs = {"CURVES": curve_paths(synth_dir),
                  "CURVE": curve_paths(synth_dir, (15,)),
                  "KINETICS": [str(tmp_path / "kinetics.csv")]}
        if "MODEL" in argv:
            inputs["MODEL"] = [str(request.getfixturevalue("trained") / "model.json")]
        argv = [a for arg in argv for a in inputs.get(arg, [arg])]
        if argv[0] == "tune":
            argv += ["--dt", "6.0", "--look-back", "5"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert exit_code([*argv, "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error" in err
        assert not out.exists() or not list(out.iterdir())  # nothing written


# Each file a command reads, as its argv with BAD where that file goes. A curve
# row also covers the curve's sidecar, which is found next to BAD.
READS = [
    (["analyze", "BAD", "CURVE10", "CURVE15"], ("curve", "sidecar")),
    (["thermo", "--kinetics", "BAD", "--tm", "625.0"], ("kinetics",)),
    (["thermo", "--kinetics", "KINETICS", "--curve", "BAD"], ("curve", "sidecar")),
    (["features", "BAD"], ("curve", "sidecar")),
    (["train", "BAD", "CURVE10", "CURVE15", "--dt", "6.0"], ("curve", "sidecar")),
    (["train", "CURVE10", "CURVE15", "CURVE20", "--dt", "6.0", "--config", "BAD"],
     ("config",)),
    (["tune", "BAD", "CURVE10", "CURVE15", "--dt", "6.0"], ("curve", "sidecar")),
    (["predict", "BAD", "--model", "MODEL"], ("curve", "sidecar")),
    (["predict", "CURVE15", "--model", "BAD"], ("model",)),
    (["evaluate", "BAD", "--model", "MODEL"], ("curve", "sidecar")),
    (["evaluate", "CURVE15", "--model", "BAD"], ("model",)),
    (["evaluate", "--predictions", "BAD"], ("predictions",)),
]
# A sidecar's path follows from its curve's, so it has no under-a-file form of
# its own. Every row exits 2 except undecodable --config bytes, a config error.
BAD_PATHS = [
    (argv, role, form, 4 if (role, form) == ("config", "not-utf8") else 2)
    for argv, roles in READS for role in roles
    for form in ("directory", "under-a-file", "not-utf8")
    if (role, form) != ("sidecar", "under-a-file")
]


def unreadable(tmp_path, synth_dir, role, form):
    """Make the file for ``role`` unreadable in ``form``.

    Returns the path that goes on the command line and the path of the file
    that cannot be read, which differ for a sidecar.
    """
    name = "bad.csv" if role in ("curve", "sidecar") else "bad"
    if form == "under-a-file":
        (tmp_path / "afile").write_text("a regular file\n")
        path = tmp_path / "afile" / name
        return path, path
    path = tmp_path / name
    if role in ("curve", "sidecar"):
        good = synth_dir / "single-step_beta5.csv"
        path.write_bytes(good.read_bytes())
        path.with_suffix(".json").write_bytes(good.with_suffix(".json").read_bytes())
    target = path.with_suffix(".json") if role == "sidecar" else path
    target.unlink(missing_ok=True)
    if form == "directory":
        target.mkdir()
    else:
        target.write_bytes(b"\xff\xfe not utf-8\n")
    return path, target


def assert_refused(capsys, code, argv, named, out):
    """``argv`` exits ``code`` with no traceback, names ``named`` in its
    message and writes nothing into ``out``."""
    capsys.readouterr()
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error" in err
    assert str(named) in err
    assert not out.exists() or not list(out.iterdir())


class TestRejectsBadPaths:
    """A file a command cannot read or write exits 2 and its message names it."""

    @pytest.mark.parametrize("argv, role, form, code", BAD_PATHS,
                             ids=[f"{argv[0]}-{role}-{form}" for argv, role, form, _ in BAD_PATHS])
    def test_unreadable_input(self, synth_dir, tmp_path, capsys, request,
                              argv, role, form, code):
        inputs = {f"CURVE{b}": curve_paths(synth_dir, (b,))[0] for b in (10, 15, 20)}
        if "MODEL" in argv:
            inputs["MODEL"] = str(request.getfixturevalue("trained") / "model.json")
        if "KINETICS" in argv:
            inputs["KINETICS"] = str(request.getfixturevalue("kinetics_csv"))
        inputs["BAD"], named = unreadable(tmp_path, synth_dir, role, form)
        out = tmp_path / "out"
        argv = [str(inputs.get(arg, arg)) for arg in argv]
        assert_refused(capsys, code, [*argv, "--out-dir", str(out)], named, out)

    @pytest.mark.parametrize("form", ["existing-file", "under-a-file", "name-too-long"])
    @pytest.mark.parametrize("command", ["analyze", "synth"])
    def test_unwritable_out_dir(self, synth_dir, tmp_path, capsys, command, form):
        afile = tmp_path / "afile"
        afile.write_text("a regular file\n")
        out = {"existing-file": afile, "under-a-file": afile / "out",
               "name-too-long": tmp_path / ("x" * 300)}[form]
        argv = ["analyze", *curve_paths(synth_dir)] if command == "analyze" else ["synth"]
        assert_refused(capsys, 2, [*argv, "--out-dir", str(out)], out, tmp_path / "none")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert afile.read_text() == "a regular file\n"


# Each command that writes files: a run that succeeds, with the placeholders
# of READS, and its bundle in write order, manifest.json left out.
TUNE_SPACE = ["--trials", "1", "--epochs-choices", "1", "--hidden-choices", "4",
              "--layers-choices", "1", "--batch-choices", "32", "--dropout-choices", "0.0",
              "--optimizers", "adam", "--activations", "tanh"]
BUNDLES = {
    "analyze": (["analyze", "CURVE10", "CURVE15", "CURVE20", "--format", "svg"],
                ["kinetics.csv", "kinetics.txt", "ea_vs_alpha.csv", "ea_vs_alpha.svg"]),
    "thermo": (["thermo", "--kinetics", "KINETICS", "--tm", "625.0", "--format", "svg"],
               ["thermo.csv", "thermo_dh.svg", "thermo_dg.svg", "thermo_ds.svg"]),
    "synth": (["synth", "--beta", "5,10", "--dt", "1.0"],
              ["single-step_beta5.csv", "single-step_beta5.json", "single-step_beta10.csv",
               "single-step_beta10.json", "single-step_model.json"]),
    "features": (["features", "CURVE10", "--dt", "6.0"], ["features.csv"]),
    "train": (["train", "CURVE10", "CURVE15", "CURVE20", "--dt", "6.0", "--look-back", "5",
               "--epochs", "1", "--hidden", "4"], ["model.json", "history.csv"]),
    "tune": (["tune", "CURVE10", "CURVE15", "CURVE20", "--dt", "6.0", "--look-back", "5",
              *TUNE_SPACE], ["leaderboard.csv", "best_config.json"]),
    "predict": (["predict", "CURVE15", "--model", "MODEL", "--dt", "4.0"],
                ["predictions.csv", "predictions.svg"]),
    "evaluate": (["evaluate", "CURVE15", "--model", "MODEL", "--dt", "4.0"],
                 ["metrics.csv", "metrics.txt"]),
}


def bundle_argv(request, synth_dir, command, out):
    """The argv of ``command``'s BUNDLES run, writing into ``out``."""
    argv, _ = BUNDLES[command]
    inputs = {f"CURVE{b}": curve_paths(synth_dir, (b,))[0] for b in (10, 15, 20)}
    if "MODEL" in argv:
        inputs["MODEL"] = str(request.getfixturevalue("trained") / "model.json")
    if "KINETICS" in argv:
        inputs["KINETICS"] = str(request.getfixturevalue("kinetics_csv"))
    return [*(inputs.get(arg, arg) for arg in argv), "--out-dir", str(out)]


def write_spy(monkeypatch, fail_at=None):
    """Record the file name of every ``Path.write_text`` call, in order; the
    call numbered ``fail_at`` raises OSError instead of writing."""
    real, names = Path.write_text, []

    def spy(path, *args, **kwargs):
        names.append(path.name)
        if len(names) == fail_at:
            raise OSError(f"injected fault writing {path}")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", spy)
    return names


@pytest.mark.parametrize("command", BUNDLES)
class TestBundle:
    """A command's files reach disk in one bundle: the manifest is written
    last, and a run that fails to write leaves none of its files."""

    def test_manifest_is_written_last(self, request, synth_dir, tmp_path, monkeypatch,
                                      command):
        out = tmp_path / "out"
        argv = bundle_argv(request, synth_dir, command, out)
        writes = write_spy(monkeypatch)
        assert exit_code(argv) == 0
        names = BUNDLES[command][1]
        assert writes == [*names, "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])

    def test_squatted_last_output_leaves_no_bundle(self, request, synth_dir, tmp_path,
                                                   capsys, command):
        out = tmp_path / "out"
        squatter = out / BUNDLES[command][1][-1]
        squatter.mkdir(parents=True)
        argv = bundle_argv(request, synth_dir, command, out)
        capsys.readouterr()
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(squatter) in err
        assert list(out.iterdir()) == [squatter]

    def test_failed_run_removes_a_stale_manifest(self, request, synth_dir, tmp_path,
                                                 command):
        out = tmp_path / "out"
        (out / BUNDLES[command][1][-1]).mkdir(parents=True)
        (out / "manifest.json").write_text('{"command": "an earlier run"}\n')
        assert exit_code(bundle_argv(request, synth_dir, command, out)) == 2
        assert not (out / "manifest.json").exists()

    def test_fault_at_second_write_leaves_no_bundle(self, request, synth_dir, tmp_path,
                                                    capsys, monkeypatch, command):
        out = tmp_path / "out"
        argv = bundle_argv(request, synth_dir, command, out)
        write_spy(monkeypatch, fail_at=2)
        capsys.readouterr()
        assert exit_code(argv) == 2
        assert "injected fault" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestCurveIdContract:
    """Curve ids go into features.csv cells and --holdout's comma list."""

    @pytest.mark.parametrize("command", ["features", "train"])
    def test_curve_id_with_a_comma_exits_2(self, request, synth_dir, tmp_path, capsys,
                                           command):
        source = synth_dir / "single-step_beta5.csv"
        path = tmp_path / "blend.csv"
        path.write_bytes(source.read_bytes())
        doc = json.loads(source.with_suffix(".json").read_text())
        doc["sample_id"] = "DS 75%, SCG 25%"
        path.with_suffix(".json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = bundle_argv(request, synth_dir, command, out)
        argv.insert(1, str(path))
        assert_refused(capsys, 2, argv, "DS 75%, SCG 25%", out)

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_unknown_holdout_id_exits_2(self, request, synth_dir, tmp_path, capsys,
                                        command):
        out = tmp_path / "out"
        argv = [*bundle_argv(request, synth_dir, command, out), "--holdout", "DS@10,nosuch@10"]
        assert_refused(capsys, 2, argv, "nosuch@10", out)


@pytest.fixture(scope="module")
def kinetics_csv(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("kinetics")
    assert main(["analyze", *curve_paths(synth_dir), "--format", "csv",
                 "--out-dir", str(out)]) == 0
    return out / "kinetics.csv"


FIELDS = st.one_of(st.floats().map(repr), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=30),
                      st.lists(FIELDS, min_size=1, max_size=4).map(":".join),
                      st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 0.5))
                      .map(lambda t: "%r:%r:%r" % t)))
@example(text="3.364006594571162e-130:0.5:0.5")  # start rounds to level 0.0
def test_alpha_grid_is_bounded_or_rejected(text):
    try:
        grid = _parse_alpha_grid(text)
    except argparse.ArgumentTypeError:
        return
    assert 0.0 < grid[0] and grid[-1] < 1.0 and len(grid) <= 101
    assert all(a < b for a, b in zip(grid, grid[1:]))


class TestParserReuse:
    """The parser is built once per process; main() only parses and dispatches."""

    @staticmethod
    def outputs(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                if p.name != "manifest.json"}

    def test_earlier_flags_do_not_leak_into_a_later_call(self, synth_dir, tmp_path):
        curves = curve_paths(synth_dir)
        assert main(["analyze", *curves, "--format", "svg", "--order", "1.5",
                     "--out-dir", str(tmp_path / "svg")]) == 0
        assert main(["analyze", *curves, "--out-dir", str(tmp_path / "plain")]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-m", "pyrokin.cli", "analyze", *curves,
             "--out-dir", str(tmp_path / "fresh")], capture_output=True, text=True, env=env)
        assert fresh.returncode == 0, fresh.stderr
        plain = self.outputs(tmp_path / "plain")
        assert sorted(plain) == ["ea_vs_alpha.csv", "kinetics.csv", "kinetics.txt"]
        assert plain == self.outputs(tmp_path / "fresh")

    def test_valid_call_after_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["massbalance", "--char", "not-a-number"])
        assert exc.value.code == 2
        assert main(["massbalance", "--char", "27.74"]) == 0
        assert "vm_pct = 72.26" in capsys.readouterr().out

    def test_main_does_not_build_a_parser(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("main() rebuilt the parser")
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(["massbalance", "--char", "27.74"]) == 0
        assert "vm_pct = 72.26" in capsys.readouterr().out


class TestLstmImportBoundary:
    """The kinetic commands never load the LSTM package; the model commands do."""

    def test_activation_and_optimizer_choices_are_the_catalogues(self):
        from pyrokin.seqmodel.lstm import ACTIVATIONS
        from pyrokin.seqmodel.training import OPTIMIZERS

        [commands] = [a for a in cli._PARSER._actions
                      if isinstance(a, argparse._SubParsersAction)]
        choices = {a.dest: a.choices for a in commands.choices["train"]._actions}
        assert choices["activation"] == tuple(ACTIVATIONS)
        assert choices["optimizer"] == tuple(OPTIMIZERS)

    def test_kinetic_commands_do_not_import_seqmodel(self, synth_dir, tmp_path):
        script = """
import sys
from pyrokin.cli import main

curves, out = sys.argv[1:4], sys.argv[4]

def loaded():
    return sorted(m for m in sys.modules if m.startswith("pyrokin.seqmodel"))

assert loaded() == [], loaded()
for argv in (["synth", "--beta", "10", "--out-dir", out + "/synth"],
             ["analyze", *curves, "--format", "svg", "--out-dir", out + "/analyze"],
             ["thermo", "--kinetics", out + "/analyze/kinetics.csv", "--curve", curves[0],
              "--out-dir", out + "/thermo"],
             ["massbalance", "--char", "20", "--out-dir", out]):
    assert main(argv) == 0, argv
assert loaded() == [], loaded()
assert main(["features", curves[0], "--out-dir", out + "/features"]) == 0
assert "pyrokin.seqmodel" in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", script, *curve_paths(synth_dir, (5, 10, 20)),
             str(tmp_path)], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "thermo" / "thermo.csv").exists()
        assert (tmp_path / "features" / "features.csv").exists()


class TestMallocThresholds:
    """main() keeps a training step's freed cache mapped, where the C library lets it."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_a_repeated_train_stays_within_a_fault_budget(self, synth_dir, tmp_path):
        # under glibc's start thresholds each step's freed cache is unmapped or
        # trimmed, and the rerun faulted about 750 pages back in; kept mapped,
        # it takes about 55 (Python 3.11, numpy 2.4)
        script = """
import resource, sys
from pyrokin.cli import main

argv = ["train", *sys.argv[1:4], "--layers", "2", "--dropout", "0.2", "--epochs", "2",
        "--hidden", "8", "--dt", "2", "--out-dir", sys.argv[4]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", script, *curve_paths(synth_dir, (5, 10, 15)),
             str(tmp_path)], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout.split()[-1]) < 200

    @pytest.mark.parametrize("cdll", ["no-mallopt", "no-library"])
    def test_without_mallopt_main_runs_unchanged(self, monkeypatch, tmp_path, cdll):
        outputs = TestParserReuse.outputs
        opened = []

        def fake_cdll(name, *args, **kwargs):
            opened.append(name)
            if cdll == "no-library":
                raise OSError("no C library handle")
            return object()

        argv = ["synth", "--beta", "10", "--dt", "1", "--out-dir"]
        assert main([*argv, str(tmp_path / "plain")]) == 0
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert main([*argv, str(tmp_path / "patched")]) == 0
        assert opened == [None]
        assert outputs(tmp_path / "patched") == outputs(tmp_path / "plain") != {}


class TestManifest:
    def test_manifest_fields(self, synth_dir, tmp_path):
        assert main(["analyze", *curve_paths(synth_dir), "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"] == "analyze"
        assert len(doc["inputs"]) == 4
        assert len(doc["config_digest"]) == 64
        assert "timestamp" in doc and "version" in doc

    @pytest.mark.parametrize("command", ["thermo", "predict"])
    def test_config_digest_ignores_input_directories(self, request, synth_dir, tmp_path,
                                                     command):
        argv = bundle_argv(request, synth_dir, command, tmp_path / "unused")[:-2]
        digests = set()
        for where in ("a", "b/c"):
            copies = tmp_path / where
            copies.mkdir(parents=True)
            moved = []
            for arg in argv:
                source = Path(arg)
                if not source.is_file():
                    moved.append(arg)
                    continue
                for path in (source, source.with_suffix(".json")):
                    if path.is_file():
                        (copies / path.name).write_bytes(path.read_bytes())
                moved.append(str(copies / source.name))
            out = tmp_path / f"out-{where.replace('/', '-')}"
            assert main([*moved, "--out-dir", str(out)]) == 0
            digests.add(json.loads((out / "manifest.json").read_text())["config_digest"])
        assert len(digests) == 1

    def test_out_dir_env_default(self, synth_dir, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PYROKIN_OUT", str(target))
        assert main(["massbalance", "--char", "10"]) == 0  # writes nothing
        assert main(["analyze", *curve_paths(synth_dir)]) == 0
        assert (target / "kinetics.csv").exists()
