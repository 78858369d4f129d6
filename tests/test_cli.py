"""Command line driver: CSV schemas, exit codes, determinism across thread counts."""

import ast
import csv
import functools
import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from metabcrb import (McEstimate, SubcarrierGrid, bcrb_closed_form,
                      default_scenario, load_scenario, select_subcarriers)
import metabcrb.expectations as expectations
from metabcrb.cli import _apply_axis, _fmt, _sweep_values, build_parser, main
from metabcrb.config import apply_override, parse_config, scenario_from_settings

BASE_CFG = """
sensor.depth = 0.9
sensor.half_width = 1.0
sensor.shift_rate = 1.0
prior.mean = 0.0
prior.std = 1.0
channel.kappa = 1.0
noise.snr_db = 20.0
grid.center = 0.0
grid.spacing = 0.4
grid.count = 16
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------- sweep

def test_sweep_values_axis_and_schema(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--config", cfg, "--out", out,
               "--axis", "snr_db", "--values", "0,10,20"])
    assert rc == 0
    rows = _rows(out)
    assert [r["axis_value"] for r in rows] == [f"{v:.16e}" for v in (0.0, 10.0, 20.0)]
    assert rows[0]["curve_label"] == "base"
    sc = load_scenario(BASE_CFG)
    from metabcrb import snr_to_noise
    want = bcrb_closed_form(sc.with_noise(snr_to_noise(10.0)))
    assert float(rows[1]["bcrb"]) == want.bound
    assert float(rows[1]["first_term"]) == want.first_term
    assert float(rows[1]["coupling_term"]) == want.coupling_term


def test_sweep_fwhm_axis_sets_half_width(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "fwhm", "--values", "3.0"]) == 0
    row = _rows(out)[0]
    import dataclasses
    sc = load_scenario(BASE_CFG)
    sc = dataclasses.replace(sc, sensor=dataclasses.replace(sc.sensor, half_width=1.5))
    assert float(row["bcrb"]) == bcrb_closed_form(sc).bound


def test_sweep_range_and_curves(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--config", cfg, "--out", out, "--axis", "kappa",
               "--start", "1", "--stop", "100", "--points", "3", "--log",
               "--curve", "noise.snr_db=0.0", "--curve", "noise.snr_db=30.0"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 6
    labels = {r["curve_label"] for r in rows}
    assert labels == {"noise.snr_db=0.0", "noise.snr_db=30.0"}
    vals = sorted({float(r["axis_value"]) for r in rows})
    np.testing.assert_allclose(vals, [1.0, 10.0, 100.0], rtol=1e-12)


def test_sweep_subcarrier_count_axis(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "subcarrier_count", "--values", "1,4,64"]) == 0
    bounds = [float(r["bcrb"]) for r in _rows(out)]
    assert bounds[0] > bounds[1] > bounds[2]


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("2.5", "2.5"), ("0", "0.0")])
def test_sweep_non_whole_subcarrier_count_is_a_config_error(cfg, tmp_path, capsys, value, shown):
    # SubcarrierGrid.uniform's whole-number rule serves the axis
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "subcarrier_count", "--values", value]) == 1
    assert capsys.readouterr().err == f"config error: count must be a whole number >= 1, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("count, command", [
    ("16", ["sweep", "--axis", "subcarrier_count", "--values", "1e14"]),
    ("1e14", ["sweep", "--axis", "snr_db", "--values", "10"]),
    ("1e14", ["select", "--budget", "2"]),
    ("1e14", ["validate"]),
], ids=["sweep-axis", "sweep-config", "select", "validate"])
def test_grid_too_large_for_memory_exits_1_with_one_line(tmp_path, capsys, count, command):
    # 1e14 tones ask for 728 TiB, past any user address space, so numpy's allocation
    # fails at once; it once ended each command in a traceback
    path, out = tmp_path / "big.cfg", tmp_path / "big.csv"
    path.write_text(BASE_CFG.replace("grid.count = 16", f"grid.count = {count}"))
    assert main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: Unable to allocate .+\n", err), err
    assert not out.exists()


def test_sweep_set_override(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "depth",
                 "--values", "0.5", "--set", "channel.kappa=0.0"]) == 0
    row = _rows(out)[0]
    assert float(row["coupling_term"]) == 0.0


def test_whole_float_grid_count_override_runs_that_many_tones(cfg, tmp_path, capsys):
    # --set grid.count takes the sweep axis's whole-number rule
    csvs = []
    for count in ("1e2", "100"):
        out = tmp_path / f"count-{count}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "snr_db",
                     "--values", "10", "--set", f"grid.count={count}"]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    for count, shown in (("2.5", "2.5"), ("nan", "nan"), ("inf", "inf"), ("0", "0.0")):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "bad.csv"), "--axis", "snr_db",
                     "--values", "10", "--set", f"grid.count={count}"]) == 1
        assert capsys.readouterr().err == ("config error: bad value for 'grid.count': "
                                           f"count must be a whole number >= 1, got {shown}\n")


def test_sweep_usage_errors_exit_1(cfg, tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["sweep", "--config", cfg, "--out", out, "--axis", "depth"]
    assert main(base + ["--values", "0.5", "--points", "3"]) == 1
    assert main(base + ["--start", "0.1"]) == 1
    assert main(base + ["--start", "0.1", "--stop", "1.0", "--points", "1"]) == 1
    assert main(base + ["--start", "-1", "--stop", "1", "--points", "3", "--log"]) == 1
    assert main(base + ["--values", "0.5", "--log"]) == 1  # --log spaces only --start/--stop
    assert main(base + ["--values", "0.5", "--set", "bogus.key=1"]) == 1
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "subcarrier_count", "--values", "2.5"]) == 1


def test_sweep_values_list_may_start_negative(cfg, tmp_path, capsys):
    # "--values -10,0,10" is the list, as "--values=-10,0,10" is; a word after --values
    # that starts with "-" and no digit is still an option, so the list is missing
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    base = ["sweep", "--config", cfg, "--axis", "snr_db"]
    assert main(base + ["--out", str(spaced), "--values", "-10,0,10"]) == 0
    assert main(base + ["--out", str(joined), "--values=-10,0,10"]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert [float(r["axis_value"]) for r in _rows(spaced)] == [-10.0, 0.0, 10.0]
    assert main(base + ["--out", str(spaced), "--values", "-.5,1e1"]) == 0
    assert [float(r["axis_value"]) for r in _rows(spaced)] == [-0.5, 10.0]
    capsys.readouterr()
    assert main(base + ["--out", str(spaced), "--values", "--log"]) == 1
    assert "argument --values: expected one argument" in capsys.readouterr().err


def test_sweep_empty_values_list_exits_1(cfg, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "depth",
                 "--values", ","]) == 1
    assert capsys.readouterr().err == "config error: sweep needs at least one value\n"
    assert not out.exists()


def test_sweep_is_deterministic_across_thread_counts(cfg, tmp_path, monkeypatch):
    args = ["sweep", "--config", cfg, "--out", "", "--axis", "snr_db",
            "--start", "-5", "--stop", "25", "--points", "7",
            "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=4.0"]
    outputs = []
    for threads in (1, 4):
        out = str(tmp_path / f"sweep_{threads}.csv")
        args[4] = out
        monkeypatch.setattr(expectations, "_worker_count", lambda: threads)
        assert main(args) == 0
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


def _per_point_csv(argv):
    """The sweep CSV as one closed form per point writes it, kept as the reference."""
    args = build_parser().parse_args(argv)
    settings = parse_config(open(args.config).read())
    curves = [(spec, functools.reduce(apply_override, spec.split(","), settings))
              for spec in args.curve or []] or [("base", settings)]
    lines = ["axis,curve_label,axis_value,bcrb,first_term,prior_term,coupling_term"]
    for label, cur in curves:
        for value in _sweep_values(args):
            res = bcrb_closed_form(scenario_from_settings(_apply_axis(cur, args.axis, value)))
            lines.append(",".join([args.axis, label] + [_fmt(v) for v in (
                value, res.bound, res.first_term, res.prior_term, res.coupling_term)]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("axis_args", [
    ["--axis", "snr_db", "--start", "-10", "--stop", "30", "--points", "9",
     "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=1.0",
     "--curve", "channel.kappa=5.0"],
    ["--axis", "depth", "--start", "0.1", "--stop", "1.0", "--points", "7",
     "--curve", "channel.kappa=2.0", "--curve", "channel.los=true"],
    ["--axis", "kappa", "--start", "0", "--stop", "20", "--points", "5"],
    ["--axis", "fwhm", "--log", "--start", "0.004", "--stop", "400", "--points", "9"],
], ids=["snr_db", "depth", "kappa", "fwhm"])
def test_sweep_table_matches_per_point_closed_form(cfg, tmp_path, axis_args):
    out = str(tmp_path / "sweep.csv")
    argv = ["sweep", "--config", cfg, "--out", out] + axis_args
    assert main(argv) == 0
    assert open(out, "rb").read() == _per_point_csv(argv)


def test_sweep_kernel_table_lasts_one_command(cfg, tmp_path, monkeypatch):
    import metabcrb.expectations as expectations_mod
    calls = []
    original = expectations_mod.kernel_means

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(expectations_mod, "kernel_means", counted)
    out = str(tmp_path / "sweep.csv")
    snr = ["sweep", "--config", cfg, "--out", out, "--axis", "snr_db",
           "--start", "-10", "--stop", "30", "--points", "5",
           "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=1.0",
           "--curve", "channel.kappa=5.0"]
    assert main(snr) == 0
    assert len(calls) == 1
    assert main(snr) == 0  # no table survives the first call
    assert len(calls) == 2
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "fwhm",
                 "--log", "--start", "0.1", "--stop", "10", "--points", "5"]) == 0
    assert len(calls) == 7


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends to the returned list per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_shares_a_moment_set_while_table_and_sensor_repeat(cfg, tmp_path, monkeypatch):
    import metabcrb.bcrb as bcrb_mod
    import metabcrb.expectations as expectations_mod
    tables = _count_calls(monkeypatch, expectations_mod, "kernel_means")
    moments = _count_calls(monkeypatch, bcrb_mod, "_moments_from_kernels")
    out = str(tmp_path / "sweep.csv")
    # noise and kappa leave the sensor alone: one table, one moment set for 3 curves
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "snr_db",
                 "--start", "-10", "--stop", "30", "--points", "5",
                 "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=1.0",
                 "--curve", "channel.kappa=5.0"]) == 0
    assert (len(tables), len(moments)) == (1, 1)
    # depth changes the sensor: one table, one moment set per point
    del tables[:], moments[:]
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "depth",
                 "--start", "0.1", "--stop", "1.0", "--points", "7"]) == 0
    assert (len(tables), len(moments)) == (1, 7)


def test_sweep_takes_the_detuning_stats_once_while_sensor_prior_and_grid_repeat(cfg, tmp_path,
                                                                                  monkeypatch):
    import metabcrb.bcrb as bcrb_mod
    stats = _count_calls(monkeypatch, bcrb_mod, "detuning_stats")
    out = str(tmp_path / "sweep.csv")
    # noise, kappa and depth leave half-width, shift rate, offset, prior and grid alone
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "snr_db",
                 "--start", "-10", "--stop", "30", "--points", "5",
                 "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=1.0",
                 "--curve", "channel.kappa=5.0"]) == 0
    assert len(stats) == 1
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "depth",
                 "--start", "0.1", "--stop", "1.0", "--points", "7"]) == 0
    assert len(stats) == 2


def test_select_builds_one_kernel_table(cfg, tmp_path, monkeypatch):
    import metabcrb.expectations as expectations_mod
    tables = _count_calls(monkeypatch, expectations_mod, "kernel_means")
    assert main(["select", "--config", cfg, "--out", str(tmp_path / "sel.csv"),
                 "--budget", "5"]) == 0
    assert len(tables) == 1


def test_validate_builds_one_kernel_table(cfg, tmp_path, monkeypatch):
    # the closed forms of all three variants and the blocks of the random ones
    # come from one table; --dense-check reads the same blocks
    import metabcrb.expectations as expectations_mod
    tables = _count_calls(monkeypatch, expectations_mod, "kernel_means")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "val.csv")]) == 0
    assert len(tables) == 1
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "dense.csv"),
                 "--samples", "16384", "--dense-check"]) == 0
    assert len(tables) == 2


def test_sweep_non_finite_config_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(BASE_CFG.replace("prior.mean = 0.0", "prior.mean = nan"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "snr_db", "--values", "0,10"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_tiny_prior_std_exits_1(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(BASE_CFG.replace("prior.std = 1.0", "prior.std = 1e-300"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "depth", "--values", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "prior std" in err


@pytest.mark.parametrize("key,value", [("sensor.half_width", "1e-300"),
                                       ("sensor.shift_rate", "1e300")])
def test_sweep_slope_scale_overflow_exits_3(tmp_path, capsys, key, value):
    text = BASE_CFG.replace("grid.count = 16", "grid.count = 4")
    text = text.replace(f"{key} = 1.0", f"{key} = {value}")
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "depth", "--values", "0.5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "sensor.half_width" in err and "sensor.shift_rate" in err


def test_sweep_with_a_non_finite_detuning_spread_exits_3_with_one_line(tmp_path, capsys):
    # half-width 1e-320: s = std / half_width is inf; one message, no RuntimeWarning
    path = tmp_path / "tiny.cfg"
    path.write_text("sensor.half_width = 1e-320\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "depth", "--values", "0.5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: detuning") and err.count("\n") == 1, err
    assert "sensor.half_width = 1e-320" in err


def _cli_process(*argv):
    """Exit code and stderr of the metabcrb CLI in a fresh interpreter."""
    import metabcrb
    src = os.path.dirname(os.path.dirname(metabcrb.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "metabcrb.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_unwritable_csv_path_exits_1_with_a_message(cfg, tmp_path):
    out = tmp_path / "missing" / "o.csv"
    rc, err = _cli_process("sweep", "--config", cfg, "--out", str(out),
                           "--axis", "snr_db", "--values", "0")
    assert rc == 1
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["sweep", "--axis", "snr_db", "--values", "0,10"],
                                     ["select", "--budget", "2"]], ids=["sweep", "select"])
def test_unwritable_svg_path_exits_1_with_a_message(cfg, tmp_path, command):
    # the CSV is written; the chart's path, o.svg, is a directory
    (tmp_path / "o.svg").mkdir()
    rc, err = _cli_process(*command, "--config", cfg, "--out", str(tmp_path / "o.csv"), "--svg")
    assert rc == 1
    assert err.startswith(f"error: cannot write {tmp_path / 'o.svg'}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("std", ["1e154", "1e155", "1e200"])
def test_huge_prior_std_is_a_named_config_error(tmp_path, capsys, std):
    # std^2 overflows a float above sqrt(max float) = 1.3407807929942596e154
    path = tmp_path / "wide.cfg"
    path.write_text(BASE_CFG.replace("prior.std = 1.0", f"prior.std = {std}"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "depth", "--values", "0.5"])
    err = capsys.readouterr().err
    if std == "1e154":
        assert rc == 0 and err == ""
        return
    assert rc == 1
    assert err.startswith("config error: prior std") and "1.3407807929942596e+154" in err


# Axis values of each extreme sweep and the cell entry (half_width, snr_db,
# depth, kappa) they replace; fwhm values are twice the half-widths.
EXTREME_SWEEPS = {
    "fwhm": ("2e-8,2,2e8", 0, (1e-8, 1.0, 1e8)),
    "snr_db": ("-200,20,300", 1, (-200.0, 20.0, 300.0)),
    "depth": ("0,0.5,1", 2, (0.0, 0.5, 1.0)),
    "kappa": ("0,1,1e300", 3, (0.0, 1.0, 1e300)),
}

def test_cli_over_extreme_values(tmp_path, capsys):
    # Every command on a 3^4 grid of half-width, SNR, depth and kappa, with 8
    # tones 0.05 apart, exits 0 or names its failure; no closed form fails (the
    # 1e8 half-width, 300 dB, full-depth cells fail only at prior std 0.5, see
    # KNOWN_NONPOSITIVE in test_bcrb.py). Pinned exit 2 on a dip
    # 1e-8 wide: at -200 dB no Monte Carlo draw carries information above
    # rounding, so every jackknife bound is the prior variance, the standard
    # error is the value's rounding alone, and the closed form lies some 2,000
    # of them away; at 20 and 300 dB the rare draws that land in the dip leave a
    # standard error 1e10 times the bound, which validate reports as unresolved.
    path = tmp_path / "extreme.cfg"
    out = str(tmp_path / "out.csv")
    for cell in itertools.product(*(values for _, _, values in EXTREME_SWEEPS.values())):
        width, snr_db, depth, kappa = cell
        path.write_text(f"sensor.half_width = {width!r}\nnoise.snr_db = {snr_db!r}\n"
                        f"sensor.depth = {depth!r}\nchannel.kappa = {kappa!r}\n"
                        "grid.count = 8\ngrid.spacing = 0.05\n")
        commands = [(["select", "--budget", "2"], [cell]),
                    (["validate", "--samples", "16384"], [cell, cell[:3] + (0.0,)])]
        for axis, (values, index, cell_values) in EXTREME_SWEEPS.items():
            points = [cell[:index] + (v,) + cell[index + 1:] for v in cell_values]
            commands.append((["sweep", "--axis", axis, f"--values={values}"], points))
        for argv, points in commands:
            rc = main(argv + ["--config", str(path), "--out", out])
            err = capsys.readouterr().err
            if argv[0] == "validate" and width == 1e-8 and depth > 0.0:
                assert rc == 2, (cell, argv)
                name, deviation, _ = _failure_lines(err, "validate")[0]
                if snr_db == -200.0:
                    assert name == "configured.z_score" and deviation > 1e3, (cell, err)
                else:
                    assert name == "configured.mc_std_err", (cell, err)
            else:
                assert rc == 0 and err == "", (cell, argv, err)


@pytest.mark.parametrize("kappa", ["1e155", "1e200", "1e300", "1e308"])
def test_huge_kappa_exits_0_at_the_los_bound(tmp_path, kappa):
    # the bound must reach the deterministic-LoS limit wherever (kappa + 1)^2
    # would overflow. At 1e308 validate's prior channel information 2 (kappa + 1)
    # is inf, which gives d^-1 = 0 in the Schur path: the LoS limit again.
    path = tmp_path / "kappa.cfg"
    path.write_text(BASE_CFG.replace("channel.kappa = 1.0", f"channel.kappa = {kappa}"))
    los = tmp_path / "los.cfg"
    los.write_text(BASE_CFG + "channel.los = true\n")
    sweep = ["sweep", "--axis", "snr_db", "--values", "0,20"]
    for cmd in (sweep, ["select", "--budget", "4"], ["validate", "--samples", "16384"]):
        assert main([*cmd, "--config", str(path), "--out", str(tmp_path / f"{cmd[0]}.csv")]) == 0, cmd
    assert main([*sweep, "--config", str(los), "--out", str(tmp_path / "los.csv")]) == 0
    for got, want in zip(_rows(tmp_path / "sweep.csv"), _rows(tmp_path / "los.csv"), strict=True):
        assert float(got["bcrb"]) == pytest.approx(float(want["bcrb"]), rel=1e-12, abs=0.0)


def _scipy_modules_after(code):
    """Names of the scipy modules loaded once `code` has run in a fresh
    interpreter with this package's source directory on PYTHONPATH."""
    import metabcrb
    script = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    src = os.path.dirname(os.path.dirname(metabcrb.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _scipy_modules_after_cli(tmp_path, *argv):
    """_scipy_modules_after a CLI run on the package defaults that exits 0."""
    path = tmp_path / "default.cfg"
    path.write_text("# package defaults\n")
    full = [*argv, "--config", str(path), "--out", str(tmp_path / "out.csv")]
    return _scipy_modules_after(f"from metabcrb.cli import main\nassert main({full!r}) == 0")


def test_narrow_fwhm_sweep_never_imports_scipy_integrate(tmp_path):
    # no moment rule needs scipy.integrate, and a default-grid fwhm sweep down
    # to 0.004 must not pull its import cost in through any other path
    loaded = _scipy_modules_after_cli(tmp_path, "sweep", "--axis", "fwhm", "--log",
                                      "--start", "0.004", "--stop", "0.6", "--points", "21")
    assert "scipy.integrate" not in loaded


@pytest.mark.parametrize("code", [
    "import metabcrb",
    "import metabcrb.cli",
    # Gauss-Hermite rules other than the stored order 800 are built in numpy
    "from metabcrb import Quadrature, SensingPrior, expect_over_prior\n"
    "expect_over_prior(lambda c: c * c, SensingPrior(0.0, 1.0), Quadrature(200))",
], ids=["metabcrb", "metabcrb.cli", "expect_over_prior"])
def test_import_loads_no_scipy(code):
    assert _scipy_modules_after(code) == []


@pytest.mark.parametrize("command", [
    ["sweep", "--axis", "snr_db", "--values", "0,10,20"],
    ["select", "--budget", "8"],
    ["validate", "--samples", "16384"],
])
def test_default_config_commands_load_no_scipy(tmp_path, command):
    # package defaults put every tone at s = 1, on the stored Gauss-Hermite nodes
    assert _scipy_modules_after_cli(tmp_path, *command) == []


@pytest.mark.parametrize("command", [
    ["sweep", "--axis", "fwhm", "--values", "0.01"],
    ["asymptotics"],
    ["sweep", "--axis", "fwhm", "--values", "0.01", "--set", "grid.center=3"],
], ids=["near", "asymptotics", "mid"])
def test_narrow_dip_commands_load_no_scipy(tmp_path, command):
    # fwhm 0.01 puts s at 200 and asymptotics' narrow tones at s up to 1000: tones
    # near the dip take the Faddeeva closed form on a numpy w(z), and with the grid
    # centred 3 away the tones from |z| 2.5 to 10 take the sinh rule
    assert _scipy_modules_after_cli(tmp_path, *command) == []


@pytest.mark.parametrize("snr_db,message", [
    ("-3100", "snr_db -3100.0 is too low: 10^(-snr_db / 10) overflows a float"),
    ("3100", "noise variance 1e-310 is too small: 2 / variance is not a finite float"),
])
def test_snr_outside_the_float_range_is_a_named_config_error(tmp_path, capsys, snr_db, message):
    # these once exited 3: an OverflowError from 10^310, and a bound over 2 / 1e-310 = inf
    path = tmp_path / "default.cfg"
    path.write_text("# package defaults\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "snr_db", f"--values={snr_db}"])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spacing", ["-0.05", "nan"])
def test_bad_grid_spacing_is_a_named_config_error(tmp_path, capsys, spacing):
    # on the default 128 tones these once read as frequencies out of order or not finite
    path = tmp_path / "default.cfg"
    path.write_text("# package defaults\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--axis", "snr_db", "--values", "0", "--set", f"grid.spacing={spacing}"])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: spacing must be positive, got {float(spacing)}\n"
    assert not (tmp_path / "x.csv").exists()


def test_narrow_fwhm_sweep_far_from_the_dip_loads_no_scipy(tmp_path):
    # s = 200, but tones 50 away sit at |z| > 10 and take the far trapezoid rule
    assert _scipy_modules_after_cli(tmp_path, "sweep", "--axis", "fwhm", "--values", "0.01",
                                    "--set", "grid.center=50") == []


def test_sweep_svg_written(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "snr_db",
                 "--values", "0,20", "--svg"]) == 0
    svg = out.with_suffix(".svg")
    assert svg.exists()
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


# --------------------------------------------------------------- validate

def test_validate_schema_and_agreement(cfg, tmp_path):
    out = str(tmp_path / "val.csv")
    rc = main(["validate", "--config", cfg, "--out", out,
               "--samples", "50000", "--seed", "3", "--dense-check"])
    assert rc == 0
    rows = _rows(out)
    assert [r["scenario_label"] for r in rows] == ["configured", "rayleigh", "det_los"]
    for row in rows[:2]:
        closed = float(row["closed_form"])
        assert float(row["schur_from_blocks"]) == pytest.approx(closed, rel=1e-12)
        assert float(row["dense_inverse"]) == pytest.approx(closed, rel=1e-10)
        assert abs(float(row["z_score"])) <= 4.0
    los = rows[2]
    assert los["schur_from_blocks"] == "" and los["dense_inverse"] == ""
    assert float(los["mc_std_err"]) == 0.0 and float(los["z_score"]) == 0.0


def _failure_lines(err, command):
    """(check, deviation, tolerance) from the stderr lines of failed checks."""
    pattern = re.compile(rf"^{command}: check (\S+) failed: deviation (\S+) exceeds tolerance (\S+)$")
    lines = err.strip().splitlines()
    matches = [pattern.match(line) for line in lines]
    assert all(matches), lines
    return [(m[1], float(m[2]), float(m[3])) for m in matches]


def _replace_oracle(monkeypatch, estimate):
    """Give validate `estimate` as its Monte Carlo oracle for the variants that share
    draws; det_los takes its closed form, which no oracle touches."""
    import metabcrb.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_mc_bounds", lambda scenarios, samples, seed=0:
                        [estimate(sc, samples, seed) for sc in scenarios])


def test_validate_biased_oracle_exits_2(cfg, tmp_path, monkeypatch, capsys):
    def biased(scenario, samples, seed=0):
        closed = bcrb_closed_form(scenario).bound
        return McEstimate(value=closed * 1.5, std_err=closed * 0.01, samples=samples)

    _replace_oracle(monkeypatch, biased)
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "val.csv"),
               "--samples", "1000"])
    assert rc == 2
    failures = _failure_lines(capsys.readouterr().err, "validate")
    assert [f[0] for f in failures] == ["configured.z_score", "rayleigh.z_score"]
    for _, deviation, tolerance in failures:
        assert deviation == pytest.approx(50.0, rel=1e-9) and tolerance == 4.0


def test_validate_names_failed_path_agreement_on_stderr(cfg, tmp_path, monkeypatch, capsys):
    import metabcrb.cli as cli_mod

    def exact(scenario, samples, seed=0):
        closed = bcrb_closed_form(scenario).bound
        return McEstimate(value=closed, std_err=closed * 0.01, samples=samples)

    schur = cli_mod.bcrb_from_blocks
    _replace_oracle(monkeypatch, exact)
    monkeypatch.setattr(cli_mod, "bcrb_from_blocks", lambda blocks: schur(blocks) * (1.0 + 1e-6))
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "val.csv"),
               "--samples", "1000", "--dense-check"])
    assert rc == 2
    failures = _failure_lines(capsys.readouterr().err, "validate")
    assert [f[0] for f in failures] == ["configured.schur_from_blocks", "rayleigh.schur_from_blocks"]
    for _, deviation, tolerance in failures:
        assert deviation == pytest.approx(1e-6, rel=1e-6) and tolerance == 1e-9


def test_validate_dense_check_over_64_tones_exits_1(tmp_path, capsys, monkeypatch):
    # the grid is checked before any moment or Monte Carlo draw
    import metabcrb.cli as cli_mod

    def no_draws(*args):
        raise AssertionError("no Monte Carlo draw may run")

    monkeypatch.setattr(cli_mod, "_mc_bounds", no_draws)
    path = tmp_path / "wide.cfg"
    path.write_text("grid.count = 65\n")
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(path), "--out", str(out),
                 "--samples", "2000", "--dense-check"]) == 1
    err = capsys.readouterr().err
    assert err == "error: dense verification path is limited to 64 subcarriers, got 65\n"
    assert not out.exists()


def test_validate_single_chunk_oracle_exits_1(cfg, tmp_path, capsys):
    # the jackknife needs a full chunk in each of its 32 groups: at least 16,384 draws
    out = tmp_path / "val.csv"
    for samples in ("500", "16383"):
        assert main(["validate", "--config", cfg, "--out", str(out), "--samples", samples]) == 1
        assert capsys.readouterr().err == (f"error: need at least 16384 samples (32 chunks of 512) to "
                                           f"estimate the Monte Carlo error, got {samples}\n")
        assert not out.exists()
    assert main(["validate", "--config", cfg, "--out", str(out), "--samples", "16384"]) == 0


def test_validate_negative_seed_exits_1_naming_the_seed(cfg, tmp_path, capsys):
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "val.csv"),
               "--samples", "2000", "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be a whole number >= 0, got -1\n"


def test_validate_checks_the_seed_on_a_deterministic_los_config(tmp_path, capsys):
    # no variant of an LoS config draws, and the seed is still checked before any work
    path = tmp_path / "los.cfg"
    path.write_text(BASE_CFG + "channel.los = true\n")
    out = tmp_path / "val.csv"
    rc = main(["validate", "--config", str(path), "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be a whole number >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("los", [False, True])
def test_validate_det_los_estimate_is_its_closed_form(tmp_path, monkeypatch, los):
    # the det_los row reuses the shared closed-form pass: mc_bound never runs
    import metabcrb.cli as cli_mod

    def unused(*args):
        raise AssertionError("mc_bound called")

    monkeypatch.setattr(cli_mod, "mc_bound", unused)
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CFG + ("channel.los = true\n" if los else ""))
    out = str(tmp_path / "val.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--samples", "16384"]) == 0
    row = _rows(out)[-1]
    assert row["scenario_label"] == "det_los"
    assert row["mc_estimate"] == row["closed_form"]
    assert float(row["mc_std_err"]) == 0.0 and float(row["z_score"]) == 0.0


@pytest.mark.parametrize("entries", [
    "sensor.half_width = 1e-8\nsensor.depth = 0.5\ngrid.count = 8\ngrid.spacing = 0.05\n",
    "prior.std = 1e154\ngrid.count = 4\n",
], ids=["narrow_dip", "huge_prior_std"])
def test_validate_unresolved_oracle_exits_2(tmp_path, capsys, entries):
    # |z| is small in both, but the standard error is about 1e10 times the
    # bound on a 1e-8-wide dip and inf at a prior std of 1e154
    path = tmp_path / "unresolved.cfg"
    path.write_text(entries)
    rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "val.csv"),
               "--samples", "16384"])
    assert rc == 2
    failures = _failure_lines(capsys.readouterr().err, "validate")
    assert [f[0] for f in failures] == ["configured.mc_std_err", "rayleigh.mc_std_err"]
    for _, deviation, tolerance in failures:
        assert deviation > 1e9 and tolerance == 1.0
    assert all(abs(float(row["z_score"])) < 1.0 for row in _rows(tmp_path / "val.csv"))


@pytest.mark.parametrize("scale, std_err", [(math.nan, 1e-12), (1.0, math.nan)])
def test_validate_non_finite_oracle_exits_2(cfg, tmp_path, monkeypatch, capsys, scale, std_err):
    # a nan estimate or error passes |z| <= 4 (the comparison is false) and
    # must fail mc_std_err instead
    def lost(scenario, samples, seed=0):
        return McEstimate(value=scale * bcrb_closed_form(scenario).bound, std_err=std_err,
                          samples=samples)

    _replace_oracle(monkeypatch, lost)
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "val.csv"),
               "--samples", "1000"])
    assert rc == 2
    failures = _failure_lines(capsys.readouterr().err, "validate")
    assert [f[0] for f in failures] == ["configured.mc_std_err", "rayleigh.mc_std_err"]
    assert all(not math.isfinite(deviation) and tolerance == 1.0 for _, deviation, tolerance in failures)


def test_validate_los_config_has_single_deterministic_branch(tmp_path):
    path = tmp_path / "los.cfg"
    path.write_text(BASE_CFG + "channel.los = true\n")
    out = str(tmp_path / "val.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--samples", "100"]) == 0
    rows = _rows(out)
    assert [r["scenario_label"] for r in rows] == ["configured", "det_los"]


# --------------------------------------------------------------- select

def test_select_matches_library_and_is_sorted(cfg, tmp_path):
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--config", cfg, "--out", out, "--budget", "5"]) == 0
    rows = _rows(out)
    assert [int(r["rank"]) for r in rows] == [1, 2, 3, 4, 5]
    sc = load_scenario(BASE_CFG)
    picked = select_subcarriers(sc.grid, sc, 5)
    assert [float(r["frequency"]) for r in rows] == picked
    bounds = [float(r["bcrb"]) for r in rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    contribs = [float(r["contribution"]) for r in rows]
    assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(contribs, contribs[1:]))


def test_select_trajectory_matches_prefix_grids(tmp_path):
    path = tmp_path / "grid128.cfg"
    path.write_text("grid.count = 128\n")
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--config", str(path), "--out", out, "--budget", "64"]) == 0
    rows = _rows(out)
    sc = load_scenario("grid.count = 128\n")
    chosen = select_subcarriers(sc.grid, sc, 64)
    by_freq = dict(zip(sc.grid.frequencies, bcrb_closed_form(sc).contributions))
    assert [r["frequency"] for r in rows] == [f"{f:.16e}" for f in chosen]
    assert [r["contribution"] for r in rows] == [f"{by_freq[f]:.16e}" for f in chosen]
    # the reference: one closed form on each prefix of the picks
    for rank, row in enumerate(rows, start=1):
        grid = SubcarrierGrid(frequencies=sorted(chosen[:rank]))
        want = bcrb_closed_form(sc.with_grid(grid)).bound
        assert float(row["bcrb"]) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_select_budget_validation(cfg, tmp_path, capsys):
    # the library's budget check, so the message is select_subcarriers' own
    out = str(tmp_path / "sel.csv")
    for budget in (0, 17):
        assert main(["select", "--config", cfg, "--out", out, "--budget", str(budget)]) == 1
        assert capsys.readouterr().err == f"error: budget must be in [1, 16], got {budget}\n"


# --------------------------------------------------------------- asymptotics

def test_asymptotics_report_all_checks_pass(cfg, tmp_path):
    out = str(tmp_path / "asym.csv")
    assert main(["asymptotics", "--config", cfg, "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) >= 10
    assert all(r["status"] == "ok" for r in rows)
    names = {r["check"] for r in rows}
    assert any(n.startswith("slope_power_wide") for n in names)
    assert any(n.startswith("slope_power_narrow") for n in names)
    assert "wideband_slope_power_sum" in names
    assert "bound_depth_slope_wide" in names
    for r in rows:
        assert float(r["deviation"]) <= float(r["tolerance"])


def test_asymptotics_names_failed_checks_on_stderr(cfg, tmp_path, monkeypatch, capsys):
    import metabcrb.cli as cli_mod

    wide_limit = cli_mod.slope_power_wide_limit
    monkeypatch.setattr(cli_mod, "slope_power_wide_limit", lambda s, delta: 2.0 * wide_limit(s, delta))
    out = str(tmp_path / "asym.csv")
    assert main(["asymptotics", "--config", cfg, "--out", out]) == 3
    failures = _failure_lines(capsys.readouterr().err, "asymptotics")
    failed_rows = [r for r in _rows(out) if r["status"] == "fail"]
    assert [f[0] for f in failures] == [r["check"] for r in failed_rows]
    assert len(failures) == 2 and all(f[0].startswith("slope_power_wide") for f in failures)
    for (_, deviation, tolerance), row in zip(failures, failed_rows):
        assert deviation == pytest.approx(float(row["deviation"]), rel=1e-5)
        assert tolerance == float(row["tolerance"])


# The predicted and computed columns of asymptotics on BASE_CFG as a 128-node far rule
# and one closed form per slope-fit point wrote them
ASYMPTOTICS_COLUMNS = {
    "slope_power_wide_offset=0": (8.100000000000002e-05, 8.098380728514427e-05),
    "corr_magsq_wide_offset=0": (8.099999999999919e-07, 8.080582820345826e-07),
    "slope_power_wide_offset=50": (5.184000000000001e-05, 5.1841655497630046e-05),
    "corr_magsq_wide_offset=50": (1.078272e-05, 1.0776392028516969e-05),
    "slope_power_narrow_offset=0": (507.5922256127777, 507.59197208647436),
    "corr_magsq_narrow_offset=0": (0.25764986750253294, 0.25673789674625785),
    "slope_power_narrow_offset=0.5": (447.94856687929746, 447.94839904929586),
    "corr_magsq_narrow_offset=0.5": (0.20065791856921641, 0.20003827264727317),
    "wideband_slope_power_sum": (127.23450247038663, 127.23406963899461),
    "bound_halfwidth_slope_wide": (2.0, 1.9926959581382193),
    "bound_halfwidth_slope_narrow": (1.0, 1.0000143700560542),
    "bound_depth_slope_wide": (-2.0, -1.9999326210058292),
}


def test_asymptotics_builds_23_kernel_tables_and_keeps_its_values(cfg, tmp_path, monkeypatch):
    import metabcrb.expectations as expectations_mod
    tables = _count_calls(monkeypatch, expectations_mod, "kernel_means")
    out = str(tmp_path / "asym.csv")
    assert main(["asymptotics", "--config", cfg, "--out", out]) == 0
    # four limit tones, the wideband grid, and 27 slope-fit points in one closed-form
    # pass, where the nine depth points share the ratio-10 wide point's table
    assert len(tables) == 4 + 1 + 18
    rows = _rows(out)
    assert [r["check"] for r in rows] == list(ASYMPTOTICS_COLUMNS)
    for r in rows:
        got = [float(r["predicted"]), float(r["computed"])]
        assert got == pytest.approx(ASYMPTOTICS_COLUMNS[r["check"]], rel=1e-14, abs=0.0), r["check"]


@pytest.mark.parametrize("depth", ["0", "1e-170", "1e-200"])
def test_asymptotics_at_a_zero_limit_writes_the_csv_and_names_the_failed_checks(tmp_path, capsys, depth):
    # a limit that is 0 (no dip) or underflows to 0 has no relative deviation: its check
    # is left out, as corr_magsq's is, where dividing by it once ended the command with
    # "float division by zero", no CSV and no check named
    path = tmp_path / "flat.cfg"
    path.write_text(BASE_CFG.replace("sensor.depth = 0.9", f"sensor.depth = {depth}"))
    out = str(tmp_path / "asym.csv")
    assert main(["asymptotics", "--config", str(path), "--out", out]) == 3
    rows = _rows(out)
    assert [r["check"] for r in rows] == ["bound_halfwidth_slope_wide", "bound_halfwidth_slope_narrow",
                                          "bound_depth_slope_wide"]
    failures = _failure_lines(capsys.readouterr().err, "asymptotics")
    assert [f[0] for f in failures] == ["bound_halfwidth_slope_wide", "bound_halfwidth_slope_narrow"]
    assert [r["status"] for r in rows] == ["fail", "fail", "ok"]


# --------------------------------------------------------------- misc

@pytest.mark.parametrize("command", [
    ["validate", "--samples", "20000", "--seed", "1"],
    ["select", "--budget", "5"],
    ["select", "--budget", "1"],
    ["asymptotics"],
], ids=["validate", "select", "select-one-tone", "asymptotics"])
def test_svg_chart_leaves_the_csv_alone(cfg, tmp_path, command):
    import xml.etree.ElementTree as ET

    plain, charted = tmp_path / "plain.csv", tmp_path / "charted.csv"
    argv = [command[0], "--config", cfg] + command[1:]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--out", str(charted), "--svg"]) == 0
    assert not plain.with_suffix(".svg").exists()
    root = ET.parse(charted.with_suffix(".svg")).getroot()
    assert root.tag.endswith("svg") and any(el.tag.endswith("polyline") for el in root.iter())
    assert charted.read_bytes() == plain.read_bytes()


def test_missing_config_exits_1(tmp_path):
    assert main(["select", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.csv"), "--budget", "1"]) == 1


def test_bad_config_key_exits_1(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sensor.bogus = 1\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
                 "--axis", "depth", "--values", "0.5"]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "metabcrb.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "asymptotics" in proc.stdout


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1
