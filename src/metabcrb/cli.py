"""Command line frontend.

    metabcrb sweep       bound along one scenario axis, one or more curves
    metabcrb validate    cross-check closed form / Schur blocks / dense / Monte Carlo
    metabcrb select      greedy subcarrier picks with the bound trajectory
    metabcrb asymptotics regime report: closed-form limits and scaling slopes

All numeric CSV fields use 17 significant digits so reruns are byte-identical.
Monte Carlo chunks run on one thread per CPU the process may use, at most 8
(taskset or a cpuset narrows them). Each chunk draws from its own generator
and results are folded in chunk order, in blocks that do not depend on the
thread count, so the output bytes are the same at any thread count, and at
any OPENBLAS_NUM_THREADS too: no sum of the fold goes through BLAS. The fold
holds one block of chunk means at a time, so validate's memory does not grow
with --samples times tones. Its standard error is a 32-group jackknife, so a
random channel needs at least 16,384 draws.

Exit codes: 0 ok, 1 usage or config error, an output that cannot be written or a
grid too large for memory, 2 validation failure, 3 numerical failure.
When validate exits 2 or asymptotics exits 3, stderr names each failed check
with its deviation and tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .asymptotics import (corr_magsq_narrow_limit, corr_magsq_wide_limit,
                          fit_loglog_slope, slope_power_narrow_limit,
                          slope_power_wide_limit, wideband_slope_power_sum)
# assemble_bfim and select_subcarriers are unused here but stay names of this module:
# benchmarks/spans.py traces them here (validate assembles through _assemble; see ROADMAP item 1)
from .bcrb import (_assemble, _check_dense, _closed_form, _closed_forms, _greedy, _shared_moments,
                   assemble_bfim, bcrb_closed_form, bcrb_from_blocks, bcrb_from_dense,
                   select_subcarriers)  # noqa: F401
from .config import (ConfigError, apply_override, parse_config,
                     scenario_from_settings)
# corr_magsq is unused here but stays a name of this module: benchmarks/spans.py traces it here
from .expectations import McEstimate, corr_magsq, prior_moments, slope_power  # noqa: F401
from .mc import _mc_bounds, mc_bound  # noqa: F401 (benchmarks/spans.py traces mc_bound here)
from .scenario import SubcarrierGrid, snr_to_noise, whole_number
from .svg import write_line_chart

SWEEP_AXES = {"fwhm": "sensor.half_width", "depth": "sensor.depth", "snr_db": "noise.snr_db",
              "subcarrier_count": "grid.count", "kappa": "channel.kappa"}
PAIR_RELTOL = 1e-9
Z_LIMIT = 4.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.16e}"


@contextlib.contextmanager
def _writing(path: str):
    """An OSError while writing path becomes the ValueError that main reports with exit 1."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with _writing(path), open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _load_settings(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _report_failures(command: str, failures) -> None:
    """One stderr line per failed check: its name, deviation and tolerance."""
    for name, deviation, tolerance in failures:
        sys.stderr.write(f"{command}: check {name} failed: deviation {deviation:.6g} "
                         f"exceeds tolerance {tolerance:g}\n")


def _write_svg(out: str, series, **chart) -> None:
    """The chart of the CSV at out, written next to it with the .svg suffix."""
    path = os.path.splitext(out)[0] + ".svg"
    with _writing(path):
        write_line_chart(path, series, **chart)


# ---------------------------------------------------------------- sweep

def _apply_axis(settings: dict, axis: str, value: float) -> dict:
    if axis == "fwhm":
        value = value / 2.0  # axis is the full width at half maximum
    return {**settings, SWEEP_AXES[axis]: value}


def _sweep_values(args) -> list[float]:
    if args.values is not None:
        if args.start is not None or args.stop is not None or args.points is not None or args.log:
            raise ConfigError("--values cannot be combined with --start/--stop/--points/--log")
        try:
            vals = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {exc}") from None
    else:
        if args.start is None or args.stop is None or args.points is None:
            raise ConfigError("provide --values or all of --start/--stop/--points")
        if args.points < 2:
            raise ConfigError("--points must be >= 2")
        if args.log:
            if args.start <= 0 or args.stop <= 0:
                raise ConfigError("--log needs positive --start/--stop")
            vals = list(np.geomspace(args.start, args.stop, args.points))
        else:
            vals = list(np.linspace(args.start, args.stop, args.points))
    if not vals:
        raise ConfigError("sweep needs at least one value")
    return vals


def cmd_sweep(args) -> int:
    settings = _load_settings(args.config)
    for assignment in args.set or []:
        settings = apply_override(settings, assignment)
    curves = []
    if args.curve:
        for spec in args.curve:
            cur = settings
            for assignment in spec.split(","):
                cur = apply_override(cur, assignment)
            curves.append((spec, cur))
    else:
        curves.append(("base", settings))
    values = _sweep_values(args)
    points = [(label, cur, value) for label, cur in curves for value in values]
    results = _closed_forms(scenario_from_settings(_apply_axis(cur, args.axis, value))
                            for _, cur, value in points)
    rows = [[args.axis, label, _fmt(value), _fmt(res.bound),
             _fmt(res.first_term), _fmt(res.prior_term), _fmt(res.coupling_term)]
            for (label, _, value), res in zip(points, results)]

    header = ["axis", "curve_label", "axis_value", "bcrb",
              "first_term", "prior_term", "coupling_term"]
    _write_csv(args.out, header, rows)

    if args.svg:
        series = []
        for label, _ in curves:
            pts = [(float(r[2]), float(r[3])) for r in rows if r[1] == label]
            series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
        _write_svg(args.out, series, title=f"bound vs {args.axis}",
                   xlabel=args.axis, ylabel="bcrb",
                   xlog=args.axis == "fwhm", ylog=True)
    return 0


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    """Closed form against the Schur blocks, the dense inverse and Monte Carlo.

    The variants (configured, Rayleigh, det_los) share prior, sensor and grid,
    so their closed forms and the random-channel ones' blocks share one kernel
    table, and one Monte Carlo pass serves the random-channel ones: each chunk
    draws its conditions and channel statistics once.
    det_los's estimate is its exact closed form; --samples, --seed and the dense grid come first.
    """
    samples = whole_number("samples", args.samples)
    seed = whole_number("seed", args.seed, 0)
    settings = _load_settings(args.config)
    base = scenario_from_settings(settings)
    if args.dense_check:
        _check_dense(base.grid.count)
    variants = [("configured", base)]
    if not base.channel.deterministic_los:
        rayleigh = apply_override(settings, "channel.kappa=0.0")
        variants.append(("rayleigh", scenario_from_settings(rayleigh)))
    los = apply_override(settings, "channel.los=true")
    variants.append(("det_los", scenario_from_settings(los)))
    random = {label: sc for label, sc in variants if not sc.channel.deterministic_los}

    header = ["scenario_label", "closed_form", "schur_from_blocks", "dense_inverse",
              "mc_estimate", "mc_std_err", "z_score"]
    rows = []
    failures = []  # (check, deviation, tolerance)
    moments = [m for _, m in _shared_moments([sc for _, sc in variants])]
    shared = dict(zip(random, _mc_bounds(list(random.values()), samples, seed))) if random else {}
    for (label, scenario), moment in zip(variants, moments):
        closed = _closed_form(scenario, *moment).bound
        schur = dense = None
        if scenario.channel.deterministic_los:
            est = McEstimate(value=closed, std_err=0.0, samples=samples)
        else:
            blocks = _assemble(scenario, *moment)
            schur = bcrb_from_blocks(blocks)
            if args.dense_check:
                dense = bcrb_from_dense(blocks)
            est = shared[label]
        diff = est.value - closed
        if est.std_err == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / est.std_err
        rows.append([label, _fmt(closed), _fmt(schur), _fmt(dense),
                     _fmt(est.value), _fmt(est.std_err), _fmt(z)])
        if abs(z) > Z_LIMIT:
            failures.append((f"{label}.z_score", abs(z), Z_LIMIT))
        # a z-score resolves nothing once the standard error exceeds the bound itself
        rel_err = est.std_err / abs(closed) if math.isfinite(est.value) else math.inf
        if not rel_err <= 1.0:
            failures.append((f"{label}.mc_std_err", rel_err, 1.0))
        for name, other in (("schur_from_blocks", schur), ("dense_inverse", dense)):
            if other is not None and abs(other - closed) > PAIR_RELTOL * abs(closed):
                failures.append((f"{label}.{name}", abs(other - closed) / abs(closed), PAIR_RELTOL))
    _write_csv(args.out, header, rows)
    if args.svg:
        idx = list(range(len(rows)))
        _write_svg(args.out, [
            ("closed_form", idx, [float(r[1]) for r in rows]),
            ("mc_estimate", idx, [float(r[4]) for r in rows]),
        ], title="bound cross-checks", xlabel="scenario index", ylabel="bound")
    _report_failures("validate", failures)
    return 2 if failures else 0


# ---------------------------------------------------------------- select

def cmd_select(args) -> int:
    scenario = scenario_from_settings(_load_settings(args.config))
    chosen, contrib, bounds = _greedy(scenario, args.budget)
    header = ["rank", "frequency", "contribution", "bcrb"]
    rows = [[str(rank), _fmt(f), _fmt(c), _fmt(b)]
            for rank, (f, c, b) in enumerate(zip(chosen, contrib, bounds), start=1)]
    _write_csv(args.out, header, rows)
    if args.svg:
        _write_svg(args.out, [("greedy", list(range(1, len(bounds) + 1)), bounds.tolist())],
                   title="bound vs selected tones", xlabel="tones", ylabel="bcrb", ylog=True)
    return 0


# ---------------------------------------------------------------- asymptotics

def _regime_sensor(sensor, prior, ratio):
    return replace(sensor, half_width=ratio * abs(sensor.shift_rate) * prior.std)


def cmd_asymptotics(args) -> int:
    settings = _load_settings(args.config)
    base = scenario_from_settings(settings)
    sensor, prior = base.sensor, base.prior
    sweep = abs(sensor.shift_rate) * prior.std
    center = sensor.resonance(prior.mean)

    checks = []  # (name, predicted, computed, deviation, tolerance)

    for ratio, tag, tol_sp, tol_corr in ((100.0, "wide", 1e-3, 5e-3), (1e-3, "narrow", 2e-2, 2e-2)):
        s = _regime_sensor(sensor, prior, ratio)
        offsets = (0.0, 0.5 * (s.half_width if tag == "wide" else sweep))
        for delta in offsets:
            f = center + delta
            sp, corr, _ = prior_moments(s, f, prior)  # one kernel table per tone
            cm = np.abs(corr) ** 2
            if tag == "wide":
                sp_lim = slope_power_wide_limit(s, delta)
                cm_lim = corr_magsq_wide_limit(s, delta)
            else:
                sp_lim = slope_power_narrow_limit(s, prior, delta)
                cm_lim = corr_magsq_narrow_limit(s, prior, delta)
            if sp_lim > 0:  # a limit of 0 (no dip, or one that underflows) has no relative deviation
                checks.append((f"slope_power_{tag}_offset={delta:g}", sp_lim, sp,
                               abs(sp - sp_lim) / sp_lim, tol_sp))
            if cm_lim > 0:
                checks.append((f"corr_magsq_{tag}_offset={delta:g}", cm_lim, cm,
                               abs(cm - cm_lim) / cm_lim, tol_corr))

    grid = SubcarrierGrid.uniform(center=center, spacing=sensor.half_width / 100.0, count=10000)
    total = float(np.sum(slope_power(sensor, grid.as_array(), prior)))
    predicted = wideband_slope_power_sum(sensor, grid, prior)
    if predicted > 0:
        checks.append(("wideband_slope_power_sum", predicted, total,
                       abs(total - predicted) / predicted, 5e-2))

    def bound_at(sensor_v, depth=None, snr_db=70.0):
        s = sensor_v if depth is None else replace(sensor_v, absorption_depth=depth)
        sc = base.with_channel(type(base.channel)(kappa=0.0)).with_noise(snr_to_noise(snr_db))
        sc = sc.with_grid(SubcarrierGrid.uniform(center=center, spacing=1.0, count=1))
        return bcrb_closed_form(replace(sc, sensor=s)).bound

    # quadratic growth with the half-width once the dip dwarfs the prior sweep;
    # needs the likelihood term dominant, hence the high reference SNR
    ratios = np.geomspace(10.0, 100.0, 9)
    slope_wide = fit_loglog_slope(ratios, [bound_at(_regime_sensor(sensor, prior, r)) for r in ratios])
    checks.append(("bound_halfwidth_slope_wide", 2.0, slope_wide, abs(slope_wide - 2.0), 0.1))

    ratios = np.geomspace(1e-3, 1e-2, 9)
    slope_narrow = fit_loglog_slope(ratios, [bound_at(_regime_sensor(sensor, prior, r), snr_db=30.0)
                                             for r in ratios])
    checks.append(("bound_halfwidth_slope_narrow", 1.0, slope_narrow, abs(slope_narrow - 1.0), 0.1))

    depths = np.linspace(0.2, 1.0, 9)
    wide_sensor = _regime_sensor(sensor, prior, 10.0)
    slope_depth = fit_loglog_slope(depths, [bound_at(wide_sensor, depth=d) for d in depths])
    checks.append(("bound_depth_slope_wide", -2.0, slope_depth, abs(slope_depth + 2.0), 0.15))

    header = ["check", "predicted", "computed", "deviation", "tolerance", "status"]
    rows = []
    failures = []
    for name, predicted, computed, deviation, tol in checks:
        ok = deviation <= tol
        if not ok:
            failures.append((name, deviation, tol))
        rows.append([name, _fmt(predicted), _fmt(computed), _fmt(deviation),
                     _fmt(tol), "ok" if ok else "fail"])
    _write_csv(args.out, header, rows)
    if args.svg:
        idx = list(range(len(checks)))
        _write_svg(args.out, [
            ("deviation", idx, [max(c[3], 1e-18) for c in checks]),
            ("tolerance", idx, [c[4] for c in checks]),
        ], title="asymptotic checks", xlabel="check index", ylabel="deviation", ylog=True)
    _report_failures("asymptotics", failures)
    return 3 if failures else 0


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="metabcrb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config file (key=value lines)")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--svg", action="store_true", help="also write a chart next to the CSV")

    p = sub.add_parser("sweep", help="bound along one scenario axis")
    # a word that starts "-digit" or "-.digit" is a value, so "--values -10,0,10" is a list
    p._negative_number_matcher = re.compile(r"-\.?\d")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", help="comma-separated axis values; the first may be negative")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--log", action="store_true", help="geometric value spacing")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--curve", action="append", metavar="KEY=VALUE[,KEY=VALUE]",
                   help="add a labeled curve with these overrides (repeatable)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="cross-check the bound computations")
    common(p)
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo draws, at least 16,384")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dense-check", action="store_true",
                   help="also invert the dense information matrix (grids up to 64 tones)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("select", help="greedy subcarrier selection")
    common(p)
    p.add_argument("--budget", type=int, required=True, help="number of tones to pick")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("asymptotics", help="regime limits and scaling slopes")
    common(p)
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
