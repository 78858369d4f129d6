"""Closed-form limits of the prior moments and scaling-law fits.

Two opposite regimes are set by the ratio of the dip half-width to the
prior-induced resonance spread, half_width / (|shift_rate| * prior std):
when the ratio is large the dip barely moves and kernels evaluate at the
mean detuning; when it is small the dip sweeps across the band and the
kernels act as near-delta spikes weighted by the prior density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import SensingPrior, SubcarrierGrid
from .sensor import SensorModel

WIDE_MIN_RATIO = 10.0
NARROW_MAX_RATIO = 0.1


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AsymptoticRegime:
    """width_ratio = |shift_rate| * std / half_width (dip sweep in half-widths),
    offset_ratio = detuning offset in units of the swept range."""

    width_ratio: float
    offset_ratio: float
    label: str


def classify_regime(sensor: SensorModel, prior: SensingPrior, delta_f: float = 0.0) -> AsymptoticRegime:
    """Label the scenario wide, narrow or transition by the width ratio."""
    sweep = abs(sensor.shift_rate) * prior.std
    ratio = sensor.half_width / sweep
    if ratio >= WIDE_MIN_RATIO:
        label = "wide"
    elif ratio <= NARROW_MAX_RATIO:
        label = "narrow"
    else:
        label = "transition"
    return AsymptoticRegime(width_ratio=sweep / sensor.half_width,
                            offset_ratio=delta_f / sweep, label=label)


def slope_power_wide_limit(sensor: SensorModel, delta_f: float = 0.0) -> float:
    """E|gamma'|^2 when the dip is much wider than the prior sweep:
    (depth * shift_rate / half_width)^2 / (1 + x0^2)^2 at x0 = delta_f / half_width."""
    x0 = delta_f / sensor.half_width
    scale = sensor.absorption_depth * sensor.shift_rate / sensor.half_width
    return scale**2 / (1.0 + x0 * x0) ** 2


def corr_magsq_wide_limit(sensor: SensorModel, delta_f: float = 0.0) -> float:
    """|E conj(gamma') gamma|^2 in the wide regime: the integrand frozen at x0."""
    x0 = delta_f / sensor.half_width
    d = sensor.absorption_depth
    refl_sq = 1.0 - d * (2.0 - d) / (1.0 + x0 * x0)
    return slope_power_wide_limit(sensor, delta_f) * refl_sq


def slope_power_narrow_limit(sensor: SensorModel, prior: SensingPrior, delta_f: float = 0.0) -> float:
    """E|gamma'|^2 when the dip is much narrower than the prior sweep:

        (pi/2) * phi(r) * depth^2 * |shift_rate| / (half_width * std),

    r = delta_f / (|shift_rate| * std), phi the standard normal density."""
    sweep = abs(sensor.shift_rate) * prior.std
    r = delta_f / sweep
    d = sensor.absorption_depth
    return (math.pi / 2.0) * _norm_pdf(r) * d * d * abs(sensor.shift_rate) / (
        sensor.half_width * prior.std)


def corr_magsq_narrow_limit(sensor: SensorModel, prior: SensingPrior, delta_f: float = 0.0) -> float:
    """|E conj(gamma') gamma|^2 in the narrow regime:

        (pi^2 / 4) * phi(r)^2 * depth^4 / std^2,

    independent of the half-width (the dip sweep sets the scale)."""
    sweep = abs(sensor.shift_rate) * prior.std
    r = delta_f / sweep
    d = sensor.absorption_depth
    return (math.pi**2 / 4.0) * _norm_pdf(r) ** 2 * d**4 / prior.std**2


def wideband_slope_power_sum(sensor: SensorModel, grid: SubcarrierGrid,
                             prior: SensingPrior) -> float:
    """Riemann limit of sum_k E|gamma'(f_k)|^2 over a dense uniform grid that
    covers the dip: depth^2 shift_rate^2 pi / (2 half_width spacing).

    The prior drops out because the full-line kernel integral does not depend
    on where the dip sits; the grid must be uniform and wide enough for that
    to hold."""
    if grid.spacing is None:
        raise ValueError("wideband sum needs a uniform grid")
    d = sensor.absorption_depth
    return d**2 * sensor.shift_rate**2 * math.pi / (2.0 * sensor.half_width * grid.spacing)


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching points")
    if not (np.all(np.isfinite(x) & (x > 0.0)) and np.all(np.isfinite(y) & (y > 0.0))):
        raise ValueError("log-log fit needs finite, strictly positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
