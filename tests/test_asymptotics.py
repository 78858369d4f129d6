"""Regime limits against the quadrature engine and exact scaling identities."""

import math

import numpy as np
import pytest

from metabcrb import (SensingPrior, SensorModel, SubcarrierGrid,
                      classify_regime, corr_magsq, corr_magsq_narrow_limit,
                      corr_magsq_wide_limit, fit_loglog_slope, slope_power,
                      slope_power_narrow_limit, slope_power_wide_limit,
                      wideband_slope_power_sum)

PRIOR = SensingPrior(mean=0.0, std=1.0)


def test_regime_classification():
    wide = SensorModel(absorption_depth=0.9, half_width=10.0, shift_rate=1.0)
    narrow = SensorModel(absorption_depth=0.9, half_width=0.1, shift_rate=1.0)
    middle = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    assert classify_regime(wide, PRIOR).label == "wide"
    assert classify_regime(narrow, PRIOR).label == "narrow"
    assert classify_regime(middle, PRIOR).label == "transition"
    # the ratio tracks the prior sweep, not the half-width alone
    tight_prior = SensingPrior(mean=0.0, std=0.05)
    assert classify_regime(middle, tight_prior).label == "wide"
    r = classify_regime(wide, PRIOR, delta_f=2.0)
    assert r.width_ratio == pytest.approx(0.1)
    assert r.offset_ratio == pytest.approx(2.0)


def test_wide_limit_matches_quadrature():
    sensor = SensorModel(absorption_depth=0.9, half_width=100.0, shift_rate=1.0)
    for delta in (0.0, 50.0, -120.0):
        f = sensor.resonance(PRIOR.mean) + delta
        assert slope_power(sensor, f, PRIOR) == pytest.approx(
            slope_power_wide_limit(sensor, delta), rel=1e-3)
        assert corr_magsq(sensor, f, PRIOR) == pytest.approx(
            corr_magsq_wide_limit(sensor, delta), rel=5e-3)


def test_narrow_limit_matches_quadrature():
    sensor = SensorModel(absorption_depth=0.8, half_width=1e-3, shift_rate=1.0)
    for delta in (0.0, 0.5, -1.0):
        f = sensor.resonance(PRIOR.mean) + delta
        assert slope_power(sensor, f, PRIOR) == pytest.approx(
            slope_power_narrow_limit(sensor, PRIOR, delta), rel=1e-2)
        assert corr_magsq(sensor, f, PRIOR) == pytest.approx(
            corr_magsq_narrow_limit(sensor, PRIOR, delta), rel=1e-2)


def test_narrow_slope_power_hand_value():
    # on-spike: (pi/2) * phi(0) * d^2 |a| / (w * std)
    sensor = SensorModel(absorption_depth=1.0, half_width=2e-3, shift_rate=-3.0)
    prior = SensingPrior(mean=0.4, std=0.5)
    expect = (math.pi / 2) * (1 / math.sqrt(2 * math.pi)) * 3.0 / (2e-3 * 0.5)
    assert slope_power_narrow_limit(sensor, prior) == pytest.approx(expect, rel=1e-14)


def test_limits_scale_invariance():
    # scaling (shift_rate, half_width, delta_f) by t leaves both limits fixed
    base = SensorModel(absorption_depth=0.7, half_width=0.3, shift_rate=1.1)
    for t in (2.0, 17.0, 0.25):
        scaled = SensorModel(absorption_depth=0.7, half_width=0.3 * t, shift_rate=1.1 * t)
        for delta in (0.0, 0.2):
            assert slope_power_wide_limit(scaled, delta * t) == pytest.approx(
                slope_power_wide_limit(base, delta), rel=1e-12)
            assert corr_magsq_wide_limit(scaled, delta * t) == pytest.approx(
                corr_magsq_wide_limit(base, delta), rel=1e-12)
            assert slope_power_narrow_limit(scaled, PRIOR, delta * t) == pytest.approx(
                slope_power_narrow_limit(base, PRIOR, delta), rel=1e-12)
            assert corr_magsq_narrow_limit(scaled, PRIOR, delta * t) == pytest.approx(
                corr_magsq_narrow_limit(base, PRIOR, delta), rel=1e-12)


def test_wideband_sum_formula_and_convergence():
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    grid = SubcarrierGrid.uniform(center=0.0, spacing=0.1, count=1001)
    predicted = wideband_slope_power_sum(sensor, grid, PRIOR)
    assert predicted == pytest.approx(12.723450247038663, rel=1e-14)  # 0.81 * pi / 0.2
    total = float(np.sum(slope_power(sensor, grid.as_array(), PRIOR)))
    assert total == pytest.approx(predicted, rel=5e-2)
    # a wider span shrinks the dominant error (the truncated Lorentzian tails)
    wide = SubcarrierGrid.uniform(center=0.0, spacing=0.05, count=8001)
    total_wide = float(np.sum(slope_power(sensor, wide.as_array(), PRIOR)))
    assert total_wide == pytest.approx(wideband_slope_power_sum(sensor, wide, PRIOR), rel=1e-5)


def test_wideband_sum_rejects_irregular_grid():
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    grid = SubcarrierGrid.from_frequencies([0.0, 0.5, 2.0])
    with pytest.raises(ValueError):
        wideband_slope_power_sum(sensor, grid, PRIOR)


def test_fit_loglog_slope():
    x = np.geomspace(1.0, 100.0, 12)
    assert fit_loglog_slope(x, 3.5 * x**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(x, 0.2 * x**-1.5) == pytest.approx(-1.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([0.0, 2.0], [1.0, 1.0])
    # NaN once passed the sign test and reached LAPACK, which printed DLASCL errors
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            fit_loglog_slope([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite, strictly positive"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, bad, 3.0])
