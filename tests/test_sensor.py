"""Reflection model: hand values, symmetry, and the derivative against finite differences."""

import numpy as np
import pytest

from metabcrb import SensorModel


def test_reflection_hand_values():
    s = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    # on resonance x = 0: gamma = 1 - A
    assert s.reflection(0.0, 0.0) == pytest.approx(0.1, abs=1e-15)
    # one half-width off: gamma = 1 - A/(1+j) = 1 - A(1-j)/2
    g = s.reflection(1.0, 0.0)
    assert g == pytest.approx(complex(1 - 0.45, 0.45), abs=1e-15)
    # full absorption on resonance
    s1 = SensorModel(absorption_depth=1.0, half_width=1.0, shift_rate=1.0)
    assert s1.reflection(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_resonance_and_detuning():
    s = SensorModel(absorption_depth=0.5, half_width=2.0, shift_rate=-3.0, center_offset=1.0)
    assert s.resonance(0.0) == 1.0
    assert s.resonance(2.0) == -5.0
    assert s.detuning(3.0, 0.0) == pytest.approx(1.0)
    np.testing.assert_allclose(s.detuning(np.array([1.0, 5.0]), 0.0), [0.0, 2.0])


def test_reflection_magnitude_bounded_by_one():
    # |gamma|^2 = 1 - A(2-A)/(1+x^2) <= 1 for A in [0,1]
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(0.0, 1.0)
        s = SensorModel(absorption_depth=a, half_width=rng.uniform(0.1, 10),
                        shift_rate=rng.uniform(-5, 5) or 1.0)
        f = rng.uniform(-20, 20)
        c = rng.uniform(-5, 5)
        g = s.reflection(f, c)
        assert abs(g) <= 1.0 + 1e-12
        expect = 1.0 - a * (2 - a) / (1.0 + s.detuning(f, c) ** 2)
        assert abs(g) ** 2 == pytest.approx(expect, rel=1e-12)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = SensorModel(
            absorption_depth=rng.uniform(0.1, 1.0),
            half_width=rng.uniform(0.05, 5.0),
            shift_rate=rng.uniform(0.2, 4.0) * rng.choice([-1, 1]),
            center_offset=rng.uniform(-2, 2),
        )
        c = rng.uniform(-3, 3)
        f = s.resonance(c) + rng.uniform(-10, 10) * s.half_width
        h = 1e-6 * max(1.0, abs(c))
        fd = (s.reflection(f, c + h) - s.reflection(f, c - h)) / (2 * h)
        an = s.reflection_dc(f, c)
        assert abs(an - fd) <= 1e-6 * max(abs(an), 1e-3)


def test_broadcasting_over_frequency_and_condition():
    s = SensorModel(absorption_depth=0.8, half_width=0.5, shift_rate=2.0)
    f = np.linspace(-2, 2, 7)
    g = s.reflection(f, 0.3)
    assert g.shape == (7,)
    c = np.array([0.0, 1.0, -1.0])
    g2 = s.reflection(f[None, :], c[:, None])
    assert g2.shape == (3, 7)
    np.testing.assert_allclose(g2[1], s.reflection(f, 1.0))


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=1.2, half_width=1.0, shift_rate=1.0)
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=-0.1, half_width=1.0, shift_rate=1.0)
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=0.5, half_width=0.0, shift_rate=1.0)
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=0.5, half_width=-1.0, shift_rate=1.0)
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=0.5, half_width=1.0, shift_rate=0.0)
    with pytest.raises(ValueError):
        SensorModel(absorption_depth=0.5, half_width=np.inf, shift_rate=1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="center_offset must be finite"):
            SensorModel(absorption_depth=0.5, half_width=1.0, shift_rate=1.0, center_offset=bad)
