"""Lorentzian reflection model of the environmentally tuned meta-material sensor.

The sensor backscatters each subcarrier with a complex reflection coefficient
whose absorption dip is centered at a resonance frequency that shifts linearly
with the environmental condition c:

    gamma(f, c) = 1 - depth / (1 + j * x),   x = (f - (shift_rate * c + offset)) / half_width

All frequency-like quantities (f, half_width, offset) share one unit; the
model is invariant under a common translation of f, offset and shift_rate * c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SensorModel:
    """Lorentzian absorption sensor.

    absorption_depth : dip depth at resonance, in [0, 1] (1 = total absorption)
    half_width       : half width at half maximum of the dip, > 0
    shift_rate       : resonance shift per unit condition, nonzero
    center_offset    : resonance frequency at c = 0
    """

    absorption_depth: float
    half_width: float
    shift_rate: float
    center_offset: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.absorption_depth <= 1.0):
            raise ValueError(f"absorption_depth must lie in [0, 1], got {self.absorption_depth}")
        if not (self.half_width > 0.0 and np.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.shift_rate == 0.0 or not np.isfinite(self.shift_rate):
            raise ValueError(f"shift_rate must be nonzero and finite, got {self.shift_rate}")
        if not np.isfinite(self.center_offset):
            raise ValueError(f"center_offset must be finite, got {self.center_offset}")

    def resonance(self, c):
        """Resonance frequency shift_rate * c + center_offset."""
        return self.shift_rate * np.asarray(c, dtype=float) + self.center_offset

    def detuning(self, f, c):
        """Normalized detuning x = (f - resonance(c)) / half_width. Broadcasts over f and c."""
        f = np.asarray(f, dtype=float)
        return (f - self.resonance(c)) / self.half_width

    def reflection(self, f, c):
        """Complex reflection coefficient gamma = 1 - depth / (1 + j x)."""
        x = self.detuning(f, c)
        return 1.0 - self.absorption_depth / (1.0 + 1j * x)

    def reflection_dc(self, f, c):
        """Derivative of the reflection coefficient with respect to the condition c.

        d gamma / d c = -j * (depth * shift_rate / half_width) / (1 + j x)^2
        """
        x = self.detuning(f, c)
        scale = self.absorption_depth * self.shift_rate / self.half_width
        return -1j * scale / (1.0 + 1j * x) ** 2


def detuning(model: SensorModel, f, c):
    return model.detuning(f, c)


def reflection(model: SensorModel, f, c):
    return model.reflection(f, c)


def reflection_dc(model: SensorModel, f, c):
    return model.reflection_dc(f, c)
