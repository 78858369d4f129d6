"""Scenario description: condition prior, fading statistics, noise and subcarrier grid.

The package defaults live in config.KEYS; config.default_scenario() builds them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .sensor import SensorModel

_MAX_STD = math.sqrt(sys.float_info.max)  # largest prior std whose square is a finite float


def whole_number(name: str, value, minimum: int = 1) -> int:
    """`value` as an int; ValueError naming `name` unless it is a whole number >= minimum."""
    if not (float(value).is_integer() and value >= minimum):  # rejects 2.5, nan and inf
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def _check_spacing(spacing) -> None:
    """ValueError naming a spacing that is not positive and finite: inf has no bandwidth."""
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be {'finite' if spacing > 0.0 else 'positive'}, got {spacing}")


@dataclass(frozen=True)
class SensingPrior:
    """Gaussian prior N(mean, std^2) on the environmental condition."""

    mean: float
    std: float

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"prior mean must be finite, got {self.mean}")
        if not (self.std > 0.0 and np.isfinite(self.std)):
            raise ValueError(f"prior std must be positive and finite, got {self.std}")
        if self.std > _MAX_STD:
            raise ValueError(f"prior std {self.std!r} is too large: std^2 overflows above {_MAX_STD!r}")
        if not (self.std**2 > 0.0 and math.isfinite(1.0 / self.std**2)):
            raise ValueError(f"prior std {self.std!r} is too small: 1 / std^2 is not a finite float")

    def curvature(self) -> float:
        """Prior Fisher information 1 / std^2 (negative expected log-prior curvature)."""
        return 1.0 / self.std**2

    def pdf(self, c):
        z = (np.asarray(c, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class RicianSpec:
    """Rician fading with unit mean power: h ~ CN(sqrt(1 - u), u), u = 1/(kappa + 1).

    kappa = 0 is Rayleigh fading (u = 1); deterministic_los models the
    kappa -> inf limit u = 0, where both channels are identically 1 and carry
    no uncertainty. The bound reads the fading through u alone.
    """

    kappa: float = 0.0
    deterministic_los: bool = False

    def __post_init__(self):
        if self.kappa < 0.0 or not np.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")

    def mean(self) -> float:
        """LoS component sqrt(1 - u) = sqrt(kappa / (kappa + 1)); 1 in deterministic LoS mode."""
        return math.sqrt(1.0 - self.scatter_variance())

    def scatter_variance(self) -> float:
        """Variance of the diffuse component, 1 / (kappa + 1); 0 in deterministic LoS mode."""
        if self.deterministic_los:
            return 0.0
        return 1.0 / (self.kappa + 1.0)

    def second_moment(self) -> float:
        """E|h|^2 = 1 under the unit-power normalization."""
        return 1.0

    def prior_info_per_coordinate(self) -> float:
        """Prior Fisher information of each real channel coordinate, 2 (kappa + 1).

        Each of Re h and Im h is Gaussian with variance 1 / (2 (kappa + 1)).
        """
        if self.deterministic_los:
            raise ValueError("deterministic LoS channels carry no prior information term")
        return 2.0 * (self.kappa + 1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Circular complex noise CN(0, variance) per subcarrier."""

    variance: float

    def __post_init__(self):
        if not (self.variance > 0.0 and np.isfinite(self.variance)):
            raise ValueError(f"noise variance must be positive and finite, got {self.variance}")
        if not math.isfinite(2.0 / float(self.variance)):
            raise ValueError(f"noise variance {self.variance!r} is too small: 2 / variance is not a finite float")

    @property
    def snr_db(self) -> float:
        """SNR in dB under the convention SNR = 1 / variance."""
        return -10.0 * math.log10(self.variance)


def snr_to_noise(snr_db: float) -> NoiseSpec:
    """Noise variance 10^(-snr_db / 10), i.e. SNR defined as 1 / variance."""
    try:
        variance = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db!r} is too low: 10^(-snr_db / 10) overflows a float") from None
    return NoiseSpec(variance=variance)


@dataclass(frozen=True)
class SubcarrierGrid:
    """Frequencies probed by the multicarrier waveform, strictly increasing.

    Uniform grids remember their spacing so bandwidth-level identities
    (which need a tone density) stay available.
    """

    frequencies: tuple
    spacing: float | None = None

    def __post_init__(self):
        try:
            freqs = np.asarray(self.frequencies)
        except ValueError:  # ragged nesting; float() below names the bad element
            freqs = None
        if freqs is None or freqs.ndim != 1 or freqs.dtype.kind not in "fiu":
            # anything but a flat numeric sequence goes through float() per
            # element, which raises on None, nesting and non-numbers
            freqs = [float(f) for f in self.frequencies]
        freqs = np.array(freqs, dtype=float)  # a copy: the caller's array stays its own
        if freqs.size == 0:
            raise ValueError("grid needs at least one subcarrier")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("subcarrier frequencies must be finite")
        if np.any(freqs[1:] <= freqs[:-1]):
            raise ValueError("subcarrier frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", tuple(freqs.tolist()))
        freqs.setflags(write=False)
        object.__setattr__(self, "_array", freqs)
        if self.spacing is not None:
            _check_spacing(self.spacing)

    @classmethod
    def uniform(cls, center: float, spacing: float, count: int) -> "SubcarrierGrid":
        """Uniform grid of `count` tones straddling `center` symmetrically."""
        count = whole_number("count", count)  # 2.5 tones would sit off centre
        _check_spacing(spacing)  # before the tones, whose checks would not name the spacing
        offsets = (np.arange(count) - (count - 1) / 2.0) * spacing
        return cls(frequencies=center + offsets, spacing=spacing)

    @classmethod
    def from_frequencies(cls, frequencies) -> "SubcarrierGrid":
        return cls(frequencies=tuple(frequencies), spacing=None)

    @property
    def count(self) -> int:
        return len(self.frequencies)

    @property
    def bandwidth(self) -> float:
        """count * spacing for uniform grids (span including the tone footprint)."""
        if self.spacing is None:
            raise ValueError("bandwidth is defined only for uniform grids")
        return self.count * self.spacing

    def as_array(self) -> np.ndarray:
        """The frequencies as a read-only float array, shared by every caller."""
        return self._array


@dataclass(frozen=True)
class Scenario:
    """Complete sensing scenario: sensor, condition prior, fading, noise, grid."""

    sensor: SensorModel
    prior: SensingPrior
    channel: RicianSpec
    noise: NoiseSpec
    grid: SubcarrierGrid

    def with_noise(self, noise: NoiseSpec) -> "Scenario":
        return replace(self, noise=noise)

    def with_grid(self, grid: SubcarrierGrid) -> "Scenario":
        return replace(self, grid=grid)

    def with_channel(self, channel: RicianSpec) -> "Scenario":
        return replace(self, channel=channel)
