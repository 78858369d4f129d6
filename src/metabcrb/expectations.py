"""Expectations of reflection statistics over the Gaussian condition prior.

Three prior moments drive every bound in this package. With gamma the
reflection coefficient, gamma' its condition derivative and E_c the prior
expectation:

    slope_power            E_c |gamma'|^2          (real, >= 0)
    slope_reflection_corr  E_c [conj(gamma') gamma] (complex)
    reflection_power       E_c |gamma|^2           (real, in [0, 1])

The quadrature path reduces all three to Gaussian expectations of the scalar
detuning kernels 1/(1+x^2)^2, 1/(1+x^2) and x/(1+x^2)^2 with
x ~ N(x0, s^2), x0 = (f - resonance(prior mean)) / half_width and
s = |shift_rate| * prior std / half_width.  Smooth regimes use Gauss-Hermite
rules with automatic order doubling; when the Lorentzian is much narrower
than the shifted prior (half_width / (|shift_rate| * std) below ~0.35) the
kernels turn into near-delta spikes that no practical Hermite order resolves,
so the engine switches to adaptive quadrature in detuning space with
breakpoints planted on the spike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .scenario import SensingPrior
from .sensor import SensorModel

GH_RELTOL = 1e-9
GH_ABSTOL = 1e-14
GH_MAX_ORDER = 1600
ADAPTIVE_RATIO = 0.35  # half_width / (|shift_rate| * std) below which GH cannot resolve
_UMAX = 12.0  # integration halfwidth in prior standard deviations

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite evaluation starting at `order` nodes, refined by doubling."""

    order: int = 200

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")


@dataclass(frozen=True)
class MonteCarlo:
    """Plain Monte Carlo over the prior with a splittable, chunk-keyed generator."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo value with its standard error (componentwise bound if complex)."""

    value: complex
    std_err: float
    samples: int


MC_CHUNK = 512  # small enough that chunk means make a usable bootstrap population


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-style generator for one chunk; identical under any execution order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def _chunks(seed: int, samples: int):
    """Yield (generator, size) for each MC_CHUNK-draw chunk of `samples` draws."""
    for idx, start in enumerate(range(0, samples, MC_CHUNK)):
        yield chunk_rng(seed, idx), min(MC_CHUNK, samples - start)


def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gh_cache:
        # scipy's rule stays finite at high orders where numpy's overflows
        _gh_cache[order] = roots_hermite(order)
    return _gh_cache[order]


def _gh_orders(start: int):
    yield start
    n = start
    while 2 * n <= GH_MAX_ORDER:
        n *= 2
        yield n


def _gh_apply(fn, prior: SensingPrior, order: int):
    z, w = _gh_nodes(order)
    c = prior.mean + math.sqrt(2.0) * prior.std * z
    vals = np.asarray(fn(c))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(vals)))[0])
        raise ValueError(f"integrand is not finite at quadrature node c={c.flat[bad % c.size]!r} (order {order})")
    return np.sum(vals * (w * _INV_SQRT_PI), axis=-1)


def _close(a, b) -> bool:
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    return bool(np.all(np.abs(a - b) <= GH_RELTOL * np.maximum(np.abs(a), np.abs(b)) + GH_ABSTOL))


def expect_over_prior(fn, prior: SensingPrior, method=Quadrature()):
    """Expectation of a vectorized function of the condition under the prior.

    Quadrature returns a float/complex; MonteCarlo returns an McEstimate.
    Gauss-Hermite is exact for polynomial integrands up to degree
    2 * order - 1 and refines by doubling until successive estimates agree
    to 1e-9 relative (order cap 1600, with a warning if never reached).
    """
    if isinstance(method, MonteCarlo):
        return _mc_expect(fn, prior, method)
    if not isinstance(method, Quadrature):
        raise TypeError(f"unsupported expectation method {method!r}")

    if method.order >= GH_MAX_ORDER:
        return _gh_apply(fn, prior, method.order)
    est = None
    for order in _gh_orders(method.order):
        new = _gh_apply(fn, prior, order)
        if est is not None and _close(est, new):
            return new
        est = new
    warnings.warn(
        f"Gauss-Hermite did not converge to {GH_RELTOL:g} relative by order {GH_MAX_ORDER}; "
        "returning the finest estimate",
        RuntimeWarning,
    )
    return est


def _mc_expect(fn, prior: SensingPrior, method: MonteCarlo) -> McEstimate:
    n = method.samples
    sums = np.zeros(2)
    sums_sq = np.zeros(2)
    for rng, size in _chunks(method.seed, n):
        c = prior.mean + prior.std * rng.standard_normal(size)
        vals = np.asarray(fn(c), dtype=complex)
        sums += [np.sum(vals.real), np.sum(vals.imag)]
        sums_sq += [np.sum(vals.real**2), np.sum(vals.imag**2)]
    mean = sums / n
    if n > 1:
        var = np.maximum(sums_sq - n * mean**2, 0.0) / (n - 1)
        se = float(np.max(np.sqrt(var / n)))
    else:
        se = math.inf
    value = complex(mean[0], mean[1])
    if value.imag == 0.0:
        value = value.real
    return McEstimate(value=value, std_err=se, samples=n)


# scalar detuning kernels shared by all three moments
def _k_sq(x):
    return 1.0 / (1.0 + x * x) ** 2


def _k_lor(x):
    return 1.0 / (1.0 + x * x)


def _k_odd(x):
    return x / (1.0 + x * x) ** 2


def detuning_stats(sensor: SensorModel, f, prior: SensingPrior) -> tuple[np.ndarray, float]:
    """Center x0 and spread s of the detuning x ~ N(x0, s^2) induced by the prior."""
    f = np.asarray(f, dtype=float)
    x0 = (f - sensor.resonance(prior.mean)) / sensor.half_width
    s = abs(sensor.shift_rate) * prior.std / sensor.half_width
    return x0, s


def _kernel_means_gh(x0: np.ndarray, s: float, order: int) -> np.ndarray:
    """Stack [E k_sq, E k_lor, E k_odd] over frequencies, one Hermite order."""
    z, w = _gh_nodes(order)
    x = x0[:, None] + (math.sqrt(2.0) * s) * z[None, :]
    wn = w * _INV_SQRT_PI
    return np.stack([
        np.sum(_k_sq(x) * wn, axis=1),
        np.sum(_k_lor(x) * wn, axis=1),
        np.sum(_k_odd(x) * wn, axis=1),
    ])


def _kernel_means_adaptive(x0: float, s: float) -> np.ndarray:
    """Same kernel means by adaptive integration over u with x = x0 + s u, u ~ N(0,1)."""
    from scipy.integrate import quad  # deferred: the import costs ~0.4 s and only this route needs it
    inv = 1.0 / s
    guides = [-x0 * inv]  # spike center x = 0
    for dx in (1.0, -1.0, 5.0, -5.0, 50.0, -50.0):
        guides.append((dx - x0) * inv)
    pts = sorted({p for p in guides if -_UMAX < p < _UMAX})

    def integrate(kernel):
        def integrand(u):
            return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * kernel(x0 + s * u)

        val, _ = quad(integrand, -_UMAX, _UMAX, points=pts or None,
                      limit=500, epsabs=1e-14, epsrel=1e-11)
        return val

    return np.array([integrate(_k_sq), integrate(_k_lor), integrate(_k_odd)])


def kernel_means(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()) -> np.ndarray:
    """Prior means of the three detuning kernels, shape (3, len(f)).

    Routing: adaptive detuning-space quadrature for spiky kernels
    (half_width / (|shift_rate| * std) < 0.35), Gauss-Hermite with order
    doubling otherwise, falling back to adaptive if the cap is hit.
    """
    if not isinstance(method, Quadrature):
        raise TypeError("kernel_means supports quadrature only; use the moment functions for MC")
    x0, s = detuning_stats(sensor, f, prior)
    x0 = np.atleast_1d(x0)
    if 1.0 / s < ADAPTIVE_RATIO:
        return np.stack([_kernel_means_adaptive(float(v), s) for v in x0], axis=1)

    if method.order >= GH_MAX_ORDER:
        return _kernel_means_gh(x0, s, method.order)
    est = None
    for order in _gh_orders(method.order):
        new = _kernel_means_gh(x0, s, order)
        if est is not None and _close(est, new):
            return new
        est = new
    # unresolved spike near the routing threshold: integrate it directly instead
    return np.stack([_kernel_means_adaptive(float(v), s) for v in x0], axis=1)


def _moments_from_kernels(sensor: SensorModel, km: np.ndarray):
    """Map kernel means to (slope_power, corr, reflection_power) arrays.

    With d = depth, a = shift_rate, w = half_width and the kernel means
    m2 = E[1/(1+x^2)^2], m1 = E[1/(1+x^2)], mx = E[x/(1+x^2)^2]:

        slope_power      = (d a / w)^2 * m2
        reflection_power = 1 - d (2 - d) * m1
        corr             = (d a / w) * ( -(2 - d) mx + j ((2 - d) m2 - m1) )
    """
    d = sensor.absorption_depth
    scale = d * sensor.shift_rate / sensor.half_width
    m2, m1, mx = km
    slope_power = scale**2 * m2
    refl_power = 1.0 - d * (2.0 - d) * m1
    corr = scale * (-(2.0 - d) * mx + 1j * ((2.0 - d) * m2 - m1))
    return slope_power, corr, refl_power


def prior_moments(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()):
    """All three prior moments at the given frequencies, computed on shared nodes.

    Returns (slope_power, corr, reflection_power) arrays matching the shape of f.
    """
    scalar = np.isscalar(f) or np.ndim(f) == 0
    km = kernel_means(sensor, f, prior, method)
    slope_power, corr, refl_power = _moments_from_kernels(sensor, km)
    if scalar:
        return float(slope_power[0]), complex(corr[0]), float(refl_power[0])
    return slope_power, corr, refl_power


def slope_power(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()):
    """E_c |d gamma / d c|^2 at frequency f (McEstimate under MonteCarlo)."""
    if isinstance(method, MonteCarlo):
        est = _mc_expect(lambda c: np.abs(sensor.reflection_dc(f, c)) ** 2, prior, method)
        return McEstimate(value=float(np.real(est.value)), std_err=est.std_err, samples=est.samples)
    return prior_moments(sensor, f, prior, method)[0]


def slope_reflection_corr(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()):
    """E_c [conj(d gamma / d c) * gamma], the complex slope/reflection coupling."""
    if isinstance(method, MonteCarlo):
        return _mc_expect(
            lambda c: np.conj(sensor.reflection_dc(f, c)) * sensor.reflection(f, c), prior, method
        )
    return prior_moments(sensor, f, prior, method)[1]


def corr_magsq(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()):
    """|E_c [conj(gamma') gamma]|^2, the squared modulus of the coupling moment."""
    val = slope_reflection_corr(sensor, f, prior, method)
    if isinstance(val, McEstimate):
        val = val.value
    return np.abs(val) ** 2


def reflection_power(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()):
    """E_c |gamma|^2 at frequency f, in [0, 1] (McEstimate under MonteCarlo)."""
    if isinstance(method, MonteCarlo):
        est = _mc_expect(lambda c: np.abs(sensor.reflection(f, c)) ** 2, prior, method)
        return McEstimate(value=float(np.real(est.value)), std_err=est.std_err, samples=est.samples)
    return prior_moments(sensor, f, prior, method)[2]
