"""Expectations of reflection statistics over the Gaussian condition prior.

Three prior moments drive every bound in this package. With gamma the
reflection coefficient, gamma' its condition derivative and E_c the prior
expectation:

    slope_power            E_c |gamma'|^2          (real, >= 0)
    slope_reflection_corr  E_c [conj(gamma') gamma] (complex)
    reflection_power       E_c |gamma|^2           (real, in [0, 1])

The quadrature path reduces all three to Gaussian expectations of the scalar
detuning kernels 1/(1+x^2)^2, 1/(1+x^2) and x/(1+x^2)^2 with x ~ N(x0, s^2),
x0 = (f - resonance(prior mean)) / half_width and s = |shift_rate| * prior
std / half_width.  `kernel_means` sends each tone to one of three fixed,
vectorised rules, chosen by s and by |z|, z = (j - x0)/(s sqrt 2):

* Gauss-Hermite at KERNEL_ORDER = 800 nodes when s <= 1 (the kernels are
  smooth on the prior's scale) and, at any s, when |z| >= FAR_ZMIN = 10
  (the spike at x = 0 carries an exp(-|z|^2) share below roundoff).
* s > 1 and |z| <= FADDEEVA_ZMAX = 3.5: closed forms in the Faddeeva function
  w(z) = scipy.special.wofz (Voigt integrals; Zaghloul & Ali, ACM TOMS
  Algorithm 916, 2011).
* s > 1 and 3.5 < |z| < 10, where the closed form cancels: a trapezoid rule
  in t with x = sinh t.

Against an mpmath closed form they agree to 3e-12 relative for s from 1e-4
to 1e5 and |z| up to 1e6.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite, wofz

from .scenario import SensingPrior
from .sensor import SensorModel

GH_RELTOL = 1e-9
GH_ABSTOL = 1e-14
GH_MAX_ORDER = 1600
KERNEL_ORDER = 800  # the one Gauss-Hermite order of kernel_means
FADDEEVA_ZMAX = 3.5  # |z| above which the closed form's w' cancels
FAR_ZMIN = 10.0  # |z| from which the spike's exp(-|z|^2) share is below roundoff
_SINH_NODES = 800  # trapezoid nodes in t = asinh(x)
_SINH_SPAN = 13.0  # trapezoid window x0 +- _SINH_SPAN * s
_BLOCK = 256  # tones per block of a vectorised rule: bounds the (tones x nodes) temporaries

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite evaluation starting at `order` nodes, refined by doubling.

    Only `expect_over_prior` reads `order`. `kernel_means` takes this type to
    mean "deterministic quadrature" and uses its own fixed rules: Gauss-Hermite
    at KERNEL_ORDER, the Faddeeva closed form and the sinh trapezoid rule.
    """

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
# Elements (draws x width) per run of chunks. Narrower chunks spend their time
# in Python overhead, which threads cannot overlap. A run's complex temporaries
# stay below numpy's 256 KiB temporary-elision threshold, as a single narrow
# chunk's do, so batched arithmetic rounds exactly as chunk by chunk.
_RUN_ELEMENTS = 1 << 13


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-style generator for one chunk; identical under any execution order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def _worker_count() -> int:
    """Threads for Monte Carlo chunk work, from METABCRB_THREADS.

    Unset or 0 means the CPUs this process may run on, at most 8. Anything
    but a non-negative integer raises ValueError naming the variable.
    """
    raw = os.environ.get("METABCRB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"METABCRB_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"METABCRB_THREADS must be >= 0, got {n}")
    if n > 0:
        return n
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        usable = os.cpu_count() or 1
    return min(usable, 8)


def _map_chunks(fn, seed: int, samples: int, width: int = 1) -> list:
    """fn over the MC_CHUNK-draw chunks of `samples` draws, results in chunk order.

    `width` counts the array elements per draw (tones, grid points). A run
    holds as many consecutive full chunks as fit in _RUN_ELEMENTS elements,
    at least one; a partial last chunk runs alone. fn takes a run as a list
    of (generator, size) pairs and returns one result per chunk. Runs of
    several chunks go in a loop on this thread; single-chunk runs go to a
    pool of _worker_count() threads. Every chunk draws from its own
    chunk_rng, so the returned list does not depend on the thread count.
    """
    run = max(1, _RUN_ELEMENTS // (MC_CHUNK * width))
    n_full, rest = divmod(samples, MC_CHUNK)
    runs = [range(lo, min(lo + run, n_full)) for lo in range(0, n_full, run)]
    if rest:
        runs.append(range(n_full, n_full + 1))

    def one_run(chunks):
        return fn([(chunk_rng(seed, i), min(MC_CHUNK, samples - i * MC_CHUNK)) for i in chunks])

    workers = min(_worker_count(), len(runs))
    if run > 1 or workers <= 1:
        results = map(one_run, runs)
    else:
        from concurrent.futures import ThreadPoolExecutor  # deferred: serial runs never need it
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_run, runs))
    return [item for result in results for item in result]


def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gh_cache:
        # scipy's rule stays finite at high orders where numpy's overflows
        _gh_cache[order] = roots_hermite(order)
    return _gh_cache[order]


def _gh_apply(fn, prior: SensingPrior, order: int):
    z, w = _gh_nodes(order)
    c = prior.mean + math.sqrt(2.0) * prior.std * z
    vals = np.asarray(fn(c))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(vals)))[0])
        raise ValueError(f"integrand is not finite at quadrature node c={c.flat[bad % c.size]!r} (order {order})")
    return np.sum(vals * (w * _INV_SQRT_PI), axis=-1)


def expect_over_prior(fn, prior: SensingPrior, method=Quadrature()):
    """Expectation of a vectorized function of the condition under the prior.

    Quadrature returns a float/complex; MonteCarlo returns an McEstimate and
    calls fn once per chunk of draws, from worker threads when
    METABCRB_THREADS allows more than one.
    Gauss-Hermite is exact for polynomial integrands up to degree
    2 * order - 1 and refines by doubling until successive estimates agree
    to 1e-9 relative (order cap 1600, with a warning if never reached).
    """
    if isinstance(method, MonteCarlo):
        return _mc_expect(fn, prior, method)
    if not isinstance(method, Quadrature):
        raise TypeError(f"unsupported expectation method {method!r}")
    order = method.order
    est = _gh_apply(fn, prior, order)
    if order >= GH_MAX_ORDER:
        return est
    while 2 * order <= GH_MAX_ORDER:
        order *= 2
        new = _gh_apply(fn, prior, order)
        if np.all(np.abs(est - new) <= GH_RELTOL * np.maximum(np.abs(est), np.abs(new)) + GH_ABSTOL):
            return new
        est = new
    warnings.warn(f"Gauss-Hermite did not converge to {GH_RELTOL:g} relative by order "
                  f"{GH_MAX_ORDER}; returning the finest estimate", RuntimeWarning)
    return est


def _mc_expect(fn, prior: SensingPrior, method: MonteCarlo) -> McEstimate:
    def chunk_sums(rng, size):
        c = prior.mean + prior.std * rng.standard_normal(size)
        vals = np.asarray(fn(c), dtype=complex)
        return ([np.sum(vals.real), np.sum(vals.imag)],
                [np.sum(vals.real**2), np.sum(vals.imag**2)])

    n = method.samples
    sums = np.zeros(2)
    sums_sq = np.zeros(2)
    for s, sq in _map_chunks(lambda run: [chunk_sums(*chunk) for chunk in run], method.seed, n):
        sums += s
        sums_sq += sq
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


def detuning_stats(sensor: SensorModel, f, prior: SensingPrior) -> tuple[np.ndarray, float]:
    """Center x0 and spread s of the detuning x ~ N(x0, s^2) induced by the prior."""
    f = np.asarray(f, dtype=float)
    x0 = (f - sensor.resonance(prior.mean)) / sensor.half_width
    s = abs(sensor.shift_rate) * prior.std / sensor.half_width
    return x0, s


def _kernel_means_gh(x0: np.ndarray, s: float, order: int) -> np.ndarray:
    """Stack [E k_sq, E k_lor, E k_odd] over frequencies, one Hermite order, in
    blocks of _BLOCK tones: bitwise equal to the whole (tones x order) array."""
    z, w = _gh_nodes(order)
    dx = (math.sqrt(2.0) * s) * z
    wn = w * _INV_SQRT_PI
    out = np.empty((3, x0.size))
    for lo in range(0, x0.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        x = x0[rows, None] + dx
        # far tails square past the float range; 1/inf = 0 is the right limit there
        with np.errstate(over="ignore"):
            t = 1.0 + x * x
            t2 = t**2
        out[0, rows] = np.sum((1.0 / t2) * wn, axis=1)
        out[1, rows] = np.sum((1.0 / t) * wn, axis=1)
        out[2, rows] = np.sum((x / t2) * wn, axis=1)
    return out


def _kernel_means_faddeeva(z: np.ndarray, s: float) -> np.ndarray:
    """Kernel means in closed form from w(z), z = (j - x0)/(s sqrt 2).

    E[1/(1+jx)] = sqrt(pi/2) w(z) / s and E[1/(1+jx)^2] = -j sqrt(pi) w'(z) / (2 s^2)
    with w' = -2 z w + 2j/sqrt(pi); then m1 = Re E1, m2 = (Re E2 + m1)/2 and
    mx = -Im E2 / 2.  Accurate to ~1e-12 relative for |z| <= FADDEEVA_ZMAX.
    """
    w = wofz(z)
    dw = -2.0 * z * w + 2j * _INV_SQRT_PI
    c2 = math.sqrt(math.pi) / (2.0 * s * s)
    m1 = math.sqrt(0.5 * math.pi) / s * w.real
    return np.stack([0.5 * (c2 * dw.imag + m1), m1, 0.5 * c2 * dw.real])


def _kernel_means_sinh(x0: np.ndarray, s: float) -> np.ndarray:
    """Kernel means by the trapezoid rule in t with x = sinh t, over x0 +- 13 s.

    1 + x^2 = cosh^2 t and dx = cosh t dt turn the kernels into 1/cosh^4 t and
    1/cosh^2 t: the spike at x = 0 opens to unit width in t, and the analytic
    integrand makes the uniform rule converge exponentially (Trefethen &
    Weideman, SIAM Review 56, 2014). x - x0 = 2 cosh((t+t0)/2) sinh((t-t0)/2)
    keeps its digits near t0 = asinh(x0). The odd kernel goes by parts,
    E[x/(1+x^2)^2] = -E[(x - x0)/(1+x^2)] / (2 s^2), since its direct form
    cancels the spike's two halves and loses digits in proportion to s.
    """
    u = np.linspace(0.0, 1.0, _SINH_NODES)
    out = np.empty((3, x0.size))
    for lo in range(0, x0.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        a = np.arcsinh(x0[rows] - _SINH_SPAN * s)[:, None]
        b = np.arcsinh(x0[rows] + _SINH_SPAN * s)[:, None]
        t = a + (b - a) * u
        t0 = np.arcsinh(x0[rows])[:, None]
        d = 2.0 * np.cosh(0.5 * (t + t0)) * np.sinh(0.5 * (t - t0)) / s  # (x - x0) / s
        r = 1.0 / np.cosh(t)
        # trapezoid weight times density times dx/dt = cosh t, times the 1/cosh^2 t kernel
        q = np.exp(-0.5 * d * d) * r * ((b - a) / ((_SINH_NODES - 1) * s * math.sqrt(2.0 * math.pi)))
        q[:, [0, -1]] *= 0.5
        out[0, rows] = np.sum(q * r * r, axis=1)
        out[1, rows] = np.sum(q, axis=1)
        out[2, rows] = np.sum(q * d, axis=1) / (-2.0 * s)
    return out


def kernel_means(sensor: SensorModel, f, prior: SensingPrior, method=Quadrature()) -> np.ndarray:
    """Prior means of the three detuning kernels, shape (3, len(f)).

    One fixed rule per tone, by s and |z|, z = (j - x0)/(s sqrt 2): Gauss-Hermite
    at KERNEL_ORDER nodes if s <= 1 or |z| >= FAR_ZMIN; else the Faddeeva closed
    form if |z| <= FADDEEVA_ZMAX; else the sinh trapezoid rule. No rule adapts,
    so method.order does not change the result.
    """
    if not isinstance(method, Quadrature):
        raise TypeError("kernel_means supports quadrature only; use the moment functions for MC")
    x0, s = detuning_stats(sensor, f, prior)
    x0 = np.atleast_1d(x0)
    if s <= 1.0:
        return _kernel_means_gh(x0, s, KERNEL_ORDER)
    z = (1j - x0) / (math.sqrt(2.0) * s)
    near, far = np.abs(z) <= FADDEEVA_ZMAX, np.abs(z) >= FAR_ZMIN
    mid = ~(near | far)
    out = np.empty((3, x0.size))
    out[:, near] = _kernel_means_faddeeva(z[near], s)
    out[:, mid] = _kernel_means_sinh(x0[mid], s)
    out[:, far] = _kernel_means_gh(x0[far], s, KERNEL_ORDER)
    return out


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
    try:
        scale_sq = scale**2
    except OverflowError:
        scale_sq = math.inf
    if not math.isfinite(scale_sq):
        raise ArithmeticError(
            f"slope scale depth * shift_rate / half_width = {scale!r} overflows when squared; "
            f"sensor.half_width = {sensor.half_width!r} or sensor.shift_rate = {sensor.shift_rate!r} "
            "is out of range")
    m2, m1, mx = km
    slope_power = scale_sq * m2
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
