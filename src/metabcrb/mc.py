"""Monte Carlo oracle: averaged exact conditional Fisher information.

Independent check of the closed-form bound. Draw (c, channels) from the
prior, form the exact conditional Fisher information of the observation
model y_k = h_r gamma_k(c) h_t + noise for every draw, average, add the
prior information, invert. Nothing here reuses the analytic fading
averages, so agreement with bcrb_closed_form validates them.

Draws come in chunks of MC_CHUNK, each from its own counter-based
generator. A chunk's standard normals depend only on the prior, the tone
count and (seed, chunk index); the channel enters only through the map
mean + sigma z. So one draw per chunk serves every scenario that differs
only in its channel, such as validate's configured and Rayleigh variants.

Blocks are weighted averages of the chunk means: by chunk size for
mc_blocks and the bound, plus BOOTSTRAP_RESAMPLES resampled weightings,
drawn once per call, whose spread gives the bound's standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bcrb import _arrow_d, _schur_coupling, bcrb_closed_form
from .expectations import MC_CHUNK, McEstimate, _map_chunks, _mean_and_se
from .scenario import Scenario

BOOTSTRAP_RESAMPLES = 200
_BOOT_KEY = 0x626F6F74  # distinct stream for bootstrap resampling


@dataclass(frozen=True)
class ParameterSample:
    """One draw of the latent parameters: condition plus per-subcarrier gains."""

    condition: float
    receive: np.ndarray
    transmit: np.ndarray


def _draw_normals(prior, rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """Condition draws (size,) for one chunk, and the channels' standard normals.

    z (4, size, L) is filled in place, in generator order, with the normals
    of Re h_r, Im h_r, Re h_t and Im h_t. A z with L = 0 draws none.
    """
    c = prior.mean + prior.std * rng.standard_normal(z.shape[1])
    rng.standard_normal(out=z)
    return c


def _channels(channel, z: np.ndarray) -> np.ndarray:
    """Re h_r, Im h_r, Re h_t, Im h_t (4, ..., L) from the normals z of _draw_normals.

    The real parts are mean + sigma z and the imaginary parts sigma z, so h_r
    and h_t are CN(mean, scatter_variance) per tone.
    """
    parts = np.multiply(math.sqrt(channel.scatter_variance() / 2.0), z)
    parts[0::2] += channel.mean()
    return parts


def draw_samples(scenario: Scenario, size: int, rng: np.random.Generator):
    """Vectorized draws; channels are CN(mean, scatter_variance) per tone."""
    count = scenario.grid.count
    los = scenario.channel.deterministic_los
    z = np.empty((4, size, 0 if los else count))
    c = _draw_normals(scenario.prior, rng, z)
    if los:
        ones = np.ones((size, count), dtype=complex)
        return c, ones, ones.copy()
    parts = _channels(scenario.channel, z)
    h = np.empty((2, size, count), dtype=complex)
    h.real = parts[0::2]
    h.imag = parts[1::2]
    return c, h[0], h[1]


def conditional_fim(scenario: Scenario, sample: ParameterSample) -> np.ndarray:
    """Exact conditional Fisher information at one parameter draw.

    For the complex Gaussian observation with mean mu(theta) and noise
    variance v, entry (i, j) is (2 / v) Re(conj(d mu / d theta_i) d mu / d theta_j)
    summed over tones. Ordering: [c, (Re h_r, Im h_r, Re h_t, Im h_t)_1, ...].
    Symmetric positive semidefinite (and singular: only the product of the
    gains is observable per tone).
    """
    freqs = scenario.grid.as_array()
    count = freqs.size
    h_r = np.asarray(sample.receive, dtype=complex)
    h_t = np.asarray(sample.transmit, dtype=complex)
    if h_r.shape != (count,) or h_t.shape != (count,):
        raise ValueError(f"channel arrays must have shape ({count},)")
    gamma = scenario.sensor.reflection(freqs, sample.condition)
    dgamma = scenario.sensor.reflection_dc(freqs, sample.condition)

    n = 1 + 4 * count
    deriv = np.zeros((count, n), dtype=complex)
    deriv[:, 0] = h_r * dgamma * h_t
    tone = np.arange(count)
    base = 1 + 4 * tone
    deriv[tone, base + 0] = gamma * h_t
    deriv[tone, base + 1] = 1j * gamma * h_t
    deriv[tone, base + 2] = h_r * gamma
    deriv[tone, base + 3] = 1j * h_r * gamma
    fim = (2.0 / scenario.noise.variance) * np.real(np.conj(deriv).T @ deriv)
    return fim


@dataclass(frozen=True)
class McBlocks:
    """Chunk-averaged information blocks (prior included) with the per-chunk
    means they average. b_se bounds the standard error of each cross entry."""

    a: float
    b: np.ndarray
    d: np.ndarray
    a_se: float
    b_se: np.ndarray
    samples: int
    chunk_a: np.ndarray
    chunk_b: np.ndarray
    chunk_d_parts: np.ndarray
    chunk_sizes: np.ndarray

    @property
    def chunk_d(self) -> np.ndarray:
        """Per-chunk channel blocks (chunks, L, 4, 4), expanded from chunk_d_parts (chunks, L, 4)."""
        return _arrow_d(self.chunk_d_parts)


def _sensor_terms(sensor, freqs: np.ndarray, c: np.ndarray):
    """Per-draw sensor terms of conditions c (..., n) on tones freqs (L,), each (..., n, L).

    With x the detuning, r = 1 / (1 + x^2), q = x^2 r, d the depth and
    S = depth * shift_rate / half_width: |gamma'|^2 = (S r)^2,
    |gamma|^2 = (1 - d)^2 r + q and conj(gamma') gamma =
    S r (-(2 - d) x r + j ((1 - d) r - q)). Nothing cancels near the dip
    centre, and a detuning whose square leaves the float range gives the
    limits r = 0 and q = 1, not inf * 0.
    Returns (|gamma'|^2, Re and Im of conj(gamma') gamma, |gamma|^2).
    """
    d = sensor.absorption_depth
    x = sensor.detuning(freqs, c[..., None])
    with np.errstate(over="ignore", divide="ignore"):
        x2 = x * x  # inf once |x| passes 1.3e154
        q = 1.0 / (1.0 + 1.0 / x2)
    r = 1.0 / (1.0 + x2)
    sr = (d * sensor.shift_rate / sensor.half_width) * r
    core_re = (-(2.0 - d) * x) * (r * sr)
    core_im = ((1.0 - d) * r - q) * sr
    power = (1.0 - d) ** 2 * r + q
    return sr * sr, core_re, core_im, power


def _draw_sum(*factors) -> np.ndarray:
    """Sum over draws (axis -2) of the product of (..., n, L) factors, with no temporaries."""
    return np.einsum(",".join(["...nl"] * len(factors)) + "->...l", *factors)


def _chunk_block_means(terms, parts: np.ndarray):
    """Per-sample conditional-information entries averaged over each chunk.

    The derivative algebra of conditional_fim folded into the arrow blocks, in
    real arithmetic. `terms` come from _sensor_terms and `parts` from
    _channels: Re h_r, Im h_r, Re h_t, Im h_t, each stacked by chunk (K, n, L).
    Returns (a_mean (K,), b_mean (K, L, 4), d_parts (K, L, 4)) without the
    2/noise_var scale or prior terms; d_parts holds the four distinct entries
    of each channel block, see _arrow_d.
    """
    slope_sq, core_re, core_im, power = terms
    p, q, u, v = parts
    n = p.shape[-2]
    mag_r = np.einsum("i...,i...->...", parts[:2], parts[:2])
    mag_t = np.einsum("i...,i...->...", parts[2:], parts[2:])
    # per-draw sums over tones, then a pairwise mean over draws: the terms are
    # all positive, so this keeps the rounding at log2(n) ulp, not n
    a_mean = np.mean(np.einsum("...nl,...nl,...nl->...n", slope_sq, mag_r, mag_t), axis=-1)

    # conj(h_r) |h_t|^2 core and |h_r|^2 conj(h_t) core, split into parts
    b_mean = np.stack([
        _draw_sum(mag_t, p, core_re) + _draw_sum(mag_t, q, core_im),
        _draw_sum(mag_t, q, core_re) - _draw_sum(mag_t, p, core_im),
        _draw_sum(mag_r, u, core_re) + _draw_sum(mag_r, v, core_im),
        _draw_sum(mag_r, v, core_re) - _draw_sum(mag_r, u, core_im),
    ], axis=-1) / n

    # |gamma|^2 times |h_t|^2, |h_r|^2 and h_r conj(h_t)
    d_parts = np.stack([
        _draw_sum(power, mag_t),
        _draw_sum(power, mag_r),
        _draw_sum(power, p, u) + _draw_sum(power, q, v),
        _draw_sum(power, q, u) - _draw_sum(power, p, v),
    ], axis=-1) / n
    return a_mean, b_mean, d_parts


def _shared_chunk_means(scenarios, samples: int, seed: int):
    """Chunk means (a, b, d_parts) of each scenario from one set of draws, and the chunk sizes.

    The scenarios must share prior, sensor and grid and have random channels.
    Each chunk draws its standard normals once and forms the sensor terms
    once; only the channel map and the channel-dependent sums run per
    scenario. So every scenario gets bitwise the chunk means that a call
    with it alone gives.
    """
    first = scenarios[0]
    for sc in scenarios:
        if (sc.prior, sc.sensor, sc.grid) != (first.prior, first.sensor, first.grid):
            raise ValueError("scenarios sharing draws must have the same prior, sensor and grid")
        if sc.channel.deterministic_los:
            raise ValueError("deterministic LoS has no channel blocks to estimate")
    if samples <= MC_CHUNK:
        raise ValueError(f"need at least {MC_CHUNK + 1} samples (two chunks of {MC_CHUNK}) "
                         f"to estimate the Monte Carlo error, got {samples}")
    freqs = first.grid.as_array()

    def run_means(chunks):
        # a run's chunks share one size; its normals are the only draws held
        z = np.empty((len(chunks), 4, chunks[0][1], freqs.size))
        c = np.array([_draw_normals(first.prior, rng, zk) for (rng, _), zk in zip(chunks, z)])
        terms = _sensor_terms(first.sensor, freqs, c)
        z = np.moveaxis(z, 1, 0)
        means = [_chunk_block_means(terms, _channels(sc.channel, z)) for sc in scenarios]
        # one result per chunk: its (a, b, d_parts) for each scenario
        return [[tuple(m[k] for m in parts) for parts in means] for k in range(len(chunks))]

    per_chunk = _map_chunks(run_means, seed, samples, freqs.size)
    sizes = np.minimum(MC_CHUNK, samples - MC_CHUNK * np.arange(len(per_chunk))).astype(float)
    return [[np.array(parts) for parts in zip(*means)] for means in zip(*per_chunk)], sizes


def _average_blocks(scenario: Scenario, chunk_means, weights: np.ndarray):
    """Blocks a (R,), b (R, L, 4) and d (R, L, 4, 4) of the chunk means averaged
    with each row of `weights` (R, n_chunks), prior terms included.

    The channel blocks are expanded from their four distinct entries only
    after averaging.
    """
    chunk_a, chunk_b, d_parts = chunk_means
    two_over = 2.0 / scenario.noise.variance
    a = two_over * np.sum(weights * chunk_a, axis=1) + scenario.prior.curvature()
    b = two_over * np.einsum("ri,ikj->rkj", weights, chunk_b)
    d = _arrow_d(two_over * np.einsum("ri,ikj->rkj", weights, d_parts))
    d[..., np.arange(4), np.arange(4)] += scenario.channel.prior_info_per_coordinate()
    return a, b, d


def mc_blocks(scenario: Scenario, samples: int, seed: int = 0) -> McBlocks:
    """Monte Carlo estimate of the information blocks, prior terms included.

    The standard errors come from the spread of chunk means, so the draws
    must fill at least two chunks of MC_CHUNK.
    """
    means, sizes = _shared_chunk_means((scenario,), samples, seed)
    chunk_a, chunk_b, d_parts = means[0]
    weights = sizes / samples
    (a,), (b,), (d,) = _average_blocks(scenario, means[0], weights[None])

    # spread of chunk means gives the standard error of the weighted mean
    n_chunks = sizes.size
    a_mean = np.sum(weights * chunk_a)
    b_mean = np.einsum("i,ikj->kj", weights, chunk_b)
    a_se = float(np.sqrt(np.sum(weights**2 * (chunk_a - a_mean) ** 2) * n_chunks / (n_chunks - 1)))
    b_se = np.sqrt(np.einsum("i,ikj->kj", weights**2, (chunk_b - b_mean) ** 2) * n_chunks / (n_chunks - 1))
    two_over = 2.0 / scenario.noise.variance
    return McBlocks(a=float(a), b=b, d=d, a_se=two_over * a_se, b_se=two_over * b_se,
                    samples=samples, chunk_a=chunk_a, chunk_b=chunk_b,
                    chunk_d_parts=d_parts, chunk_sizes=sizes)


def _mc_bounds(scenarios, samples: int, seed: int) -> list:
    """mc_bound of each random-channel scenario, all from one set of draws.

    The bound's standard error comes from a block bootstrap over chunk means;
    every scenario uses the same BOOTSTRAP_RESAMPLES picks of chunks.
    """
    means, sizes = _shared_chunk_means(scenarios, samples, seed)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOT_KEY,))))
    picks = rng.integers(0, sizes.size, size=(BOOTSTRAP_RESAMPLES, sizes.size))
    # each resample weighs a chunk by its size times how often it was picked
    resampled = np.zeros(picks.shape)
    np.add.at(resampled, (np.arange(BOOTSTRAP_RESAMPLES)[:, None], picks), sizes[picks])
    resampled /= np.sum(resampled, axis=1, keepdims=True)
    weights = np.vstack([sizes / samples, resampled])
    estimates = []
    for sc, chunk_means in zip(scenarios, means):
        a, b, d = _average_blocks(sc, chunk_means, weights)
        bounds = 1.0 / (a - _schur_coupling(b, d))
        with np.errstate(over="ignore"):  # bounds near the float limit spread to inf
            std_err = float(np.std(bounds[1:], ddof=1))
        estimates.append(McEstimate(value=float(bounds[0]), std_err=std_err, samples=samples))
    return estimates


def mc_bound(scenario: Scenario, samples: int, seed: int = 0) -> McEstimate:
    """Bound from Monte Carlo averaged conditional information.

    Standard error comes from a block bootstrap over chunk means (the bound
    is a nonlinear function of the averaged entries, so the uncertainty must
    be propagated through the inversion); random channels therefore need the
    two-chunk minimum of mc_blocks, and the value is the bound of mc_blocks'
    a, b and d. Deterministic LoS has no sampling dimension left that the
    bound actually depends on beyond the condition average, which is
    evaluated by quadrature: the estimate is exact and the standard error is
    zero.
    """
    if scenario.channel.deterministic_los:
        return McEstimate(value=bcrb_closed_form(scenario).bound, std_err=0.0, samples=samples)
    return _mc_bounds((scenario,), samples, seed)[0]


def posterior_mean_mse(scenario: Scenario, trials: int, grid_points: int = 2000,
                       seed: int = 0) -> McEstimate:
    """Mean squared error of the grid posterior mean under deterministic LoS.

    Simulates y = gamma(f, c) + noise, computes the posterior over a uniform
    condition grid spanning the prior mean +/- 6 std, and averages the squared
    estimation error. Lower-bounded by the LoS bound up to Monte Carlo noise.
    """
    if not scenario.channel.deterministic_los:
        raise ValueError("posterior_mean_mse requires the deterministic LoS mode")
    if trials < 2 or grid_points < 2:
        raise ValueError("need at least 2 trials and 2 grid points")
    prior, freqs, noise_var = scenario.prior, scenario.grid.as_array(), scenario.noise.variance
    c_grid = np.linspace(prior.mean - 6.0 * prior.std, prior.mean + 6.0 * prior.std, grid_points)
    g = scenario.sensor.reflection(freqs[None, :], c_grid[:, None])  # (P, L)
    # log posterior in real arithmetic, [Re y, Im y] @ (2 / v) [Re g; Im g] - |g|^2 / v
    # + log prior: its per-trial -|y|^2 / v term is dropped, as the row-max shift cancels it
    g_scaled = (2.0 / noise_var) * np.concatenate([g.real, g.imag], axis=1).T  # (2L, P)
    log_prior = -0.5 * ((c_grid - prior.mean) / prior.std) ** 2
    bias = log_prior - np.sum(np.abs(g) ** 2, axis=1) / noise_var
    powers = np.stack([np.ones_like(c_grid), c_grid], axis=1)  # (P, 2): c^0 and c^1
    noise_std = math.sqrt(noise_var / 2.0)

    def trial_sums(rng, size):
        c_true = prior.mean + prior.std * rng.standard_normal(size)
        clean = scenario.sensor.reflection(freqs[None, :], c_true[:, None])
        y = np.concatenate([clean.real + noise_std * rng.standard_normal((size, freqs.size)),
                            clean.imag + noise_std * rng.standard_normal((size, freqs.size))], axis=1)
        w = y @ g_scaled  # (size, P), then its normalized exp in place
        w += bias
        w -= np.max(w, axis=1, keepdims=True)
        np.exp(w, out=w)
        norm, first = (w @ powers).T
        est = first / norm

        sq = (est - c_true) ** 2
        return float(np.sum(sq)), float(np.sum(sq**2))

    mse, se = _mean_and_se(_map_chunks(lambda run: [trial_sums(*chunk) for chunk in run], seed,
                                       trials, grid_points), trials)
    return McEstimate(value=mse, std_err=float(se), samples=trials)
