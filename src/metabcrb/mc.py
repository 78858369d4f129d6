"""Monte Carlo oracle: averaged exact conditional Fisher information.

Independent check of the closed-form bound. Draw (c, channels) from the
prior, form the exact conditional Fisher information of the observation
model y_k = h_r gamma_k(c) h_t + noise for every draw, average, add the
prior information, invert. Nothing here reuses the analytic fading
averages, so agreement with bcrb_closed_form validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bcrb import _schur_coupling, bcrb_closed_form
from .expectations import MC_CHUNK, McEstimate, _map_chunks
from .scenario import Scenario

BOOTSTRAP_RESAMPLES = 200
_BOOT_KEY = 0x626F6F74  # distinct stream for bootstrap resampling


@dataclass(frozen=True)
class ParameterSample:
    """One draw of the latent parameters: condition plus per-subcarrier gains."""

    condition: float
    receive: np.ndarray
    transmit: np.ndarray


def draw_samples(scenario: Scenario, size: int, rng: np.random.Generator):
    """Vectorized draws; channels are CN(mean, scatter_variance) per tone."""
    count = scenario.grid.count
    c = scenario.prior.mean + scenario.prior.std * rng.standard_normal(size)
    ch = scenario.channel
    if ch.deterministic_los:
        ones = np.ones((size, count), dtype=complex)
        return c, ones, ones.copy()
    mean = ch.mean()
    sigma = math.sqrt(ch.scatter_variance() / 2.0)
    h_r = mean + sigma * (rng.standard_normal((size, count)) + 1j * rng.standard_normal((size, count)))
    h_t = mean + sigma * (rng.standard_normal((size, count)) + 1j * rng.standard_normal((size, count)))
    return c, h_r, h_t


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
    """Chunk-averaged information blocks (prior included) with per-chunk means
    retained for resampling. b_se bounds the standard error of each cross entry."""

    a: float
    b: np.ndarray
    d: np.ndarray
    a_se: float
    b_se: np.ndarray
    samples: int
    chunk_a: np.ndarray
    chunk_b: np.ndarray
    chunk_d: np.ndarray
    chunk_sizes: np.ndarray


def _chunk_block_means(scenario: Scenario, c, h_r, h_t):
    """Per-sample conditional-information entries averaged over each chunk.

    Same derivative algebra as conditional_fim, vectorized and folded into the
    arrow blocks. Draws come stacked by chunk: c (K, n), h_r and h_t (K, n, L).
    Returns (a_mean (K,), b_mean (K, L, 4), d_mean (K, L, 4, 4)) without the
    2/noise_var scale or prior terms.
    """
    freqs = scenario.grid.as_array()
    gamma = scenario.sensor.reflection(freqs, c[..., None])
    dgamma = scenario.sensor.reflection_dc(freqs, c[..., None])

    a_mean = np.mean(np.sum(np.abs(h_r * dgamma * h_t) ** 2, axis=-1), axis=-1)

    core = np.conj(dgamma) * gamma
    w1 = np.conj(h_r) * np.abs(h_t) ** 2 * core
    w2 = np.abs(h_r) ** 2 * np.conj(h_t) * core
    b_mean = np.stack([
        np.mean(w1.real, axis=-2),
        np.mean(-w1.imag, axis=-2),
        np.mean(w2.real, axis=-2),
        np.mean(-w2.imag, axis=-2),
    ], axis=-1)

    power = np.abs(gamma) ** 2
    d11 = np.mean(power * np.abs(h_t) ** 2, axis=-2)
    d22 = np.mean(power * np.abs(h_r) ** 2, axis=-2)
    z12 = np.mean(h_r * np.conj(h_t) * power, axis=-2)

    d_mean = np.zeros(d11.shape + (4, 4))
    d_mean[..., 0, 0] = d_mean[..., 1, 1] = d11
    d_mean[..., 2, 2] = d_mean[..., 3, 3] = d22
    d_mean[..., 0, 2] = d_mean[..., 2, 0] = z12.real
    d_mean[..., 1, 3] = d_mean[..., 3, 1] = z12.real
    d_mean[..., 0, 3] = d_mean[..., 3, 0] = -z12.imag
    d_mean[..., 1, 2] = d_mean[..., 2, 1] = z12.imag
    return a_mean, b_mean, d_mean


def mc_blocks(scenario: Scenario, samples: int, seed: int = 0) -> McBlocks:
    """Monte Carlo estimate of the information blocks, prior terms included.

    The standard errors come from the spread of chunk means, so the draws
    must fill at least two chunks of MC_CHUNK.
    """
    if scenario.channel.deterministic_los:
        raise ValueError("deterministic LoS has no channel blocks to estimate")
    if samples <= MC_CHUNK:
        raise ValueError(f"need at least {MC_CHUNK + 1} samples (two chunks of {MC_CHUNK}) "
                         f"to estimate the Monte Carlo error, got {samples}")

    def run_means(chunks):
        draws = [draw_samples(scenario, size, rng) for rng, size in chunks]
        # a run of one chunk (wide grids) is viewed with a leading axis, not copied
        stacked = (np.stack(parts) if len(parts) > 1 else parts[0][None] for parts in zip(*draws))
        return list(zip(*_chunk_block_means(scenario, *stacked)))

    means = _map_chunks(run_means, seed, samples, scenario.grid.count)
    chunk_a, chunk_b, chunk_d = (np.array(parts) for parts in zip(*means))
    n_chunks = chunk_a.size
    sizes = np.minimum(MC_CHUNK, samples - MC_CHUNK * np.arange(n_chunks)).astype(float)

    weights = sizes / samples
    two_over = 2.0 / scenario.noise.variance
    a_mean = float(np.sum(weights * chunk_a))
    b_mean = np.einsum("i,ikj->kj", weights, chunk_b)
    d_mean = np.einsum("i,iklm->klm", weights, chunk_d)

    # spread of chunk means gives the standard error of the weighted mean
    a_se = float(np.sqrt(np.sum(weights**2 * (chunk_a - a_mean) ** 2) * n_chunks / (n_chunks - 1)))
    b_se = np.sqrt(np.einsum("i,ikj->kj", weights**2, (chunk_b - b_mean) ** 2) * n_chunks / (n_chunks - 1))

    info = scenario.channel.prior_info_per_coordinate()
    d_full = two_over * d_mean
    d_full[:, np.arange(4), np.arange(4)] += info
    return McBlocks(
        a=two_over * a_mean + scenario.prior.curvature(),
        b=two_over * b_mean,
        d=d_full,
        a_se=two_over * a_se,
        b_se=two_over * b_se,
        samples=samples,
        chunk_a=chunk_a,
        chunk_b=chunk_b,
        chunk_d=chunk_d,
        chunk_sizes=sizes,
    )


def _bound_from_avg(scenario: Scenario, blocks: McBlocks, weights: np.ndarray) -> np.ndarray:
    """Bounds from the chunk means averaged with each row of `weights` (R, n_chunks)."""
    two_over = 2.0 / scenario.noise.variance
    a = two_over * np.sum(weights * blocks.chunk_a, axis=1) + scenario.prior.curvature()
    b = two_over * np.einsum("ri,ikj->rkj", weights, blocks.chunk_b)
    d = two_over * np.einsum("ri,iklm->rklm", weights, blocks.chunk_d)
    d[..., np.arange(4), np.arange(4)] += scenario.channel.prior_info_per_coordinate()
    return 1.0 / (a - _schur_coupling(b, d))


def mc_bound(scenario: Scenario, samples: int, seed: int = 0) -> McEstimate:
    """Bound from Monte Carlo averaged conditional information.

    Standard error comes from a block bootstrap over chunk means (the bound
    is a nonlinear function of the averaged entries, so the uncertainty must
    be propagated through the inversion); random channels therefore need the
    two-chunk minimum of mc_blocks. Deterministic LoS has no sampling
    dimension left that the bound actually depends on beyond the condition
    average, which is evaluated by quadrature: the estimate is exact and the
    standard error is zero.
    """
    if scenario.channel.deterministic_los:
        return McEstimate(value=bcrb_closed_form(scenario).bound, std_err=0.0, samples=samples)
    blocks = mc_blocks(scenario, samples, seed)
    sizes = blocks.chunk_sizes
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOT_KEY,))))
    picks = rng.integers(0, sizes.size, size=(BOOTSTRAP_RESAMPLES, sizes.size))
    # each resample weighs a chunk by its size times how often it was picked
    resampled = np.zeros(picks.shape)
    np.add.at(resampled, (np.arange(BOOTSTRAP_RESAMPLES)[:, None], picks), sizes[picks])
    resampled /= np.sum(resampled, axis=1, keepdims=True)
    bounds = _bound_from_avg(scenario, blocks, np.vstack([sizes / samples, resampled]))
    return McEstimate(value=float(bounds[0]), std_err=float(np.std(bounds[1:], ddof=1)),
                      samples=samples)


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
    prior = scenario.prior
    freqs = scenario.grid.as_array()
    noise_var = scenario.noise.variance

    c_grid = np.linspace(prior.mean - 6.0 * prior.std, prior.mean + 6.0 * prior.std, grid_points)
    g = scenario.sensor.reflection(freqs[None, :], c_grid[:, None])  # (P, L)
    g_norm = np.sum(np.abs(g) ** 2, axis=1)
    log_prior = -0.5 * ((c_grid - prior.mean) / prior.std) ** 2

    g_conj_t = np.conj(g.T)

    def trial_sums(rng, size):
        c_true = prior.mean + prior.std * rng.standard_normal(size)
        clean = scenario.sensor.reflection(freqs[None, :], c_true[:, None])
        noise = math.sqrt(noise_var / 2.0) * (
            rng.standard_normal((size, freqs.size)) + 1j * rng.standard_normal((size, freqs.size)))
        y = clean + noise

        # log posterior up to a constant, -(|y|^2 - 2 Re(y g^H) + |g|^2) / noise_var
        # + log prior, then its normalized exp, in one (size, P) buffer
        cross = y @ g_conj_t
        w = np.multiply(2.0, cross.real)
        del cross
        np.subtract(np.sum(np.abs(y) ** 2, axis=1)[:, None], w, out=w)
        np.add(w, g_norm, out=w)
        np.negative(w, out=w)
        np.divide(w, noise_var, out=w)
        np.add(w, log_prior, out=w)
        np.subtract(w, np.max(w, axis=1, keepdims=True), out=w)
        np.exp(w, out=w)
        norm = np.sum(w, axis=1)
        est = np.sum(np.multiply(w, c_grid, out=w), axis=1) / norm

        sq = (est - c_true) ** 2
        return float(np.sum(sq)), float(np.sum(sq**2))

    total_sq = 0.0
    total_q = 0.0
    for s, q in _map_chunks(lambda run: [trial_sums(*chunk) for chunk in run], seed, trials,
                            grid_points):
        total_sq += s
        total_q += q

    mse = total_sq / trials
    var = max(total_q - trials * mse**2, 0.0) / (trials - 1)
    return McEstimate(value=mse, std_err=math.sqrt(var / trials), samples=trials)
