"""Monte Carlo oracle: averaged exact conditional Fisher information.

Independent check of the closed-form bound. Draw (c, channels) from the
prior, average the exact conditional Fisher information of the observation
model y_k = h_r gamma_k(c) h_t + noise, add the prior information, invert.
Nothing here reuses the analytic fading averages, so agreement with
bcrb_closed_form validates them. c, h_r and h_t are independent, so each
entry's chunk mean is the product of a sensor, a receive-hop and a
transmit-hop mean, all taken from the chunk's draws (factorised means).
Where a draw's 1 + x^2 rounds to 1, the sensor means carry x^2 apart from
the leading 1s (_near_sensor_means), as the closed form's kernel table does.

Draws come in chunks from expectations._map_chunks, which alone knows their
sizes; each chunk has its own SFC64 generator keyed by (seed, chunk index).
A chunk's channel means read its draws only through two numbers per channel
part and tone, the mean and the mean square of that part's n standard
normals z. So a chunk draws those statistics, not the 4 L n normals: after
its n conditions, one N(0, 1/n) normal for each mean z_mean and one
chi^2(n - 1) sum of squares about it (Cochran's theorem), which gives
mean(z^2) = z_mean^2 + chi^2 / n. The channel enters only through the map
mean + sigma z, so one draw per chunk serves every scenario that differs
only in its channel, such as validate's configured and Rayleigh variants.

Blocks are weighted averages of the chunk means: by chunk size for
mc_blocks and the bound, plus BOOTSTRAP_RESAMPLES resampled weightings,
drawn once per call, whose spread gives the bound's standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bcrb import _arrow_blocks, _arrow_d, _schur_coupling, bcrb_closed_form
from .expectations import (_TINY_SQ, MC_CHUNK, McEstimate, _chunk_mean_and_se, _map_chunks,
                           chunk_rng)
from .scenario import Scenario, whole_number

BOOTSTRAP_RESAMPLES = 200
_BOOT_KEY = 0x626F6F74  # distinct stream for bootstrap resampling


@dataclass(frozen=True)
class ParameterSample:
    """One draw of the latent parameters: condition plus per-subcarrier gains."""

    condition: float
    receive: np.ndarray
    transmit: np.ndarray


def _draw_conditions(prior, rng: np.random.Generator, size: int) -> np.ndarray:
    """size conditions c ~ N(prior mean, prior std^2): a chunk generator's first draws."""
    return prior.mean + prior.std * rng.standard_normal(size)


def _channel_map(channel, z: np.ndarray) -> np.ndarray:
    """Re h_r, Im h_r, Re h_t, Im h_t (4, ...) from standard normals z (4, ...).

    The real parts are mean + sigma z and the imaginary parts sigma z, so h_r
    and h_t are CN(mean, scatter_variance) per tone.
    """
    parts = np.multiply(math.sqrt(channel.scatter_variance() / 2.0), z)
    parts[0::2] += channel.mean()
    return parts


def _draw_statistics(prior, rng: np.random.Generator, count: int, size: int):
    """One chunk's condition draws (size,) and channel statistics z_mean and spread (4, count).

    For the size standard normals z of each of Re h_r, Im h_r, Re h_t and Im h_t
    at each tone, z_mean = mean(z) ~ N(0, 1/size) and the sum of squares about
    it is chi^2(size - 1), independent of z_mean; spread = chi^2 / size, so
    mean(z^2) = z_mean^2 + spread. Drawn in that order after the conditions,
    chi^2 as twice a standard_gamma((size - 1) / 2): 0 at one draw.
    """
    c = _draw_conditions(prior, rng, size)
    z_mean = rng.standard_normal((4, count)) / math.sqrt(size)
    spread = 2.0 * rng.standard_gamma((size - 1) / 2.0, (4, count)) / size
    return c, z_mean, spread


def _channel_moments(channel, z_mean: np.ndarray, spread: np.ndarray):
    """Means and mean squares (4, ...) of Re h_r, Im h_r, Re h_t, Im h_t from _draw_statistics:
    the means are _channel_map's of z_mean, and a part's mean square is its squared mean
    plus sigma^2 spread."""
    means = _channel_map(channel, z_mean)
    return means, means * means + (channel.scatter_variance() / 2.0) * spread


def draw_samples(scenario: Scenario, size: int, rng: np.random.Generator):
    """Vectorized draws of c (size,), h_r and h_t (size, L); channels are CN(mean,
    scatter_variance) per tone, so exactly 1 in deterministic LoS mode, where
    scatter_variance is 0. The conditions come first from rng, bitwise those of
    an oracle chunk on the same generator, which then draws only statistics."""
    c = _draw_conditions(scenario.prior, rng, size)
    z = rng.standard_normal((4, scenario.grid.count, size))
    parts = np.swapaxes(_channel_map(scenario.channel, z), 1, 2)
    h = np.empty((2, size, scenario.grid.count), dtype=complex)
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
    """Chunk-averaged information blocks (prior included) with the per-chunk factorised
    means they average, drawn from SFC64 streams keyed by (seed, chunk index).
    b_se bounds the standard error of each cross entry."""

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


def _detuning_ratios(sensor, freqs: np.ndarray, c: np.ndarray):
    """Detuning x of conditions c (..., n) on tones freqs (L,), its square x2,
    q = x^2 / (1 + x^2) and r = 1 / (1 + x^2), each (..., L, n).

    A detuning whose square leaves the float range gives the limits r = 0 and
    q = 1, not inf * 0.
    """
    x = sensor.detuning(freqs[:, None], c[..., None, :])
    with np.errstate(over="ignore", divide="ignore"):
        x2 = x * x  # inf once |x| passes 1.3e154
        q = 1.0 / (1.0 + 1.0 / x2)
    r = 1.0 / (1.0 + x2)
    # 1 + x^2 rounds to 1 for x^2 < 1.1e-16, which would bias every such draw's r
    # by the same -x^2; 1 - q keeps it where x^2 < 1, so q < 1/2 and nothing cancels.
    # There both r and 1 - q lie in [1/2, 1], so their difference is exact and adding
    # it back gives 1 - q bit for bit: a blend without a masked loop over the draws
    fix = np.subtract(1.0, q)
    fix -= r
    fix *= x2 < 1.0
    r += fix
    return x, x2, q, r


def _terms(sensor, x, q, r):
    """_sensor_terms from _detuning_ratios' x, q and r."""
    d = sensor.absorption_depth
    sr = (d * sensor.shift_rate / sensor.half_width) * r
    core_re = (-(2.0 - d) * x) * (r * sr)
    core_im = ((1.0 - d) * r - q) * sr
    power = (1.0 - d) ** 2 * r + q
    return sr * sr, core_re, core_im, power


def _sensor_terms(sensor, freqs: np.ndarray, c: np.ndarray):
    """Per-draw sensor terms of conditions c (..., n) on tones freqs (L,), each (..., L, n).

    With x the detuning, r = 1 / (1 + x^2), q = x^2 r, d the depth and
    S = depth * shift_rate / half_width: |gamma'|^2 = (S r)^2,
    |gamma|^2 = (1 - d)^2 r + q and conj(gamma') gamma =
    S r (-(2 - d) x r + j ((1 - d) r - q)). Nothing cancels near the dip
    centre, and the far limits are exact (see _detuning_ratios).
    Returns (|gamma'|^2, Re and Im of conj(gamma') gamma, |gamma|^2).
    """
    x, _, q, r = _detuning_ratios(sensor, freqs, c)
    return _terms(sensor, x, q, r)


def _sensor_means(sensor, freqs: np.ndarray, c: np.ndarray):
    """Means (..., L) over the draws c (..., n) of _sensor_terms' four terms.

    A row (chunk and tone) with a draw where x^2 < 2^-53, so that r = 1 - q
    rounds q away and every such draw's r errs the same way, takes
    _near_sensor_means instead.
    """
    x, x2, q, r = _detuning_ratios(sensor, freqs, c)
    means = [np.mean(t, axis=-1) for t in _terms(sensor, x, q, r)]
    near = np.min(x2, axis=-1) < _TINY_SQ
    if near.any():
        for mean, exact in zip(means, _near_sensor_means(sensor, x[near], x2[near], q[near], r[near])):
            mean[near] = exact
    return means


def _near_sensor_means(sensor, x, x2, q, r):
    """_sensor_means of rows (m, n) with a draw where 1 + x^2 rounds to 1.

    At draws with x^2 < 1, r = 1 - q and r^2 = 1 - e with e = q (2 - q), both
    q and e to their last digits; the means of r and r^2 are the means of their
    leading 1s less the mean q and e, summed apart as expectations._near_means
    does for the kernel table, and the four terms are written through them:
    S^2 r^2, -(2 - d) S x r^2, S ((1 - d) r^2 - q r) and (1 - d)^2 r + q.
    """
    d = sensor.absorption_depth
    scale = d * sensor.shift_rate / sensor.half_width
    small = x2 < 1.0
    lead = np.where(small, 1.0, r)
    lead_sq = lead * lead
    tail_q = np.where(small, q, 0.0)
    tail_e = tail_q * (2.0 - tail_q)
    mean_r = np.mean(lead, axis=-1) - np.mean(tail_q, axis=-1)
    mean_r_sq = np.mean(lead_sq, axis=-1) - np.mean(tail_e, axis=-1)
    mean_x_r_sq = np.mean(x * lead_sq, axis=-1) - np.mean(x * tail_e, axis=-1)
    return (scale * scale * mean_r_sq, (-(2.0 - d) * scale) * mean_x_r_sq,
            scale * ((1.0 - d) * mean_r_sq - np.mean(q * r, axis=-1)),
            (1.0 - d) ** 2 * mean_r + np.mean(q, axis=-1))


def _chunk_block_means(sensor_means, means: np.ndarray, squares: np.ndarray):
    """Chunk means (a (K,), b (K, L, 4), d_parts (K, L, 4)) as products of independent means.

    `sensor_means` are the chunk means (K, L) of _sensor_terms' four terms (_sensor_means), and
    `means` and `squares` (4, K, L) those of Re h_r, Im h_r, Re h_t, Im h_t
    and of their squares (_channel_moments). A product of independent sample
    means is unbiased, and at one draw the blocks are conditional_fim's. No
    2/noise_var scale or prior terms; d_parts holds the four distinct entries
    of each channel block, see _arrow_d.
    """
    slope_sq, core_re, core_im, power = sensor_means
    p, q, u, v = means
    mag_r, mag_t = squares[0] + squares[1], squares[2] + squares[3]
    a = np.sum(slope_sq * mag_r * mag_t, axis=-1)
    # conj(h_r) |h_t|^2 core and |h_r|^2 conj(h_t) core, split into parts
    b = np.stack([mag_t * (p * core_re + q * core_im), mag_t * (q * core_re - p * core_im),
                  mag_r * (u * core_re + v * core_im), mag_r * (v * core_re - u * core_im)],
                 axis=-1)
    # |gamma|^2 times |h_t|^2, |h_r|^2 and h_r conj(h_t)
    d_parts = power[..., None] * np.stack([mag_t, mag_r, p * u + q * v, q * u - p * v], axis=-1)
    return a, b, d_parts


def _shared_chunk_means(scenarios, samples: int, seed: int):
    """Chunk means (a, b, d_parts) of each scenario from one set of draws, and the chunk sizes.

    The scenarios must share prior, sensor and grid and have random channels.
    Each chunk draws its conditions and channel statistics once and forms the
    sensor means once; only the channel moments and the block means run per
    scenario. So every scenario gets bitwise the chunk means that a call with
    it alone gives.
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

    def run_means(rngs, size):
        draws = [_draw_statistics(first.prior, rng, freqs.size, size) for rng in rngs]
        # c (K, size); z_mean and spread (4, K, L)
        c, z_mean, spread = (np.stack(parts, axis=-2) for parts in zip(*draws))
        sensor_means = _sensor_means(first.sensor, freqs, c)
        # each scenario's (a, b, d_parts) in turn, flat for _map_chunks
        return [m for sc in scenarios
                for m in _chunk_block_means(sensor_means, *_channel_moments(sc.channel, z_mean, spread))]

    means, sizes = _map_chunks(run_means, seed, samples, freqs.size)
    return [means[i:i + 3] for i in range(0, len(means), 3)], sizes


def _average_blocks(scenario: Scenario, chunk_means, weights: np.ndarray):
    """Blocks a (R,), b (R, L, 4) and d (R, L, 4, 4) of the chunk means averaged
    with each row of `weights` (R, n_chunks), prior terms included."""
    chunk_a, chunk_b, d_parts = chunk_means
    return _arrow_blocks(scenario, np.sum(weights * chunk_a, axis=1),
                         np.einsum("ri,ikj->rkj", weights, chunk_b),
                         np.einsum("ri,ikj->rkj", weights, d_parts))


def mc_blocks(scenario: Scenario, samples: int, seed: int = 0) -> McBlocks:
    """Monte Carlo estimate of the information blocks, prior terms included.

    The standard errors come from the spread of chunk means, so the draws
    must fill at least two chunks of MC_CHUNK.
    """
    samples = whole_number("samples", samples)
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
    rng = chunk_rng(seed, _BOOT_KEY)
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
    samples = whole_number("samples", samples)
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
    trials, grid_points = whole_number("trials", trials, 2), whole_number("grid_points", grid_points, 2)
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
        return np.sum(sq), np.sum(sq**2)

    (sums,), _ = _map_chunks(lambda rngs, size: [np.array([trial_sums(rng, size) for rng in rngs])],
                             seed, trials, grid_points)
    mse, se = _chunk_mean_and_se(sums, trials)
    return McEstimate(value=float(mse), std_err=float(se), samples=trials)
