"""Monte Carlo oracle: averaged exact conditional Fisher information.

Independent check of the closed-form bound. Draw (c, channels) from the
prior, average the exact conditional Fisher information of the observation
model y_k = h_r gamma_k(c) h_t + noise, add the prior information, invert.
Nothing here reuses the analytic fading averages, so agreement with
bcrb_closed_form validates them. c, h_r and h_t are independent, so each
entry's chunk mean is the product of a sensor, a receive-hop and a
transmit-hop mean, all taken from the chunk's draws (factorised means).
The sensor means are written through five base means over the draws, of
r, q, r^2, x r^2 and q r (x the detuning, r = 1 / (1 + x^2), q = x^2 r),
from three arrays per run: x, x^2 turned into q in place, and r; r and q are
summed pairwise, the rest by a BLAS dot per row. Rows with a draw where
1 + x^2 rounds to 1 or x^2 overflows redo their means per draw, r, r^2 and
x r^2 by expectations._near_means, as the closed form's kernel table does.

Draws come in chunks from expectations._map_chunks, which alone knows their
sizes. Chunk i draws from SFC64(SeedSequence(seed, spawn_key=(i,))), the
bootstrap from numpy's own stream of chunk _BOOT_KEY, which _mc_bounds never
reaches. A chunk's channel means read its draws only through the mean and the
mean square of each channel part's n standard normals z at each tone. So a
chunk draws, in this order, its n conditions, one N(0, 1/n) normal for each
mean z_mean and one chi^2(n - 1) sum of squares about it (Cochran's theorem;
twice a standard_gamma((n - 1) / 2)): mean(z^2) = z_mean^2 + chi^2 / n. A run
of chunks draws into (K, n) and (K, 4, L) buffers, scales them at once and
takes the sensor means. The channel enters only through the map mean + sigma z,
so the channel moments and the block means run once per scenario and fold
block, and one draw per chunk serves every scenario that differs only in its
channel, such as validate's configured and Rayleigh variants.

The chunk means are folded as their blocks come (_map_chunks' fold blocks,
sized by _RUN_ELEMENTS), so no chunk mean outlives its block and memory does
not grow with draws times tones. The value of mc_blocks and of the bound is
the size-weighted sum of each block's chunk means by numpy's own loop
(_value_mean), added block by block. The BOOTSTRAP_RESAMPLES resamples,
whose spread gives the bound's standard error, weigh a chunk by its size
times its pick count over the draws they picked, and take one BLAS matrix
product per block into fixed (R, 1 + 8 L) sums; the pick counts, drawn once
per call in row blocks, are the one array that grows with the draws. OpenBLAS
splits a matrix-matrix product among its threads by rows and columns, not
along the summed chunk axis, so no bound or error depends on
OPENBLAS_NUM_THREADS. The bound of each row reads only the four distinct
entries of each channel block (bcrb._arrow_coupling), so no (R, L, 4, 4)
blocks are built or solved.

posterior_mean_mse's log posterior is one real product of the trials
[Re y, Im y, 1] with the grid's [(2 / v) [Re g; Im g]; bias], taken with its
row max, exp and moment product in blocks of _POSTERIOR_ROWS trials in one
reused buffer (1 MB at 2,000 grid points) that stays in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bcrb import _arrow_blocks, _arrow_coupling, _arrow_d, bcrb_closed_form
from .expectations import (_RUN_ELEMENTS, _TINY_SQ, MC_CHUNK, McEstimate, _chunk_mean_and_se, _map_chunks,
                           _near_means)
from .scenario import Scenario, whole_number

BOOTSTRAP_RESAMPLES = 200
_POSTERIOR_ROWS = 64  # trials per block of posterior_mean_mse: (64, 2000) floats are 1 MB
_BOOT_KEY = 0x626F6F74  # the bootstrap's spawn key, past every chunk index _mc_bounds allows


@dataclass(frozen=True)
class ParameterSample:
    """One draw of the latent parameters: condition plus per-subcarrier gains."""

    condition: float
    receive: np.ndarray
    transmit: np.ndarray


def _channel_map(channel, z: np.ndarray) -> np.ndarray:
    """Re h_r, Im h_r, Re h_t, Im h_t (4, ...) from standard normals z (4, ...).

    The real parts are mean + sigma z and the imaginary parts sigma z, so h_r
    and h_t are CN(mean, scatter_variance) per tone.
    """
    parts = np.multiply(math.sqrt(channel.scatter_variance() / 2.0), z)
    parts[0::2] += channel.mean()
    return parts


def _channel_moments(channel, z_mean: np.ndarray, spread: np.ndarray):
    """Means and mean squares (4, ...) of Re h_r, Im h_r, Re h_t, Im h_t from the channel
    statistics z_mean and spread = chi^2 / n: the means are _channel_map's of z_mean, and a
    part's mean square is its squared mean plus sigma^2 spread."""
    means = _channel_map(channel, z_mean)
    return means, means * means + (channel.scatter_variance() / 2.0) * spread


def draw_samples(scenario: Scenario, size: int, rng: np.random.Generator):
    """Vectorized draws of c (size,), h_r and h_t (size, L); channels are CN(mean,
    scatter_variance) per tone, so exactly 1 in deterministic LoS mode, where
    scatter_variance is 0. The conditions come first from rng, bitwise those of
    an oracle chunk on the same generator, which then draws only statistics."""
    c = scenario.prior.mean + scenario.prior.std * rng.standard_normal(size)
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


def _sensor_means(sensor, freqs: np.ndarray, c: np.ndarray):
    """Means (..., L) over the draws c (..., n) of |gamma'|^2, Re and Im of conj(gamma') gamma,
    and |gamma|^2.

    With x the detuning, r = 1 / (1 + x^2), q = x^2 r, d the depth and
    S = depth * shift_rate / half_width, they are S^2 r^2, -(2 - d) S x r^2,
    S ((1 - d) r^2 - q r) and (1 - d)^2 r + q, written through five base
    means, of r, q, r^2, x r^2 and q r. r and q are summed pairwise by numpy;
    r^2, x r^2 and q r by a BLAS dot per row (a matmul of (..., 1, n) by
    (..., n, 1) stacks), which forms no product array and, with several
    accumulators, keeps the means within an ulp where einsum's one running sum
    does not. A row (chunk and tone) with a draw where x^2 < 2^-53, so that
    1 + x^2 rounds to 1 and every such draw's r errs the same way, or whose q sum
    is not finite (x^2 overflowed, q = inf * 0) redoes its means by exact
    per-draw forms: r, r^2 and x r^2 by expectations._near_means at equal
    weights, q = 1 / (1 + 1 / x^2) and r = 1 / (1 + x^2), whose limits where x^2
    overflows are q = 1 and r = 0.
    """
    x = sensor.detuning(freqs[:, None], c[..., None, :])
    with np.errstate(over="ignore", invalid="ignore"):  # x^2 is inf once |x| passes 1.3e154
        q = x * x
        near = np.min(q, axis=-1) < _TINY_SQ
        r = np.add(q, 1.0)
        np.divide(1.0, r, out=r)
        q *= r
        x *= r
    n = c.shape[-1]
    mean_r, mean_q = (np.add.reduce(t, axis=-1) / n for t in (r, q))
    mean_r_sq, mean_x_r_sq, mean_q_r = (np.matmul(t[..., None, :], r[..., None])[..., 0, 0] / n
                                        for t in (r, x, q))
    special = near | ~np.isfinite(mean_q)
    if special.any():
        rows = np.nonzero(special)
        x = sensor.detuning(freqs[rows[-1], None], c[rows[:-1]])  # (rows, n)
        with np.errstate(over="ignore", divide="ignore"):
            x2 = x * x
            q = 1.0 / (1.0 + 1.0 / x2)
        mean_r_sq[special], mean_r[special], mean_x_r_sq[special] = _near_means(x, 1.0 / n)
        mean_q[special], mean_q_r[special] = np.mean(q, axis=-1), np.mean(q / (1.0 + x2), axis=-1)
    d = sensor.absorption_depth
    scale = d * sensor.shift_rate / sensor.half_width
    return (scale * scale * mean_r_sq, (-(2.0 - d) * scale) * mean_x_r_sq,
            scale * ((1.0 - d) * mean_r_sq - mean_q_r), (1.0 - d) ** 2 * mean_r + mean_q)


def _chunk_block_means(sensor_means, means: np.ndarray, squares: np.ndarray):
    """Chunk means (a (K,), b (K, L, 4), d_parts (K, L, 4)) as products of independent means.

    `sensor_means` are the four sensor chunk means (K, L) of _sensor_means, and
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
    """Chunk means of each scenario from one set of draws, one fold block at a time.

    The scenarios must share prior, sensor and grid and have random channels; both
    are checked, and the draw count, before anything is drawn. Yields (sizes, means)
    per fold block of _map_chunks, in chunk order: the block's float chunk sizes and
    an iterator that forms each scenario's chunk means (a, b, d_parts) in turn, to be
    folded before the next. A block holds as many chunks as keep the shared statistics
    (four sensor means, z_mean and spread: 12 per tone), one scenario's 1 + 8 L block
    means and a weight for the value and each bootstrap row within _RUN_ELEMENTS,
    whatever the scenario count. The channel moments and the block means are
    elementwise or reduce over tones alone, so every scenario gets bitwise the chunk
    means that a call with it alone, or one chunk at a time, gives.
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

    def run_means(rngs, count, size):  # spread = chi^2 / size, see the module docstring
        c, (z_mean, spread) = np.empty((count, size)), np.empty((2, count, 4, freqs.size))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=c[k])
            rng.standard_normal(out=z_mean[k])
            rng.standard_gamma((size - 1) / 2.0, out=spread[k])
        c *= first.prior.std
        c += first.prior.mean
        z_mean /= math.sqrt(size)
        spread *= 2.0
        spread /= size
        return [*_sensor_means(first.sensor, freqs, c), z_mean, spread]

    def scenario_means(sensor_means, z_mean, spread):
        z_mean, spread = np.moveaxis(z_mean, 1, 0), np.moveaxis(spread, 1, 0)  # (4, chunks, L)
        for sc in scenarios:
            yield _chunk_block_means(sensor_means, *_channel_moments(sc.channel, z_mean, spread))

    # per chunk: 12 L shared statistics, 1 + 8 L block means, 1 + BOOTSTRAP_RESAMPLES weights
    block = _RUN_ELEMENTS // (12 * freqs.size + 1 + 8 * freqs.size + 1 + BOOTSTRAP_RESAMPLES)
    blocks = _map_chunks(run_means, seed, samples, freqs.size, block)
    return ((sizes, scenario_means(sensor_means, z_mean, spread))
            for (*sensor_means, z_mean, spread), sizes in blocks)


def _flat(means) -> np.ndarray:
    """Chunk means (a (K,), b (K, L, 4), d_parts (K, L, 4)) as one array (K, 1 + 8 L)."""
    a, b, d_parts = means
    return np.concatenate([a[:, None], b.reshape(a.size, -1), d_parts.reshape(a.size, -1)], axis=1)


def _split(flat: np.ndarray):
    """a (...), b (..., L, 4) and d_parts (..., L, 4) of averaged _flat rows (..., 1 + 8 L)."""
    tones = (flat.shape[-1] - 1) // 8
    parts = flat[..., 1:].reshape(flat.shape[:-1] + (2, tones, 4))
    return flat[..., 0], parts[..., 0, :, :], parts[..., 1, :, :]


def _value_mean(sizes: np.ndarray, samples: int, flat: np.ndarray) -> np.ndarray:
    """A fold block's share (1 + 8 L,) of the mean over all draws: its chunk means weighted
    by chunk size, summed by numpy's own loop, which no BLAS thread count moves. mc_blocks
    and the bound both fold their value through this, over the same blocks."""
    return np.einsum("k,ke->e", sizes / samples, flat)


def _bounds(scenario: Scenario, means: np.ndarray) -> np.ndarray:
    """Bounds (R,) of averaged chunk means (R, 1 + 8 L) (_flat's rows), prior terms included.
    For the value row, a, b and the channel entries are bitwise those of mc_blocks' a, b and
    d; the coupling reads d's four distinct entries per tone (_arrow_coupling)."""
    a, b, d_parts = _split((2.0 / scenario.noise.variance) * means)
    coupling = _arrow_coupling(b, d_parts, scenario.channel.prior_info_per_coordinate())
    return 1.0 / (a + scenario.prior.curvature() - coupling)


def mc_blocks(scenario: Scenario, samples: int, seed: int = 0) -> McBlocks:
    """Monte Carlo estimate of the information blocks, prior terms included.

    The standard errors come from the spread of chunk means, so the draws
    must fill at least two chunks of MC_CHUNK.
    """
    samples = whole_number("samples", samples)
    value, chunks, sizes = 0.0, [], []
    for block_sizes, (means,) in _shared_chunk_means((scenario,), samples, seed):
        flat = _flat(means)
        value = value + _value_mean(block_sizes, samples, flat)
        chunks.append(flat)
        sizes.append(block_sizes)
    chunk_means, sizes = np.concatenate(chunks), np.concatenate(sizes)
    chunk_a, chunk_b, d_parts = _split(chunk_means)
    a_mean, b_mean, d_mean = _split(value)
    # spread of chunk means gives the standard error of the weighted mean
    n_chunks, weights_sq = sizes.size, (sizes / samples) ** 2
    a_se, b_se = (np.sqrt(np.einsum("k,k...->...", weights_sq, (m - mean) ** 2) * n_chunks / (n_chunks - 1))
                  for m, mean in ((chunk_a, a_mean), (chunk_b, b_mean)))
    a, b, d = _arrow_blocks(scenario, a_mean, b_mean, d_mean)
    two_over = 2.0 / scenario.noise.variance
    return McBlocks(a=float(a), b=b, d=d, a_se=two_over * float(a_se), b_se=two_over * b_se,
                    samples=samples, chunk_a=chunk_a, chunk_b=chunk_b,
                    chunk_d_parts=d_parts, chunk_sizes=sizes)


def _bootstrap_counts(seed: int, n_chunks: int) -> np.ndarray:
    """How often each of BOOTSTRAP_RESAMPLES resamples picks each chunk (R, n_chunks), in the
    smallest unsigned type that holds n_chunks. The picks are numpy's stream of
    SeedSequence(seed, spawn_key=(_BOOT_KEY,)), drawn in row blocks of at most _RUN_ELEMENTS,
    bitwise one (R, n_chunks) integers call: numpy's bounded 32-bit draws carry no buffer
    from one call to the next."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(_BOOT_KEY,))))
    counts = np.empty((BOOTSTRAP_RESAMPLES, n_chunks), dtype=np.min_scalar_type(n_chunks))
    rows = max(1, _RUN_ELEMENTS // n_chunks)
    for lo in range(0, BOOTSTRAP_RESAMPLES, rows):
        picks = rng.integers(0, n_chunks, size=(min(rows, BOOTSTRAP_RESAMPLES - lo), n_chunks))
        picks += np.arange(picks.shape[0])[:, None] * n_chunks  # each row counts in bins of its own
        counts[lo:lo + picks.shape[0]] = np.bincount(picks.ravel(), minlength=picks.size).reshape(picks.shape)
    return counts


def _mc_bounds(scenarios, samples: int, seed: int) -> list:
    """mc_bound of each random-channel scenario, all from one set of draws.

    The bound's standard error comes from a block bootstrap over chunk means; every
    scenario uses the same BOOTSTRAP_RESAMPLES picks of chunks, and a resample weighs a
    chunk by its size times how often it was picked, over the draws it picked. Each fold
    block's chunk means go into the scenario's value row (_value_mean, as in mc_blocks)
    and, by one BLAS product into a buffer reused for every block, into its bootstrap
    rows; no chunk mean outlives its block, and only the pick counts grow with the draws.
    """
    seed = whole_number("seed", seed, 0)
    if samples > _BOOT_KEY * MC_CHUNK:
        raise ValueError(f"Monte Carlo bounds take at most {_BOOT_KEY * MC_CHUNK} draws, got "
                         f"{samples}: chunk {_BOOT_KEY} would draw the bootstrap's stream")
    blocks = _shared_chunk_means(scenarios, samples, seed)
    n_chunks = -(-samples // MC_CHUNK)
    counts = _bootstrap_counts(seed, n_chunks)
    # each resample picks n_chunks chunks, all of MC_CHUNK draws but the last
    picked = (n_chunks * MC_CHUNK - (n_chunks * MC_CHUNK - samples) * counts[:, -1].astype(np.int64)).astype(float)
    width = 1 + 8 * scenarios[0].grid.count
    values, rows = np.zeros((len(scenarios), width)), np.empty((len(scenarios), BOOTSTRAP_RESAMPLES, width))
    product, lo = np.empty((BOOTSTRAP_RESAMPLES, width)), 0
    for sizes, means in blocks:
        weights = counts[:, lo:lo + sizes.size] * sizes / picked[:, None]
        for k, chunk_means in enumerate(means):
            flat = _flat(chunk_means)
            values[k] += _value_mean(sizes, samples, flat)
            if lo == 0:
                np.matmul(weights, flat, out=rows[k])
            else:
                rows[k] += np.matmul(weights, flat, out=product)
        lo += sizes.size
        del weights, chunk_means, flat  # freed before the next block's draws
    estimates = []
    for sc, value, resampled in zip(scenarios, values, rows):
        (bound,) = _bounds(sc, value[None])
        with np.errstate(over="ignore"):  # bounds near the float limit spread to inf
            std_err = float(np.std(_bounds(sc, resampled), ddof=1))
        estimates.append(McEstimate(value=float(bound), std_err=std_err, samples=samples))
    return estimates


def mc_bound(scenario: Scenario, samples: int, seed: int = 0) -> McEstimate:
    """Bound from Monte Carlo averaged conditional information.

    Standard error comes from a block bootstrap over chunk means (the bound is
    nonlinear in the averaged entries); random channels therefore need the
    two-chunk minimum of mc_blocks, and the value is the bound of mc_blocks'
    a, b and d, bit for bit. Under deterministic LoS only the condition average
    is left, done by quadrature: the estimate is exact, its error zero.
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
    # log posterior in real arithmetic, [Re y, Im y, 1] @ [(2 / v) [Re g; Im g]; bias]: the bias
    # row is -|g|^2 / v + log prior; the per-trial -|y|^2 / v term is dropped, as the row-max
    # shift cancels it
    log_prior = -0.5 * ((c_grid - prior.mean) / prior.std) ** 2
    bias = log_prior - np.sum(np.abs(g) ** 2, axis=1) / noise_var
    g_scaled = np.vstack([(2.0 / noise_var) * np.concatenate([g.real, g.imag], axis=1).T, bias])
    powers = np.stack([np.ones_like(c_grid), c_grid], axis=1)  # (P, 2): c^0 and c^1
    noise_std, count = math.sqrt(noise_var / 2.0), freqs.size

    def trial_sums(rng, size):
        c_true = prior.mean + prior.std * rng.standard_normal(size)
        clean = scenario.sensor.reflection(freqs[None, :], c_true[:, None])
        y = np.ones((size, 2 * count + 1))
        y[:, :count] = clean.real + noise_std * rng.standard_normal((size, count))
        y[:, count:-1] = clean.imag + noise_std * rng.standard_normal((size, count))
        # a block's (rows, P) log posterior, then its normalized exp in place, in one buffer
        buf, moments = np.empty((min(_POSTERIOR_ROWS, size), grid_points)), np.empty((size, 2))
        for lo in range(0, size, _POSTERIOR_ROWS):
            hi = min(lo + _POSTERIOR_ROWS, size)
            w = np.matmul(y[lo:hi], g_scaled, out=buf[:hi - lo])
            w -= np.max(w, axis=1, keepdims=True)
            np.exp(w, out=w)
            np.matmul(w, powers, out=moments[lo:hi])
        norm, first = moments.T
        sq = (first / norm - c_true) ** 2
        return np.sum(sq), np.sum(sq**2)

    mse, se = _chunk_mean_and_se(trial_sums, seed, trials, grid_points)
    return McEstimate(value=float(mse), std_err=float(se), samples=trials)
