"""Bayesian information matrix blocks and the Cramer-Rao bound on the condition.

The parameter vector is theta = [c, h_1, ..., h_L] with h_k the four real
coordinates (Re, Im of the receive and transmit channel gains) of subcarrier k.
Averaging the conditional Fisher information over fading, condition and noise
and adding the prior information gives an arrow-shaped Bayesian information
matrix; the bound on the condition is the (1,1) element of its inverse, i.e.
the inverse Schur complement

    bcrb = 1 / (a - sum_k b_k^T d_k^{-1} b_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expectations
from .expectations import _moments_from_kernels, detuning_stats, prior_moments
from .scenario import Scenario, SubcarrierGrid, whole_number


@dataclass(frozen=True)
class BfimBlocks:
    """Arrow-matrix blocks: scalar condition info `a`, per-subcarrier cross
    vectors `b` (L, 4) and channel blocks `d` (L, 4, 4), prior included."""

    a: float
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if b.ndim != 2 or b.shape[1] != 4:
            raise ValueError(f"b must have shape (L, 4), got {b.shape}")
        if d.shape != (b.shape[0], 4, 4):
            raise ValueError(f"d must have shape (L, 4, 4), got {d.shape}")
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if not np.allclose(d, np.swapaxes(d, 1, 2), rtol=0.0, atol=0.0):
            raise ValueError("every channel block must be exactly symmetric")
        try:
            np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            # the batched factorization does not say which block failed
            for k in range(d.shape[0]):
                try:
                    np.linalg.cholesky(d[k])
                except np.linalg.LinAlgError:
                    raise ValueError(f"channel block {k} is not positive definite") from None
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @property
    def count(self) -> int:
        return self.b.shape[0]


def _arrow_d(d_parts: np.ndarray) -> np.ndarray:
    """Channel blocks (..., L, 4, 4) from their distinct entries (..., L, 4).

    The entries are the means of |gamma|^2 |h_t|^2, |gamma|^2 |h_r|^2 and the
    real and imaginary parts of z12 = |gamma|^2 h_r conj(h_t), in the
    coordinate order (Re h_r, Im h_r, Re h_t, Im h_t).
    """
    d11, d22, z12_re, z12_im = np.moveaxis(d_parts, -1, 0)
    d = np.zeros(d_parts.shape + (4,))
    d[..., 0, 0] = d[..., 1, 1] = d11
    d[..., 2, 2] = d[..., 3, 3] = d22
    d[..., 0, 2] = d[..., 2, 0] = z12_re
    d[..., 1, 3] = d[..., 3, 1] = z12_re
    d[..., 0, 3] = d[..., 3, 0] = -z12_im
    d[..., 1, 2] = d[..., 2, 1] = z12_im
    return d


@dataclass(frozen=True)
class BcrbResult:
    """Bound decomposition. 1/bound = first_term + prior_term - coupling_term,
    contributions holds the per-subcarrier information terms (positive)."""

    bound: float
    first_term: float
    prior_term: float
    coupling_term: float
    contributions: np.ndarray


def _arrow_blocks(scenario: Scenario, a_mean, b_mean, d_parts):
    """Blocks a, b, d, prior included, from unscaled mean information a_mean (...), b_mean
    (..., L, 4) and d_parts (..., L, 4, see _arrow_d); scales the last two in place."""
    two_over = 2.0 / scenario.noise.variance
    b_mean *= two_over
    d_parts *= two_over
    d = _arrow_d(d_parts)
    d[..., np.arange(4), np.arange(4)] += scenario.channel.prior_info_per_coordinate()
    return two_over * a_mean + scenario.prior.curvature(), b_mean, d


def assemble_bfim(scenario: Scenario) -> BfimBlocks:
    """Bayesian information blocks for a Rician scenario (prior terms included).

    Deterministic LoS has no channel uncertainty and therefore no channel
    blocks; use bcrb_closed_form for that mode.
    """
    if scenario.channel.deterministic_los:
        raise ValueError("assemble_bfim requires a random channel; deterministic LoS has no channel blocks")
    return _assemble(scenario, *prior_moments(scenario.sensor, scenario.grid.as_array(), scenario.prior))


def _assemble(scenario: Scenario, sp, corr, rp) -> BfimBlocks:
    """assemble_bfim from the scenario's prior moments (slope power, corr, reflection power)."""
    ch = scenario.channel
    b_mean = ch.mean() * np.stack([corr.real, -corr.imag, corr.real, -corr.imag], axis=1)
    d_parts = np.stack([rp, rp, rp * (1.0 - ch.scatter_variance()), np.zeros_like(rp)], axis=-1)
    a, b, d = _arrow_blocks(scenario, float(np.sum(sp)), b_mean, d_parts)
    return BfimBlocks(a=a, b=b, d=d)


def _schur_coupling(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_k b_k^T d_k^{-1} b_k over the tone axis for general symmetric blocks, as
    bcrb_from_blocks takes them from a user: one batched LAPACK solve.

    b has shape (L, 4) and d shape (L, 4, 4), or both with more leading axes; the result
    has the leading shape. Blocks in arrow form take _arrow_coupling instead.
    """
    x = np.linalg.solve(d, b[..., None])[..., 0]
    return np.sum(b * x, axis=(-2, -1))


def _arrow_coupling(b: np.ndarray, d_parts: np.ndarray, prior_info: float) -> np.ndarray:
    """sum_k b_k^T d_k^{-1} b_k over the tone axis for channel blocks given by their distinct
    entries (A, B, zr, zi) = d_parts (..., L, 4), see _arrow_d; b is (..., L, 4).

    d_k = [[A I, Z], [Z^T, B I]] + prior_info I with Z = [[zr, -zi], [zi, zr]], a scaled
    rotation, so Z^T Z = |z|^2 I. Eliminating the receive pair first (the block LDL^T step),
    with A' = A + prior_info and B' = B + prior_info,

        b^T d^{-1} b = |b_1|^2 / A' + |b_2 - Z^T b_1 / A'|^2 / (B' - |z|^2 / A').

    No product A' B' is formed, so the determinant's overflow at huge kappa never happens,
    and an infinite prior_info gives a zero coupling.
    """
    recv, trans, zr, zi = np.moveaxis(d_parts, -1, 0)
    recv = recv + prior_info
    t1, t2 = b[..., 0] / recv, b[..., 1] / recv
    w1 = b[..., 2] - (zr * t1 + zi * t2)
    w2 = b[..., 3] - (zr * t2 - zi * t1)
    schur = (trans + prior_info) - (zr * (zr / recv) + zi * (zi / recv))
    return np.sum(b[..., 0] * t1 + b[..., 1] * t2 + (w1 * w1 + w2 * w2) / schur, axis=-1)


def bcrb_from_blocks(blocks: BfimBlocks) -> float:
    """Bound via the Schur complement of the channel blocks, one 4x4 solve per
    subcarrier batched into a single call."""
    coupling_sum = float(_schur_coupling(blocks.b, blocks.d))
    denom = blocks.a - coupling_sum
    if not denom > 0.0:
        raise ArithmeticError(
            f"information matrix is not positive definite: a={blocks.a!r} <= coupling sum={coupling_sum!r}"
        )
    return 1.0 / denom


def bfim_dense(blocks: BfimBlocks) -> np.ndarray:
    """Full (1 + 4L) x (1 + 4L) information matrix from the blocks."""
    n = 1 + 4 * blocks.count
    m = np.zeros((n, n))
    m[0, 0] = blocks.a
    m[0, 1:] = m[1:, 0] = blocks.b.ravel()
    rows = np.arange(1, n).reshape(blocks.count, 4)  # the 4 coordinates of each tone
    m[rows[:, :, None], rows[:, None, :]] = blocks.d
    return m


def _check_dense(count: int) -> None:  # the dense oracle's limit, L <= 64
    if count > 64:
        raise ValueError(f"dense verification path is limited to 64 subcarriers, got {count}")


def bcrb_from_dense(blocks: BfimBlocks) -> float:
    """Oracle path: (1,1) element of the dense inverse. Verification only, L <= 64."""
    _check_dense(blocks.count)
    m = bfim_dense(blocks)
    e0 = np.zeros(m.shape[0])
    e0[0] = 1.0
    return float(np.linalg.solve(m, e0)[0])


def _contributions(scenario: Scenario, sp, corr, rp) -> np.ndarray:
    """Per-subcarrier information after fading loss.

    With u = 1 / (kappa + 1) the diffuse power of the fading (0 in
    deterministic LoS mode, the kappa -> inf limit),

    contribution_k = slope_power_k
                     - 2 (1 - u) u |corr_k|^2 / ((2 - u) u reflection_power_k + noise_var)

    Positive whenever the dip has nonzero depth, by Cauchy-Schwarz
    (|corr|^2 <= slope_power * reflection_power). The fading term is 0 at
    u = 0 (LoS) and u = 1 (Rayleigh), and no factor overflows at any finite kappa.
    """
    u = scenario.channel.scatter_variance()
    denom = (2.0 - u) * u * rp + scenario.noise.variance
    return sp - 2.0 * (1.0 - u) * u * np.abs(corr) ** 2 / denom


def _shared_moments(scenarios):
    """Yield (scenario, (sp, corr, rp)), its prior moments, for each scenario. Kernel means
    depend only on the detuning stats (x0, s) and moments on the table and the sensor, which
    noise and kappa leave alone: scenarios share one table per (x0, s), consecutive ones on
    the same table and sensor one moment set, and nothing outlives the call."""
    tables = {}
    moments_key = moments = None
    for scenario in scenarios:
        sensor, freqs = scenario.sensor, scenario.grid.as_array()
        x0, s = detuning_stats(sensor, freqs, scenario.prior)
        key = (x0.tobytes(), s)
        if key not in tables:  # through the module, so a replaced kernel_means sees every table
            tables[key] = expectations.kernel_means(sensor, freqs, scenario.prior)
        if moments_key != (key, sensor):
            moments_key, moments = (key, sensor), _moments_from_kernels(sensor, tables[key])
        yield scenario, moments


def _closed_form(scenario: Scenario, sp, corr, rp) -> BcrbResult:
    """bcrb_closed_form from the scenario's prior moments."""
    two_over = 2.0 / scenario.noise.variance
    first = two_over * float(np.sum(sp))
    prior_term = scenario.prior.curvature()
    contrib = _contributions(scenario, sp, corr, rp)
    coupling = first - two_over * float(np.sum(contrib))
    denom = first + prior_term - coupling
    if not denom > 0.0:
        raise ArithmeticError(f"bound denominator is not positive: {denom!r}")
    return BcrbResult(bound=1.0 / denom, first_term=first, prior_term=prior_term,
                      coupling_term=coupling, contributions=contrib)


def _closed_forms(scenarios):
    """Yield bcrb_closed_form(scenario) for each scenario, on _shared_moments' tables."""
    for scenario, moments in _shared_moments(scenarios):
        yield _closed_form(scenario, *moments)


def bcrb_closed_form(scenario: Scenario) -> BcrbResult:
    """Bound on the condition from the three prior moments, no matrix algebra.

    Equals bcrb_from_blocks(assemble_bfim(...)) for random channels; in
    deterministic LoS mode the channels drop out and the bound reduces to
    1 / ((2 / noise_var) * sum slope_power + prior curvature).
    """
    return next(_closed_forms((scenario,)))


def subcarrier_contribution(scenario: Scenario, k: int) -> float:
    """Information contribution of subcarrier k of the scenario grid."""
    freqs = scenario.grid.as_array()
    if not float(k).is_integer():  # numpy integers and 2.0 index a tone, 1.5 none
        raise ValueError(f"subcarrier index k must be a whole number, got {k!r}")
    if not 0 <= k < freqs.size:
        raise IndexError(f"subcarrier index {k} out of range for {freqs.size} tones")
    moments = prior_moments(scenario.sensor, freqs[int(k):int(k) + 1], scenario.prior)
    return float(_contributions(scenario, *moments)[0])


def _greedy(scenario: Scenario, budget: int):
    """Frequencies, contributions and bound after each pick of the `budget` best grid
    tones, by descending contribution, distance to the resonance, frequency. One
    closed form gives the trajectory: the bound's denominator sums contributions."""
    freqs = scenario.grid.as_array()
    if not 1 <= budget <= freqs.size:
        raise ValueError(f"budget must be in [1, {freqs.size}], got {budget}")
    budget = whole_number("budget", budget)  # 2.0 picks two tones, 2.5 is an error
    res = bcrb_closed_form(scenario)
    center = scenario.sensor.resonance(scenario.prior.mean)
    picks = np.lexsort((freqs, np.abs(freqs - center), -res.contributions))[:budget]
    contrib = res.contributions[picks]
    bounds = 1.0 / (res.prior_term + (2.0 / scenario.noise.variance) * np.cumsum(contrib))
    return freqs[picks], contrib, bounds


def select_subcarriers(candidates: SubcarrierGrid, scenario: Scenario, budget: int) -> list[float]:
    """Pick `budget` candidate tones by descending information contribution.

    Contributions are additive across tones, so the greedy pick is optimal.
    Ties break toward the tone closest to the prior-mean resonance, then
    toward the lower frequency, on computed contributions: mirror tones at
    resonance +/- f tie in exact arithmetic but come out in the order the
    last bits of their contributions give. scenario.grid is ignored;
    `candidates` is the menu of frequencies. Raises ArithmeticError where the
    bound's denominator over all candidates is not positive (bcrb_closed_form).
    """
    return _greedy(scenario.with_grid(candidates), budget)[0].tolist()
