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
from .expectations import _moments_from_kernels, prior_moments
from .scenario import Scenario, SubcarrierGrid


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


def _moment_values(scenario: Scenario, frequencies):
    sp, corr, rp = prior_moments(scenario.sensor, np.asarray(frequencies, float), scenario.prior)
    return np.atleast_1d(sp), np.atleast_1d(corr), np.atleast_1d(rp)


def assemble_bfim(scenario: Scenario) -> BfimBlocks:
    """Bayesian information blocks for a Rician scenario (prior terms included).

    Deterministic LoS has no channel uncertainty and therefore no channel
    blocks; use bcrb_closed_form for that mode.
    """
    ch = scenario.channel
    if ch.deterministic_los:
        raise ValueError("assemble_bfim requires a random channel; deterministic LoS has no channel blocks")
    sp, corr, rp = _moment_values(scenario, scenario.grid.as_array())
    two_over = 2.0 / scenario.noise.variance
    a = two_over * float(np.sum(sp)) + scenario.prior.curvature()

    mean = ch.mean()
    b = two_over * mean * np.stack(
        [corr.real, -corr.imag, corr.real, -corr.imag], axis=1
    )

    v = two_over * rp
    d = _arrow_d(np.stack([v, v, v * (ch.kappa / (ch.kappa + 1.0)), np.zeros_like(v)], axis=-1))
    d[:, np.arange(4), np.arange(4)] += ch.prior_info_per_coordinate()
    return BfimBlocks(a=a, b=b, d=d)


def _schur_coupling(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_k b_k^T d_k^{-1} b_k over the tone axis, batched over any leading axes.

    b has shape (..., L, 4) and d shape (..., L, 4, 4); the result has shape (...).
    """
    x = np.linalg.solve(d, b[..., None])[..., 0]
    return np.sum(b * x, axis=(-2, -1))


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


def bcrb_from_dense(blocks: BfimBlocks) -> float:
    """Oracle path: (1,1) element of the dense inverse. Verification only, L <= 64."""
    if blocks.count > 64:
        raise ValueError(f"dense verification path is limited to 64 subcarriers, got {blocks.count}")
    m = bfim_dense(blocks)
    e0 = np.zeros(m.shape[0])
    e0[0] = 1.0
    return float(np.linalg.solve(m, e0)[0])


def _contributions(scenario: Scenario, sp, corr, rp) -> np.ndarray:
    """Per-subcarrier information after fading loss.

    contribution_k = slope_power_k
                     - 2 kappa |corr_k|^2 / ((2 kappa + 1) reflection_power_k
                                             + noise_var (kappa + 1)^2)

    Positive whenever the dip has nonzero depth, by Cauchy-Schwarz
    (|corr|^2 <= slope_power * reflection_power). Where (kappa + 1)^2
    overflows (kappa above ~1.3e154) the fraction is divided through by it:
    with u = 1 / (kappa + 1) it reads 2 (1 - u) u |corr|^2 / ((2 - u) u rp + noise_var).
    """
    ch = scenario.channel
    if ch.deterministic_los:
        return np.array(sp, dtype=float, copy=True)
    kappa = ch.kappa
    try:
        denom = (2.0 * kappa + 1.0) * rp + scenario.noise.variance * (kappa + 1.0) ** 2
    except OverflowError:
        u = 1.0 / (kappa + 1.0)
        denom = (2.0 - u) * u * rp + scenario.noise.variance
        return sp - 2.0 * (1.0 - u) * u * np.abs(corr) ** 2 / denom
    return sp - 2.0 * kappa * np.abs(corr) ** 2 / denom


def _closed_form_from_kernels(scenario: Scenario, km: np.ndarray) -> BcrbResult:
    """Closed-form bound from the (3, L) kernel-mean table of the scenario grid, which
    depends only on the detuning stats (x0, s): depth, noise and kappa enter here."""
    return _closed_form_from_moments(scenario, *_moments_from_kernels(scenario.sensor, km))


def _closed_form_from_moments(scenario: Scenario, sp, corr, rp) -> BcrbResult:
    """Closed-form bound from the grid's prior moments, which noise and kappa leave alone."""
    two_over = 2.0 / scenario.noise.variance
    first = two_over * float(np.sum(sp))
    prior_term = scenario.prior.curvature()
    contrib = _contributions(scenario, sp, corr, rp)
    coupling = first - two_over * float(np.sum(contrib))
    denom = first + prior_term - coupling
    if not denom > 0.0:
        raise ArithmeticError(f"bound denominator is not positive: {denom!r}")
    return BcrbResult(
        bound=1.0 / denom,
        first_term=first,
        prior_term=prior_term,
        coupling_term=coupling,
        contributions=contrib,
    )


def bcrb_closed_form(scenario: Scenario) -> BcrbResult:
    """Bound on the condition from the three prior moments, no matrix algebra.

    Equals bcrb_from_blocks(assemble_bfim(...)) for random channels; in
    deterministic LoS mode the channels drop out and the bound reduces to
    1 / ((2 / noise_var) * sum slope_power + prior curvature).
    """
    km = expectations.kernel_means(scenario.sensor, scenario.grid.as_array(), scenario.prior)
    return _closed_form_from_kernels(scenario, km)


def subcarrier_contribution(scenario: Scenario, k: int) -> float:
    """Information contribution of subcarrier k of the scenario grid."""
    freqs = scenario.grid.as_array()
    if not 0 <= k < freqs.size:
        raise IndexError(f"subcarrier index {k} out of range for {freqs.size} tones")
    sp, corr, rp = _moment_values(scenario, freqs[k])
    return float(_contributions(scenario, sp, corr, rp)[0])


def _greedy_order(scenario: Scenario, freqs: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Tone indices by descending contribution, distance to the resonance, frequency."""
    center = scenario.sensor.resonance(scenario.prior.mean)
    return np.lexsort((freqs, np.abs(freqs - center), -contrib))


def select_subcarriers(candidates: SubcarrierGrid, scenario: Scenario, budget: int) -> list[float]:
    """Pick `budget` candidate tones by descending information contribution.

    Contributions are additive across tones, so the greedy pick is optimal.
    Ties break toward the tone closest to the prior-mean resonance, then
    toward the lower frequency, on computed contributions: mirror tones at
    resonance +/- f tie in exact arithmetic but come out in the order the
    last bits of their contributions give. scenario.grid is ignored;
    `candidates` is the menu of frequencies.
    """
    freqs = candidates.as_array()
    if not 1 <= budget <= freqs.size:
        raise ValueError(f"budget must be in [1, {freqs.size}], got {budget}")
    contrib = _contributions(scenario, *_moment_values(scenario, freqs))
    return freqs[_greedy_order(scenario, freqs, contrib)[:budget]].tolist()
