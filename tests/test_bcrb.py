"""Bound assembly: hand-checkable block algebra, path agreement, structure."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from metabcrb import (BfimBlocks, RicianSpec, Scenario, SensingPrior,
                      SensorModel, SubcarrierGrid, assemble_bfim,
                      bcrb_closed_form, bcrb_from_blocks, bcrb_from_dense,
                      bfim_dense, default_scenario, select_subcarriers,
                      snr_to_noise, subcarrier_contribution)
import metabcrb.expectations as expectations_mod
from metabcrb.bcrb import _arrow_coupling, _arrow_d, _contributions, _schur_coupling
from metabcrb.config import load_scenario
from metabcrb.expectations import prior_moments


def _scenario(depth=0.9, width=1.0, rate=1.0, offset=0.0, mean=0.0, std=1.0,
              kappa=1.0, los=False, snr_db=20.0, center=None, spacing=0.4, count=8):
    sensor = SensorModel(absorption_depth=depth, half_width=width,
                         shift_rate=rate, center_offset=offset)
    prior = SensingPrior(mean=mean, std=std)
    if center is None:
        center = sensor.resonance(mean)
    return Scenario(
        sensor=sensor,
        prior=prior,
        channel=RicianSpec(kappa=kappa, deterministic_los=los),
        noise=snr_to_noise(snr_db),
        grid=SubcarrierGrid.uniform(center=center, spacing=spacing, count=count),
    )


# ------------------------------------------------------- hand-built blocks

def test_schur_bound_single_block_by_hand():
    # a = 10, b = e1, d = I: coupling = 1, bound = 1/9
    blocks = BfimBlocks(a=10.0, b=np.array([[1.0, 0, 0, 0]]), d=np.eye(4)[None])
    assert bcrb_from_blocks(blocks) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert bcrb_from_dense(blocks) == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_schur_bound_two_blocks_by_hand():
    # block 1: b = [2,1,0,0], d = diag(1,1,2,2) -> coupling 4 + 1 = 5
    # block 2: b = [0,0,3,0], d = 2 I          -> coupling 9/2
    # a = 10 -> information 1/2, bound 2
    b = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
    d = np.stack([np.diag([1.0, 1.0, 2.0, 2.0]), 2.0 * np.eye(4)])
    blocks = BfimBlocks(a=10.0, b=b, d=d)
    assert bcrb_from_blocks(blocks) == pytest.approx(2.0, rel=1e-14)
    assert bcrb_from_dense(blocks) == pytest.approx(2.0, rel=1e-12)


def test_structured_block_reduction_equals_generic_solve():
    # the Rician block pattern [[pI2, qI2], [qI2, pI2]] has the closed
    # quadratic (p b.b - 2q(b0 b2 + b1 b3)) / (p^2 - q^2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.uniform(1.0, 5.0)
        q = rng.uniform(0.0, p * 0.9)
        d = np.array([[p, 0, q, 0], [0, p, 0, q], [q, 0, p, 0], [0, q, 0, p]])
        bv = rng.normal(size=4)
        blocks = BfimBlocks(a=1000.0, b=bv[None], d=d[None])
        closed = (p * bv @ bv - 2.0 * q * (bv[0] * bv[2] + bv[1] * bv[3])) / (p * p - q * q)
        assert 1.0 / bcrb_from_blocks(blocks) == pytest.approx(1000.0 - closed, rel=1e-12)
    # unstructured SPD blocks over several tones take the same batched solve
    for _ in range(20):
        m = rng.normal(size=(5, 4, 4))
        d = m @ np.swapaxes(m, 1, 2) + np.eye(4)
        d = 0.5 * (d + np.swapaxes(d, 1, 2))  # exactly symmetric
        blocks = BfimBlocks(a=1000.0, b=rng.normal(size=(5, 4)), d=d)
        assert bcrb_from_blocks(blocks) == pytest.approx(bcrb_from_dense(blocks), rel=1e-12)


def _arrow_parts(rng, count, rho, prior_info):
    """count random arrow blocks whose receive and transmit entries A', B' (prior_info
    included) have 1 - |z|^2 / (A' B') = rho, with random b (count, 4): d_parts (count, 4)
    without the prior, as the Monte Carlo jackknife hands them to _arrow_coupling."""
    recv, trans = np.exp(rng.uniform(-2.0, 2.0, (2, count)))
    mag, angle = np.sqrt((1.0 - rho) * recv * trans), rng.uniform(0.0, 2.0 * np.pi, count)
    parts = np.stack([recv - prior_info, trans - prior_info,
                      mag * np.cos(angle), mag * np.sin(angle)], axis=-1)
    return rng.normal(size=(count, 4)), parts


def _exact_arrow_coupling(b, parts, prior_info):
    """b^T d^{-1} b per block in exact rational arithmetic, on the doubles both routes
    see: A + prior_info and B + prior_info rounded once, as the diagonal gets them."""
    out = []
    for bk, (recv, trans, zr, zi) in zip(b, parts):
        recv, trans = Fraction(float(recv + prior_info)), Fraction(float(trans + prior_info))
        zr, zi = Fraction(float(zr)), Fraction(float(zi))
        b1, b2, b3, b4 = (Fraction(float(v)) for v in bk)
        # d^{-1} through its 2x2 determinant recv trans - |z|^2, no elimination
        det = recv * trans - zr * zr - zi * zi
        w1, w2 = zr * b1 + zi * b2, zr * b2 - zi * b1  # Z^T b_1
        cross = b3 * w1 + b4 * w2
        out.append(float((trans * (b1 * b1 + b2 * b2) + recv * (b3 * b3 + b4 * b4)
                          - 2 * cross) / det))
    return np.array(out)


def test_arrow_coupling_matches_the_general_solve():
    # well conditioned blocks: the elimination and LAPACK agree to rounding
    rng = np.random.default_rng(12)
    for rho in (0.1, 0.5, 1.0):
        b, parts = _arrow_parts(rng, 60, rho, 0.5)
        b, parts = b.reshape(3, 20, 4), parts.reshape(3, 20, 4)  # batched over a leading axis
        general = _schur_coupling(b, _arrow_d(parts) + 0.5 * np.eye(4))
        assert _arrow_coupling(b, parts, 0.5) == pytest.approx(general, rel=1e-13, abs=0.0)


def test_arrow_coupling_is_as_accurate_as_lapack_where_the_blocks_near_singular():
    # As 1 - |z|^2 / (A' B') -> 0 both routes lose digits to the cancellation; against the
    # exact coupling of the same doubles, the elimination's rms error is no larger than
    # the batched LAPACK solve's (about 7% below it at each rho on 2,000 blocks).
    rng = np.random.default_rng(5)
    for rho in (1e-1, 1e-4, 1e-8, 1e-12):
        b, parts = _arrow_parts(rng, 2000, rho, 0.5)
        exact = _exact_arrow_coupling(b, parts, 0.5)
        arrow = _arrow_coupling(b[:, None], parts[:, None], 0.5)
        general = _schur_coupling(b[:, None], _arrow_d(parts[:, None]) + 0.5 * np.eye(4))
        arrow_err, general_err = (np.sqrt(np.mean((v / exact - 1.0) ** 2)) for v in (arrow, general))
        assert arrow_err <= general_err, (rho, arrow_err, general_err)
        assert arrow_err < 1e-15 / rho, rho


@pytest.mark.parametrize("prior_info", [1e300, math.inf])
def test_arrow_coupling_under_a_huge_channel_prior_is_finite(prior_info):
    # kappa -> inf: A' and B' reach 1e300 or inf, where A' B' would overflow; the
    # coupling falls to |b|^2 / prior_info, 0 at inf, with no RuntimeWarning
    b, parts = _arrow_parts(np.random.default_rng(3), 16, 0.3, 0.0)
    coupling = _arrow_coupling(b, parts, prior_info)
    assert np.isfinite(coupling)
    assert coupling == pytest.approx(np.sum(b * b) / prior_info, rel=1e-12, abs=0.0)


def test_blocks_validation():
    eye = np.eye(4)[None]
    with pytest.raises(ValueError):
        BfimBlocks(a=0.0, b=np.zeros((1, 4)), d=eye)
    with pytest.raises(ValueError):
        BfimBlocks(a=-1.0, b=np.zeros((1, 4)), d=eye)
    with pytest.raises(ValueError):
        BfimBlocks(a=1.0, b=np.zeros((1, 3)), d=eye)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        BfimBlocks(a=1.0, b=np.zeros((1, 4)), d=asym[None])
    with pytest.raises(ValueError):
        BfimBlocks(a=1.0, b=np.zeros((1, 4)), d=-np.eye(4)[None])
    # the batched check still names the first failing block
    stack = np.stack([np.eye(4), -np.eye(4), np.eye(4)])
    with pytest.raises(ValueError, match="channel block 1 "):
        BfimBlocks(a=1.0, b=np.zeros((3, 4)), d=stack)


def test_blocks_reject_a_channel_stack_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"d must have shape \(L, 4, 4\), got \(2, 4, 4\)"):
        BfimBlocks(a=1.0, b=np.zeros((3, 4)), d=np.stack([np.eye(4)] * 2))


def test_nonpositive_information_raises(monkeypatch):
    blocks = BfimBlocks(a=1.0, b=np.array([[2.0, 0, 0, 0]]), d=np.eye(4)[None])
    with pytest.raises(ArithmeticError):
        bcrb_from_blocks(blocks)
    # a nan denominator fails the same way instead of returning a nan bound
    blocks = BfimBlocks(a=1.0, b=np.array([[np.nan, 0, 0, 0]]), d=np.eye(4)[None])
    with pytest.raises(ArithmeticError):
        bcrb_from_blocks(blocks)
    sc = _scenario()
    monkeypatch.setattr(expectations_mod, "kernel_means",
                        lambda sensor, f, prior: np.full((3, np.size(f)), np.nan))
    with pytest.raises(ArithmeticError, match="bound denominator is not positive"):
        bcrb_closed_form(sc)


def test_dense_matrix_layout():
    b = np.array([[1.0, 2.0, 3.0, 4.0]])
    d = (np.eye(4) * 5.0)[None]
    m = bfim_dense(BfimBlocks(a=7.0, b=b, d=d))
    assert m.shape == (5, 5)
    assert m[0, 0] == 7.0
    np.testing.assert_array_equal(m[0, 1:], b[0])
    np.testing.assert_array_equal(m[1:, 0], b[0])
    np.testing.assert_array_equal(m[1:, 1:], d[0])
    np.testing.assert_array_equal(m, m.T)


def _bfim_dense_per_tone(blocks):
    """The dense matrix filled block by block, kept as the reference."""
    n = 1 + 4 * blocks.count
    m = np.zeros((n, n))
    m[0, 0] = blocks.a
    for k in range(blocks.count):
        sl = slice(1 + 4 * k, 5 + 4 * k)
        m[0, sl] = blocks.b[k]
        m[sl, 0] = blocks.b[k]
        m[sl, sl] = blocks.d[k]
    return m


@pytest.mark.parametrize("count", [1, 5])
def test_dense_matrix_matches_per_tone_loop(count):
    blocks = assemble_bfim(_scenario(kappa=2.0, count=count, spacing=0.3))
    assert np.array_equal(bfim_dense(blocks), _bfim_dense_per_tone(blocks))


# ------------------------------------------------------- path agreement

def test_three_paths_agree_on_random_scenarios():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sc = _scenario(
            depth=rng.uniform(0.1, 1.0),
            width=10.0 ** rng.uniform(-0.5, 1.0),
            rate=rng.uniform(0.3, 3.0) * rng.choice([-1, 1]),
            mean=rng.uniform(-1, 1),
            std=rng.uniform(0.3, 2.0),
            kappa=rng.uniform(0.0, 10.0),
            snr_db=rng.uniform(-10, 25),
            spacing=rng.uniform(0.1, 1.0),
            count=int(rng.integers(1, 17)),
        )
        closed = bcrb_closed_form(sc).bound
        blocks = assemble_bfim(sc)
        assert bcrb_from_blocks(blocks) == pytest.approx(closed, rel=1e-10)
        assert bcrb_from_dense(blocks) == pytest.approx(closed, rel=1e-10)


def test_dense_path_rejects_large_grids():
    sc = _scenario(count=65, spacing=0.05)
    with pytest.raises(ValueError):
        bcrb_from_dense(assemble_bfim(sc))


def _channel_blocks_by_index(scenario):
    """The channel blocks of assemble_bfim written entry by entry."""
    ch = scenario.channel
    _, _, rp = prior_moments(scenario.sensor, scenario.grid.as_array(), scenario.prior)
    two_over = 2.0 / scenario.noise.variance
    diag = two_over * rp + ch.prior_info_per_coordinate()
    cross = two_over * (rp * (ch.kappa / (ch.kappa + 1.0)))
    d = np.zeros((rp.size, 4, 4))
    idx = np.arange(4)
    d[:, idx, idx] = diag[:, None]
    for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
        d[:, i, j] = cross
    return d


@pytest.mark.parametrize("count", [1, 128, 1024])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 1e10, 1e300])
def test_assembled_channel_blocks_match_entry_by_entry_construction(count, kappa):
    sc = _scenario(kappa=kappa, count=count, spacing=0.05)
    assert np.array_equal(assemble_bfim(sc).d, _channel_blocks_by_index(sc))


def test_assemble_rejects_deterministic_los():
    with pytest.raises(ValueError):
        assemble_bfim(_scenario(los=True))


# ------------------------------------------------------- structure of the bound

def test_rayleigh_and_los_have_zero_coupling_and_equal_bounds():
    res_ray = bcrb_closed_form(_scenario(kappa=0.0))
    res_los = bcrb_closed_form(_scenario(los=True))
    assert res_ray.coupling_term == 0.0
    assert res_los.coupling_term == 0.0
    # fading second moment is one, so the averaged information coincides
    assert res_ray.bound == pytest.approx(res_los.bound, rel=1e-14)
    np.testing.assert_allclose(res_ray.contributions, res_los.contributions, rtol=1e-14)


def test_partial_fading_knowledge_costs_information():
    ray = bcrb_closed_form(_scenario(kappa=0.0)).bound
    for kappa in (0.5, 1.0, 5.0, 50.0):
        res = bcrb_closed_form(_scenario(kappa=kappa))
        assert res.coupling_term > 0.0
        assert res.bound > ray


@pytest.mark.parametrize("kappa", [1e150, 1e154, 1.3e154, math.nextafter(1.3e154, math.inf),
                                   1e155, 1e200, 1e300, 1e308])
def test_huge_kappa_bound_is_the_los_bound(kappa):
    # (kappa + 1)^2 would overflow a float past ~1.3e154; the fading term reads
    # kappa only through u = 1/(kappa + 1), which goes to the LoS limit u = 0
    los = bcrb_closed_form(_scenario(los=True))
    res = bcrb_closed_form(_scenario(kappa=kappa))
    assert res.bound == pytest.approx(los.bound, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(res.contributions, los.contributions, rtol=1e-12, atol=0.0)
    sc = _scenario(kappa=kappa)
    assert subcarrier_contribution(sc, 3) == pytest.approx(los.contributions[3], rel=1e-12, abs=0.0)


def test_fading_term_in_u_keeps_the_kappa_form_bits_that_order_select():
    # select's mirror ties come out in the order of the contributions' last bits;
    # on its 1024-tone grid the u = 1/(kappa + 1) form has the written-out kappa
    # form's bits at kappa = 0 and 1 (at 1 it is that form divided through by 4)
    sc = load_scenario("grid.count = 1024\n")
    sp, corr, rp = prior_moments(sc.sensor, sc.grid.as_array(), sc.prior)
    corr_sq, var = np.abs(corr) ** 2, sc.noise.variance

    def kappa_form(kappa):
        denom = (2.0 * kappa + 1.0) * rp + var * (kappa + 1.0) ** 2
        return sp - 2.0 * kappa * np.abs(corr) ** 2 / denom

    for kappa in (0.0, 1.0):
        got = _contributions(sc.with_channel(RicianSpec(kappa=kappa)), sp, corr_sq, rp)
        assert np.array_equal(got, kappa_form(kappa)), kappa
    los = _contributions(sc.with_channel(RicianSpec(deterministic_los=True)), sp, corr_sq, rp)
    assert np.array_equal(los, sp)
    # elsewhere the two forms round apart, by under 1e-15 of slope_power: measured
    # against the contribution the gap grows where the fading term takes most of
    # slope_power (2.8e-15 relative at kappa = 5, where it takes 87%)
    for kappa in (0.5, 2.0, 5.0, 1e10):
        got = _contributions(sc.with_channel(RicianSpec(kappa=kappa)), sp, corr_sq, rp)
        assert np.all(np.abs(got - kappa_form(kappa)) <= 1e-15 * sp), kappa


def test_decomposition_identity():
    for kappa, los in ((0.0, False), (2.5, False), (0.0, True)):
        res = bcrb_closed_form(_scenario(kappa=kappa, los=los))
        recon = res.first_term + res.prior_term - res.coupling_term
        assert 1.0 / res.bound == pytest.approx(recon, rel=1e-14)
        sc = _scenario(kappa=kappa, los=los)
        info = 2.0 / sc.noise.variance * np.sum(res.contributions) + sc.prior.curvature()
        assert 1.0 / res.bound == pytest.approx(info, rel=1e-12)


def test_contributions_positive_across_random_scenarios():
    rng = np.random.default_rng(31)
    for _ in range(50):
        sc = _scenario(
            depth=rng.uniform(0.05, 1.0),
            width=10.0 ** rng.uniform(-1, 1),
            kappa=rng.uniform(0.0, 20.0),
            snr_db=rng.uniform(-20, 40),
            spacing=rng.uniform(0.05, 2.0),
            count=int(rng.integers(1, 9)),
        )
        assert np.all(bcrb_closed_form(sc).contributions > 0.0)


def test_bound_decreases_with_snr_and_more_tones():
    bounds = [bcrb_closed_form(_scenario(snr_db=s)).bound for s in (-10, 0, 10, 20, 30)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    by_count = [bcrb_closed_form(_scenario(count=n, spacing=0.2)).bound for n in (1, 2, 4, 8, 16)]
    assert all(b2 < b1 for b1, b2 in zip(by_count, by_count[1:]))


def test_bound_never_exceeds_prior_variance():
    rng = np.random.default_rng(37)
    for _ in range(30):
        sc = _scenario(
            depth=rng.uniform(0.0, 1.0) if rng.random() < 0.9 else 0.0,
            std=10.0 ** rng.uniform(-1, 1),
            kappa=rng.uniform(0.0, 5.0),
            snr_db=rng.uniform(-30, 30),
        )
        assert bcrb_closed_form(sc).bound <= sc.prior.std ** 2 * (1 + 1e-12)


def test_zero_depth_bound_equals_prior_variance():
    res = bcrb_closed_form(_scenario(depth=0.0, std=0.7))
    assert res.bound == pytest.approx(0.49, rel=1e-12)
    assert res.first_term == pytest.approx(0.0, abs=1e-30)


def test_prior_scenario_regression_pin():
    # regression pin for the reference scenario (validated against the Monte
    # Carlo oracle in test_mc.py and in the acceptance gate)
    assert bcrb_closed_form(default_scenario()).bound == pytest.approx(
        2.2846377294563248e-04, rel=1e-9)


# ------------------------------------------------------- selection

def test_subcarrier_contribution_indexing():
    sc = _scenario(count=4)
    total = sum(subcarrier_contribution(sc, k) for k in range(4))
    assert total == pytest.approx(float(np.sum(bcrb_closed_form(sc).contributions)), rel=1e-10)
    with pytest.raises(IndexError):
        subcarrier_contribution(sc, 4)
    with pytest.raises(IndexError):
        subcarrier_contribution(sc, -1)
    assert subcarrier_contribution(sc, np.int64(2)) == subcarrier_contribution(sc, 2)
    assert subcarrier_contribution(sc, 2.0) == subcarrier_contribution(sc, 2)
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"subcarrier index k must be a whole number, got {bad}"):
            subcarrier_contribution(sc, bad)


def test_greedy_selection_matches_exhaustive_search():
    sc = _scenario(kappa=2.0, snr_db=10.0)
    candidates = SubcarrierGrid.uniform(center=0.3, spacing=0.7, count=7)
    freqs = candidates.as_array()

    def bound_for(subset):
        grid = SubcarrierGrid(frequencies=sorted(subset))
        return bcrb_closed_form(sc.with_grid(grid)).bound

    for budget in (1, 2, 3):
        picked = select_subcarriers(candidates, sc, budget)
        best = min(bound_for(s) for s in itertools.combinations(freqs, budget))
        assert bound_for(picked) == pytest.approx(best, rel=1e-12)


def test_selection_orders_by_contribution_with_stable_ties():
    sc = _scenario(count=1)  # grid iself is ignored by selection
    candidates = SubcarrierGrid.uniform(center=0.0, spacing=0.5, count=6)
    picked = select_subcarriers(candidates, sc, 6)
    contribs = [subcarrier_contribution(sc.with_grid(candidates), i) for i in range(6)]
    by_freq = dict(zip(candidates.as_array(), contribs))
    vals = [by_freq[f] for f in picked]
    assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    # symmetric grid: equal-contribution pairs resolve to the lower frequency first
    assert picked[0] == -0.25 and picked[1] == 0.25
    with pytest.raises(ValueError):
        select_subcarriers(candidates, sc, 0)
    with pytest.raises(ValueError):
        select_subcarriers(candidates, sc, 7)


def test_select_budget_is_a_whole_number():
    sc = _scenario()
    assert select_subcarriers(sc.grid, sc, 2.0) == select_subcarriers(sc.grid, sc, 2)
    with pytest.raises(ValueError, match="budget"):
        select_subcarriers(sc.grid, sc, 2.5)


def test_selection_prefers_tones_near_resonance():
    # symmetric scenario: the slope power decays with detuning, so picks fill
    # outward from the prior-mean resonance
    sc = _scenario(depth=1.0, kappa=0.0)
    candidates = SubcarrierGrid.uniform(center=0.0, spacing=0.25, count=33)
    picked = select_subcarriers(candidates, sc, 9)
    assert picked[0] == 0.0
    dists = [abs(f) for f in picked]
    assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))


# ------------------------------------------------------- extreme values

EXTREME_WIDTHS = (1e-8, 1e-4, 1.0, 1e4, 1e8)
EXTREME_SNRS_DB = (-200.0, -100.0, 0.0, 20.0, 100.0, 300.0)
EXTREME_DEPTHS = (0.0, 0.5, 1.0)
EXTREME_CHANNELS = (RicianSpec(kappa=0.0), RicianSpec(kappa=1.0), RicianSpec(kappa=1e10),
                    RicianSpec(kappa=1e300), RicianSpec(deterministic_los=True))
# Known failures, pinned: on a dip 1e8 half-widths wide with tones 0.05 apart
# and full depth, reflection_power = 1 - d (2 - d) m1 is pure rounding (the
# true value is about x^2 ~ 1e-19), and at 300 dB that rounding dominates the
# fading term, so the denominator comes out negative. (width, snr_db, depth, kappa)
KNOWN_NONPOSITIVE = {(1e8, 300.0, 1.0, 1.0), (1e8, 300.0, 1.0, 1e10)}


def test_closed_form_on_a_dip_1e8_half_widths_wide_at_full_depth():
    # the KNOWN_NONPOSITIVE cell at prior std 1, where reflection_power = 1 - m1 is
    # 2^-53 on the correctly rounded m1 = 1 - 1.03e-16: the bound is positive and
    # within 1e-3 of the 60-digit bound on the mpmath means (6.30391713018828e-16),
    # where a kernel table that rounded each node's 1 - x^2 to 1 got reflection_power 0
    sc = _scenario(depth=1.0, width=1e8, std=1.0, snr_db=300.0, kappa=1.0, spacing=0.05)
    assert bcrb_closed_form(sc).bound == pytest.approx(6.30391713018828e-16, rel=1e-3)


def test_select_raises_where_the_bound_denominator_is_not_positive():
    # the first KNOWN_NONPOSITIVE cell: select ranks the contributions of the
    # closed form, so it fails where the closed form does instead of picking
    sc = _scenario(depth=1.0, width=1e8, std=0.5, snr_db=300.0, kappa=1.0, spacing=0.05)
    with pytest.raises(ArithmeticError, match="bound denominator is not positive"):
        select_subcarriers(sc.grid, sc, 3)


@pytest.mark.parametrize("width,center", [(1e-310, 0.0), (1e-10, 1e300)], ids=["s_inf", "x0_inf"])
def test_non_finite_detuning_raises_before_any_rule_runs(width, center):
    # half-width 1e-310 puts s = std / half_width at inf, and half-width 1e-10 a tone at
    # f = 1e300 at x0 = inf: detuning_stats raises ArithmeticError naming the three
    # settings, with no overflow RuntimeWarning first (Tier-1 makes one an error)
    sc = _scenario(width=width, center=center, count=1)
    named = r"sensor.half_width = .*sensor.shift_rate = .*prior.std = "
    freqs = sc.grid.as_array()
    for moment in (expectations_mod.detuning_stats, expectations_mod.kernel_means,
                   expectations_mod.reflection_power, expectations_mod.slope_power):
        with pytest.raises(ArithmeticError, match=named):
            moment(sc.sensor, freqs, sc.prior)
    with pytest.raises(ArithmeticError, match=named):
        bcrb_closed_form(sc)


@pytest.mark.parametrize("spacing", ["half_width", "fixed"])
def test_closed_form_over_extreme_values(spacing):
    # 8 tones 0.5 half-widths apart (always inside the dip) or 0.05 apart
    # whatever the width; the prior variance is 0.25 so depth 0 must give it
    # exactly
    prior_var = 0.25
    failing = set()
    for width, snr_db, depth, channel in itertools.product(
            EXTREME_WIDTHS, EXTREME_SNRS_DB, EXTREME_DEPTHS, EXTREME_CHANNELS):
        step = 0.5 * width if spacing == "half_width" else 0.05
        sc = replace(_scenario(depth=depth, width=width, std=0.5, snr_db=snr_db, spacing=step),
                     channel=channel)
        cell = (width, snr_db, depth, channel.kappa)
        try:
            bound = bcrb_closed_form(sc).bound
        except ArithmeticError as exc:
            assert "bound denominator is not positive" in str(exc), cell
            assert not channel.deterministic_los, cell
            failing.add(cell)
            continue
        assert math.isfinite(bound) and 0.0 < bound <= prior_var, (cell, bound)
        if depth == 0.0:
            assert bound == prior_var, cell
    assert failing == (KNOWN_NONPOSITIVE if spacing == "fixed" else set())


def _series_kernel_means(x0: np.ndarray, s: float) -> np.ndarray:
    """Kernel means (m2, m1, mx) of x ~ N(x0, s^2) from the kernels' Taylor series
    in exact rational arithmetic, rounded once. For |x| ~ 1e-8 the terms past x^6
    are below 1e-47 relative; the table equals a 60-digit mpmath quadrature of
    the same means value for value."""
    v = Fraction(s) ** 2
    table = []
    for c in map(Fraction, x0.tolist()):
        e2, e3 = c * c + v, c**3 + 3 * c * v
        e4, e5 = c**4 + 6 * c * c * v + 3 * v * v, c**5 + 10 * c**3 * v + 15 * c * v * v
        e6 = c**6 + 15 * c**4 * v + 45 * c * c * v * v + 15 * v**3
        table.append((float(1 - 2 * e2 + 3 * e4 - 4 * e6), float(1 - e2 + e4 - e6),
                      float(c - 2 * e3 + 3 * e5)))
    return np.array(table).T


@pytest.mark.parametrize("depth", [0.5, 1.0])
def test_closed_form_where_one_plus_x_squared_rounds_to_one(depth, monkeypatch):
    # half-width 1e8, 300 dB, kappa 1e300, 8 tones 0.05 apart: every node of
    # every tone has x^2 below 1e-14, and the nodes that carry most of the
    # weight have x^2 below 2^-53, where 1 + x^2 rounds to 1. The closed form
    # must be the bound on the exact kernel means, bit for bit (2 ulp off when
    # every node took 1 / (1 + x^2), 1 ulp when each node's 1 - x^2 rounded).
    sc = load_scenario(f"sensor.half_width = 1e8\nnoise.snr_db = 300\nsensor.depth = {depth}\n"
                       "channel.kappa = 1e300\ngrid.count = 8\ngrid.spacing = 0.05\n")
    got = bcrb_closed_form(sc).bound
    x0, s = expectations_mod.detuning_stats(sc.sensor, sc.grid.as_array(), sc.prior)
    monkeypatch.setattr(expectations_mod, "kernel_means",
                        lambda sensor, f, prior: _series_kernel_means(x0, s))
    want = bcrb_closed_form(sc).bound
    assert got == want
