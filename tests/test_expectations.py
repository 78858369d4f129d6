"""Prior-expectation engine against an independent adaptive-quadrature oracle.

The frozen values below were produced by integrating the raw reflection
formulas against the Gaussian prior density with scipy.integrate.quad
(epsrel 1e-12, window mean +- 12 std), with no code from this package
involved. The live oracle in _oracle_moments recomputes them the same way.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from metabcrb import (McEstimate, MonteCarlo, Quadrature, SensingPrior,
                      SensorModel, SubcarrierGrid, corr_magsq, expect_over_prior,
                      reflection_power, slope_power, slope_reflection_corr)
from metabcrb.config import parse_config, scenario_from_settings
from metabcrb.expectations import (_BLOCK, _FAR_NODES, _SINH_NODES,
                                   _SINH_SPAN, _SPIKE_SPAN, FADDEEVA_ZMAX,
                                   FAR_ZMIN, GH_MAX_ORDER, KERNEL_ORDER,
                                   _faddeeva, _far_nodes, _gh_nodes,
                                   _hermite_rule, _kernel_means_far,
                                   _kernel_means_gh, _kernel_means_sinh,
                                   _kernel_nodes, _kernel_table,
                                   detuning_stats,
                                   kernel_means, prior_moments)

# (depth, half_width, shift_rate, offset, prior mean, prior std, frequency)
#   -> (slope_power, corr re, corr im, reflection_power)
FROZEN = [
    ((0.9, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0),
     (4.050000000000002e-01, 0.0, -9.511158817691862e-02, 3.508772530053895e-01)),
    ((0.9, 1.0, 1.0, 0.0, 0.0, 1.0, 0.7),
     (3.424232890578659e-01, -9.333065724378095e-02, -1.076945456966612e-01, 4.211669111114308e-01)),
    ((0.7, 1.3, 0.8, 0.2, 0.5, 2.0, -0.4),
     (6.893715046795496e-02, 3.998173890431975e-02, -2.088702238369253e-02, 5.163864432244358e-01)),
    ((1.0, 0.05, -2.0, 1.0, 0.0, 1.0, 1.1),
     (2.502736929349754e+01, 7.518648752863274e-04, 6.015117603133264e-01, 9.693201001837310e-01)),
    ((0.9, 100.0, 1.0, 0.0, 0.0, 1.0, 30.0),
     (6.816976666884514e-05, -2.498641347537194e-03, 7.548693653781169e-05, 9.179892224913067e-02)),
]


def _raw_reflection(f, c, depth, width, rate, offset):
    x = (f - (rate * c + offset)) / width
    return 1.0 - depth / (1.0 + 1j * x)


def _raw_slope(f, c, depth, width, rate, offset):
    x = (f - (rate * c + offset)) / width
    return -1j * (depth * rate / width) / (1.0 + 1j * x) ** 2


def _oracle_moments(params):
    depth, width, rate, offset, mu, sd, f = params

    def integral(fn):
        pdf = lambda c: math.exp(-0.5 * ((c - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        re, _ = quad(lambda c: fn(c).real * pdf(c), mu - 12 * sd, mu + 12 * sd,
                     limit=400, epsabs=1e-14, epsrel=1e-12)
        im, _ = quad(lambda c: fn(c).imag * pdf(c), mu - 12 * sd, mu + 12 * sd,
                     limit=400, epsabs=1e-14, epsrel=1e-12)
        return complex(re, im)

    args = (depth, width, rate, offset)
    sp = integral(lambda c: abs(_raw_slope(f, c, *args)) ** 2 + 0j).real
    corr = integral(lambda c: np.conj(_raw_slope(f, c, *args)) * _raw_reflection(f, c, *args))
    rp = integral(lambda c: abs(_raw_reflection(f, c, *args)) ** 2 + 0j).real
    return sp, corr, rp


def _unpack(params):
    depth, width, rate, offset, mu, sd, f = params
    sensor = SensorModel(absorption_depth=depth, half_width=width,
                         shift_rate=rate, center_offset=offset)
    return sensor, SensingPrior(mean=mu, std=sd), f


@pytest.mark.parametrize("params,expected", FROZEN)
def test_moments_match_frozen_oracle(params, expected):
    sensor, prior, f = _unpack(params)
    sp_exp, corr_re, corr_im, rp_exp = expected
    assert slope_power(sensor, f, prior) == pytest.approx(sp_exp, rel=1e-8)
    corr = slope_reflection_corr(sensor, f, prior)
    assert corr.real == pytest.approx(corr_re, rel=1e-8, abs=1e-12)
    assert corr.imag == pytest.approx(corr_im, rel=1e-8, abs=1e-12)
    assert reflection_power(sensor, f, prior) == pytest.approx(rp_exp, rel=1e-8)


def test_moments_match_live_oracle_random_scenarios():
    rng = np.random.default_rng(11)
    for _ in range(15):
        width_over_sweep = 10.0 ** rng.uniform(-1.2, 2.0)
        rate = rng.uniform(0.3, 3.0) * rng.choice([-1, 1])
        sd = rng.uniform(0.3, 2.0)
        params = (
            rng.uniform(0.1, 1.0),              # depth
            width_over_sweep * abs(rate) * sd,  # half_width
            rate,
            rng.uniform(-1, 1),                 # offset
            rng.uniform(-1, 1),                 # prior mean
            sd,
            0.0,
        )
        # park the tone within a few widths of the prior-mean resonance
        depth, width, rate, offset, mu, sd, _ = params
        f = rate * mu + offset + rng.uniform(-3, 3) * width
        params = params[:-1] + (f,)
        sensor, prior, f = _unpack(params)
        sp_o, corr_o, rp_o = _oracle_moments(params)
        assert slope_power(sensor, f, prior) == pytest.approx(sp_o, rel=1e-7)
        corr = slope_reflection_corr(sensor, f, prior)
        assert corr == pytest.approx(corr_o, rel=1e-7, abs=1e-10)
        assert reflection_power(sensor, f, prior) == pytest.approx(rp_o, rel=1e-7)


def test_spiky_narrow_regime_against_oracle():
    # half_width three orders below the prior sweep: Hermite rules cannot see
    # the spike, the engine routes it to the narrow-dip closed form
    sensor = SensorModel(absorption_depth=0.9, half_width=1e-3, shift_rate=1.0)
    prior = SensingPrior(mean=0.0, std=1.0)
    for f in (0.0, 0.5):
        params = (0.9, 1e-3, 1.0, 0.0, 0.0, 1.0, f)
        sp_o, corr_o, rp_o = _oracle_moments(params)
        assert slope_power(sensor, f, prior) == pytest.approx(sp_o, rel=1e-6)
        assert slope_reflection_corr(sensor, f, prior) == pytest.approx(corr_o, rel=1e-5, abs=1e-10)
        assert reflection_power(sensor, f, prior) == pytest.approx(rp_o, rel=1e-7)


# Kernel means at 30 significant digits with mpmath 1.3.0, frozen:
# E[1/(1+x^2)^2], E[1/(1+x^2)], E[x/(1+x^2)^2] for x ~ N(x0, s^2), each the
# Faddeeva closed form in mpmath's erfc, cross-checked against mpmath
# tanh-sinh quadrature of the raw kernels with breakpoints on the spike
# (agreement <= 1e-27 on every row).
# (x0, s) -> (m2, m1, mx)
HIGH_PRECISION = [
    (1.43, 2.86, 0.18679642481342842, 0.30789709296740286, 0.0202995576898333),
    (2.86, 2.86, 0.13216472396716253, 0.23299320132605075, 0.029817963332658563),
    (5.72, 2.86, 0.03355720550652342, 0.08427707911925178, 0.01818125931805043),
    (8.58, 2.86, 0.0037050464246046696, 0.024318701351962117, 0.004818031958817023),
    (11.44, 2.86, 0.0002685673139080326, 0.009850919593879038, 0.001190991665897359),
    (5.0, 10.0, 0.05511249254006392, 0.10330315234973034, 0.0023780652341327396),
    (10.0, 10.0, 0.03800206167656953, 0.07327202339649341, 0.0033368421793552),
    (20.0, 10.0, 0.008596615474050474, 0.0195187486989743, 0.0016486166133003399),
    (30.0, 10.0, 0.0007250365067000454, 0.003130503501059304, 0.0002754234342814186),
    (40.0, 10.0, 2.3565145845605462e-05, 0.0008537613813938555, 3.5776107830162264e-05),
    (50.0, 100.0, 0.005530023688094582, 0.010983888568252193, 2.7232293388568464e-05),
    (100.0, 100.0, 0.0038008665128342824, 0.007574213094194934, 3.751245223488992e-05),
    (200.0, 100.0, 0.0008482141372607707, 0.0017239206225679643, 1.6920906335719227e-05),
    (300.0, 100.0, 6.964328393313672e-05, 0.00015712486902109168, 2.160502054203182e-06),
    (400.0, 100.0, 2.1038775037208866e-06, 1.2359664839573158e-05, 1.1200495445940388e-07),
    (500.0, 1000.0, 0.000553022714875674, 0.0011052764308688153, 2.7608921187616726e-07),
    (1000.0, 1000.0, 0.000380086725191739, 0.0007598982290670103, 3.7958710514085354e-07),
    (2000.0, 1000.0, 8.48089389722889e-05, 0.00016989734560070795, 1.695775211610118e-07),
    (3000.0, 1000.0, 6.961559065316724e-06, 1.410250734520242e-05, 2.095719849912669e-08),
    (4000.0, 1000.0, 2.102216137927627e-07, 5.020220739460555e-07, 8.688468548498039e-10),
    (50000.0, 100000.0, 5.530229220524685e-06, 1.106038145909303e-05, 2.7650723478356354e-11),
    (100000.0, 100000.0, 3.800867252665701e-06, 7.601706983177305e-06, 3.8008172530457864e-11),
    (200000.0, 100000.0, 8.480881189174326e-07, 1.696204234940929e-06, 1.696172235706818e-11),
    (300000.0, 100000.0, 6.961531209168643e-08, 1.3924857413573803e-07, 2.0885320288053367e-12),
    (400000.0, 100000.0, 2.1022002720328876e-09, 4.212559056084232e-09, 8.411598298218815e-14),
    # far band, |z| ~ 2357 >= FAR_ZMIN: the far trapezoid zone, whose means lie
    # far below any fixed absolute error floor (same mpmath construction at 50 digits)
    (1e4, 3.0, 1.0000008800008131e-16, 1.0000002600001126e-08, 1.0000005200003379e-12),
    # Same construction at 60 digits, cross-checked against mpmath quadrature at
    # 40 digits (equal as doubles). x0 = zeta s sqrt 2 to 6 digits, zeta = |Re z|.
    # The sinh zone, s in {1.2, 2.86, 100, 1e5} x zeta in {3.6, 5, 8}, then
    # far tones at s <= 1, s in {1e-3, 0.5, 1} x zeta in {30, 1e4}.
    (6.1094, 1.2, 0.001098632974064919, 0.02959397100448447, 0.005383940930635188),
    (8.48528, 1.2, 0.00023368089432349135, 0.014582006299509285, 0.001807093173119357),
    (13.5765, 1.2, 3.1565061674705775e-05, 0.005525968703223875, 0.0004146642538375156),
    (14.5607, 2.86, 3.839702704156522e-05, 0.00537789760646731, 0.0004290759384274525),
    (20.2233, 2.86, 7.461987163571956e-06, 0.0026015216325213667, 0.00013728618552271855),
    (32.3572, 2.86, 9.879144992422373e-07, 0.0009774430660114037, 3.092552953341072e-05),
    (509.117, 100.0, 1.4786472286211848e-08, 4.4594968251967565e-06, 1.0960872602397555e-08),
    (707.107, 100.0, 5.1121733935627286e-12, 2.1340681588904293e-06, 3.2312149754701045e-09),
    (1131.37, 100.0, 6.62359451038818e-13, 8.003185019967257e-07, 7.249516961304078e-10),
    (509117.0, 100000.0, 1.4742490578783595e-11, 3.391505528236598e-11, 7.607765648401292e-16),
    (707107.0, 100000.0, 8.70284406056638e-17, 2.1342470670704302e-12, 3.237378775494926e-18),
    (1131370.0, 100000.0, 6.62360587913319e-25, 8.003191643560821e-13, 7.249529172265859e-19),
    (0.0424264, 0.001, 0.9964077300992632, 0.9982022455139045, 0.04227382412931325),
    (14.1421, 0.001, 2.4752111960137084e-05, 0.004975149391727441, 0.0003500468355853132),
    (21.2132, 0.5, 4.943738666587748e-06, 0.0022209821840737747, 0.0001046393387347572),
    (7071.07, 0.5, 3.9999950888205214e-16, 1.9999987522047783e-08, 2.8284244707021565e-12),
    (42.4264, 1.0, 3.1002023821954494e-07, 0.0005561740505709767, 1.3123748379736189e-05),
    (14142.1, 1.0, 2.5000252899418735e-17, 5.000025239877409e-09, 3.535560694577124e-13),
    # s = 1e7, zeta in {3.6, 5}: mx must not lose digits in proportion to s
    (50911700.0, 10000000.0, 1.4742490560390656e-13, 2.9529281862757485e-13, 7.506673697536322e-20),
    (70710700.0, 10000000.0, 8.70284353675117e-19, 2.1514786972786389e-16, 3.846609092414565e-24),
    # s = 1e8, zeta in {9.3, 9.6, 9.9}: past zeta = 9.19 the window x0 +- 13 s
    # leaves out x = 0, which alone puts m2 5e-10 off at zeta = 9.3, so the sinh
    # window must still hold the spike (60 digits; mpmath quadrature in
    # t = asinh x at 60 digits agrees to 2e-30)
    (1315220000.0, 100000000.0, 3.54781273619575e-37, 5.884284750803743e-19, 4.554917909428156e-28),
    (1357650000.0, 100000000.0, 3.112821652681323e-37, 5.516100320717526e-19, 4.131760741205604e-28),
    (1400070000.0, 100000000.0, 2.7429125597688394e-37, 5.18167363425562e-19, 3.7597841615409834e-28),
]


@pytest.mark.parametrize("x0,s,m2,m1,mx", HIGH_PRECISION)
def test_narrow_kernel_means_match_high_precision_table(x0, s, m2, m1, mx):
    # unit half-width and shift rate: detuning center x0 = f, spread s = prior std
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    km = kernel_means(sensor, [x0], SensingPrior(mean=0.0, std=s))[:, 0]
    assert km == pytest.approx([m2, m1, mx], rel=1e-11, abs=0.0)


# Far-zone kernel means, the Faddeeva closed form in mpmath's erfc at 80 digits
# (mpmath 1.3.0; equal to 1e-55 at 120 digits, and within 1e-19 of mpmath
# quadrature of the raw kernels, 1e-15 for m2 at s = 1e8). |z| is 10 (1 + 1e-13),
# 14 and 40 with x0 = _x0_at(|z|, s); at s = 1e-8 and 1e-3 no tone reaches so small
# a |z| (it is at least 1 / (s sqrt 2)), so there |Re z| takes those values,
# x0 = |Re z| s sqrt 2.  (x0, s) -> (m2, m1, mx)
FAR_HIGH_PRECISION = [
    (1.4142135623732365e-07, 1e-08, 0.9999999999999598, 0.9999999999999799, 1.414213562373179e-07),
    (1.9798989873223334e-07, 1e-08, 0.9999999999999214, 0.9999999999999607, 1.979898987322177e-07),
    (5.656854249492381e-07, 1e-08, 0.9999999999993598, 0.9999999999996799, 5.656854249488756e-07),
    (0.014142135623732363, 0.001, 0.999598123574573, 0.9997990411943928, 0.014136395698713486),
    (0.019798989873223333, 0.001, 0.9992144678068909, 0.9996071559564664, 0.01978335802709976),
    (0.05656854249492381, 0.001, 0.9936286464488762, 0.996809226386694, 0.05620790019704392),
    (14.1067359796673, 1.0, 2.6311178560212917e-05, 0.005076403592420129, 0.00036354750183574465),
    (19.77371993328519, 1.0, 6.677759247465068e-06, 0.002570728059830078, 0.00013067917745097796),
    (56.55970296951709, 1.0, 9.796231546145086e-08, 0.00031279330487296825, 5.533782714469631e-06),
    (42.414620120901226, 3.0, 3.2492458855350326e-07, 0.0005640981907160287, 1.3498631925904408e-05),
    (59.388551085204966, 3.0, 8.244747082945426e-08, 0.00028564326928787084, 4.845816785143176e-06),
    (169.7026811809407, 3.0, 1.2094125689245016e-09, 3.475482376562577e-05, 2.0498360269477138e-07),
    (141421.3562337881, 10000.0, 2.6319856366643878e-21, 5.076943751964127e-11, 3.645774201367364e-16),
    (197989.89872970793, 10000.0, 6.678305881864421e-22, 2.5707970946915748e-11, 1.3085677748674636e-16),
    (565685.4249483541, 10000.0, 9.796243091058794e-24, 3.127934275178547e-12, 5.534654085142636e-18),
    (1414213562.3732362, 1e8, 2.631985636673074e-37, 5.076943751969532e-19, 3.645774201470279e-28),
    (1979898987.322333, 1e8, 6.678305881869888e-38, 2.570797094692265e-19, 1.3085677748852146e-28),
    (5656854249.49238, 1e8, 9.796243091058911e-40, 3.1279342751785594e-20, 5.53465408515135e-30),
]


@pytest.mark.parametrize("x0,s,m2,m1,mx", FAR_HIGH_PRECISION)
def test_far_kernel_means_match_high_precision_table(x0, s, m2, m1, mx):
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    assert abs((1j - x0) / (math.sqrt(2.0) * s)) >= FAR_ZMIN
    km = kernel_means(sensor, [x0, -x0], SensingPrior(mean=0.0, std=s))
    assert km[:, 0] == pytest.approx([m2, m1, mx], rel=1e-14, abs=0.0)
    assert km[:, 1] == pytest.approx([m2, m1, -mx], rel=1e-14, abs=0.0)


# The 8 tones of the half-width 1e8, 300 dB extreme-value cells: tones 0.05 apart
# on a dip 1e8 half-widths wide, so x0 = +-(0.25, 0.75, 1.25, 1.75) 1e-9 and s = 1e-8.
# Every node has x^2 below 1e-14, most of the weight below 2^-53. mpmath 1.3.0 at 60
# digits, quadrature of the raw kernels against the normal density in x = x0 + s u,
# to 25 digits. |x0| -> (m2, m1), even in x0.
TINY_X_HIGH_PRECISION = {
    1.75e-09: ("0.999999999999999793875", "0.9999999999999998969375"),
    1.25e-09: ("0.999999999999999796875", "0.9999999999999998984375"),
    7.5e-10: ("0.999999999999999798875", "0.9999999999999998994375"),
    2.5e-10: ("0.999999999999999799875", "0.9999999999999998999375"),
}


def test_tiny_x_kernel_means_are_correctly_rounded():
    # m2 = 1 - 2.06e-16 and m1 = 1 - 1.03e-16 round to 1 - 2^-52 and 1 - 2^-53;
    # where each node's 1 - x^2 rounds to 1, the weighted x^2 must be summed apart
    sc = scenario_from_settings(parse_config(
        "sensor.half_width = 1e8\nnoise.snr_db = 300\ngrid.count = 8\ngrid.spacing = 0.05\n"))
    x0, s = detuning_stats(sc.sensor, sc.grid.as_array(), sc.prior)
    assert s == 1e-8
    m2, m1, _ = kernel_means(sc.sensor, sc.grid.as_array(), sc.prior)
    want = np.array([[float(v) for v in TINY_X_HIGH_PRECISION[round(abs(c), 20)]] for c in x0]).T
    assert np.array_equal(want, [[1.0 - 2.0**-52] * 8, [1.0 - 2.0**-53] * 8])
    assert np.array_equal(m2, want[0]) and np.array_equal(m1, want[1])


def test_far_tail_adaptive_kernels_do_not_overflow():
    # a tone 1e10 away from a 1e-140-wide dip: x ~ 1e150, so (1 + x^2)^2 exceeds
    # the float range on the far trapezoid route; the kernels must go to 0
    # there without raising or warning (the test run turns RuntimeWarning into errors)
    sensor = SensorModel(absorption_depth=0.9, half_width=1e-140, shift_rate=1.0)
    sp, corr, rp = prior_moments(sensor, 1e10, SensingPrior(mean=0.0, std=1.0))
    assert sp == 0.0 and rp == 1.0
    # corr = -j scale E[1/(1+x^2)] ~ -j 0.9e140 / x0^2
    assert corr == pytest.approx(-9e-161j, rel=1e-6)
    # x0 = 1e150, s = 1e140: mpmath gives E[1/(1+x^2)] = 1e-300 (1 + 3e-20 + ...),
    # which rounds to the double 1e-300; the other two means underflow to 0
    m2, m1, mx = kernel_means(sensor, [1e10], SensingPrior(mean=0.0, std=1.0))[:, 0]
    assert m1 == pytest.approx(1e-300, rel=1e-11, abs=0.0)
    assert m2 == 0.0 and mx == 0.0


def test_stored_kernel_nodes_are_scipys_order_800_rule():
    """_gh_nodes(KERNEL_ORDER) reads _gh800.npy, which holds scipy's rule bit for bit.

    Regenerate the file from the repository root with
    python3 -c "import numpy as np; from scipy.special import roots_hermite; np.save('src/metabcrb/_gh800.npy', np.stack(roots_hermite(800)))"
    """
    from scipy.special import roots_hermite
    z, w = _gh_nodes(KERNEL_ORDER)
    ref_z, ref_w = roots_hermite(KERNEL_ORDER)
    assert np.array_equal(z, ref_z)
    assert np.array_equal(w, ref_w)


@pytest.mark.parametrize("order", [2, 3, 10, 200, 400, 800, 1600])
def test_numpy_hermite_rule_matches_scipys_roots_hermite(order):
    from scipy.special import roots_hermite
    z, w = _hermite_rule(order)
    ref_z, ref_w = roots_hermite(order)
    np.testing.assert_allclose(z, ref_z, rtol=0.0, atol=1e-12)
    # below 1e-300 both rules are in or near the subnormal range and may round to 0
    kept = ref_w > 1e-300
    np.testing.assert_allclose(w[kept], ref_w[kept], rtol=1e-11, atol=0.0)
    assert np.all((w[~kept] >= 0.0) & (w[~kept] < 1e-299))
    assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("order", [KERNEL_ORDER, 200])
def test_cached_quadrature_nodes_are_read_only(order):
    # the cache serves every later table in the process: a caller's in-place
    # write must fail, not change every bound that follows
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    prior = SensingPrior(mean=0.0, std=1.0)
    f = np.linspace(-3.0, 3.0, 64)

    def fn(c):
        return 1.0 / (1.0 + c * c)

    tables = kernel_means(sensor, f, prior).tobytes()
    expectation = expect_over_prior(fn, prior, Quadrature(order))
    for nodes in _gh_nodes(order):
        with pytest.raises(ValueError):
            nodes *= 2.0
    assert kernel_means(sensor, f, prior).tobytes() == tables
    assert expect_over_prior(fn, prior, Quadrature(order)) == expectation


def _gh_rule(order):
    """Nodes z and weights w / sqrt(pi) of the Gauss-Hermite table at `order`: kernel_means'
    400 central nodes of the stored rule at KERNEL_ORDER, all of _gh_nodes(order) otherwise."""
    if order == KERNEL_ORDER:
        return _kernel_nodes()
    z, w = _gh_nodes(order)
    return z, w * (1.0 / math.sqrt(math.pi))


def _gh_table(x0, s, order):
    """The blocked Gauss-Hermite table at `order`: _kernel_means_gh at KERNEL_ORDER."""
    if order == KERNEL_ORDER:
        return _kernel_means_gh(x0, s)
    z, wn = _gh_rule(order)
    return _kernel_table(x0, (math.sqrt(2.0) * s) * z, wn)


def _kernel_means_gh_single_shot(x0, s, order):
    """The Gauss-Hermite table at `order` on the whole (tones x nodes) array at once."""
    z, wn = _gh_rule(order)
    x = x0[:, None] + (math.sqrt(2.0) * s) * z[None, :]
    return np.stack([
        np.sum(1.0 / (1.0 + x * x) ** 2 * wn, axis=1),
        np.sum(1.0 / (1.0 + x * x) * wn, axis=1),
        np.sum(x / (1.0 + x * x) ** 2 * wn, axis=1),
    ])


@pytest.mark.parametrize("tones", [1024, 10_000])
def test_blocked_gauss_hermite_is_bitwise_single_shot(tones):
    x0 = np.linspace(-40.0, 37.0, tones)
    for order in (200, 400, 800):
        assert np.array_equal(_gh_table(x0, 1.3, order),
                              _kernel_means_gh_single_shot(x0, 1.3, order))


@pytest.mark.parametrize("tones", [0, 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1,
                                   1000, 10_000])
@pytest.mark.parametrize("order", [16, 200, 800])
def test_buffered_gauss_hermite_is_bitwise_single_shot_at_block_edges(tones, order):
    # blocking must not change an element's arithmetic or a row's pairwise
    # sum, whether the last block is full, partial or absent; kernel_means'
    # 400 nodes at order 800 take blocks of 2 * _BLOCK tones
    x0 = np.sort(np.random.default_rng(tones).uniform(-60.0, 60.0, tones))
    assert np.array_equal(_gh_table(x0, 0.7, order),
                          _kernel_means_gh_single_shot(x0, 0.7, order))


def test_buffered_gauss_hermite_far_tail_block_is_silent():
    # t = 1 + x^2 overflows to inf in the middle of a block and in a block of
    # its own; the test run turns the overflow RuntimeWarning into an error
    block = _BLOCK * KERNEL_ORDER // _kernel_nodes()[0].size
    x0 = np.concatenate([np.linspace(-3.0, 3.0, block - 2), [1e160, -1e200],
                         np.full(block, 1e170), [5.0]])
    km = _kernel_means_gh(x0, 1.0)
    with np.errstate(over="ignore"):
        ref = _kernel_means_gh_single_shot(x0, 1.0, KERNEL_ORDER)
    assert np.array_equal(km, ref)
    assert np.all(km[:, block - 2:-1] == 0.0)


@pytest.mark.parametrize("tones", [0, 1, _BLOCK * KERNEL_ORDER // _FAR_NODES + 1, 10_000])
def test_far_rule_is_bitwise_single_shot(tones):
    # the far rule's 128-node blocks hold more tones than order 800's; blocking
    # must not change a tone's bits there either, and the cached nodes are read-only
    u, w = _far_nodes()
    assert math.fsum(w) == pytest.approx(1.0, rel=0.0, abs=2.3e-16)
    for nodes in (u, w):
        with pytest.raises(ValueError):
            nodes *= 2.0
    x0 = np.sort(np.random.default_rng(tones).uniform(-60.0, 60.0, tones))
    for s in (1e-3, 1.0, 1e8):
        x = x0[:, None] + s * u
        single = np.stack([np.sum(1.0 / (1.0 + x * x) ** 2 * w, axis=1),
                           np.sum(1.0 / (1.0 + x * x) * w, axis=1),
                           np.sum(x / (1.0 + x * x) ** 2 * w, axis=1)])
        assert np.array_equal(_kernel_means_far(x0, s), single)


def _row_path_cases():
    """(name, sensors, frequencies, prior): grids where slope_power and reflection_power
    form only their kernel row."""
    sc = scenario_from_settings(parse_config("# defaults\n"))
    center = sc.sensor.resonance(sc.prior.mean)
    wide = SubcarrierGrid.uniform(center=center, spacing=sc.sensor.half_width / 100.0, count=10000)
    select = scenario_from_settings(parse_config("grid.count = 1024\n"))
    tiny = scenario_from_settings(parse_config(
        "sensor.half_width = 1e8\nnoise.snr_db = 300\ngrid.count = 8\ngrid.spacing = 0.05\n"))
    # the log FWHM sweep from 0.004 to 400: s from 500 to 0.005, so every rule
    fwhm = [replace(sc.sensor, half_width=w / 2.0) for w in np.geomspace(0.004, 400.0, 41)]
    cases = [("wideband", [sc.sensor], wide.as_array(), sc.prior),
             ("select", [select.sensor], select.grid.as_array(), select.prior),
             ("fwhm-sweep", fwhm, sc.grid.as_array(), sc.prior),
             ("near-one", [tiny.sensor], tiny.grid.as_array(), tiny.prior),
             ("scalar", [sc.sensor, fwhm[0]], center + 0.3 * sc.sensor.half_width, sc.prior)]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, sensors, f, prior", _row_path_cases())
def test_single_moments_are_bitwise_the_full_tables(name, sensors, f, prior):
    for sensor in sensors:
        sp, _, rp = prior_moments(sensor, f, prior)
        for got, want in ((slope_power(sensor, f, prior), sp), (reflection_power(sensor, f, prior), rp)):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, sensor.half_width)
    if name == "near-one":  # the far rule's table sends these tones to _near_means
        x0, s = detuning_stats(sensors[0], f, prior)
        assert np.min((x0[:, None] + s * _far_nodes()[0]) ** 2) < 2.0**-53


def _rows_grids():
    """(sensor, frequencies, prior, rules): the 1024-tone select grid at s = 1 (Gauss-Hermite
    near the dip, the far rule beyond), and x0 = f over [-60, 60] at s = 3 (Faddeeva, sinh
    and far tones)."""
    sc = scenario_from_settings(parse_config("grid.count = 1024\n"))
    unit = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    return [pytest.param(sc.sensor, sc.grid.as_array(), sc.prior, ("gh", "far"), id="s1"),
            pytest.param(unit, np.linspace(-60.0, 60.0, 241), SensingPrior(mean=0.0, std=3.0),
                         ("faddeeva", "sinh", "far"), id="s3")]


@pytest.mark.parametrize("sensor, freqs, prior, rules", _rows_grids())
def test_kernel_means_leave_rows_not_asked_for_nan(sensor, freqs, prior, rules):
    x0, s = detuning_stats(sensor, freqs, prior)
    z = np.abs((1j - x0) / (math.sqrt(2.0) * s))
    zones = {"far": z >= FAR_ZMIN, "gh": (z < FAR_ZMIN) & (s <= 1.0),
             "faddeeva": (z <= FADDEEVA_ZMAX) & (s > 1.0),
             "sinh": (z > FADDEEVA_ZMAX) & (z < FAR_ZMIN) & (s > 1.0)}
    assert {name for name, zone in zones.items() if zone.any()} == set(rules)
    full = kernel_means(sensor, freqs, prior)
    for rows in ((0,), (1,), (0, 2), (0, 1, 2)):
        km = kernel_means(sensor, freqs, prior, rows=rows)
        skipped = [row for row in range(3) if row not in rows]
        assert np.isnan(km[skipped]).all()
        assert km[list(rows)].tobytes() == full[list(rows)].tobytes()


def test_kernel_means_of_no_tones_is_empty():
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    for s in (0.5, 3.0):
        assert kernel_means(sensor, np.array([]), SensingPrior(mean=0.0, std=s)).shape == (3, 0)


@pytest.mark.parametrize("std", [0.5, 3.0])
def test_moments_of_a_2d_frequency_array_keep_its_shape(std):
    # tones in the far zone and near the dip, at s <= 1 and s > 1
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    prior = SensingPrior(mean=0.0, std=std)
    f = np.array([-60.0, -1.0, 0.0, 0.3, 2.0, 45.0])
    for moment in (slope_power, slope_reflection_corr, reflection_power):
        got = moment(sensor, f.reshape(2, 3), prior)
        assert got.shape == (2, 3)
        assert np.array_equal(got, moment(sensor, f, prior).reshape(2, 3)), moment.__name__


def test_kernel_means_calls_no_rule_on_an_empty_zone(monkeypatch):
    from metabcrb import expectations
    sizes = []
    for name in ("_kernel_means_faddeeva", "_kernel_means_sinh", "_kernel_means_gh",
                 "_kernel_means_far"):
        def record(tones, *args, rule=getattr(expectations, name), name=name):
            sizes.append((name, tones.size))
            return rule(tones, *args)
        monkeypatch.setattr(expectations, name, record)
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    # s = 0.5: |x0| <= 5 is all Gauss-Hermite (|z| <= 7.2) and |x0| <= 20 spans it
    # and the far zone (|x0| >= 7); s = 0.01 is all far (|z| >= 70.7); at s = 3,
    # |x0| <= 1 is all near (|z| <= 0.34) and |x0| <= 60 spans the near, sinh and
    # far zones
    for s, x0, rules in ((0.5, np.linspace(-5.0, 5.0, 64), 1), (0.5, np.linspace(-20.0, 20.0, 81), 2),
                         (0.01, np.linspace(-5.0, 5.0, 64), 1),
                         (3.0, np.linspace(-1.0, 1.0, 64), 1),
                         (3.0, np.linspace(-60.0, 60.0, 241), 3),
                         (0.5, np.array([]), 0), (3.0, np.array([]), 0)):
        sizes.clear()
        kernel_means(sensor, x0, SensingPrior(mean=0.0, std=s))
        assert len(sizes) == rules and all(size > 0 for _, size in sizes), (s, x0.size, sizes)
        assert sum(size for _, size in sizes) == x0.size


def _kernel_means_sinh_single_shot(x0, s):
    """The sinh trapezoid rule on the whole (tones x nodes) array at once."""
    u = np.linspace(0.0, 1.0, _SINH_NODES)
    a = np.arcsinh(np.minimum(x0 - _SINH_SPAN * s, -_SPIKE_SPAN))[:, None]
    b = np.arcsinh(np.maximum(x0 + _SINH_SPAN * s, _SPIKE_SPAN))[:, None]
    t = a + (b - a) * u
    t0 = np.arcsinh(x0)[:, None]
    d = 2.0 * np.cosh(0.5 * (t + t0)) * np.sinh(0.5 * (t - t0)) / s
    r = 1.0 / np.cosh(t)
    q = np.exp(-0.5 * d * d) * r * ((b - a) / ((_SINH_NODES - 1) * s * math.sqrt(2.0 * math.pi)))
    q[:, [0, -1]] *= 0.5
    return np.stack([np.sum(q * r * r, axis=1), np.sum(q, axis=1),
                     np.sum(q * d, axis=1) / (-2.0 * s)])


@pytest.mark.parametrize("tones", [0, 1, _BLOCK - 1, _BLOCK + 1, 1000, 10_000])
def test_buffered_sinh_rule_is_bitwise_single_shot(tones):
    # |Re z| from 3.5 to 10 on both sides of the dip, at spreads where the
    # window x0 +- 13 s holds the spike and where only its extension does
    zeta = np.linspace(3.5, 10.0, tones) * np.where(np.arange(tones) % 3, 1.0, -1.0)
    for s in (1.2, 100.0, 1e8):
        x0 = zeta * (s * math.sqrt(2.0))
        assert np.array_equal(_kernel_means_sinh(x0, s), _kernel_means_sinh_single_shot(x0, s))


@pytest.mark.parametrize("count", [16, 128, 1024])
def test_unit_spread_default_grids_keep_the_order_800_table(count):
    # At s = 1 every tone with |z| < FAR_ZMIN takes Gauss-Hermite at order 800.
    # `select` orders exactly tied +-f tones by the last bit of this table, and
    # the benchmark's stored `select` output pins that tie order, so the table
    # must not move there: it must be the sum over all 800 stored nodes, bit for
    # bit, although kernel_means sums only the 400 central ones (see
    # test_kernel_nodes.py). No pick of the 1024-tone grid's 256 is a far tone.
    from metabcrb.bcrb import _greedy
    sc = scenario_from_settings(parse_config(f"grid.count = {count}\n"))
    freqs = sc.grid.as_array()
    x0, s = detuning_stats(sc.sensor, freqs, sc.prior)
    assert s == 1.0
    near = np.abs((1j - x0) / math.sqrt(2.0)) < FAR_ZMIN
    z, w = _gh_nodes(KERNEL_ORDER)
    full = _kernel_table(x0[near], math.sqrt(2.0) * z, w * (1.0 / math.sqrt(math.pi)))
    assert kernel_means(sc.sensor, freqs, sc.prior)[:, near].tobytes() == full.tobytes()
    picks, _, _ = _greedy(sc, min(256, count))
    assert np.all(np.isin(picks, freqs[near]))


def _x0_at(abs_z, s):
    """Detuning center with |(j - x0) / (s sqrt 2)| = abs_z."""
    return math.sqrt(2.0 * s * s * abs_z * abs_z - 1.0)


@pytest.mark.parametrize("s", [1.0001, 3.0, 100.0, 1e8])
def test_faddeeva_matches_scipy_wofz(s):
    # every z the closed form takes, z = (j - x0)/(s sqrt 2) with |z| <= FADDEEVA_ZMAX,
    # from one tone to a 1e4-tone grid
    from scipy.special import wofz
    for tones in (1, _BLOCK - 1, _BLOCK + 1, 4001, 10_000):
        x0 = np.linspace(-1.0, 1.0, tones) * _x0_at(FADDEEVA_ZMAX * (1.0 - 1e-12), s)
        z = (1j - x0) / (math.sqrt(2.0) * s)
        assert np.all(np.abs(z) <= FADDEEVA_ZMAX)
        np.testing.assert_allclose(_faddeeva(z), wofz(z), rtol=1e-14, atol=0.0)


def test_kernel_means_are_continuous_across_routing_edges():
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)

    def km(x0, s):
        return kernel_means(sensor, np.asarray(x0, dtype=float), SensingPrior(mean=0.0, std=s))

    # s = 1 - 1e-12 is all Gauss-Hermite; s = 1 + 1e-12 spans every zone
    x0 = np.linspace(-40.0, 40.0, 160)
    np.testing.assert_allclose(km(x0, 1.0 + 1e-12), km(x0, 1.0 - 1e-12), rtol=1e-11, atol=0.0)
    for s in (1.2, 2.86, 100.0, 1e5):
        for edge in (FADDEEVA_ZMAX, FAR_ZMIN):
            x0 = [_x0_at(edge * (1.0 - 1e-13), s), _x0_at(edge * (1.0 + 1e-13), s)]
            z = np.abs((1j - np.asarray(x0)) / (math.sqrt(2.0) * s))
            assert z[0] < edge < z[1]
            below, above = km(x0, s).T
            np.testing.assert_allclose(above, below, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("s", [1e-3, 0.5, 1.0])
def test_kernel_means_are_continuous_across_the_far_edge_up_to_unit_spread(s):
    # At s <= 1 the far trapezoid rule takes over from order-800 Gauss-Hermite at
    # |z| = FAR_ZMIN, and both rules agree on the tones either side of that edge. At
    # s = 1e-3 every tone is far (|z| >= 1/(s sqrt 2) = 707), so there they are
    # compared on tones near the dip instead.
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    if math.sqrt(2.0) * FAR_ZMIN * s > 1.0:
        x0 = np.array([_x0_at(FAR_ZMIN * (1.0 - 1e-13), s), _x0_at(FAR_ZMIN * (1.0 + 1e-13), s)])
        below, above = kernel_means(sensor, x0, SensingPrior(mean=0.0, std=s)).T
        assert np.array_equal(below, _kernel_means_gh(x0[:1], s)[:, 0])
        assert np.array_equal(above, _kernel_means_far(x0[1:], s)[:, 0])
        # the two tones' x0 differ by 2e-13 relative, and their means by up to 1e-12
        np.testing.assert_allclose(above, below, rtol=1e-11, atol=0.0)
    else:
        x0 = np.array([0.5 * s, 3.0 * s, 0.5])
    np.testing.assert_allclose(_kernel_means_far(x0, s), _kernel_means_gh(x0, s),
                               rtol=1e-14, atol=0.0)


def test_gauss_hermite_polynomial_exactness():
    prior = SensingPrior(mean=0.0, std=math.sqrt(2.0))
    # E[c^2] = 2, E[c^4] = 3 * 4 = 12 for N(0, 2); exact at any order
    assert expect_over_prior(lambda c: c ** 2, prior, Quadrature(order=4)) == pytest.approx(2.0, rel=1e-13)
    assert expect_over_prior(lambda c: c ** 4, prior, Quadrature(order=8)) == pytest.approx(12.0, rel=1e-13)
    shifted = SensingPrior(mean=1.5, std=0.5)
    # E[(c - 1.5)^2] = 0.25, E[c] = 1.5
    assert expect_over_prior(lambda c: (c - 1.5) ** 2, shifted, Quadrature(order=4)) == pytest.approx(0.25, rel=1e-13)
    assert expect_over_prior(lambda c: c, shifted, Quadrature(order=2)) == pytest.approx(1.5, rel=1e-13)


def test_expect_over_prior_complex_and_vector_integrands():
    prior = SensingPrior(mean=0.0, std=1.0)
    val = expect_over_prior(lambda c: np.exp(1j * c), prior)
    # characteristic function of N(0,1) at t=1
    assert val == pytest.approx(math.exp(-0.5), rel=1e-10)

    def vector_fn(c):
        return np.stack([np.asarray(c) ** 2, np.asarray(c) ** 4], axis=0)

    out = expect_over_prior(vector_fn, prior)
    np.testing.assert_allclose(out, [1.0, 3.0], rtol=1e-12)


def test_expect_over_prior_rejects_nonfinite_integrand():
    prior = SensingPrior(mean=0.0, std=1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            expect_over_prior(lambda c: 1.0 / (np.asarray(c) - np.asarray(c)), prior)


def test_monte_carlo_expectation_matches_quadrature():
    sensor = SensorModel(absorption_depth=0.7, half_width=1.3, shift_rate=0.8, center_offset=0.2)
    prior = SensingPrior(mean=0.5, std=2.0)
    f = -0.4
    mc = expect_over_prior(lambda c: np.abs(sensor.reflection_dc(f, c)) ** 2, prior,
                           MonteCarlo(samples=300_000, seed=21))
    assert isinstance(mc, McEstimate)
    ref = slope_power(sensor, f, prior)
    assert abs(mc.value - ref) <= 3 * mc.std_err
    corr_mc = expect_over_prior(lambda c: np.conj(sensor.reflection_dc(f, c)) * sensor.reflection(f, c),
                                prior, MonteCarlo(samples=300_000, seed=22))
    corr_ref = slope_reflection_corr(sensor, f, prior)
    assert abs(corr_mc.value - corr_ref) <= 4 * corr_mc.std_err
    rp_mc = expect_over_prior(lambda c: np.abs(sensor.reflection(f, c)) ** 2, prior,
                              MonteCarlo(samples=300_000, seed=23))
    rp_ref = reflection_power(sensor, f, prior)
    assert abs(rp_mc.value - rp_ref) <= 3 * rp_mc.std_err


def test_monte_carlo_integrand_gives_one_value_per_draw():
    # a stacked integrand once came back as one scalar, the sum of its rows' means
    prior = SensingPrior(mean=0.0, std=1.0)

    def fn(c):
        return np.stack([c, c ** 2])

    np.testing.assert_allclose(expect_over_prior(fn, prior), [0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError, match="one value per draw"):
        expect_over_prior(fn, prior, MonteCarlo(samples=4096, seed=1))


def test_moment_functions_take_no_method():
    # Monte Carlo moments go through expect_over_prior; the kernel table takes no order
    sensor = SensorModel(absorption_depth=0.9, half_width=0.6, shift_rate=1.0)
    prior = SensingPrior(mean=0.0, std=1.0)
    for moment in (slope_power, slope_reflection_corr, reflection_power, corr_magsq):
        for method in (Quadrature(order=40), MonteCarlo(samples=1024)):
            with pytest.raises(TypeError):
                moment(sensor, 0.3, prior, method)


def test_monte_carlo_is_deterministic_per_seed():
    prior = SensingPrior(mean=0.0, std=1.0)
    a = expect_over_prior(lambda c: c ** 3, prior, MonteCarlo(samples=10_000, seed=5))
    b = expect_over_prior(lambda c: c ** 3, prior, MonteCarlo(samples=10_000, seed=5))
    assert a.value == b.value and a.std_err == b.std_err
    c_ = expect_over_prior(lambda c: c ** 3, prior, MonteCarlo(samples=10_000, seed=6))
    assert c_.value != a.value


def test_correlation_bounded_by_powers():
    # |E[conj(g') g]|^2 <= E|g'|^2 E|g|^2 for every scenario (Cauchy-Schwarz)
    rng = np.random.default_rng(17)
    for _ in range(50):
        sensor = SensorModel(
            absorption_depth=rng.uniform(0.05, 1.0),
            half_width=10.0 ** rng.uniform(-2, 2),
            shift_rate=rng.uniform(0.2, 3.0) * rng.choice([-1, 1]),
            center_offset=rng.uniform(-1, 1),
        )
        prior = SensingPrior(mean=rng.uniform(-1, 1), std=10.0 ** rng.uniform(-0.5, 0.5))
        f = sensor.resonance(prior.mean) + rng.uniform(-5, 5) * sensor.half_width
        cm = corr_magsq(sensor, f, prior)
        sp = slope_power(sensor, f, prior)
        rp = reflection_power(sensor, f, prior)
        assert cm <= sp * rp * (1 + 1e-10) + 1e-300
        assert 0.0 <= rp <= 1.0 + 1e-12


def test_translation_invariance_of_moments():
    # shifting prior mean and frequency together leaves every moment unchanged
    base = SensorModel(absorption_depth=0.8, half_width=0.7, shift_rate=1.7)
    for shift in (2.5, -40.0):
        p0 = SensingPrior(mean=0.0, std=0.8)
        p1 = SensingPrior(mean=shift, std=0.8)
        f0, f1 = 0.9, 0.9 + 1.7 * shift
        assert slope_power(base, f1, p1) == pytest.approx(slope_power(base, f0, p0), rel=1e-12)
        assert slope_reflection_corr(base, f1, p1) == pytest.approx(
            slope_reflection_corr(base, f0, p0), rel=1e-12)
        assert reflection_power(base, f1, p1) == pytest.approx(
            reflection_power(base, f0, p0), rel=1e-12)


def test_unconverged_quadrature_warns():
    prior = SensingPrior(mean=0.0, std=1.0)
    # |c| has a kink; Hermite refinement stalls above the cap and must warn
    with pytest.warns(RuntimeWarning):
        val = expect_over_prior(np.abs, prior, Quadrature(order=1400))
    assert val == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-3)


def test_start_order_refines_to_the_cap():
    # the ladder from 1000 is 1000, 1600: one comparison, which agrees
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = expect_over_prior(lambda c: c * c, SensingPrior(0.0, 1.0), Quadrature(1000))
    assert abs(val - 1.0) <= 1e-13


def test_method_validation():
    prior = SensingPrior(mean=0.0, std=1.0)
    with pytest.raises(ValueError):
        Quadrature(order=1)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"quadrature order must be a whole number >= 2, got {bad}"):
            Quadrature(order=bad)
        with pytest.raises(ValueError, match=f"samples must be a whole number >= 1, got {bad}"):
            MonteCarlo(samples=bad)
    # whole floats and numpy integers are used as ints, so results are the int call's bits
    for whole in (1000.0, np.int64(1000)):
        assert type(Quadrature(whole).order) is int and Quadrature(whole) == Quadrature(1000)
        assert type(MonteCarlo(whole).samples) is int and MonteCarlo(whole) == MonteCarlo(1000)
    assert (expect_over_prior(np.cos, prior, MonteCarlo(1000.0, seed=3))
            == expect_over_prior(np.cos, prior, MonteCarlo(1000, seed=3)))
    # an order past the cap is refused before any rule is built: the eigensolve
    # would need order^2 floats, 80 GB at 1e5 nodes
    with pytest.raises(ValueError, match=f"quadrature order must be in \\[2, {GH_MAX_ORDER}\\], got 100000"):
        Quadrature(order=100_000)
    with pytest.raises(ValueError, match="got 1601"):
        Quadrature(order=GH_MAX_ORDER + 1)
    assert Quadrature(order=GH_MAX_ORDER).order == 1600
    with pytest.raises(ValueError):
        MonteCarlo(samples=0)
    with pytest.raises(TypeError):
        expect_over_prior(lambda c: c, prior, method="trapezoid")
