"""Monte Carlo oracle chain: per-sample information against finite differences,
averaged blocks against the analytic assembly, bound against the closed form."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import metabcrb.expectations as expectations
import metabcrb.mc as mc
from metabcrb import (MonteCarlo, ParameterSample, RicianSpec, Scenario,
                      SensingPrior, SensorModel, SubcarrierGrid, assemble_bfim,
                      bcrb_closed_form, conditional_fim, draw_samples,
                      mc_blocks, mc_bound, posterior_mean_mse,
                      reflection_power, snr_to_noise)
from metabcrb.bcrb import _arrow_coupling
from metabcrb.expectations import MC_CHUNK
from metabcrb.mc import _BOOT_KEY, BOOTSTRAP_RESAMPLES
from test_streams import chunk_rng


def _scenario(depth=0.9, width=1.0, rate=1.0, mean=0.0, std=1.0, kappa=1.0,
              los=False, snr_db=20.0, spacing=0.4, count=8):
    sensor = SensorModel(absorption_depth=depth, half_width=width, shift_rate=rate)
    prior = SensingPrior(mean=mean, std=std)
    return Scenario(
        sensor=sensor,
        prior=prior,
        channel=RicianSpec(kappa=kappa, deterministic_los=los),
        noise=snr_to_noise(snr_db),
        grid=SubcarrierGrid.uniform(center=sensor.resonance(mean), spacing=spacing, count=count),
    )


# ------------------------------------------------- per-sample information

def test_conditional_fim_condition_entry_hand_value():
    sc = _scenario(count=1, snr_db=0.0)
    smp = ParameterSample(condition=0.0, receive=np.ones(1, complex), transmit=np.ones(1, complex))
    fim = conditional_fim(sc, smp)
    # (c, c) entry with unit gains is (2 / noise_var) |gamma'(f)|^2
    f = sc.grid.as_array()[0]
    expect = 2.0 * abs(sc.sensor.reflection_dc(f, 0.0)) ** 2
    assert fim[0, 0] == pytest.approx(expect, rel=1e-14)
    assert fim.shape == (5, 5)


def _fd_fim(sc, c, h_r, h_t, step=1e-5):
    # central-difference Hessian of the quadratic mismatch
    # q(t) = |mu(t0) - mu(t)|^2 / noise_var, which equals the FIM at t = t0
    count = sc.grid.count
    dim = 1 + 4 * count
    theta0 = np.concatenate(
        [[c], np.stack([h_r.real, h_r.imag, h_t.real, h_t.imag], axis=1).ravel()])

    def unpack(t):
        rest = t[1:].reshape(count, 4)
        return t[0], rest[:, 0] + 1j * rest[:, 1], rest[:, 2] + 1j * rest[:, 3]

    def mean_vec(t):
        cc, hr, ht = unpack(t)
        return hr * np.asarray(sc.sensor.reflection(sc.grid.as_array(), cc)) * ht

    mu0 = mean_vec(theta0)

    def q(t):
        return float(np.sum(np.abs(mu0 - mean_vec(t)) ** 2)) / sc.noise.variance

    hess = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            acc = 0.0
            for si, sj, sign in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                t = theta0.copy()
                t[i] += si * step
                t[j] += sj * step
                acc += sign * q(t)
            hess[i, j] = acc / (4.0 * step * step)
    return hess


def test_conditional_fim_matches_finite_difference_hessian():
    for count, seed in ((1, 0), (2, 1)):
        sc = _scenario(count=count, spacing=0.7, kappa=2.0, snr_db=10.0)
        cs, hrs, hts = draw_samples(sc, 4, chunk_rng(seed, 0))
        for i in range(4):
            smp = ParameterSample(condition=cs[i], receive=hrs[i], transmit=hts[i])
            fim = conditional_fim(sc, smp)
            fd = _fd_fim(sc, cs[i], hrs[i], hts[i])
            rel = np.linalg.norm(fim - fd) / np.linalg.norm(fim)
            assert rel < 1e-5
            np.testing.assert_allclose(fim, fim.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(fim) > -1e-10)


def test_conditional_fim_is_singular_per_sample():
    # one complex observation per tone caps the Jacobian at 2 L real rows, so
    # the (1 + 4 L)-dim matrix is rank deficient: rank = 2 L
    sc = _scenario(count=3, spacing=0.6)
    cs, hrs, hts = draw_samples(sc, 1, chunk_rng(4, 0))
    fim = conditional_fim(sc, ParameterSample(condition=cs[0], receive=hrs[0], transmit=hts[0]))
    rank = np.linalg.matrix_rank(fim, tol=1e-9)
    assert rank == 2 * sc.grid.count


def _conditional_fim_per_tone(sc, sample):
    """conditional_fim with the derivative matrix filled tone by tone, kept as the reference."""
    freqs = sc.grid.as_array()
    count = freqs.size
    h_r, h_t = sample.receive, sample.transmit
    gamma = sc.sensor.reflection(freqs, sample.condition)
    dgamma = sc.sensor.reflection_dc(freqs, sample.condition)
    deriv = np.zeros((count, 1 + 4 * count), dtype=complex)
    deriv[:, 0] = h_r * dgamma * h_t
    for k in range(count):
        base = 1 + 4 * k
        deriv[k, base + 0] = gamma[k] * h_t[k]
        deriv[k, base + 1] = 1j * gamma[k] * h_t[k]
        deriv[k, base + 2] = h_r[k] * gamma[k]
        deriv[k, base + 3] = 1j * h_r[k] * gamma[k]
    return (2.0 / sc.noise.variance) * np.real(np.conj(deriv).T @ deriv)


@pytest.mark.parametrize("count", [1, 5])
def test_conditional_fim_matches_per_tone_loop(count):
    # numpy's array complex product fuses multiply-adds where the scalar one
    # does not, so entries may differ in the last bits: allow a few ulp of
    # the largest entry (an exact cancellation to 0 may leave such a residue)
    sc = _scenario(count=count, spacing=0.5, kappa=2.0)
    cs, hrs, hts = draw_samples(sc, 3, chunk_rng(11, 0))
    for i in range(3):
        smp = ParameterSample(condition=cs[i], receive=hrs[i], transmit=hts[i])
        fim = conditional_fim(sc, smp)
        ref = _conditional_fim_per_tone(sc, smp)
        np.testing.assert_allclose(fim, ref, rtol=0.0, atol=8 * np.finfo(float).eps * np.max(np.abs(ref)))


def test_conditional_fim_validates_shapes():
    sc = _scenario(count=2)
    with pytest.raises(ValueError):
        conditional_fim(sc, ParameterSample(condition=0.0, receive=np.ones(3, complex),
                                            transmit=np.ones(2, complex)))


# ------------------------------------------------- sampling

def test_draw_samples_match_prior_and_fading_statistics():
    sc = _scenario(kappa=3.0, count=4)
    c, h_r, h_t = draw_samples(sc, 200_000, chunk_rng(8, 0))
    assert np.mean(c) == pytest.approx(0.0, abs=0.01)
    assert np.std(c) == pytest.approx(1.0, abs=0.01)
    v = sc.channel.scatter_variance()
    for h in (h_r, h_t):
        assert np.mean(h.real) == pytest.approx(sc.channel.mean(), abs=0.01)
        assert np.mean(h.imag) == pytest.approx(0.0, abs=0.01)
        assert np.var(h.real) == pytest.approx(v / 2, rel=0.05)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)


def test_draw_samples_los_returns_unit_gains():
    sc = _scenario(los=True, count=3)
    c, h_r, h_t = draw_samples(sc, 10, chunk_rng(0, 0))
    assert np.all(h_r == 1.0) and np.all(h_t == 1.0)
    assert c.shape == (10,)
    # the conditions are drawn before the channel normals, as with a random channel
    assert np.array_equal(c, draw_samples(_scenario(count=3), 10, chunk_rng(0, 0))[0])


# ------------------------------------------------- averaged blocks

def test_mc_blocks_agree_with_analytic_assembly():
    sc = _scenario(kappa=2.0, count=4, snr_db=10.0)
    exact = assemble_bfim(sc)
    est = mc_blocks(sc, 400_000, seed=12)
    assert abs(est.a - exact.a) <= 4 * est.a_se
    # cross vectors: entrywise within 4 standard errors (plus a floor for
    # entries whose estimator noise dwarfs the tiny true value)
    np.testing.assert_array_less(
        np.abs(est.b - exact.b), 4 * est.b_se + 1e-12)
    # channel blocks concentrate much faster; 1% relative is loose at this
    # sample size, and the absolute floor covers the exact zeros of the
    # analytic pattern that sampling noise fills in
    np.testing.assert_allclose(est.d, exact.d, rtol=0.01, atol=0.03)


def test_mc_blocks_rayleigh_cross_vector_near_zero():
    sc = _scenario(kappa=0.0, count=3)
    est = mc_blocks(sc, 200_000, seed=9)
    np.testing.assert_array_less(np.abs(est.b), 4 * est.b_se + 1e-12)


def test_mc_blocks_validation():
    with pytest.raises(ValueError):
        mc_blocks(_scenario(los=True), 100)
    with pytest.raises(ValueError):
        mc_blocks(_scenario(), 1)
    # one chunk leaves no spread of chunk means to take an error from
    with pytest.raises(ValueError, match="at least 513 samples"):
        mc_blocks(_scenario(), 512)
    with pytest.raises(ValueError, match="at least 513 samples"):
        mc_bound(_scenario(), 500)
    # SubcarrierGrid.uniform's whole-number rule: a whole float is the int call, bit for bit
    sc = _scenario(count=2)
    for bad in (2.5, math.nan, math.inf):
        for fn in (mc_blocks, mc_bound):
            with pytest.raises(ValueError, match=f"samples must be a whole number >= 1, got {bad}"):
                fn(sc, bad)
    assert mc_bound(sc, 1e4, seed=1) == mc_bound(sc, 10_000, seed=1)
    assert mc_bound(_scenario(los=True), 1e4).samples == 10_000
    blocks, int_blocks = mc_blocks(sc, 1e4, seed=1), mc_blocks(sc, np.int64(10_000), seed=1)
    assert blocks.samples == 10_000 and blocks.a == int_blocks.a
    np.testing.assert_array_equal(blocks.d, int_blocks.d)


def test_seeds_are_whole_numbers_from_zero():
    # a bad seed raises ValueError naming it, a MonteCarlo at construction and
    # the oracle functions before any draw; a whole float is the int seed, bit for bit
    sc, los = _scenario(count=2), _scenario(los=True, count=2)
    for bad in (-1, 1.5, math.nan):
        message = re.escape(f"seed must be a whole number >= 0, got {bad}")
        with pytest.raises(ValueError, match=message):
            MonteCarlo(1000, seed=bad)
        for call in (lambda: mc_bound(sc, 2_000, bad), lambda: mc_blocks(sc, 2_000, bad),
                     lambda: posterior_mean_mse(los, 100, grid_points=8, seed=bad)):
            with pytest.raises(ValueError, match=message):
                call()
    assert MonteCarlo(1000, seed=2.0) == MonteCarlo(1000, seed=2)
    assert mc_bound(sc, 2_000, 2.0) == mc_bound(sc, 2_000, 2)
    assert (posterior_mean_mse(los, 100, grid_points=8, seed=2.0)
            == posterior_mean_mse(los, 100, grid_points=8, seed=2))


def test_mc_bounds_stop_short_of_the_bootstrap_stream(monkeypatch):
    # the bootstrap draws the stream of chunk _BOOT_KEY, so a call may fill chunks 0 to
    # _BOOT_KEY - 1 and no more; the check comes before any draw
    def no_draws(scenarios, samples, seed):
        raise LookupError(samples)

    monkeypatch.setattr(mc, "_shared_chunk_means", no_draws)
    sc, limit = _scenario(count=2), _BOOT_KEY * MC_CHUNK
    assert limit == 845_552_740_352
    for samples in (limit + 1, 2**32 * MC_CHUNK):
        with pytest.raises(ValueError, match=f"at most {limit} draws, got {samples}: chunk {_BOOT_KEY}"):
            mc_bound(sc, samples)
    with pytest.raises(LookupError, match=str(limit)):
        mc_bound(sc, limit)


# ------------------------------------------------- the bound

def test_mc_bound_matches_closed_form():
    for kwargs, samples, seed in (
        (dict(kappa=1.0, count=8), 300_000, 3),
        (dict(kappa=0.0, count=8), 200_000, 4),
        (dict(kappa=5.0, count=4, snr_db=0.0), 200_000, 5),
    ):
        sc = _scenario(**kwargs)
        closed = bcrb_closed_form(sc).bound
        est = mc_bound(sc, samples, seed=seed)
        assert abs(est.value - closed) <= 3 * est.std_err, kwargs
        assert est.std_err < 0.05 * closed


def test_mc_bound_los_is_exact():
    sc = _scenario(los=True)
    est = mc_bound(sc, 1000, seed=0)
    assert est.value == bcrb_closed_form(sc).bound
    assert est.std_err == 0.0


def test_mc_bound_error_shrinks_as_root_n():
    sc = _scenario(count=4)
    closed = bcrb_closed_form(sc).bound
    sizes = [10_000, 40_000, 160_000, 640_000]
    ses = []
    for n in sizes:
        est = mc_bound(sc, n, seed=100)
        ses.append(est.std_err)
        assert abs(est.value - closed) <= 4 * est.std_err
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_mc_bound_bootstrap_matches_plain_loop():
    # reference: one resample at a time, one 4x4 solve per tone
    sc = _scenario(count=4, kappa=2.0)
    samples, seed = 20_000, 7
    est = mc_bound(sc, samples, seed=seed)
    blocks = mc_blocks(sc, samples, seed=seed)
    n_chunks = blocks.chunk_sizes.size
    rng = chunk_rng(seed, _BOOT_KEY)
    two_over = 2.0 / sc.noise.variance
    info = sc.channel.prior_info_per_coordinate() * np.eye(4)
    bounds = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, n_chunks, size=n_chunks)
        w = blocks.chunk_sizes[pick] / np.sum(blocks.chunk_sizes[pick])
        a = two_over * np.sum(w * blocks.chunk_a[pick]) + sc.prior.curvature()
        b = two_over * np.einsum("i,ikj->kj", w, blocks.chunk_b[pick])
        d = two_over * np.einsum("i,iklm->klm", w, blocks.chunk_d[pick])
        coupling = sum(float(b[k] @ np.linalg.solve(d[k] + info, b[k]))
                       for k in range(sc.grid.count))
        bounds.append(1.0 / (a - coupling))
    assert est.std_err == pytest.approx(np.std(bounds, ddof=1), rel=1e-12)


@pytest.mark.parametrize("count", [1, 16, 128])
def test_mc_bound_is_the_bound_of_mc_blocks(count):
    # one averaging path: the point estimate is the bound of mc_blocks' a, b and d, with
    # the coupling from the four distinct entries (A', B', zr, zi) of each d block
    sc = _scenario(count=count, spacing=0.05, kappa=2.0)
    samples, seed = 3_001, 11
    blocks = mc_blocks(sc, samples, seed)
    parts = blocks.d[:, [0, 2, 0, 1], [0, 2, 2, 2]]
    assert np.array_equal(mc._arrow_d(parts), blocks.d)
    coupling = _arrow_coupling(blocks.b, parts, 0.0)
    assert mc_bound(sc, samples, seed).value == 1.0 / (blocks.a - coupling)


def test_mc_bound_reruns_bit_identical():
    sc = _scenario(count=4)
    a = mc_bound(sc, 50_000, seed=42)
    b = mc_bound(sc, 50_000, seed=42)
    assert a.value == b.value and a.std_err == b.std_err
    c = mc_bound(sc, 50_000, seed=43)
    assert c.value != a.value


# ------------------------------------------------- chunk runs and threads

def _block_means_one_chunk(sc, c, h_r, h_t):
    """Factorised block means of one (n, L) chunk in complex algebra, kept as the reference:
    each entry is its sensor mean times its receive-hop and transmit-hop means. Also returns
    the magnitude of each b and z12 entry's factors, the scale a rounding error of the
    (possibly cancelled) entry is relative to."""
    freqs = sc.grid.as_array()
    gamma = sc.sensor.reflection(freqs[None, :], c[:, None])
    dgamma = sc.sensor.reflection_dc(freqs[None, :], c[:, None])
    slope = np.mean(np.abs(dgamma) ** 2, axis=0)
    core = np.mean(np.conj(dgamma) * gamma, axis=0)
    power = np.mean(np.abs(gamma) ** 2, axis=0)
    mean_r, mean_t = np.mean(h_r, axis=0), np.mean(h_t, axis=0)
    mag_r, mag_t = np.mean(np.abs(h_r) ** 2, axis=0), np.mean(np.abs(h_t) ** 2, axis=0)
    a_mean = np.sum(slope * mag_r * mag_t)
    w1 = np.conj(mean_r) * mag_t * core
    w2 = mag_r * np.conj(mean_t) * core
    b_mean = np.stack([w1.real, -w1.imag, w2.real, -w2.imag], axis=1)
    z12 = mean_r * np.conj(mean_t) * power
    d_mean = np.zeros((freqs.size, 4, 4))
    d_mean[:, 0, 0] = d_mean[:, 1, 1] = power * mag_t
    d_mean[:, 2, 2] = d_mean[:, 3, 3] = power * mag_r
    d_mean[:, 0, 2] = d_mean[:, 2, 0] = z12.real
    d_mean[:, 1, 3] = d_mean[:, 3, 1] = z12.real
    d_mean[:, 0, 3] = d_mean[:, 3, 0] = -z12.imag
    d_mean[:, 1, 2] = d_mean[:, 2, 1] = z12.imag
    b_scale = np.stack([np.abs(mean_r) * mag_t * np.abs(core)] * 2
                       + [mag_r * np.abs(mean_t) * np.abs(core)] * 2, axis=1)
    z_scale = np.abs(mean_r) * np.abs(mean_t) * power
    return (a_mean, b_mean, d_mean), (b_scale, z_scale)


def _channel_moments(h_r, h_t):
    """The channel moments the kernel reads, taken from draws of h_r and h_t (..., n, L): the
    means and mean squares (4, ..., L) of Re h_r, Im h_r, Re h_t, Im h_t over the n draws,
    moved to the last, contiguous axis for numpy's pairwise sum."""
    parts = np.ascontiguousarray(np.swapaxes(np.stack([h_r.real, h_r.imag, h_t.real, h_t.imag]),
                                            -1, -2))
    return np.mean(parts, axis=-1), np.mean(parts * parts, axis=-1)


def _kernel(sc, c, h_r, h_t):
    """The chunk kernel on draws stacked by chunk: c (K, n), h_r and h_t (K, n, L),
    with its channel blocks expanded to (K, L, 4, 4)."""
    sensor_means = mc._sensor_means(sc.sensor, sc.grid.as_array(), c)
    a, b, d_parts = mc._chunk_block_means(sensor_means, *_channel_moments(h_r, h_t))
    return a, b, mc._arrow_d(d_parts)


def _kernel_one_chunk(sc, c, h_r, h_t):
    """The chunk kernel on one (n, L) chunk alone."""
    return [m[0] for m in _kernel(sc, c[None], h_r[None], h_t[None])]


def _draw_statistics(prior, rng, count, size):
    """One chunk's draws, written out: its size conditions (size,), then for the size
    standard normals z of each of Re h_r, Im h_r, Re h_t and Im h_t at each tone
    z_mean = mean(z) ~ N(0, 1/size) (4, count), then the chi^2(size - 1) sum of squares
    about it as twice a standard_gamma((size - 1) / 2), as spread = chi^2 / size
    (4, count), so mean(z^2) = z_mean^2 + spread."""
    c = prior.mean + prior.std * rng.standard_normal(size)
    z_mean = rng.standard_normal((4, count)) / math.sqrt(size)
    spread = 2.0 * rng.standard_gamma((size - 1) / 2.0, (4, count)) / size
    return c, z_mean, spread


def _serial_chunk_means(sc, samples, seed):
    """Chunk means drawn and reduced one chunk at a time, in index order, from numpy's own
    generator for each chunk (_draw_statistics). The sensor means are mc._sensor_means',
    the production five-mean arithmetic."""
    freqs, count = sc.grid.as_array(), sc.grid.count
    variance = sc.channel.scatter_variance() / 2.0
    shift = np.array([sc.channel.mean(), 0.0, sc.channel.mean(), 0.0])[:, None]
    means = []
    for i, start in enumerate(range(0, samples, MC_CHUNK)):
        n = min(MC_CHUNK, samples - start)
        c, z_mean, spread = _draw_statistics(sc.prior, chunk_rng(seed, i), count, n)
        mean = math.sqrt(variance) * z_mean + shift
        square = mean * mean + variance * spread
        a, b, d_parts = mc._chunk_block_means(mc._sensor_means(sc.sensor, freqs, c[None]),
                                              mean[:, None], square[:, None])
        means.append((a[0], b[0], mc._arrow_d(d_parts[0])))
    return [np.array(parts) for parts in zip(*means)]


def _one_chunk_at_a_time(fn, seed, samples, width=1, block=1):
    """_map_chunks without runs, threads or the state pass: every chunk alone, in order,
    on numpy's own generator for it, joined into the same fold blocks, of `block` chunks
    rounded down to whole runs of _RUN_ELEMENTS // (MC_CHUNK * width) chunks."""
    run = max(1, expectations._RUN_ELEMENTS // (MC_CHUNK * width))
    span = run * max(1, block // run)
    sizes = [min(MC_CHUNK, samples - start) for start in range(0, samples, MC_CHUNK)]
    for lo in range(0, len(sizes), span):
        results = [fn(iter([chunk_rng(seed, i)]), 1, sizes[i]) for i in range(lo, min(lo + span, len(sizes)))]
        yield [np.concatenate(parts) for parts in zip(*results)], np.array(sizes[lo:lo + span], dtype=float)


def _joined(blocks):
    """_map_chunks' fold blocks joined over all chunks: fn's arrays and the sizes."""
    arrays, sizes = zip(*blocks)
    return [np.concatenate(parts) for parts in zip(*arrays)], np.concatenate(sizes)


def _joined_chunk_means(scenarios, samples, seed):
    """_shared_chunk_means' fold blocks joined: each scenario's chunk means (a, b, d_parts)
    over all chunks, and the sizes."""
    blocks, sizes = [], []
    for block_sizes, means in mc._shared_chunk_means(scenarios, samples, seed):
        blocks.append(list(means))
        sizes.append(block_sizes)
    return ([[np.concatenate(parts) for parts in zip(*per_block)] for per_block in zip(*blocks)],
            np.concatenate(sizes))


THREAD_SETTINGS = ("1", "2", "0")


def test_map_chunks_runs_and_threads(monkeypatch):
    def layout(rngs, count, size):
        assert len(list(rngs)) == count
        return [np.array([(count, size, threading.get_ident())] * count, dtype=object)]

    main = threading.get_ident()
    monkeypatch.setenv("METABCRB_THREADS", "2")
    # narrow draws: runs of _RUN_ELEMENTS // MC_CHUNK chunks on this thread,
    # the partial last chunk alone
    assert expectations._RUN_ELEMENTS // MC_CHUNK == 128
    (narrow,), sizes = _joined(expectations._map_chunks(layout, 0, 300 * MC_CHUNK + 7))
    assert [n for n, _, _ in narrow] == [128] * 256 + [44] * 44 + [1]
    assert [s for _, s, _ in narrow] == [MC_CHUNK] * 300 + [7]
    assert sizes.tolist() == [MC_CHUNK] * 300 + [7]
    assert {t for _, _, t in narrow} == {main}
    # 16 tones: runs of 8 chunks, still on this thread
    (tones16,), _ = _joined(expectations._map_chunks(layout, 0, 20 * MC_CHUNK + 7, width=16))
    assert [(n, s) for n, s, _ in tones16] == [(8, MC_CHUNK)] * 16 + [(4, MC_CHUNK)] * 4 + [(1, 7)]
    assert {t for _, _, t in tones16} == {main}
    # 64 tones, the widest on this thread: runs of 2 chunks
    (tones64,), _ = _joined(expectations._map_chunks(layout, 0, 5 * MC_CHUNK, width=64))
    assert [(n, s) for n, s, _ in tones64] == [(2, MC_CHUNK)] * 4 + [(1, MC_CHUNK)]
    assert {t for _, _, t in tones64} == {main}
    # 65 tones, the narrowest on the pool: one chunk per run
    (tones65,), _ = _joined(expectations._map_chunks(layout, 0, 5 * MC_CHUNK, width=65))
    assert [(n, s) for n, s, _ in tones65] == [(1, MC_CHUNK)] * 5
    assert main not in {t for _, _, t in tones65}
    # wide draws: one chunk per run, on the pool
    (wide,), _ = _joined(expectations._map_chunks(layout, 0, 9 * MC_CHUNK, width=128))
    assert [(n, s) for n, s, _ in wide] == [(1, MC_CHUNK)] * 9
    assert main not in {t for _, _, t in wide}
    monkeypatch.setenv("METABCRB_THREADS", "1")
    (serial,), _ = _joined(expectations._map_chunks(layout, 0, 9 * MC_CHUNK, width=128))
    assert {t for _, _, t in serial} == {main}


def test_map_chunks_fold_blocks_hold_whole_runs(monkeypatch):
    # a fold block spans `block` chunks rounded down to whole runs, one run at least; the
    # partial last chunk joins the block its index falls in, and no chunk is drawn before
    # the caller asks for its block
    calls = []

    def sizes_of(rngs, count, size):
        calls.append(count)
        return [np.full(count, size)]

    monkeypatch.setenv("METABCRB_THREADS", "2")
    for width, samples, block, want in ((1, 300 * MC_CHUNK + 7, 300, [256, 45]),
                                        (1, 300 * MC_CHUNK + 7, 100, [128, 128, 45]),
                                        (16, 250 * MC_CHUNK + 7, 125, [120, 120, 11]),
                                        (128, 50 * MC_CHUNK, 23, [23, 23, 4]),
                                        (128, 50 * MC_CHUNK, 1, [1] * 50)):
        calls.clear()
        blocks = expectations._map_chunks(sizes_of, 0, samples, width, block)
        assert calls == []
        got = [(arrays[0].tolist(), sizes.tolist()) for arrays, sizes in blocks]
        assert [len(s) for _, s in got] == want
        assert [a for a, _ in got] == [s for _, s in got]
        assert sum((s for _, s in got), []) == [MC_CHUNK] * (samples // MC_CHUNK) + [7] * (samples % MC_CHUNK > 0)
    monkeypatch.setenv("METABCRB_THREADS", "1")
    calls.clear()
    blocks = expectations._map_chunks(sizes_of, 0, 300 * MC_CHUNK + 7, 1, 100)
    next(blocks)
    assert calls == [128]


def test_monte_carlo_expectation_calls_fn_on_the_calling_thread(monkeypatch):
    # one-element draws always fill runs of several chunks, which never reach the pool
    seen = set()

    def fn(c):
        seen.add(threading.get_ident())
        return c * c

    monkeypatch.setenv("METABCRB_THREADS", "2")
    est = expectations.expect_over_prior(fn, SensingPrior(mean=0.0, std=1.0),
                                         MonteCarlo(samples=40 * MC_CHUNK + 3, seed=4))
    assert est.samples == 40 * MC_CHUNK + 3
    assert seen == {threading.get_ident()}


def _assert_kernel_matches_fim(sc, kernel, fim):
    """The kernel's (a, b, d) against the arrow blocks read out of a dense information
    matrix `fim` without its 2/noise_var scale."""
    a, b, d = kernel
    blocks = [slice(1 + 4 * k, 5 + 4 * k) for k in range(sc.grid.count)]
    assert a == pytest.approx(fim[0, 0], rel=1e-12)
    # entries that are exact zeros of the block pattern may carry a rounding
    # residue in the dense product: allow 1e-12 of the largest entry there
    np.testing.assert_allclose(b, [fim[0, k] for k in blocks], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(b)))
    np.testing.assert_allclose(d, [fim[k, k] for k in blocks], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("count", [1, 5])
def test_chunk_kernel_matches_mean_of_conditional_fim(count):
    # an independent path: c, h_r and h_t are independent, so the factorised
    # means of n draws each are the mean of the dense conditional information
    # over all n^3 combinations of a condition, a receive and a transmit draw
    sc = _scenario(count=count, spacing=0.5, kappa=2.0)
    n = 6
    c, h_r, h_t = draw_samples(sc, n, chunk_rng(31, 0))
    fims = [conditional_fim(sc, ParameterSample(condition=c[i], receive=h_r[j], transmit=h_t[k]))
            for i in range(n) for j in range(n) for k in range(n)]
    mean = np.mean(fims, axis=0) / (2.0 / sc.noise.variance)
    _assert_kernel_matches_fim(sc, _kernel_one_chunk(sc, c, h_r, h_t), mean)


@pytest.mark.parametrize("count", [1, 5, 128])
def test_chunk_kernel_at_one_draw_is_conditional_fim(count):
    # a chunk of one draw: every mean is that draw's value, so the blocks are
    # conditional_fim's own
    sc = _scenario(count=count, spacing=0.05, kappa=2.0)
    c, h_r, h_t = draw_samples(sc, 1, chunk_rng(32, 0))
    fim = conditional_fim(sc, ParameterSample(condition=c[0], receive=h_r[0], transmit=h_t[0]))
    _assert_kernel_matches_fim(sc, _kernel_one_chunk(sc, c, h_r, h_t),
                               fim / (2.0 / sc.noise.variance))


def _statistic_batches(z_mean, square, batches=40):
    """Mean z_mean, var z_mean, mean of mean z^2, its variance and its covariances with
    z_mean and z_mean^2, each averaged over `batches` batches, with that average's
    standard error from the batches' spread."""
    zm, sq = z_mean.reshape(batches, -1), square.reshape(batches, -1)

    def cov(x, y):
        return np.mean((x - np.mean(x, axis=1, keepdims=True)) * (y - np.mean(y, axis=1, keepdims=True)),
                       axis=1)

    per = np.array([np.mean(zm, axis=1), cov(zm, zm), np.mean(sq, axis=1), cov(sq, sq),
                    cov(zm, sq), cov(zm * zm, sq)])
    return np.mean(per, axis=1), np.std(per, axis=1, ddof=1) / math.sqrt(batches)


@pytest.mark.parametrize("n", [MC_CHUNK, 2])
def test_chunk_statistics_match_explicit_draws(n):
    # the (z_mean, mean z^2) a chunk draws for each channel part and tone (_draw_statistics,
    # which the chunk runs match bitwise, see test_mc_bound_bitwise_across_thread_counts)
    # against the same two statistics of n explicit standard normals, 40,000 pairs each: means,
    # variances and covariances agree within 4.5 standard errors, and match the normal
    # law's 0, 1/n, 1, 2/n, 0 and 2/n^2 (n = 2 tells a chi^2 of n - 1 from one of n)
    prior = SensingPrior(mean=0.0, std=1.0)
    count, chunks = 100, 100
    drawn = [_draw_statistics(prior, chunk_rng(40, i), count, n)[1:] for i in range(chunks)]
    z_mean = np.concatenate([zm.ravel() for zm, _ in drawn])
    square = np.concatenate([(zm * zm + spread).ravel() for zm, spread in drawn])
    rng = chunk_rng(41, 0)
    explicit = [rng.standard_normal((4 * count, n)) for _ in range(chunks)]
    explicit_mean = np.concatenate([np.mean(z, axis=1) for z in explicit])
    explicit_square = np.concatenate([np.mean(z * z, axis=1) for z in explicit])
    got, got_se = _statistic_batches(z_mean, square)
    want, want_se = _statistic_batches(explicit_mean, explicit_square)
    assert np.all(np.abs(got - want) <= 4.5 * np.hypot(got_se, want_se)), (got, want)
    exact = np.array([0.0, 1.0 / n, 1.0, 2.0 / n, 0.0, 2.0 / n**2])
    assert np.all(np.abs(got - exact) <= 4.5 * got_se), (got, exact)


@pytest.mark.parametrize("count", [1, 128])
def test_chunk_conditions_are_those_of_draw_samples(count, monkeypatch):
    # each chunk's generator gives its conditions first, bitwise draw_samples' on it;
    # one tone runs chunks 128 at a time, 128 tones one at a time
    sc = _scenario(count=count, spacing=0.05)
    samples, seed = 20 * MC_CHUNK + 3, 13
    seen = []
    sensor_means = mc._sensor_means

    def recorded(sensor, freqs, c):
        seen.extend(c.copy())
        return sensor_means(sensor, freqs, c)

    monkeypatch.setattr(mc, "_sensor_means", recorded)
    monkeypatch.setenv("METABCRB_THREADS", "1")
    mc_blocks(sc, samples, seed)
    sizes = [MC_CHUNK] * 20 + [3]
    assert [c.size for c in seen] == sizes
    for i, (c, size) in enumerate(zip(seen, sizes)):
        assert np.array_equal(c, draw_samples(sc, size, chunk_rng(seed, i))[0])


@pytest.mark.parametrize("count", [1, 16])
def test_one_draw_last_chunk_has_no_spread(count):
    # 512 k + 1 draws end in a chunk of one draw, whose chi^2 has shape 0: mean z^2
    # is z_mean^2 exactly, and the chunk's blocks are conditional_fim at one draw
    # with the channel that z_mean gives
    sc = _scenario(count=count, spacing=0.05, kappa=2.0)
    samples, seed = 3 * MC_CHUNK + 1, 19
    c, z_mean, spread = _draw_statistics(sc.prior, chunk_rng(seed, 3), count, 1)
    assert np.array_equal(z_mean * z_mean + spread, z_mean * z_mean)
    means, squares = mc._channel_moments(sc.channel, z_mean, spread)
    assert np.array_equal(squares, means * means)
    blocks = mc_blocks(sc, samples, seed)
    assert blocks.chunk_sizes.tolist() == [MC_CHUNK] * 3 + [1]
    fim = conditional_fim(sc, ParameterSample(condition=c[0], receive=means[0] + 1j * means[1],
                                              transmit=means[2] + 1j * means[3]))
    _assert_kernel_matches_fim(sc, (blocks.chunk_a[-1], blocks.chunk_b[-1], blocks.chunk_d[-1]),
                               fim / (2.0 / sc.noise.variance))


@pytest.mark.parametrize("kappa", [0.0, 2.0])
@pytest.mark.parametrize("count", [1, 5, 128])
def test_chunk_kernel_matches_complex_algebra(count, kappa):
    # factorised means in complex products against the real-arithmetic kernel;
    # a b or z12 entry is a sum of signed terms, so its rounding error is
    # relative to the size of its factors, not to the (possibly cancelled) entry
    sc = _scenario(count=count, spacing=0.05, kappa=kappa)
    draw = draw_samples(sc, MC_CHUNK, chunk_rng(5, 0))
    (ref_a, ref_b, ref_d), (b_scale, z_scale) = _block_means_one_chunk(sc, *draw)
    a, b, d = _kernel_one_chunk(sc, *draw)
    assert a == pytest.approx(ref_a, rel=1e-13)
    assert np.all(np.abs(b - ref_b) <= 1e-13 * b_scale)
    diag = (d[:, 0, 0], d[:, 2, 2])
    np.testing.assert_allclose(diag, (ref_d[:, 0, 0], ref_d[:, 2, 2]), rtol=1e-13)
    off = np.abs(d - ref_d)
    off[:, [0, 1, 2, 3], [0, 1, 2, 3]] = 0.0
    assert np.all(off <= 1e-13 * z_scale[:, None, None])


def _detuning_ratios(sensor, freqs, c):
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


def _sensor_terms(sensor, freqs, c):
    """Per-draw sensor terms of conditions c (..., n) on tones freqs (L,), each (..., L, n).

    With x the detuning, r = 1 / (1 + x^2), q = x^2 r, d the depth and
    S = depth * shift_rate / half_width: |gamma'|^2 = (S r)^2,
    |gamma|^2 = (1 - d)^2 r + q and conj(gamma') gamma =
    S r (-(2 - d) x r + j ((1 - d) r - q)), on _detuning_ratios' x, q and r.
    Returns (|gamma'|^2, Re and Im of conj(gamma') gamma, |gamma|^2): the
    per-draw reference for the means that mc._sensor_means forms.
    """
    x, _, q, r = _detuning_ratios(sensor, freqs, c)
    d = sensor.absorption_depth
    sr = (d * sensor.shift_rate / sensor.half_width) * r
    core_re = (-(2.0 - d) * x) * (r * sr)
    core_im = ((1.0 - d) * r - q) * sr
    power = (1.0 - d) ** 2 * r + q
    return sr * sr, core_re, core_im, power


@pytest.mark.parametrize("depth", [0.9, 1.0])
def test_sensor_terms_match_extended_precision_at_any_detuning(depth):
    # textbook forms in long double, whose range holds x^2 and (1 + x^2)^2
    # for every float x: the kernel's terms must lose nothing near the dip
    # centre (where 1 - d (2 - d) / t cancels at full depth) and reach the
    # limits |gamma|^2 = 1 and zero slope terms once x^2 leaves the float range
    sensor = SensorModel(absorption_depth=depth, half_width=1.0, shift_rate=2.0)
    c = np.array([0.0, 1e-12, 3e-9, 0.25, 0.5, 1.7, 40.0, 1e5, 1e75, 1e150, -1e155, 1e300])
    got = _sensor_terms(sensor, np.array([0.0]), c[None])
    x = -2.0 * c.astype(np.longdouble)
    d, scale = np.longdouble(depth), np.longdouble(2.0 * depth)
    t = 1 + x * x
    want = (scale**2 / t**2, -(2 - d) * scale * x / t**2, scale * (1 - d - x * x) / t**2,
            ((1 - d) ** 2 + x * x) / t)
    for g, w in zip(got, want):
        assert g.shape == (1, 1, c.size)
        np.testing.assert_allclose(g[0, 0], w.astype(float), rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("depth", [0.9, 1.0])
def test_sensor_means_match_extended_precision_at_any_detuning(depth):
    # the production means, through their five base means, against long-double
    # means of the textbook terms at the detunings of the per-draw test above:
    # one row of draws per scale, through the dip centre (a row holding x = 0
    # and draws with x^2 < 2^-53, so the near-one means), across the sign change
    # of Im conj(gamma') gamma at depth 0.9, and out to where x^2 leaves the float
    # range. |gamma'|^2 and |gamma|^2 are positive and held relative to their
    # means; the signed cross terms to 1e-14 of the mean |term|
    sensor = SensorModel(absorption_depth=depth, half_width=1.0, shift_rate=2.0)
    base = np.array([1e-12, 3e-9, 0.25, 0.5, 1.7, 40.0, 1e5, 1e75, 1e150, -1e155, 1e300])
    c = np.vstack([np.linspace(-1e-8, 1e-8, 17), base[:, None] * np.linspace(0.5, 1.5, 17)])
    # one row holds both kinds of draw that the plain sums cannot take: x^2 < 2^-53
    # (near one) and x^2 = inf (q = inf * 0)
    c = np.vstack([c, np.r_[np.linspace(-1e-8, 1e-8, 13), 0.3, -2.0, 1e300, -1e200]])
    got = mc._sensor_means(sensor, np.array([0.0]), c)
    x = -2.0 * c.astype(np.longdouble)
    d, scale = np.longdouble(depth), np.longdouble(2.0 * depth)
    t = 1 + x * x
    terms = (scale**2 / t**2, -(2 - d) * scale * x / t**2, scale * (1 - d - x * x) / t**2,
             ((1 - d) ** 2 + x * x) / t)
    for k, (g, w) in enumerate(zip(got, terms)):
        assert g.shape == (c.shape[0], 1)
        want = np.mean(w, axis=-1).astype(float)
        if k in (0, 3):
            np.testing.assert_allclose(g[:, 0], want, rtol=1e-14, atol=1e-300)
        else:
            size = np.mean(np.abs(w), axis=-1).astype(float)
            assert np.all(np.abs(g[:, 0] - want) <= 1e-14 * size + 1e-300), (k, g[:, 0], want)


def test_sensor_terms_keep_a_square_detuning_that_vanishes_beside_one():
    # for 5.6e-17 < x^2 < 1.1e-16, 1 + x^2 rounds to 1, so r = 1 / (1 + x^2)
    # would be 1 at every such draw, a bias of -x^2 that no bootstrap spread
    # shows; the nearest double to the true r is 1 - 2^-53
    sensor = SensorModel(absorption_depth=1.0, half_width=1.0, shift_rate=1.0)
    c = np.array([8e-9, 9e-9, 1e-8, 1.05e-8])
    slope_sq = _sensor_terms(sensor, np.array([0.0]), c[None])[0]
    assert np.all(slope_sq == (1.0 - 2.0**-53) ** 2)


@pytest.mark.parametrize("depth", [0.5, 1.0])
def test_sensor_means_carry_a_square_detuning_that_rounds_beside_one(depth):
    # conditions N(0, 5e-9^2) put x^2 around 1e-16 on the first two tones, where
    # r = 1 - q rounds q to a multiple of 2^-53 at every draw, so the plain mean
    # of |gamma'|^2 sits 2 ulps off the long-double mean; the chunk means keep
    # each term within an ulp of it there. On the far tone |gamma'|^2 and |gamma|^2
    # are within an ulp too, and the two signed cross terms within 1e-13 of the
    # mean |term|, the scale their rounding is relative to
    sensor = SensorModel(absorption_depth=depth, half_width=1.0, shift_rate=2.0)
    c = 5e-9 * chunk_rng(7, 0).standard_normal((3, MC_CHUNK))
    freqs = np.array([0.0, 6e-9, 2.0])
    got = mc._sensor_means(sensor, freqs, c)
    plain = [np.mean(t, axis=-1) for t in _sensor_terms(sensor, freqs, c)]
    x = freqs[:, None].astype(np.longdouble) - 2.0 * c[:, None, :].astype(np.longdouble)
    d, scale, t = np.longdouble(depth), np.longdouble(2.0 * depth), 1 + x * x
    terms = (scale**2 / t**2, -(2 - d) * scale * x / t**2, scale * (1 - d - x * x) / t**2,
             ((1 - d) ** 2 + x * x) / t)
    want = [np.mean(w, axis=-1).astype(float) for w in terms]
    size = [np.mean(np.abs(w), axis=-1).astype(float) for w in terms]
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.all(np.abs(g[:, :2] - w[:, :2]) <= np.spacing(np.abs(w[:, :2]))), (g, w)
        far = np.spacing(np.abs(w[:, 2])) if k in (0, 3) else 1e-13 * size[k][:, 2]
        assert np.all(np.abs(g[:, 2] - w[:, 2]) <= far), (k, g, w)
    assert np.max(np.abs(plain[0][:, :2] - want[0][:, :2]) / np.spacing(want[0][:, :2])) >= 2.0


@pytest.mark.parametrize("count", [1, 2, 5, 16])
def test_batched_block_means_equal_chunk_by_chunk(count):
    sc = _scenario(count=count, kappa=2.0)
    run = max(1, expectations._RUN_ELEMENTS // (MC_CHUNK * count))
    draws = [draw_samples(sc, MC_CHUNK, chunk_rng(5, i)) for i in range(run)]
    batched = _kernel(sc, *(np.stack(parts) for parts in zip(*draws)))
    for k, draw in enumerate(draws):
        for got, want in zip(batched, _kernel_one_chunk(sc, *draw)):
            assert np.array_equal(got[k], want)


@pytest.mark.parametrize("count", [1, 16, 128])
def test_sensor_means_bitwise_whole_by_chunk_and_by_tone(count):
    # a run of chunks, each chunk alone and each tone alone give the same bits: each
    # row's dot products read that row alone. The middle tone sits on the resonance of
    # c = 0, so rows with a c = 0 draw take the near-one means, and rows with c = 1e300
    # those for x^2 = inf
    sensor = SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0)
    freqs = sensor.resonance(0.0) + 0.05 * (np.arange(count) - count // 2)
    run = max(1, expectations._RUN_ELEMENTS // (MC_CHUNK * count))
    c = np.stack([chunk_rng(3, i).standard_normal(MC_CHUNK) for i in range(run)])
    c[::2, 7], c[1::3, 9] = 0.0, 1e300
    whole = mc._sensor_means(sensor, freqs, c)
    for k in range(run):
        for got, want in zip(mc._sensor_means(sensor, freqs, c[k]), whole):
            assert np.array_equal(got, want[k])
    for tone in range(count):
        for got, want in zip(mc._sensor_means(sensor, freqs[tone:tone + 1], c), whole):
            assert np.array_equal(got[:, 0], want[:, tone])


@pytest.mark.parametrize("count", [1, 8, 16, 128])
def test_large_batches_round_as_single_chunks(count):
    # 32 chunks of 512 draws: every (32, 512, L) array of the call is far
    # above numpy's 256 KiB temporary-elision threshold, which once changed
    # the rounding of in-place complex products and so the last bits of
    # chunk means with the batch size
    sc = _scenario(count=count, spacing=0.05, kappa=2.0)
    draws = [draw_samples(sc, MC_CHUNK, chunk_rng(6, i)) for i in range(32)]
    batched = _kernel(sc, *(np.stack(parts) for parts in zip(*draws)))
    for k, draw in enumerate(draws):
        for got, want in zip(batched, _kernel_one_chunk(sc, *draw)):
            assert np.array_equal(got[k], want)


def _assert_bitwise_across_thread_counts(sc, samples, seed, monkeypatch):
    """mc_blocks' chunk means and mc_bound at every thread setting against chunk means
    drawn one chunk at a time from numpy's own generators, and mc_bound run that way."""
    n_full, rest = divmod(samples, MC_CHUNK)
    ref_a, ref_b, ref_d = _serial_chunk_means(sc, samples, seed)
    with monkeypatch.context() as m:
        m.setattr(mc, "_map_chunks", _one_chunk_at_a_time)
        ref = mc_bound(sc, samples, seed)
    for threads in THREAD_SETTINGS + (None,):
        if threads is None:
            monkeypatch.delenv("METABCRB_THREADS", raising=False)
        else:
            monkeypatch.setenv("METABCRB_THREADS", threads)
        blocks = mc_blocks(sc, samples, seed)
        assert np.array_equal(blocks.chunk_a, ref_a)
        assert np.array_equal(blocks.chunk_b, ref_b)
        assert np.array_equal(blocks.chunk_d, ref_d)
        assert blocks.chunk_sizes.tolist() == [MC_CHUNK] * n_full + [rest]
        est = mc_bound(sc, samples, seed)
        assert (est.value, est.std_err) == (ref.value, ref.std_err), threads


@pytest.mark.parametrize("count", [1, 16, 128])
def test_mc_bound_bitwise_across_thread_counts(count, monkeypatch):
    # 50,001 draws: 97 full chunks and a partial one of 337
    _assert_bitwise_across_thread_counts(_scenario(count=count, kappa=2.0), 50_001, 17, monkeypatch)


@pytest.mark.parametrize("rest", [1, 7])
@pytest.mark.parametrize("count", [1, 16, 128])
def test_mc_bound_bitwise_with_a_short_last_chunk(count, rest, monkeypatch):
    # 16 full chunks, in two runs of 8 at 16 tones, one of 16 at one tone and one chunk
    # a run at 128, then a last chunk of 1 or 7 draws
    _assert_bitwise_across_thread_counts(_scenario(count=count, kappa=2.0), 16 * MC_CHUNK + rest, 29,
                                         monkeypatch)


@pytest.mark.parametrize("count, samples", [(1, 1025), (16, 1025), (128, 1025), (1, 600 * MC_CHUNK + 3),
                                           (16, 250 * MC_CHUNK + 1), (128, 50 * MC_CHUNK + 9)])
def test_mc_bounds_bitwise_across_threads_and_fold_edges(count, samples, monkeypatch):
    # 1025 draws are two chunks and a one-draw chunk; the other counts end on a short
    # fold block. Two scenarios share the draws, as validate's configured and Rayleigh do
    base = _scenario(count=count, kappa=2.0)
    scenarios = (base, base.with_channel(RicianSpec(kappa=0.0)))
    blocks = [sizes.size for sizes, _ in mc._shared_chunk_means(scenarios, samples, 5)]
    assert samples == 1025 or (len(blocks) > 1 and blocks[-1] < blocks[0])
    got = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("METABCRB_THREADS", threads)
        got[threads] = [(e.value, e.std_err) for e in mc._mc_bounds(scenarios, samples, 5)]
    assert got["1"] == got["2"]
    for sc, est in zip(scenarios, got["1"]):
        ref = mc_bound(sc, samples, 5)
        assert est == (ref.value, ref.std_err)


@pytest.mark.parametrize("n_chunks", [3, 5, 197, 1955])
def test_bootstrap_picks_in_row_blocks_are_one_call(n_chunks, monkeypatch):
    # numpy's bounded 32-bit integers keep no buffer between calls, so picks drawn a row
    # block at a time are the stream of one (R, n_chunks) call, and so are their counts
    whole = chunk_rng(4, _BOOT_KEY).integers(0, n_chunks, size=(BOOTSTRAP_RESAMPLES, n_chunks))
    want = np.array([np.bincount(row, minlength=n_chunks) for row in whole])
    for rows in (7, 25):
        rng = chunk_rng(4, _BOOT_KEY)
        blocks = [rng.integers(0, n_chunks, size=(min(rows, BOOTSTRAP_RESAMPLES - lo), n_chunks))
                  for lo in range(0, BOOTSTRAP_RESAMPLES, rows)]
        assert np.array_equal(np.concatenate(blocks), whole)
        monkeypatch.setattr(mc, "_RUN_ELEMENTS", rows * n_chunks)
        counts = mc._bootstrap_counts(4, n_chunks)
        assert counts.dtype == np.min_scalar_type(n_chunks)
        assert np.array_equal(counts, want)


@pytest.mark.parametrize("count", [1, 16])
def test_mc_bound_memory_does_not_grow_with_draws(count):
    # chunk means live one fold block at a time; only the pick counts (BOOTSTRAP_RESAMPLES
    # small integers per chunk) grow with the draws. Ten times the draws once took 4.5
    # (one tone) and 5.9 (16 tones) times the peak, in the (R, n_chunks) bootstrap weights
    # and the joined chunk means
    sc = _scenario(count=count, kappa=2.0)
    mc_bound(sc, 100_000, 3)  # first-call allocations are not the oracle's
    peaks = []
    for samples in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            mc_bound(sc, samples, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_mc_bound_bytes_do_not_depend_on_blas_threads():
    # the bootstrap folds each block by a BLAS matrix product, which splits no sum across
    # threads, and the value row by numpy's own loop; one (R, n_chunks) product of all the
    # weights once moved std_err's last digit between one and two OpenBLAS threads.
    # Criterion 01's narrow scenario at 1e6 draws, as the benchmark's mc-narrow job runs it
    import metabcrb
    script = (
        "from metabcrb import RicianSpec, Scenario, SensingPrior, SensorModel, SubcarrierGrid, mc_bound, snr_to_noise\n"
        "sc = Scenario(sensor=SensorModel(absorption_depth=0.9, half_width=0.01, shift_rate=1.0),\n"
        "              prior=SensingPrior(mean=0.0, std=1.0), channel=RicianSpec(kappa=1.0),\n"
        "              noise=snr_to_noise(20.0), grid=SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=1))\n"
        "est = mc_bound(sc, 1_000_000, 1)\n"
        "print(repr((est.value, est.std_err)))\n")
    src = os.path.dirname(os.path.dirname(metabcrb.__file__))
    outputs = []
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
                   OPENBLAS_NUM_THREADS=blas, METABCRB_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("count", [1, 16])
def test_shared_draws_equal_separate_calls(count):
    # one pass over the chunks for three channels gives each channel bitwise
    # the chunk means and bound of a call with it alone
    base = _scenario(count=count, kappa=2.0)
    scenarios = tuple(base.with_channel(RicianSpec(kappa=k)) for k in (2.0, 0.0, 1e6))
    samples, seed = 20_001, 8
    means, sizes = _joined_chunk_means(scenarios, samples, seed)
    bounds = mc._mc_bounds(scenarios, samples, seed)
    for sc, (chunk_a, chunk_b, d_parts), est in zip(scenarios, means, bounds):
        alone = mc_blocks(sc, samples, seed)
        assert np.array_equal(chunk_a, alone.chunk_a)
        assert np.array_equal(chunk_b, alone.chunk_b)
        assert np.array_equal(mc._arrow_d(d_parts), alone.chunk_d)
        assert np.array_equal(sizes, alone.chunk_sizes)
        ref = mc_bound(sc, samples, seed)
        assert (est.value, est.std_err) == (ref.value, ref.std_err)


def test_mc_blocks_store_four_channel_entries_per_tone():
    # the (chunks, L, 4, 4) channel blocks hold 4 distinct entries per tone;
    # only those are stored, and chunk_d expands them on access
    blocks = mc_blocks(_scenario(count=16), 2_000, 3)
    assert blocks.chunk_d_parts.shape == (blocks.chunk_sizes.size, 16, 4)
    assert blocks.chunk_d.shape == (blocks.chunk_sizes.size, 16, 4, 4)
    assert np.array_equal(blocks.chunk_d, mc._arrow_d(blocks.chunk_d_parts))


def test_shared_draws_need_one_prior_sensor_and_grid():
    sc = _scenario(count=4)
    others = (sc.with_grid(SubcarrierGrid.uniform(center=0.0, spacing=0.4, count=5)),
              _scenario(count=4, std=2.0), _scenario(count=4, depth=0.5))
    for other in others:
        with pytest.raises(ValueError, match="same prior, sensor and grid"):
            mc._shared_chunk_means((sc, other), 2_000, 0)
    with pytest.raises(ValueError, match="deterministic LoS"):
        mc._mc_bounds((sc, sc.with_channel(RicianSpec(deterministic_los=True))), 2_000, 0)


def _posterior_mse_serial(sc, trials, grid_points, seed):
    """posterior_mean_mse one chunk at a time with the plain complex expression chain.

    posterior_mean_mse forms the log posterior as one real product, which
    rounds differently, so the two agree to about 1e-12 relative.
    """
    prior, freqs, noise_var = sc.prior, sc.grid.as_array(), sc.noise.variance
    c_grid = np.linspace(prior.mean - 6.0 * prior.std, prior.mean + 6.0 * prior.std, grid_points)
    g = sc.sensor.reflection(freqs[None, :], c_grid[:, None])
    g_norm = np.sum(np.abs(g) ** 2, axis=1)
    log_prior = -0.5 * ((c_grid - prior.mean) / prior.std) ** 2
    total_sq = total_q = 0.0
    for i, start in enumerate(range(0, trials, MC_CHUNK)):
        rng, size = chunk_rng(seed, i), min(MC_CHUNK, trials - start)
        c_true = prior.mean + prior.std * rng.standard_normal(size)
        clean = sc.sensor.reflection(freqs[None, :], c_true[:, None])
        noise = math.sqrt(noise_var / 2.0) * (
            rng.standard_normal((size, freqs.size)) + 1j * rng.standard_normal((size, freqs.size)))
        y = clean + noise
        cross = y @ np.conj(g.T)
        log_lik = -(np.sum(np.abs(y) ** 2, axis=1)[:, None] - 2.0 * cross.real + g_norm[None, :]) / noise_var
        log_post = log_lik + log_prior[None, :]
        log_post -= np.max(log_post, axis=1, keepdims=True)
        w = np.exp(log_post)
        est = np.sum(w * c_grid[None, :], axis=1) / np.sum(w, axis=1)
        sq = (est - c_true) ** 2
        total_sq += float(np.sum(sq))
        total_q += float(np.sum(sq**2))
    mse = total_sq / trials
    var = max(total_q - trials * mse**2, 0.0) / (trials - 1)
    return mse, math.sqrt(var / trials)


@pytest.mark.parametrize("grid_points", [2000, 8])
def test_posterior_mean_mse_bitwise_across_thread_counts(grid_points, monkeypatch):
    # 2000 grid points run chunk by chunk on the pool, 8 in runs of chunks; the
    # reference is the same arithmetic with every chunk alone, in order
    sc = _scenario(los=True, count=16, spacing=0.4, snr_db=10.0)
    for trials, seed in ((2_001, 23), (3_000, 2)):
        with monkeypatch.context() as m:
            m.setattr(expectations, "_map_chunks", _one_chunk_at_a_time)
            ref = posterior_mean_mse(sc, trials, grid_points=grid_points, seed=seed)
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("METABCRB_THREADS", threads)
            est = posterior_mean_mse(sc, trials, grid_points=grid_points, seed=seed)
            assert (est.value, est.std_err) == (ref.value, ref.std_err), (threads, seed)


@pytest.mark.parametrize("grid_points", [2000, 8])
def test_posterior_mean_mse_matches_the_complex_expression_chain(grid_points):
    # the real product rounds differently from the complex chain of
    # _posterior_mse_serial; at this seed both the value and the error move
    sc = _scenario(los=True, count=16, spacing=0.4, snr_db=10.0)
    ref = _posterior_mse_serial(sc, 3_000, grid_points, 2)
    est = posterior_mean_mse(sc, 3_000, grid_points=grid_points, seed=2)
    assert (est.value, est.std_err) != ref
    np.testing.assert_allclose((est.value, est.std_err), ref, rtol=1e-12, atol=0.0)


def test_monte_carlo_expectation_bitwise_across_thread_counts(monkeypatch):
    sc = _scenario()
    method = MonteCarlo(samples=10_001, seed=3)
    sums, sums_sq = np.zeros(2), np.zeros(2)
    for i, start in enumerate(range(0, method.samples, MC_CHUNK)):
        rng = chunk_rng(method.seed, i)
        c = sc.prior.mean + sc.prior.std * rng.standard_normal(min(MC_CHUNK, method.samples - start))
        vals = np.abs(sc.sensor.reflection(0.3, c)) ** 2
        sums += [np.sum(vals), 0.0]
        sums_sq += [np.sum(vals**2), 0.0]
    mean = sums / method.samples
    se = float(np.max(np.sqrt(np.maximum(sums_sq - method.samples * mean**2, 0.0)
                              / (method.samples - 1) / method.samples)))
    for threads in THREAD_SETTINGS:
        monkeypatch.setenv("METABCRB_THREADS", threads)
        est = reflection_power(sc.sensor, 0.3, sc.prior, method)
        assert (est.value, est.std_err) == (mean[0], se), threads


def test_worker_count_reads_the_environment(monkeypatch):
    monkeypatch.setattr(expectations.os, "sched_getaffinity", lambda pid: set(range(3)))
    monkeypatch.delenv("METABCRB_THREADS", raising=False)
    assert expectations._worker_count() == 3
    monkeypatch.setenv("METABCRB_THREADS", "0")
    assert expectations._worker_count() == 3
    monkeypatch.setenv("METABCRB_THREADS", "5")
    assert expectations._worker_count() == 5
    # usable CPUs, not host CPUs, capped at 8
    monkeypatch.setenv("METABCRB_THREADS", "0")
    monkeypatch.setattr(expectations.os, "cpu_count", lambda: 64)
    assert expectations._worker_count() == 3
    monkeypatch.setattr(expectations.os, "sched_getaffinity", lambda pid: set(range(20)))
    assert expectations._worker_count() == 8
    monkeypatch.delattr(expectations.os, "sched_getaffinity")
    assert expectations._worker_count() == 8


@pytest.mark.parametrize("value", ["lots", "-1", "2.5"])
def test_bad_thread_env_raises_in_library(value, monkeypatch):
    monkeypatch.setenv("METABCRB_THREADS", value)
    los = _scenario(los=True)
    calls = [
        lambda: mc_bound(_scenario(count=2), 2_000),
        lambda: mc_blocks(_scenario(count=2), 2_000),
        lambda: posterior_mean_mse(los, trials=100, grid_points=50),
        lambda: reflection_power(los.sensor, 0.3, los.prior, MonteCarlo(samples=100)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="METABCRB_THREADS"):
            call()


# ------------------------------------------------- posterior-mean simulator

def test_posterior_mean_mse_blind_sensor_recovers_prior_variance():
    # zero dip depth: the observation is independent of the condition and the
    # posterior mean is the prior mean, so the MSE is the prior variance
    sc = _scenario(depth=0.0, los=True, count=4)
    est = posterior_mean_mse(sc, trials=4000, seed=5)
    assert abs(est.value - 1.0) <= 3 * est.std_err


def test_posterior_mean_mse_respects_los_bound():
    sc = _scenario(los=True, count=16, spacing=0.2)
    for snr in (0.0, 10.0, 20.0):
        s = sc.with_noise(snr_to_noise(snr))
        bound = bcrb_closed_form(s).bound
        est = posterior_mean_mse(s, trials=6000, seed=21)
        assert est.value >= bound - 2 * est.std_err
    # with tones covering the full prior sweep the posterior mean is
    # essentially efficient at high SNR, so the bound is also nearly tight
    s = _scenario(los=True, count=16, spacing=0.4)
    est = posterior_mean_mse(s, trials=6000, seed=21)
    assert est.value <= 1.3 * bcrb_closed_form(s).bound


def test_posterior_mean_mse_requires_los():
    with pytest.raises(ValueError):
        posterior_mean_mse(_scenario(kappa=1.0), trials=100)
    with pytest.raises(ValueError):
        posterior_mean_mse(_scenario(los=True), trials=1)
    sc = _scenario(los=True, count=2)
    with pytest.raises(ValueError, match="trials must be a whole number >= 2, got 100.5"):
        posterior_mean_mse(sc, 100.5)
    with pytest.raises(ValueError, match="grid_points must be a whole number >= 2, got 2.5"):
        posterior_mean_mse(sc, 100, grid_points=2.5)
    assert (posterior_mean_mse(sc, 600.0, grid_points=np.int64(50), seed=2)
            == posterior_mean_mse(sc, 600, grid_points=50, seed=2))
