"""Monte Carlo oracle chain: per-sample information against finite differences,
averaged blocks against the analytic assembly, bound against the closed form."""

import math
import threading

import numpy as np
import pytest

import metabcrb.expectations as expectations
import metabcrb.mc as mc
from metabcrb import (MonteCarlo, ParameterSample, RicianSpec, Scenario,
                      SensingPrior, SensorModel, SubcarrierGrid, assemble_bfim,
                      bcrb_closed_form, conditional_fim, draw_samples,
                      mc_blocks, mc_bound, posterior_mean_mse,
                      reflection_power, snr_to_noise)
from metabcrb.expectations import MC_CHUNK, chunk_rng
from metabcrb.mc import _BOOT_KEY, BOOTSTRAP_RESAMPLES


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
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOT_KEY,))))
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
    # one averaging path: the point estimate is the Schur bound of mc_blocks' a, b and d
    sc = _scenario(count=count, spacing=0.05, kappa=2.0)
    samples, seed = 3_001, 11
    blocks = mc_blocks(sc, samples, seed)
    x = np.linalg.solve(blocks.d, blocks.b[..., None])[..., 0]
    assert mc_bound(sc, samples, seed).value == 1.0 / (blocks.a - np.sum(blocks.b * x))


def test_mc_bound_reruns_bit_identical():
    sc = _scenario(count=4)
    a = mc_bound(sc, 50_000, seed=42)
    b = mc_bound(sc, 50_000, seed=42)
    assert a.value == b.value and a.std_err == b.std_err
    c = mc_bound(sc, 50_000, seed=43)
    assert c.value != a.value


# ------------------------------------------------- chunk runs and threads

def _block_means_one_chunk(sc, c, h_r, h_t):
    """Block means of one (n, L) chunk in the complex algebra of the seed's chunk loop, kept as
    the reference. Also returns the draw means of |term| behind each b and z12 entry, the
    scale a rounding error of their sums is relative to."""
    freqs = sc.grid.as_array()
    gamma = sc.sensor.reflection(freqs[None, :], c[:, None])
    dgamma = sc.sensor.reflection_dc(freqs[None, :], c[:, None])
    a_mean = np.mean(np.sum(np.abs(h_r * dgamma * h_t) ** 2, axis=1))
    core = np.conj(dgamma) * gamma
    w1 = np.conj(h_r) * np.abs(h_t) ** 2 * core
    w2 = np.abs(h_r) ** 2 * np.conj(h_t) * core
    b_mean = np.stack([np.mean(w1.real, axis=0), np.mean(-w1.imag, axis=0),
                       np.mean(w2.real, axis=0), np.mean(-w2.imag, axis=0)], axis=1)
    power = np.abs(gamma) ** 2
    d11 = np.mean(power * np.abs(h_t) ** 2, axis=0)
    d22 = np.mean(power * np.abs(h_r) ** 2, axis=0)
    z12 = np.mean(h_r * np.conj(h_t) * power, axis=0)
    d_mean = np.zeros((freqs.size, 4, 4))
    d_mean[:, 0, 0] = d_mean[:, 1, 1] = d11
    d_mean[:, 2, 2] = d_mean[:, 3, 3] = d22
    d_mean[:, 0, 2] = d_mean[:, 2, 0] = z12.real
    d_mean[:, 1, 3] = d_mean[:, 3, 1] = z12.real
    d_mean[:, 0, 3] = d_mean[:, 3, 0] = -z12.imag
    d_mean[:, 1, 2] = d_mean[:, 2, 1] = z12.imag
    b_scale = np.stack([np.mean(np.abs(w1), axis=0)] * 2 + [np.mean(np.abs(w2), axis=0)] * 2, axis=1)
    z_scale = np.mean(np.abs(h_r * h_t) * power, axis=0)
    return (a_mean, b_mean, d_mean), (b_scale, z_scale)


def _parts(h_r, h_t):
    """The real channel parts the kernel reads: Re h_r, Im h_r, Re h_t, Im h_t."""
    return np.stack([h_r.real, h_r.imag, h_t.real, h_t.imag])


def _kernel(sc, c, h_r, h_t):
    """The chunk kernel on draws stacked by chunk: c (K, n), h_r and h_t (K, n, L),
    with its channel blocks expanded to (K, L, 4, 4)."""
    terms = mc._sensor_terms(sc.sensor, sc.grid.as_array(), c)
    a, b, d_parts = mc._chunk_block_means(terms, _parts(h_r, h_t))
    return a, b, mc._arrow_d(d_parts)


def _kernel_one_chunk(sc, c, h_r, h_t):
    """The chunk kernel on one (n, L) chunk alone."""
    return [m[0] for m in _kernel(sc, c[None], h_r[None], h_t[None])]


def _serial_chunk_means(sc, samples, seed):
    """Chunk means drawn by draw_samples and reduced one chunk at a time, in index order."""
    means = [_kernel_one_chunk(sc, *draw_samples(sc, min(MC_CHUNK, samples - start),
                                                 chunk_rng(seed, i)))
             for i, start in enumerate(range(0, samples, MC_CHUNK))]
    return [np.array(parts) for parts in zip(*means)]


def _one_chunk_at_a_time(fn, seed, samples, width=1):
    """_map_chunks without runs or threads: every chunk alone, in order."""
    out = []
    for i, start in enumerate(range(0, samples, MC_CHUNK)):
        out += fn([(chunk_rng(seed, i), min(MC_CHUNK, samples - start))])
    return out


THREAD_SETTINGS = ("1", "2", "0")


def test_map_chunks_runs_and_threads(monkeypatch):
    def layout(run):
        return [(len(run), size, threading.get_ident()) for _, size in run]

    main = threading.get_ident()
    monkeypatch.setenv("METABCRB_THREADS", "2")
    # narrow draws: runs of _RUN_ELEMENTS // MC_CHUNK chunks on this thread,
    # the partial last chunk alone
    assert expectations._RUN_ELEMENTS // MC_CHUNK == 16
    narrow = expectations._map_chunks(layout, 0, 100 * MC_CHUNK + 7)
    assert [n for n, _, _ in narrow] == [16] * 96 + [4] * 4 + [1]
    assert [s for _, s, _ in narrow] == [MC_CHUNK] * 100 + [7]
    assert {t for _, _, t in narrow} == {main}
    # wide draws: one chunk per run, on the pool
    wide = expectations._map_chunks(layout, 0, 9 * MC_CHUNK, width=64)
    assert [(n, s) for n, s, _ in wide] == [(1, MC_CHUNK)] * 9
    assert main not in {t for _, _, t in wide}
    monkeypatch.setenv("METABCRB_THREADS", "1")
    assert {t for _, _, t in expectations._map_chunks(layout, 0, 9 * MC_CHUNK, width=64)} == {main}


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


@pytest.mark.parametrize("count", [1, 5])
def test_chunk_kernel_matches_mean_of_conditional_fim(count):
    # an independent path: the arrow blocks read out of each draw's dense
    # conditional information matrix, averaged over the chunk
    sc = _scenario(count=count, spacing=0.5, kappa=2.0)
    c, h_r, h_t = draw_samples(sc, 64, chunk_rng(31, 0))
    fims = [conditional_fim(sc, ParameterSample(condition=c[i], receive=h_r[i], transmit=h_t[i]))
            for i in range(c.size)]
    mean = np.mean(fims, axis=0) / (2.0 / sc.noise.variance)
    a, b, d = _kernel_one_chunk(sc, c, h_r, h_t)
    blocks = [slice(1 + 4 * k, 5 + 4 * k) for k in range(count)]
    assert a == pytest.approx(mean[0, 0], rel=1e-12)
    # entries that are exact zeros of the block pattern may carry a rounding
    # residue in the dense product: allow 1e-12 of the largest entry there
    np.testing.assert_allclose(b, [mean[0, k] for k in blocks], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(b)))
    np.testing.assert_allclose(d, [mean[k, k] for k in blocks], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("kappa", [0.0, 2.0])
@pytest.mark.parametrize("count", [1, 5, 128])
def test_chunk_kernel_matches_complex_algebra(count, kappa):
    # the seed's complex products against the real-arithmetic kernel; a b or
    # z12 entry is a sum of signed terms, so its rounding error is relative to
    # the mean |term|, not to the (possibly cancelled) mean itself
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


@pytest.mark.parametrize("depth", [0.9, 1.0])
def test_sensor_terms_match_extended_precision_at_any_detuning(depth):
    # textbook forms in long double, whose range holds x^2 and (1 + x^2)^2
    # for every float x: the kernel's terms must lose nothing near the dip
    # centre (where 1 - d (2 - d) / t cancels at full depth) and reach the
    # limits |gamma|^2 = 1 and zero slope terms once x^2 leaves the float range
    sensor = SensorModel(absorption_depth=depth, half_width=1.0, shift_rate=2.0)
    c = np.array([0.0, 1e-12, 3e-9, 0.25, 0.5, 1.7, 40.0, 1e5, 1e75, 1e150, -1e155, 1e300])
    got = mc._sensor_terms(sensor, np.array([0.0]), c[None])
    x = -2.0 * c.astype(np.longdouble)
    d, scale = np.longdouble(depth), np.longdouble(2.0 * depth)
    t = 1 + x * x
    want = (scale**2 / t**2, -(2 - d) * scale * x / t**2, scale * (1 - d - x * x) / t**2,
            ((1 - d) ** 2 + x * x) / t)
    for g, w in zip(got, want):
        assert g.shape == (1, c.size, 1)
        np.testing.assert_allclose(g[0, :, 0], w.astype(float), rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("count", [1, 2, 5, 16])
def test_batched_block_means_equal_chunk_by_chunk(count):
    sc = _scenario(count=count, kappa=2.0)
    run = max(1, expectations._RUN_ELEMENTS // (MC_CHUNK * count))
    draws = [draw_samples(sc, MC_CHUNK, chunk_rng(5, i)) for i in range(run)]
    batched = _kernel(sc, *(np.stack(parts) for parts in zip(*draws)))
    for k, draw in enumerate(draws):
        for got, want in zip(batched, _kernel_one_chunk(sc, *draw)):
            assert np.array_equal(got[k], want)


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


@pytest.mark.parametrize("count", [1, 16])
def test_mc_bound_bitwise_across_thread_counts(count, monkeypatch):
    # 50,001 draws: 97 full chunks and a partial one of 337
    sc = _scenario(count=count, kappa=2.0)
    samples, seed = 50_001, 17
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
        assert blocks.chunk_sizes.tolist() == [MC_CHUNK] * 97 + [337]
        est = mc_bound(sc, samples, seed)
        assert (est.value, est.std_err) == (ref.value, ref.std_err), threads


@pytest.mark.parametrize("count", [1, 16])
def test_shared_draws_equal_separate_calls(count):
    # one pass over the chunks for three channels gives each channel bitwise
    # the chunk means and bound of a call with it alone
    base = _scenario(count=count, kappa=2.0)
    scenarios = tuple(base.with_channel(RicianSpec(kappa=k)) for k in (2.0, 0.0, 1e6))
    samples, seed = 20_001, 8
    means, sizes = mc._shared_chunk_means(scenarios, samples, seed)
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
    rounds differently; at the seed of the thread-count test below the two
    still agree bit for bit.
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
    # 2000 grid points run chunk by chunk on the pool, 8 in runs of chunks
    sc = _scenario(los=True, count=16, spacing=0.4, snr_db=10.0)
    ref = _posterior_mse_serial(sc, 2_001, grid_points, 23)
    for threads in THREAD_SETTINGS:
        monkeypatch.setenv("METABCRB_THREADS", threads)
        est = posterior_mean_mse(sc, 2_001, grid_points=grid_points, seed=23)
        assert (est.value, est.std_err) == ref, threads


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
