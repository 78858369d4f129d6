"""Expectations of reflection statistics over the Gaussian condition prior.

Three prior moments drive every bound in this package. With gamma the
reflection coefficient, gamma' its condition derivative and E_c the prior
expectation:

    slope_power            E_c |gamma'|^2          (real, >= 0)
    slope_reflection_corr  E_c [conj(gamma') gamma] (complex)
    reflection_power       E_c |gamma|^2           (real, in [0, 1])

All three reduce to Gaussian expectations of the scalar
detuning kernels 1/(1+x^2)^2, 1/(1+x^2) and x/(1+x^2)^2 with x ~ N(x0, s^2),
x0 = (f - resonance(prior mean)) / half_width and s = |shift_rate| * prior
std / half_width.  `kernel_means` sends each tone to one of four fixed,
vectorised rules, chosen by s and by |z|, z = (j - x0)/(s sqrt 2):

* |z| >= FAR_ZMIN = 10, at any s: the trapezoid rule on 32 uniform nodes,
  x = x0 + s u with u on [-9, 9], step h = 0.58 (Trefethen & Weideman, SIAM
  Review 56, 2014). The kernels' poles x = +-j lie at u = (+-j - x0)/s,
  sqrt(2)|z| >= 14 from u = 0, where the normal weight is below e^-100, so the
  rule resolves only the smooth part, to about e^(-2 pi^2 / h^2) = 4e-26; the
  tails past +-9 hold 2.3e-19. Against 128 nodes the means move by at most
  5.2e-16 relative.
* s <= 1 and |z| < 10: Gauss-Hermite at KERNEL_ORDER = 800 nodes (the kernels
  are smooth on the prior's scale). The nodes ship with the package in
  _gh800.npy, scipy.special.roots_hermite(800), whose bits set the order of
  select's mirror ties on the s = 1 grids. The table sums only nodes 200-599
  (|z| <= 16.11), bitwise the 800-node sum: the 400 outer weights are below
  5.8e-116 and numpy's pairwise sum adds their two blocks last (_kernel_means_gh).
* s > 1 and |z| <= FADDEEVA_ZMAX = 2.5: closed forms in the Faddeeva function
  w(z) (Voigt integrals), with w from Weideman's N = 40 rational
  approximation in numpy (SIAM J. Numer. Anal. 31, 1994), its polynomial
  evaluated by Horner's rule on the 40 coefficients.
* s > 1 and 2.5 < |z| < 10, where the closed form cancels: a trapezoid rule
  in t with x = sinh t, over a window that always holds the dip's spike.

slope_power and reflection_power ask `kernel_means` for the one row they read
(m2, m1); the others come back NaN, and the far and Gauss-Hermite rules skip them.
On a tone with a node where x^2 < 2^-53, so that 1 + x^2 rounds to 1, the
kernels at x^2 < 1 are written 1 - e with e to its last digit, and the
weighted e is summed apart and subtracted once. No rule imports scipy, nor do
expect_over_prior's orders other than 800 (see _hermite_rule). Against an
mpmath closed form the rules agree to 3e-12 relative for s from 1e-4 to 1e8
and |z| up to 1e6, the far rule to 1e-15. Past s = 1e8 the sinh rule's
E[x/(1+x^2)^2] loses digits in proportion to s (5e-11 at s = 1e9).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import SensingPrior, whole_number
from .sensor import SensorModel

GH_RELTOL = 1e-9
GH_ABSTOL = 1e-14
GH_MAX_ORDER = 1600  # _hermite_rule's eigensolve takes order^2 floats: 80 GB at 1e5
KERNEL_ORDER = 800  # the one Gauss-Hermite order of kernel_means
# |z| above which the closed form's w' cancels: Weideman's moments lose digits
# toward |z| = 3.5, where Re w is small; the sinh rule holds to 4e-14 from 2.5
FADDEEVA_ZMAX = 2.5
FAR_ZMIN = 10.0  # |z| from which the spike's exp(-|z|^2) share is below roundoff
_FAR_NODES = 32  # far-rule trapezoid nodes in u = (x - x0) / s; 24 put the means 3e-14 off
_FAR_SPAN = 9.0  # far-rule window |u| <= _FAR_SPAN: the normal tails past it hold 2.3e-19
_SINH_NODES = 800  # trapezoid nodes in t = asinh(x)
_SINH_SPAN = 13.0  # trapezoid window x0 +- _SINH_SPAN * s
# The window also holds the dip's spike, x = 0 +- _SPIKE_SPAN: all but 0.6% of
# the Lorentzian's mass and 4e-7 of its square. Against mpmath, the tails left
# out cost under 1e-12 relative up to s = 1e9 (6e-10 at s = 1e10).
_SPIKE_SPAN = 100.0
# Tones per block at 800 nodes (the sinh rule), so that each (block x nodes) buffer takes
# 200 kB at any node count: _kernel_table takes 64 tones at order-800 Gauss-Hermite's 400
# central nodes and 800 at the far rule's 32. Blocks keep every bit, and with them the
# order-800 table's ties.
_BLOCK = 32
_TINY_SQ = 2.0**-53  # x^2 below which 1 + x^2 rounds to 1

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class Quadrature:
    """expect_over_prior's Gauss-Hermite rule: `order` nodes in [2, GH_MAX_ORDER] = [2, 1600]
    to start, refined by doubling."""

    order: int = 200

    def __post_init__(self):
        object.__setattr__(self, "order", whole_number("quadrature order", self.order, 2))
        if self.order > GH_MAX_ORDER:
            raise ValueError(f"quadrature order must be in [2, {GH_MAX_ORDER}], got {self.order}")


@dataclass(frozen=True)
class MonteCarlo:
    """expect_over_prior's plain Monte Carlo over the prior, on a splittable, chunk-keyed generator."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", whole_number("samples", self.samples))
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo value with its standard error (componentwise bound if complex)."""

    value: complex
    std_err: float
    samples: int


MC_CHUNK = 512  # draws per chunk; the Monte Carlo bounds need a full chunk per jackknife group
# Elements (draws x width) per run of chunks: 128 chunks at one tone, 8 at 16, one from 65
# tones on. Multi-chunk runs loop on the calling thread, blocks of single-chunk runs go to
# the pool (BENCH_24.json: run_layout_ms, run_layout_warm_ms, run_layout_fresh_ms); no byte
# moves. The Monte Carlo bounds size their fold blocks by the same budget (mc._shared_chunk_means).
_RUN_ELEMENTS = 1 << 16

# numpy's SeedSequence (O'Neill's seed_seq, pcg-random.org 2015) and SFC64 seeding
_MASK32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _chunk_states(seed: int, keys) -> np.ndarray:
    """SFC64 states (K, 4) of SFC64(SeedSequence(seed, spawn_key=(key,))) for 32-bit keys (K,).

    numpy's steps on one uint32 array per word over all keys: the seed's
    little-endian 32-bit words, zero-padded to four, and the key hashed into a
    four-word pool and cross-mixed, generate_state(3, uint64) from the pool,
    then SFC64's 12 seeding rounds from a counter of 1. Every key takes the same
    hash constants, so one pass replaces a SeedSequence and an SFC64 per key.
    """
    seed, keys = whole_number("seed", seed, 0), np.asarray(keys, dtype=np.uint32)
    words = [np.full(keys.shape, (seed >> shift) & _MASK32, dtype=np.uint32)
             for shift in range(0, max(seed.bit_length(), 128), 32)] + [keys]
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):  # advances the hash constant
        nonlocal hash_const
        value = (value ^ np.uint32(hash_const)) * np.uint32(hash_const := hash_const * mult & _MASK32)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(w) for w in words[:4]]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    hash_const = _INIT_B  # generate_state(3, uint64): six words over the pool, paired little-endian
    halves = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(6)]
    a, b, c = (lo | (hi << np.uint64(32)) for lo, hi in zip(halves[0::2], halves[1::2]))
    for counter in range(1, 13):  # sfc64_set_seed: 12 rounds, the counter from 1
        a, b, c = (b ^ (b >> np.uint64(11)), c + (c << np.uint64(3)),
                   ((c << np.uint64(24)) | (c >> np.uint64(40))) + (a + b + np.uint64(counter)))
    return np.stack([a, b, c, np.full(keys.shape, 13, dtype=np.uint64)], axis=-1)


def _chunk_streams(states: np.ndarray):
    """One new SFC64 Generator, re-set to each SFC64 state of states (K, 4) in turn and
    yielded, so each stream starts as a fresh SFC64 would: draw from it before taking the
    next."""
    rng = np.random.Generator(np.random.SFC64(0))
    for state in states:
        rng.bit_generator.state = {"bit_generator": "SFC64", "state": {"state": state},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _worker_count() -> int:
    """Threads for Monte Carlo chunk work: the CPUs this process may run on, at most 8."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        usable = os.cpu_count() or 1
    return min(usable, 8)


def _pool_map(fn, items, workers: int):
    """fn over items on a pool of `workers` threads, yielded in order, with at most
    2 * workers items submitted past the one yielded, so results wait for the caller's fold
    and never pile up."""
    from concurrent.futures import ThreadPoolExecutor  # deferred: serial runs never need it
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _map_chunks(fn, seed: int, samples: int, width: int = 1, block: int = 1):
    """fn's arrays over the MC_CHUNK-draw chunks of `samples` draws, with their float chunk
    sizes, yielded in chunk order one fold block at a time.

    The one owner of the chunk layout. `width` counts the array elements per draw (tones,
    grid points). A run holds as many consecutive full chunks as fit in _RUN_ELEMENTS
    elements, at least one; a partial last chunk runs alone. Fold block j holds the runs
    of chunks j * span to (j + 1) * span - 1, span being `block` chunks rounded down to
    whole runs (one run at least), so a caller that folds the blocks in turn holds one
    block. Chunk i < 2^32 draws from SFC64(SeedSequence(seed, spawn_key=(i,))), its state
    from one _chunk_states pass per call. fn(rngs, count, size) gets a run's count chunks
    as _chunk_streams, one generator per run, and their size, and returns arrays whose
    leading axis runs over those chunks; a block joins them. Blocks of multi-chunk runs
    are formed on this thread as the caller asks for them, blocks of single-chunk runs on
    a pool of _worker_count() threads (_pool_map). Neither the blocks nor the sizes depend
    on the thread count. The draw count is checked here, before anything is drawn."""
    if samples >= 2**32 * MC_CHUNK:  # chunk keys are one 32-bit word
        raise ValueError(f"Monte Carlo draws must number fewer than 2**32 * {MC_CHUNK}, got {samples}")
    run = max(1, _RUN_ELEMENTS // (MC_CHUNK * width))
    span = run * max(1, block // run)
    n_full, rest = divmod(samples, MC_CHUNK)
    runs = [(range(lo, min(lo + run, n_full)), MC_CHUNK) for lo in range(0, n_full, run)]
    if rest:
        runs.append((range(n_full, n_full + 1), rest))
    blocks = [list(group) for _, group in itertools.groupby(runs, key=lambda item: item[0].start // span)]
    states = _chunk_states(seed, np.arange(n_full + (rest > 0)))

    def one_block(block_runs):
        results = [fn(_chunk_streams(states[chunks.start:chunks.stop]), len(chunks), size)
                   for chunks, size in block_runs]
        return ([np.concatenate(parts) for parts in zip(*results)],
                np.array([size for chunks, size in block_runs for _ in chunks], dtype=float))

    workers = min(_worker_count(), len(blocks))
    return map(one_block, blocks) if run > 1 or workers <= 1 else _pool_map(one_block, blocks, workers)


def _hermite_rule(order: int) -> np.ndarray:
    """Gauss-Hermite nodes and weights for exp(-x^2), in the two rows of _gh800.npy.

    Golub & Welsch (Math. Comp. 23, 1969): Jacobi eigenvalues, two Newton steps on the orthonormal
    recurrence h_k, Christoffel weights 1/(order h_{order-1}^2) from logs: tiny ones underflow to 0.
    """
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, order) / 2.0), -1))
    for _ in range(2):  # two Newton steps; the weights take the second one's h_{order-1}
        prev, h, log_scale = np.zeros(order), np.full(order, math.pi ** -0.25), np.zeros(order)
        for k in range(order):
            prev, h = h, math.sqrt(2.0 / (k + 1)) * x * h - math.sqrt(k / (k + 1)) * prev
            if k % 8 == 7:  # rescale before the next 8 steps can overflow
                scale = np.maximum(np.abs(h), np.abs(prev))
                prev, h, log_scale = prev / scale, h / scale, log_scale + np.log(scale)
        x = x - h / (math.sqrt(2.0 * order) * prev)  # h_order' = sqrt(2 order) h_{order-1}
    return np.stack([x, np.exp(-math.log(order) - 2.0 * (np.log(np.abs(prev)) + log_scale))])


@functools.cache
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # order 800 stays the stored roots_hermite(800), whose bits set select's mirror-tie order
    table = (np.load(os.path.join(os.path.dirname(__file__), "_gh800.npy")) if order == KERNEL_ORDER
             else _hermite_rule(order))
    table.flags.writeable = False  # a cached rule serves every later table in the process
    return tuple(table)


def _gh_apply(fn, prior: SensingPrior, order: int):
    z, w = _gh_nodes(order)
    c = prior.mean + math.sqrt(2.0) * prior.std * z
    vals = np.asarray(fn(c))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(vals)))[0])
        raise ValueError(f"integrand is not finite at quadrature node c={c.flat[bad % c.size]!r} (order {order})")
    return np.sum(vals * (w * _INV_SQRT_PI), axis=-1)


def expect_over_prior(fn, prior: SensingPrior, method=Quadrature()):
    """Expectation of a vectorized function of the condition under the prior.

    Quadrature returns a float/complex; MonteCarlo returns an McEstimate and
    calls fn once per chunk of draws, always on the calling thread: draws are
    one element wide, so _map_chunks loops over them in runs of 128 chunks.
    Under MonteCarlo fn(c) must have the shape of c (one value per draw).
    Gauss-Hermite is exact for polynomial integrands up to degree
    2 * order - 1 and refines by doubling, the last order capped at 1600,
    until successive estimates agree to 1e-9 relative; it warns if none of
    them agreed.
    """
    if not isinstance(method, Quadrature):
        return _mc_expect(fn, prior, method)
    order = method.order
    est = _gh_apply(fn, prior, order)
    while order < GH_MAX_ORDER:
        order = min(2 * order, GH_MAX_ORDER)
        new = _gh_apply(fn, prior, order)
        if np.all(np.abs(est - new) <= GH_RELTOL * np.maximum(np.abs(est), np.abs(new)) + GH_ABSTOL):
            return new
        est = new
    if method.order < GH_MAX_ORDER:  # a lone order-1600 estimate was compared with nothing
        warnings.warn(f"Gauss-Hermite did not converge to {GH_RELTOL:g} relative by order "
                      f"{GH_MAX_ORDER}; returning the finest estimate", RuntimeWarning)
    return est


def _chunk_mean_and_se(chunk_values, seed: int, n: int, width: int = 1):
    """Mean of n draws and its standard error, from chunk_values(rng, size), each chunk's values
    (..., size) over the chunks of _map_chunks. Each chunk's sum and squared deviations about its
    mean merge in chunk order (Chan, Golub & LeVeque, Am. Stat. 37, 1983): the sums add as the
    builtin sum would, not pairwise as numpy's, and each merge adds its between-means term, so no
    digits cancel far from zero. With a single draw the error is inf."""
    def run_stats(rngs, count, size):  # each chunk's sum and squared deviations (2, ...)
        values = (chunk_values(rng, size) for rng in rngs)
        return [np.array([(np.sum(v, axis=-1), np.sum((v - np.mean(v, axis=-1, keepdims=True)) ** 2, axis=-1))
                          for v in values])]

    sums = devs = seen = 0
    for (per_chunk,), sizes in _map_chunks(run_stats, seed, n, width):
        for (chunk_sum, chunk_dev), size in zip(per_chunk, sizes):
            if seen:
                chunk_dev = chunk_dev + (chunk_sum / size - sums / seen) ** 2 * (seen * size / (seen + size))
            sums, devs, seen = sums + chunk_sum, devs + chunk_dev, seen + size
    mean = sums / n
    if n < 2:
        return mean, math.inf
    return mean, np.sqrt(devs / (n - 1) / n)


def _mc_expect(fn, prior: SensingPrior, method: MonteCarlo) -> McEstimate:
    if not isinstance(method, MonteCarlo):
        raise TypeError(f"unsupported expectation method {method!r}")

    def chunk_values(rng, size):
        c = prior.mean + prior.std * rng.standard_normal(size)
        vals = np.asarray(fn(c), dtype=complex)
        if vals.shape != c.shape:
            raise ValueError(f"integrand must give one value per draw, got shape {vals.shape}")
        return np.stack([vals.real, vals.imag])

    mean, se = _chunk_mean_and_se(chunk_values, method.seed, method.samples)
    value = complex(mean[0], mean[1])
    if value.imag == 0.0:
        value = value.real
    return McEstimate(value=value, std_err=float(np.max(se)), samples=method.samples)


def detuning_stats(sensor: SensorModel, f, prior: SensingPrior) -> tuple[np.ndarray, float]:
    """Center x0 and spread s of the detuning x ~ N(x0, s^2) induced by the prior.

    ArithmeticError, before any rule runs, where x0 or s is not finite.
    """
    f = np.asarray(f, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is the ArithmeticError below
        x0 = (f - sensor.resonance(prior.mean)) / sensor.half_width
    s = abs(sensor.shift_rate) * prior.std / sensor.half_width
    if not (math.isfinite(s) and np.all(np.isfinite(x0))):
        raise ArithmeticError(
            f"detuning (f - resonance) / half_width or its spread |shift_rate| * std / half_width "
            f"is not finite; sensor.half_width = {sensor.half_width!r}, sensor.shift_rate = "
            f"{sensor.shift_rate!r} or prior.std = {prior.std!r} is out of range")
    return x0, s


def _kernel_table(x0: np.ndarray, dx: np.ndarray, wn: np.ndarray, rows=(0, 1, 2)) -> np.ndarray:
    """Stack [E k_sq, E k_lor, E k_odd] over tones from nodes x = x0 + dx, weights wn.

    Only the rows in `rows` are divided, weighted and summed, bitwise as in the full
    table; the others are NaN.
    Blocks of tones (_BLOCK at 800 nodes) share one set of (block x nodes) buffers,
    since per-block temporaries, once freed, go back to the kernel and fault in again
    on the next call. The table is bitwise that of the whole (tones x nodes) array.
    Tones with a node where x^2 < 2^-53, found by one min per block, take _near_means.
    """
    block = max(1, _BLOCK * KERNEL_ORDER // dx.size)
    rows = list(rows)
    out = np.full((3, x0.size), np.nan)
    buf = np.empty((4, min(block, x0.size), dx.size))
    for lo in range(0, x0.size, block):
        tones = slice(lo, lo + block)
        x, t, t2, k = buf[:, :x0[tones].size]
        np.add(x0[tones, None], dx, out=x)
        near = None
        # far tails square past the float range; 1/inf = 0 is the right limit there
        with np.errstate(over="ignore"):
            np.multiply(x, x, out=t)
            if t.min() < _TINY_SQ:  # 1 + x^2 rounds to 1 at some node
                near = np.flatnonzero(np.min(t, axis=1) < _TINY_SQ)
            t += 1.0
            np.square(t, out=t2)
        for row, num, den in ((0, 1.0, t2), (1, 1.0, t), (2, x, t2)):
            if row in rows:
                np.divide(num, den, out=k)
                np.multiply(k, wn, out=k)
                np.sum(k, axis=1, out=out[row, tones])
        if near is not None:
            out[np.ix_(rows, lo + near)] = _near_means(x[near], wn)[rows]
    return out


def _near_means(x: np.ndarray, wn) -> np.ndarray:
    """Weighted means [k_sq, k_lor, k_odd] over rows of x (m, n), weights wn, where 1 + x^2 may
    round to 1: _kernel_table's nodes, or mc._sensor_means' draws at equal weights 1 / n.

    At nodes with x^2 < 1 the kernels are 1 - e, 1 - q and x (1 - e), with
    q = x^2 / (1 + x^2) and e = q (2 - q), both to their last digits at any
    such x; the weighted q and e are summed apart and subtracted once, so
    their digits do not round away node by node (1 - x^2 rounds to 1 below
    x^2 = 2^-54). Nodes with x^2 >= 1 take 1/(1+x^2)^2, 1/(1+x^2) and x/(1+x^2)^2.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # nodes past 1e154 square to inf
        t = x * x
        small = t < 1.0
        r = 1.0 / (1.0 + t)
        q = np.where(small, t * r, 0.0)
    e = q * (2.0 - q)
    k_sq, k_lor = np.where(small, 1.0, r * r) * wn, np.where(small, 1.0, r) * wn
    e, q = e * wn, q * wn
    return np.stack([np.sum(k_sq, axis=1) - np.sum(e, axis=1),
                     np.sum(k_lor, axis=1) - np.sum(q, axis=1),
                     np.sum(x * k_sq, axis=1) - np.sum(x * e, axis=1)])


@functools.cache
def _kernel_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes 200-599 of the order-800 rule (|z| <= 16.11), views of the read-only stored
    rule, and their weights / sqrt(pi), read-only too."""
    z, w = _gh_nodes(KERNEL_ORDER)
    wn = w[200:600] * _INV_SQRT_PI
    wn.flags.writeable = False  # a cached rule serves every later table in the process
    return z[200:600], wn


def _kernel_means_gh(x0: np.ndarray, s: float, rows=(0, 1, 2)) -> np.ndarray:
    """Kernel means by order-800 Gauss-Hermite, x = x0 + sqrt(2) s z, on its 400 central nodes.

    The table is bitwise that of all 800 nodes. numpy sums a row of 800 values pairwise as
    (S[0,200) + S[200,400)) + (S[400,600) + S[600,800)), and a row of 400 as S[200,400) +
    S[400,600), with the same inner splits. The outer weights are at most 5.8e-116, so
    each outer S is absorbed unless both central sums fall below about 1e-83. A tone is
    near (_near_means) through a dropped node only when a kept node is near too:
    |x0| < 14.14 s at |z| < FAR_ZMIN puts every dropped node at |x| >= 8.7 s, near only
    for s < 1.2e-9, and then the kept node nearest x = 0 lies within 0.07 s of x = 0.
    tests/test_kernel_nodes.py pins these premises and the bits.
    """
    z, wn = _kernel_nodes()
    return _kernel_table(x0, (math.sqrt(2.0) * s) * z, wn, rows)


@functools.cache
def _far_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights of the far rule: the trapezoid rule for a standard normal.

    _FAR_NODES uniform nodes on [-_FAR_SPAN, _FAR_SPAN], weights exp(-u^2/2) h / sqrt(2 pi),
    halved at the two ends, then divided by their fsum, so that no rounding of h
    or exp biases every far mean alike (with h = u[1] - u[0] they sum to
    1 - 8.9e-16, and the far means come out up to 1.3e-15 off).
    """
    u = np.linspace(-_FAR_SPAN, _FAR_SPAN, _FAR_NODES)
    w = np.exp(-0.5 * u * u) * (2.0 * _FAR_SPAN / (_FAR_NODES - 1) / math.sqrt(2.0 * math.pi))
    w[[0, -1]] *= 0.5
    w /= math.fsum(w)
    for nodes in (u, w):
        nodes.flags.writeable = False  # a cached rule serves every later table in the process
    return u, w


def _kernel_means_far(x0: np.ndarray, s: float, rows=(0, 1, 2)) -> np.ndarray:
    """Kernel means of far tones (|z| >= FAR_ZMIN) by the trapezoid rule: x = x0 + s u.

    The kernels' poles x = +-j lie at u = (+-j - x0)/s, sqrt(2)|z| >= 14 from u = 0,
    so the Gaussian-weighted integrand is analytic well around the nodes and the
    uniform rule converges exponentially (Trefethen & Weideman, SIAM Review 56, 2014).
    """
    u, w = _far_nodes()
    return _kernel_table(x0, s * u, w, rows)


@functools.cache
def _weideman_coefficients() -> tuple[float, tuple[float, ...]]:
    """Scale L and coefficients a_0..a_39 of Weideman's N = 40 rational w(z).

    With Z = (L + iz)/(L - iz), w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz))
    for Im z > 0, where p(Z) = sum_n a_n Z^n and L = sqrt(N / sqrt 2). With
    f(t) = exp(-t^2) (L^2 + t^2) at t_k = L tan(k pi / 4N), a_n is the cosine sum
    (f(0) + 2 sum_{k=1}^{2N-1} f(t_k) cos((n+1) k pi / 2N)) / 4N, which is
    Weideman's FFT of f written out.
    """
    n = 40
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1, m)
    t = scale * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t * t) * (scale * scale + t * t)
    a = (scale * scale + 2.0 * (np.cos(np.outer(np.arange(1, n + 1), k) * (math.pi / m)) @ f)) / (2 * m)
    return scale, tuple(a.tolist())  # Python floats: each Horner step adds one to the array


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-jz) for Im z > 0 by Weideman's rational approximation.

    Within 4e-15 relative of scipy.special.wofz on |z| <= FADDEEVA_ZMAX. p(Z)
    goes by Horner's rule over the 40 real coefficients, in place on the whole
    tone array.
    """
    scale, a = _weideman_coefficients()
    den = scale - 1j * z
    ratio = (scale + 1j * z) / den
    p = np.full(z.shape, a[-1], dtype=complex)
    for coefficient in a[-2::-1]:
        p *= ratio
        p += coefficient
    return 2.0 * p / (den * den) + _INV_SQRT_PI / den


def _kernel_means_faddeeva(z: np.ndarray, s: float) -> np.ndarray:
    """Kernel means in closed form from w(z), z = (j - x0)/(s sqrt 2).

    E[1/(1+jx)] = sqrt(pi/2) w(z) / s and E[1/(1+jx)^2] = -j sqrt(pi) w'(z) / (2 s^2)
    with w' = -2 z w + 2j/sqrt(pi); then m1 = Re E1, m2 = (Re E2 + m1)/2 and
    mx = -Im E2 / 2.  w is _faddeeva's, in numpy; the means are accurate to
    ~1e-13 relative for |z| <= FADDEEVA_ZMAX.
    """
    w = _faddeeva(z)
    dw = -2.0 * z * w + 2j * _INV_SQRT_PI
    c2 = math.sqrt(math.pi) / (2.0 * s * s)
    m1 = math.sqrt(0.5 * math.pi) / s * w.real
    return np.stack([0.5 * (c2 * dw.imag + m1), m1, 0.5 * c2 * dw.real])


def _kernel_means_sinh(x0: np.ndarray, s: float) -> np.ndarray:
    """Kernel means by the trapezoid rule in t with x = sinh t.

    The window spans x0 +- 13 s and always holds the dip's spike, x = 0 +- 100.
    1 + x^2 = cosh^2 t and dx = cosh t dt turn the kernels into 1/cosh^4 t and
    1/cosh^2 t: the spike at x = 0 opens to unit width in t, and the analytic
    integrand makes the uniform rule converge exponentially (Trefethen &
    Weideman, SIAM Review 56, 2014). x - x0 = 2 cosh((t+t0)/2) sinh((t-t0)/2)
    keeps its digits near t0 = asinh(x0). The odd kernel goes by parts,
    E[x/(1+x^2)^2] = -E[(x - x0)/(1+x^2)] / (2 s^2), since its direct form
    cancels the spike's two halves and loses digits in proportion to s.
    Blocks of _BLOCK tones share one set of (block x nodes) buffers, as in
    _kernel_table, with the same bits as the whole (tones x nodes) array.
    """
    u = np.linspace(0.0, 1.0, _SINH_NODES)
    out = np.empty((3, x0.size))
    buf = np.empty((4, min(_BLOCK, x0.size), _SINH_NODES))
    for lo in range(0, x0.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        t, d, r, q = buf[:, :x0[rows].size]
        a = np.arcsinh(np.minimum(x0[rows] - _SINH_SPAN * s, -_SPIKE_SPAN))[:, None]
        b = np.arcsinh(np.maximum(x0[rows] + _SINH_SPAN * s, _SPIKE_SPAN))[:, None]
        t0 = np.arcsinh(x0[rows])[:, None]
        np.multiply(b - a, u, out=t)
        t += a
        # d = 2 cosh((t + t0)/2) sinh((t - t0)/2) / s = (x - x0) / s
        np.cosh(np.multiply(np.add(t, t0, out=d), 0.5, out=d), out=d)
        d *= 2.0
        d *= np.sinh(np.multiply(np.subtract(t, t0, out=r), 0.5, out=r), out=r)
        d /= s
        np.divide(1.0, np.cosh(t, out=r), out=r)  # r = 1 / cosh t
        # trapezoid weight times density times dx/dt = cosh t, times the 1/cosh^2 t kernel
        np.exp(np.multiply(np.multiply(d, -0.5, out=q), d, out=q), out=q)
        q *= r
        q *= (b - a) / ((_SINH_NODES - 1) * s * math.sqrt(2.0 * math.pi))
        q[:, [0, -1]] *= 0.5
        np.sum(q, axis=1, out=out[1, rows])
        np.sum(np.multiply(q, d, out=d), axis=1, out=out[2, rows])
        out[2, rows] /= -2.0 * s
        np.sum(np.multiply(np.multiply(q, r, out=t), r, out=t), axis=1, out=out[0, rows])
    return out


def kernel_means(sensor: SensorModel, f, prior: SensingPrior, rows=(0, 1, 2)) -> np.ndarray:
    """Prior means of the three detuning kernels at the flattened f, shape (3, f.size).

    One fixed rule per tone, by s and |z|, z = (j - x0)/(s sqrt 2): the far
    trapezoid rule if |z| >= FAR_ZMIN; else Gauss-Hermite at KERNEL_ORDER nodes
    if s <= 1; else the Faddeeva closed form if |z| <= FADDEEVA_ZMAX; else the
    sinh trapezoid rule. Each rule runs only on a zone that holds a tone.
    `rows` (0 m2, 1 m1, 2 mx) are those the caller reads, bitwise as in the full table; the
    rest come back NaN. The far and Gauss-Hermite rules form only the rows asked for.
    """
    x0, s = detuning_stats(sensor, f, prior)
    x0 = np.ravel(x0)
    # |z| >= FAR_ZMIN as |j - x0| >= sqrt(2) FAR_ZMIN s: hypot and a product of
    # Python floats give inf, not OverflowError, at any x0 and s
    far = np.hypot(1.0, x0) >= math.sqrt(2.0) * FAR_ZMIN * s
    rest = np.flatnonzero(~far)
    out = np.empty((3, x0.size))
    if far.any():
        out[:, far] = _kernel_means_far(x0[far], s, rows)
    # s <= 1 is Gauss-Hermite with no z table; the near tones of the s = 1 select
    # grids keep the order-800 table bit for bit, and with it select's mirror-tie order
    if s <= 1.0:
        if rest.size:
            out[:, rest] = _kernel_means_gh(x0[rest], s, rows)
        return out
    z = (1j - x0[rest]) / (math.sqrt(2.0) * s)
    near = np.abs(z) <= FADDEEVA_ZMAX
    if near.any():
        out[:, rest[near]] = _kernel_means_faddeeva(z[near], s)
    if not near.all():
        out[:, rest[~near]] = _kernel_means_sinh(x0[rest[~near]], s)
    out[[row for row in range(3) if row not in rows]] = np.nan  # Faddeeva and sinh form all three
    return out


def _slope_scale(sensor: SensorModel) -> float:
    """depth * shift_rate / half_width, which the closed form and the oracle's sensor means square."""
    scale = sensor.absorption_depth * sensor.shift_rate / sensor.half_width
    if not math.isfinite(scale * scale):
        raise ArithmeticError(
            f"slope scale depth * shift_rate / half_width = {scale!r} overflows when squared; "
            f"sensor.half_width = {sensor.half_width!r} or sensor.shift_rate = {sensor.shift_rate!r} "
            "is out of range")
    return scale


def _moments_from_kernels(sensor: SensorModel, km: np.ndarray):
    """Map kernel means to (slope_power, corr, reflection_power) arrays.

    With d = depth, a = shift_rate, w = half_width and the kernel means
    m2 = E[1/(1+x^2)^2], m1 = E[1/(1+x^2)], mx = E[x/(1+x^2)^2]:

        slope_power      = (d a / w)^2 * m2
        reflection_power = 1 - d (2 - d) * m1
        corr             = (d a / w) * ( -(2 - d) mx + j ((2 - d) m2 - m1) )
    """
    d, scale = sensor.absorption_depth, _slope_scale(sensor)
    m2, m1, mx = km
    slope_power = scale * scale * m2
    refl_power = 1.0 - d * (2.0 - d) * m1
    corr = scale * (-(2.0 - d) * mx + 1j * ((2.0 - d) * m2 - m1))
    return slope_power, corr, refl_power


def prior_moments(sensor: SensorModel, f, prior: SensingPrior):
    """All three prior moments at the given frequencies, computed on shared nodes.

    Returns (slope_power, corr, reflection_power) arrays matching the shape of f.
    """
    km = kernel_means(sensor, f, prior)
    slope_power, corr, refl_power = _moments_from_kernels(sensor, km)
    if np.ndim(f) == 0:
        return float(slope_power[0]), complex(corr[0]), float(refl_power[0])
    shape = np.shape(f)
    return slope_power.reshape(shape), corr.reshape(shape), refl_power.reshape(shape)


def _moment(index: int, sensor: SensorModel, f, prior: SensingPrior):
    """Moment `index` of prior_moments from the kernel rows it reads."""
    km = kernel_means(sensor, f, prior, rows=((0,), (0, 1, 2), (1,))[index])
    value = _moments_from_kernels(sensor, km)[index]
    return value.reshape(np.shape(f)) if np.ndim(f) else value[0].item()


def slope_power(sensor: SensorModel, f, prior: SensingPrior):
    """E_c |d gamma / d c|^2 at frequency f."""
    return _moment(0, sensor, f, prior)


def slope_reflection_corr(sensor: SensorModel, f, prior: SensingPrior):
    """E_c [conj(d gamma / d c) * gamma], the complex slope/reflection coupling."""
    return _moment(1, sensor, f, prior)


def corr_magsq(sensor: SensorModel, f, prior: SensingPrior):
    """|E_c [conj(gamma') gamma]|^2, the squared modulus of the coupling moment."""
    return np.abs(slope_reflection_corr(sensor, f, prior)) ** 2


def reflection_power(sensor: SensorModel, f, prior: SensingPrior):
    """E_c |gamma|^2 at frequency f, in [0, 1]."""
    return _moment(2, sensor, f, prior)
