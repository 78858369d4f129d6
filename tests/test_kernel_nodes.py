"""The order-800 Gauss-Hermite kernel table on its 400 central nodes, against all 800.

At s <= 1, kernel_means' Gauss-Hermite tones (|z| < FAR_ZMIN) take
expectations._kernel_means_gh, which sums nodes 200-599 of the stored order-800
rule only. These tests pin its tables to those of all 800 nodes, bit for bit, and
the two premises that make them equal: the outer weights are below 1e-100, and
numpy's pairwise sum splits a row of 800 values at 200, 400 and 600, so the
outer nodes' sums join the central ones last. The module imports no scipy, so it
also runs on the oldest numpy the package allows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from metabcrb import SubcarrierGrid
from metabcrb.config import parse_config, scenario_from_settings
from metabcrb.expectations import (_TINY_SQ, FAR_ZMIN, KERNEL_ORDER, _gh_nodes,
                                   _kernel_means_gh, _kernel_nodes, _kernel_table,
                                   detuning_stats, kernel_means)

ROW_SETS = [(0, 1, 2), (0,), (1,)]


def _pairwise(values):
    """numpy's pairwise float sum: up to 128 values in eight running sums, longer runs
    split at n/2 rounded down to a multiple of 8 (numpy's loops_utils pairwise_sum)."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        acc = list(values[:8])
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for value in values[whole:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


def _full_table(x0, s, rows=(0, 1, 2)):
    """_kernel_table on all 800 nodes of the stored rule."""
    z, w = _gh_nodes(KERNEL_ORDER)
    return _kernel_table(x0, (math.sqrt(2.0) * s) * z, w * (1.0 / math.sqrt(math.pi)), rows)


def _assert_half_is_full(x0, s, rows=(0, 1, 2)):
    x0 = np.asarray(x0, dtype=float)
    half, full = _kernel_means_gh(x0, s, rows), _full_table(x0, s, rows)
    differ = np.flatnonzero(np.any(half.view(np.uint64) != full.view(np.uint64), axis=0))
    assert differ.size == 0, (s, rows, x0[differ[:4]], half[:, differ[:4]], full[:, differ[:4]])


def _gh_tones(sensor, freqs, prior):
    """Mask of the tones kernel_means sends to Gauss-Hermite (s <= 1, |z| < FAR_ZMIN), x0, s."""
    x0, s = detuning_stats(sensor, freqs, prior)
    return (s <= 1.0) & (np.hypot(1.0, x0) < math.sqrt(2.0) * FAR_ZMIN * s), x0, s


def test_outer_nodes_of_the_stored_rule_are_negligible():
    # premise 1: the 400 dropped weights are below 1e-100 (at most 1.03e-115), and a
    # Gauss-Hermite tone, |x0| < sqrt(2) FAR_ZMIN s, is near x = 0 at a dropped node only
    # where a kept node lies within 0.07 s of x = 0
    z, w = _gh_nodes(KERNEL_ORDER)
    kept = slice(200, 600)
    assert np.max(w[:200]) <= 1e-100 and np.max(w[600:]) <= 1e-100
    kept_z, kept_wn = _kernel_nodes()
    assert kept_z.tobytes() == z[kept].tobytes()
    assert kept_wn.tobytes() == (w[kept] * (1.0 / math.sqrt(math.pi))).tobytes()
    for nodes in (kept_z, kept_wn):
        with pytest.raises(ValueError):
            nodes *= 2.0
    zone = math.sqrt(2.0) * FAR_ZMIN  # |x0| / s of a Gauss-Hermite tone
    assert math.sqrt(2.0) * np.min(np.abs(np.r_[z[:200], z[600:]])) - zone >= 8.7
    inside = math.sqrt(2.0) * np.abs(kept_z) <= zone + 1.0
    assert np.all(math.sqrt(2.0) * np.diff(kept_z)[inside[1:]] / 2.0 <= 0.07)
    assert math.sqrt(2.0) * np.max(kept_z) > zone + 1.0


@pytest.mark.parametrize("n", [400, 800])
def test_numpy_sums_a_row_pairwise_with_splits_at_200_400_and_600(n):
    # premise 2: np.sum of 800 values is (S[0,200) + S[200,400)) + (S[400,600) + S[600,800)),
    # and of 400 values S[0,200) + S[200,400), with the same inner splits. Values spread
    # over 60 decades with mixed signs, so that another split order would round differently.
    rng = np.random.default_rng(n)
    naive_differs = 0
    for _ in range(40):
        values = rng.standard_normal(n) * np.exp(rng.uniform(-69.0, 69.0, n))
        rows = np.stack([values, values[::-1]])
        model = _pairwise(values.tolist())
        assert np.sum(values) == model
        out = np.empty(2)
        np.sum(rows, axis=1, out=out)
        assert out[0] == model and out[1] == _pairwise(values[::-1].tolist())
        quarters = [np.sum(values[lo:lo + n // 4]) for lo in range(0, n, n // 4)]
        if n == 400:
            assert np.sum(values) == np.sum(values[:200]) + np.sum(values[200:])
        else:
            assert np.sum(values) == (quarters[0] + quarters[1]) + (quarters[2] + quarters[3])
            assert np.sum(values[200:600]) == quarters[1] + quarters[2]
        naive = 0.0
        for value in values.tolist():
            naive += value
        naive_differs += naive != model
    assert naive_differs >= 20  # the data tell summation orders apart


@pytest.mark.parametrize("count", [16, 128, 1024])
def test_default_grids_take_the_800_node_table(count):
    # kernel_means itself too, so that the routing is checked with the table
    sc = scenario_from_settings(parse_config(f"grid.count = {count}\n"))
    freqs = sc.grid.as_array()
    gh, x0, s = _gh_tones(sc.sensor, freqs, sc.prior)
    assert s == 1.0 and gh.any()
    _assert_half_is_full(x0[gh], s)
    assert kernel_means(sc.sensor, freqs, sc.prior)[:, gh].tobytes() == _full_table(x0[gh], s).tobytes()


@pytest.mark.parametrize("rows", ROW_SETS, ids=["m2_m1_mx", "m2", "m1"])
def test_wideband_grid_takes_the_800_node_table(rows):
    # asymptotics' 1e4-tone grid at 1/100 half-width spacing, which asks for m2 alone
    sc = scenario_from_settings(parse_config("# defaults\n"))
    center = sc.sensor.resonance(sc.prior.mean)
    grid = SubcarrierGrid.uniform(center=center, spacing=sc.sensor.half_width / 100.0, count=10000)
    gh, x0, s = _gh_tones(sc.sensor, grid.as_array(), sc.prior)
    assert gh.sum() > 1000
    _assert_half_is_full(x0[gh], s, rows)


def test_fwhm_sweep_points_take_the_800_node_table():
    # the log FWHM sweep from 0.004 to 400 on the default 128 tones: its nine points from
    # FWHM 2.25 to 22.5 (s from 0.89 to 0.089) have Gauss-Hermite tones; from FWHM 30
    # (s = 0.067 < 1 / (sqrt(2) FAR_ZMIN)) every tone is far
    sc = scenario_from_settings(parse_config("# defaults\n"))
    checked = 0
    for fwhm in np.geomspace(0.004, 400.0, 41):
        gh, x0, s = _gh_tones(replace(sc.sensor, half_width=fwhm / 2.0), sc.grid.as_array(), sc.prior)
        if gh.any():
            for rows in ROW_SETS:
                _assert_half_is_full(x0[gh], s, rows)
            checked += 1
    assert checked == 9


def test_random_spreads_and_tones_take_the_800_node_table():
    # 400 calls, s log-uniform from 1e-12 to 1, tones anywhere with |x0| < sqrt(2) FAR_ZMIN s
    rng = np.random.default_rng(35)
    zone = math.sqrt(2.0) * FAR_ZMIN
    for call in range(400):
        s = 10.0 ** rng.uniform(-12.0, 0.0)
        x0 = rng.uniform(-zone, zone, int(rng.integers(1, 40))) * s
        _assert_half_is_full(x0, s, ROW_SETS[call % 3])


@pytest.mark.parametrize("s", [1e-310, 1e-300, 1e-160, 1e-12, 1.2e-9, 1e-5, 0.07, 1.0])
def test_extreme_spreads_and_centres_take_the_800_node_table(s):
    # subnormal and tiny spreads, centres at +-0, the smallest subnormal and the zone's edges
    edge = math.sqrt(2.0) * FAR_ZMIN * s * (1.0 - 1e-15)
    x0 = np.array([0.0, -0.0, 5e-324, -5e-324, edge, -edge])
    for rows in ROW_SETS:
        _assert_half_is_full(x0, s, rows)


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 0.5, 1.0])
def test_near_one_tones_take_the_800_node_table(s):
    # tones in the Gauss-Hermite zone with a kept node at x = 0 or beside it, where
    # 1 + x^2 rounds to 1: both tables send them to _near_means
    z, _ = _kernel_nodes()
    dx = (math.sqrt(2.0) * s) * z
    inside = np.flatnonzero(np.abs(dx) < math.sqrt(2.0) * FAR_ZMIN * s)
    roots = -dx[inside[[0, 1, inside.size // 4, inside.size // 2, -2, -1]]]
    x0 = np.concatenate([roots, roots * (1.0 + 1e-15), roots + 1e-9 * s])
    x = x0[:, None] + dx
    assert np.all(np.min(x * x, axis=1)[:roots.size] < _TINY_SQ)
    for rows in ROW_SETS:
        _assert_half_is_full(x0, s, rows)
