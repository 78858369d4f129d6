"""Scenario containers: priors, fading spec, noise scaling, grids."""

import math
import sys

import numpy as np
import pytest

from metabcrb import (NoiseSpec, RicianSpec, Scenario, SensingPrior,
                      SubcarrierGrid, default_scenario, snr_to_noise)


def test_prior_curvature_and_pdf():
    p = SensingPrior(mean=1.5, std=0.5)
    assert p.curvature() == pytest.approx(4.0)
    with pytest.raises(ValueError):
        SensingPrior(mean=0.0, std=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="prior mean must be finite"):
            SensingPrior(mean=bad, std=1.0)
    # std^2 underflows to 0 (1e-300) or 1 / std^2 overflows (1e-160)
    for tiny in (1e-300, 1e-160):
        with pytest.raises(ValueError, match="prior std"):
            SensingPrior(mean=0.0, std=tiny)
    assert math.isfinite(SensingPrior(mean=0.0, std=1e-150).curvature())


def test_prior_std_above_sqrt_max_float_is_rejected_by_name():
    # std^2 of a Python float raises OverflowError past sqrt(max float); the
    # constructor checks against that limit instead of squaring
    limit = math.sqrt(sys.float_info.max)
    assert SensingPrior(mean=0.0, std=1e154).curvature() == 1e-308
    assert SensingPrior(mean=0.0, std=limit).curvature() > 0.0
    for huge in (math.nextafter(limit, math.inf), 1e155, 1e200):
        with pytest.raises(ValueError, match=r"prior std .* too large.*1\.3407807929942596e\+154"):
            SensingPrior(mean=0.0, std=huge)


def test_rician_spec_moments():
    ch = RicianSpec(kappa=3.0)
    assert ch.mean() == pytest.approx(math.sqrt(0.75))
    assert ch.scatter_variance() == pytest.approx(0.25)
    assert ch.mean() ** 2 + ch.scatter_variance() == pytest.approx(1.0)
    assert ch.prior_info_per_coordinate() == pytest.approx(8.0)

    ray = RicianSpec(kappa=0.0)
    assert ray.mean() == 0.0
    assert ray.scatter_variance() == 1.0

    los = RicianSpec(deterministic_los=True)
    assert los.mean() == 1.0
    assert los.scatter_variance() == 0.0
    with pytest.raises(ValueError):
        los.prior_info_per_coordinate()
    with pytest.raises(ValueError):
        RicianSpec(kappa=-1.0)


def test_snr_conversion_round_trips():
    n = snr_to_noise(20.0)
    assert n.variance == pytest.approx(0.01)
    assert n.snr_db == pytest.approx(20.0)
    assert snr_to_noise(0.0).variance == pytest.approx(1.0)
    assert snr_to_noise(-10.0).variance == pytest.approx(10.0)
    with pytest.raises(ValueError):
        NoiseSpec(variance=0.0)
    # 10^310 overflows a float; 10^-310 is a subnormal variance whose 2 / variance
    # (the Fisher scale of every bound) is inf
    with pytest.raises(ValueError, match="snr_db -3100.0 is too low"):
        snr_to_noise(-3100.0)
    with pytest.raises(ValueError, match="2 / variance is not a finite float"):
        snr_to_noise(3100.0)
    with pytest.raises(ValueError, match="noise variance 1e-310 is too small"):
        NoiseSpec(variance=1e-310)
    for snr_db in (-200.0, 300.0):  # the extreme-value grid's ends still convert
        assert snr_to_noise(snr_db).variance == 10.0 ** (-snr_db / 10.0)


def test_uniform_grid_layout():
    g = SubcarrierGrid.uniform(center=5.0, spacing=0.5, count=4)
    np.testing.assert_allclose(g.as_array(), [4.25, 4.75, 5.25, 5.75])
    assert g.count == 4
    assert g.spacing == 0.5
    assert g.bandwidth == pytest.approx(2.0)
    # odd count puts a tone exactly on center
    g3 = SubcarrierGrid.uniform(center=1.0, spacing=0.2, count=3)
    np.testing.assert_allclose(g3.as_array(), [0.8, 1.0, 1.2])
    assert np.mean(g.as_array()) == pytest.approx(5.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        SubcarrierGrid(frequencies=[1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        SubcarrierGrid(frequencies=[2.0, 1.0])
    with pytest.raises(ValueError):
        SubcarrierGrid.uniform(center=0.0, spacing=-1.0, count=4)
    with pytest.raises(ValueError):
        SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=0)
    # 2.5 tones once built (-0.75, 0.25, 1.25), off centre
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"count must be a whole number >= 1, got {bad}"):
            SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=bad)
    for whole in (np.int64(3), np.int32(3), 3.0):
        assert SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=whole).frequencies == (-1.0, 0.0, 1.0)
    for bad in ([math.nan], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="must be finite"):
            SubcarrierGrid(frequencies=bad)
    with pytest.raises(ValueError, match="must be finite"):
        SubcarrierGrid.uniform(center=math.nan, spacing=1.0, count=4)
    irregular = SubcarrierGrid(frequencies=[0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        _ = irregular.bandwidth


def test_grid_rejects_a_nonpositive_spacing():
    # the spacing is checked before the tones, whose ordering and finiteness
    # checks would otherwise report it on grids of more than one tone
    for count in (1, 2, 128):
        for spacing in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=f"spacing must be positive, got {spacing}"):
                SubcarrierGrid.uniform(center=0.0, spacing=spacing, count=count)
    with pytest.raises(ValueError, match="spacing must be positive, got -1.0"):
        SubcarrierGrid(frequencies=(0.0,), spacing=-1.0)
    # an infinite spacing once made an infinite bandwidth
    for count in (1, 2, 128):
        with pytest.raises(ValueError, match="spacing must be finite, got inf"):
            SubcarrierGrid.uniform(center=0.0, spacing=math.inf, count=count)
    with pytest.raises(ValueError, match="spacing must be finite, got inf"):
        SubcarrierGrid(frequencies=(0.0,), spacing=math.inf)


def test_grid_validation_messages():
    cases = [
        ((), ValueError, "grid needs at least one subcarrier"),
        (np.array([]), ValueError, "grid needs at least one subcarrier"),
        ([0.0, math.nan], ValueError, "subcarrier frequencies must be finite"),
        (np.array([-math.inf, 0.0]), ValueError, "subcarrier frequencies must be finite"),
        ([0.0, 2.0, 2.0], ValueError, "subcarrier frequencies must be strictly increasing"),
        (np.array([1.0, -0.0, 0.0]), ValueError, "subcarrier frequencies must be strictly increasing"),
        (["1.0", "x"], ValueError, "could not convert string to float: 'x'"),
        ([1.0 + 2.0j], TypeError, "float() argument must be a string or a real number, not 'complex'"),
        ([[1.0]], TypeError, "float() argument must be a string or a real number, not 'list'"),
        ([[1.0], [2.0, 3.0]], TypeError, "float() argument must be a string or a real number, not 'list'"),
        (np.array([[1.0, 2.0]]), TypeError, "only 0-dimensional arrays can be converted to Python scalars"),
        ([None], TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
        ([1.0, None], TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
        (2.0, TypeError, "'float' object is not iterable"),
    ]
    for frequencies, error, message in cases:
        with pytest.raises(error) as info:
            SubcarrierGrid(frequencies=frequencies)
        assert str(info.value) == message


def test_grid_stores_a_tuple_of_python_floats():
    center, spacing = 0.3, 0.05
    g = SubcarrierGrid.uniform(center=center, spacing=spacing, count=1024)
    expected = tuple(float(f) for f in center + (np.arange(1024) - 511.5) * spacing)
    assert type(g.frequencies) is tuple and all(type(f) is float for f in g.frequencies)
    assert [f.hex() for f in g.frequencies] == [f.hex() for f in expected]
    # float32, integer and string inputs convert as float() converts each element
    for raw in (np.array([0.1, 0.2], dtype=np.float32), [1, 2**53 + 1], ["0.1", 2]):
        g = SubcarrierGrid(frequencies=raw)
        assert [f.hex() for f in g.frequencies] == [float(f).hex() for f in raw]
        assert all(type(f) is float for f in g.frequencies)


def test_grid_array_is_a_read_only_copy():
    g = SubcarrierGrid.uniform(center=0.3, spacing=0.05, count=1024)
    arr = g.as_array()
    assert not arr.flags.writeable
    assert arr.dtype == float and arr.tobytes() == np.array(g.frequencies).tobytes()
    with pytest.raises(ValueError):
        arr[0] = 1.0
    # the grid copies an array it is given; the caller's array stays writeable and its own
    raw = np.linspace(0.0, 1.0, 5)
    g = SubcarrierGrid(frequencies=raw)
    assert raw.flags.writeable and not np.shares_memory(raw, g.as_array())
    raw[0] = -1.0
    assert g.frequencies[0] == 0.0 and g.as_array()[0] == 0.0


def test_scenario_with_helpers_preserve_other_fields():
    sc = default_scenario()
    assert isinstance(sc, Scenario)
    sc2 = sc.with_noise(snr_to_noise(5.0))
    assert sc2.noise.snr_db == pytest.approx(5.0)
    assert sc2.sensor == sc.sensor and sc2.grid == sc.grid
    sc3 = sc.with_channel(RicianSpec(kappa=9.0))
    assert sc3.channel.kappa == 9.0 and sc3.noise == sc.noise
    g = SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=2)
    assert sc.with_grid(g).grid.count == 2
