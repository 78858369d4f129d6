"""Config text format: parsing, overrides, round trips, error reporting."""

import math

import pytest

from metabcrb import (ConfigError, RicianSpec, apply_override, default_scenario,
                      format_config, load_scenario, parse_config,
                      scenario_from_settings, settings_from_scenario)


def test_parse_defaults_from_empty_text():
    settings = parse_config("")
    assert settings["sensor.depth"] == 0.9
    assert settings["grid.count"] == 128
    assert settings["channel.los"] is False
    sc = scenario_from_settings(settings)
    assert sc == default_scenario()


def test_parse_full_config_with_comments_and_blanks():
    text = """
# sensor section
sensor.depth = 0.5   # half absorbed
sensor.half_width = 2.5
sensor.shift_rate = -1.5
sensor.offset = 0.25

prior.mean = 1.0
prior.std = 0.4
channel.kappa = 3.5
channel.los = true
noise.snr_db = 7.5
grid.center = -1.25
grid.spacing = 0.125
grid.count = 9
"""
    sc = load_scenario(text)
    assert sc.sensor.absorption_depth == 0.5
    assert sc.sensor.shift_rate == -1.5
    assert sc.prior.std == 0.4
    assert sc.channel.deterministic_los is True
    assert sc.noise.variance == pytest.approx(10 ** -0.75)
    assert sc.grid.count == 9
    assert sc.grid.as_array()[4] == pytest.approx(-1.25)


def test_parse_error_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key 'sensor.dpeth'"):
        parse_config("sensor.depth = 0.5\nsensor.dpeth = 0.4\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("sensor.depth = 0.5\n\nsensor.depth = 0.4\n")
    with pytest.raises(ConfigError, match="line 1: bad value"):
        parse_config("grid.count = twelve\n")
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("sensor.depth 0.5\n")
    with pytest.raises(ConfigError, match="bad value for 'channel.los'"):
        parse_config("channel.los = maybe\n")


def test_bool_spellings():
    for raw, expected in (("true", True), ("1", True), ("yes", True),
                          ("false", False), ("0", False), ("no", False)):
        assert parse_config(f"channel.los = {raw}")["channel.los"] is expected


def test_apply_override():
    settings = parse_config("")
    out = apply_override(settings, "noise.snr_db=-3.5")
    assert out["noise.snr_db"] == -3.5
    assert settings["noise.snr_db"] == 20.0  # original untouched
    with pytest.raises(ConfigError):
        apply_override(settings, "noise.snr")
    with pytest.raises(ConfigError):
        apply_override(settings, "nope=1")
    with pytest.raises(ConfigError):
        apply_override(settings, "grid.count=1.5")


def test_round_trip_is_bit_exact():
    settings = parse_config("")
    settings = apply_override(settings, f"prior.std={math.pi / 7}")
    settings = apply_override(settings, "grid.spacing=0.1")
    text = format_config(settings)
    assert parse_config(text) == settings
    # and once more through a scenario
    sc = scenario_from_settings(settings)
    assert scenario_from_settings(parse_config(format_config(settings_from_scenario(sc)))) == sc


def test_uniform_grid_memo_keys_on_bits():
    from metabcrb import SubcarrierGrid
    settings = parse_config("grid.count = 5\n")
    centers = (0.0, -0.0, 0.0)
    grids = [scenario_from_settings({**settings, "grid.center": c}).grid for c in centers]
    for center, grid in zip(centers, grids):
        fresh = SubcarrierGrid.uniform(center=center, spacing=settings["grid.spacing"], count=5)
        assert [f.hex() for f in grid.frequencies] == [f.hex() for f in fresh.frequencies]
    assert grids[0].frequencies == grids[1].frequencies
    # repeated bits give the very same grid; a bad grid is rejected, not remembered
    assert scenario_from_settings(settings).grid is scenario_from_settings(settings).grid
    for _ in range(2):
        with pytest.raises(ConfigError):
            scenario_from_settings({**settings, "grid.spacing": -0.1})


def test_settings_from_scenario_rejects_irregular_grid():
    from metabcrb import SubcarrierGrid
    sc = default_scenario().with_grid(SubcarrierGrid.from_frequencies([0.0, 0.3, 1.0]))
    with pytest.raises(ConfigError):
        settings_from_scenario(sc)


def test_invalid_physical_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        load_scenario("sensor.depth = 1.5\n")
    with pytest.raises(ConfigError):
        load_scenario("prior.std = 0\n")
    with pytest.raises(ConfigError):
        load_scenario("channel.kappa = -2\n")
    with pytest.raises(ConfigError):
        load_scenario("grid.count = 0\n")
