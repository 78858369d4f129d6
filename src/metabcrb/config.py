"""Flat key=value scenario configs.

One dotted key per scenario field, '#' comments, later duplicate keys are
rejected. Floats are serialized with repr so a round trip is bit-exact.
"""

from __future__ import annotations

import functools

from .scenario import (NoiseSpec, RicianSpec, Scenario, SensingPrior,
                       SubcarrierGrid, snr_to_noise)
from .sensor import SensorModel


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


KEY_TYPES = {
    "sensor.depth": float,
    "sensor.half_width": float,
    "sensor.shift_rate": float,
    "sensor.offset": float,
    "prior.mean": float,
    "prior.std": float,
    "channel.kappa": float,
    "channel.los": _parse_bool,
    "noise.snr_db": float,
    "grid.center": float,
    "grid.spacing": float,
    "grid.count": int,
}

DEFAULTS = {
    "sensor.depth": 0.9,
    "sensor.half_width": 1.0,
    "sensor.shift_rate": 1.0,
    "sensor.offset": 0.0,
    "prior.mean": 0.0,
    "prior.std": 1.0,
    "channel.kappa": 1.0,
    "channel.los": False,
    "noise.snr_db": 20.0,
    "grid.center": 0.0,
    "grid.spacing": 0.05,
    "grid.count": 128,
}


def _parse_value(key: str, raw_value: str):
    """The typed value of one entry; ConfigError for an unknown key or a bad value."""
    if key not in KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return KEY_TYPES[key](raw_value.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> dict:
    """Parse key=value lines into a complete settings dict (defaults applied)."""
    settings = dict(DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key in seen:  # a key is seen once it parsed, so a duplicate is a known key
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            settings[key] = _parse_value(key, raw_value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        seen.add(key)
    return settings


def apply_override(settings: dict, assignment: str) -> dict:
    """Apply one 'key=value' override string; returns a new settings dict."""
    if "=" not in assignment:
        raise ConfigError(f"override must be key=value, got {assignment!r}")
    key, _, raw_value = assignment.partition("=")
    key = key.strip()
    return {**settings, key: _parse_value(key, raw_value)}


@functools.lru_cache(maxsize=1)  # sweep points share one grid, which is immutable
def _uniform_grid(center_hex: str, spacing_hex: str, count: int) -> SubcarrierGrid:
    """SubcarrierGrid.uniform, remembered by the exact bits of center and spacing."""
    return SubcarrierGrid.uniform(float.fromhex(center_hex), float.fromhex(spacing_hex), count)


def scenario_from_settings(settings: dict) -> Scenario:
    try:
        sensor = SensorModel(
            absorption_depth=settings["sensor.depth"],
            half_width=settings["sensor.half_width"],
            shift_rate=settings["sensor.shift_rate"],
            center_offset=settings["sensor.offset"],
        )
        prior = SensingPrior(mean=settings["prior.mean"], std=settings["prior.std"])
        channel = RicianSpec(kappa=settings["channel.kappa"],
                             deterministic_los=settings["channel.los"])
        noise = snr_to_noise(settings["noise.snr_db"])
        grid = _uniform_grid(float(settings["grid.center"]).hex(),
                             float(settings["grid.spacing"]).hex(), settings["grid.count"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Scenario(sensor=sensor, prior=prior, channel=channel, noise=noise, grid=grid)


def load_scenario(text: str) -> Scenario:
    return scenario_from_settings(parse_config(text))


def settings_from_scenario(scenario: Scenario) -> dict:
    grid = scenario.grid
    if grid.spacing is None:
        raise ConfigError("only uniform grids are expressible as configs")
    freqs = grid.as_array()
    center = float((freqs[0] + freqs[-1]) / 2.0)
    return {
        "sensor.depth": scenario.sensor.absorption_depth,
        "sensor.half_width": scenario.sensor.half_width,
        "sensor.shift_rate": scenario.sensor.shift_rate,
        "sensor.offset": scenario.sensor.center_offset,
        "prior.mean": scenario.prior.mean,
        "prior.std": scenario.prior.std,
        "channel.kappa": scenario.channel.kappa,
        "channel.los": scenario.channel.deterministic_los,
        "noise.snr_db": scenario.noise.snr_db,
        "grid.center": center,
        "grid.spacing": grid.spacing,
        "grid.count": grid.count,
    }


def format_config(settings: dict) -> str:
    lines = []
    for key in KEY_TYPES:
        value = settings[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
