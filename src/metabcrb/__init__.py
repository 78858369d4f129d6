"""Bayesian Cramer-Rao bound for multicarrier backscatter sensing.

A resonant tag modulates each subcarrier through a Lorentzian reflection
notch whose center frequency tracks the environmental quantity being
sensed.  This package evaluates the Bayesian bound on the mean squared
estimation error of that quantity under Rician two-hop fading, checks it
against brute-force Monte Carlo, and exposes the closed-form regime limits.
"""

from .asymptotics import (AsymptoticRegime, classify_regime,
                          corr_magsq_narrow_limit, corr_magsq_wide_limit,
                          fit_loglog_slope, slope_power_narrow_limit,
                          slope_power_wide_limit, wideband_slope_power_sum)
from .bcrb import (BcrbResult, BfimBlocks, assemble_bfim, bcrb_closed_form,
                   bcrb_from_blocks, bcrb_from_dense, bfim_dense,
                   select_subcarriers, subcarrier_contribution)
from .config import (ConfigError, apply_override, default_scenario,
                     format_config, load_scenario, parse_config,
                     scenario_from_settings, settings_from_scenario)
from .expectations import (McEstimate, MonteCarlo, Quadrature, corr_magsq,
                           expect_over_prior, reflection_power, slope_power,
                           slope_reflection_corr)
from .mc import (McBlocks, ParameterSample, conditional_fim, draw_samples,
                 mc_blocks, mc_bound, posterior_mean_mse)
from .scenario import (NoiseSpec, RicianSpec, Scenario, SensingPrior,
                       SubcarrierGrid, snr_to_noise)
from .sensor import SensorModel, detuning, reflection, reflection_dc

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRegime",
    "BcrbResult",
    "BfimBlocks",
    "ConfigError",
    "McBlocks",
    "McEstimate",
    "MonteCarlo",
    "NoiseSpec",
    "ParameterSample",
    "Quadrature",
    "RicianSpec",
    "Scenario",
    "SensingPrior",
    "SensorModel",
    "SubcarrierGrid",
    "apply_override",
    "assemble_bfim",
    "bcrb_closed_form",
    "bcrb_from_blocks",
    "bcrb_from_dense",
    "bfim_dense",
    "classify_regime",
    "conditional_fim",
    "corr_magsq",
    "corr_magsq_narrow_limit",
    "corr_magsq_wide_limit",
    "default_scenario",
    "detuning",
    "draw_samples",
    "expect_over_prior",
    "fit_loglog_slope",
    "format_config",
    "load_scenario",
    "mc_blocks",
    "mc_bound",
    "parse_config",
    "posterior_mean_mse",
    "reflection",
    "reflection_dc",
    "reflection_power",
    "scenario_from_settings",
    "select_subcarriers",
    "settings_from_scenario",
    "slope_power",
    "slope_power_narrow_limit",
    "slope_power_wide_limit",
    "slope_reflection_corr",
    "snr_to_noise",
    "subcarrier_contribution",
    "wideband_slope_power_sum",
    "__version__",
]
