"""Public API guard: a name leaves `metabcrb.__all__` only on purpose."""

import metabcrb

PUBLIC_NAMES = [
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


def test_public_names_unchanged():
    assert metabcrb.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(metabcrb, name), name
