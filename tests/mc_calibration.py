"""Calibration of the Monte Carlo standard error at the smallest accepted draw count.

z = (mc_bound - closed form) / std_err over seeds 0-399, fixed in advance, at
16,384 draws, the floor of every random-channel bound (32 jackknife groups of
one 512-draw chunk). The scenarios are criterion 01's one-tone cases at 20 dB
and kappa 1 (widths 0.01 and 1) and validate's configured and Rayleigh variants
on the package defaults with 16 tones. The closed form is right in all of them,
so an honest standard error gives z a spread near 1. Exits 1 unless every
scenario has sd(z) <= 1.1 and at most one seed with |z| > 4. Run from the
repository root:

    PYTHONPATH=src python tests/mc_calibration.py
"""

import sys

import numpy as np

from metabcrb import bcrb_closed_form, load_scenario, mc_bound
from test_acceptance import _one_tone

SEEDS = range(400)
DRAWS = 16_384
SD_LIMIT, Z_LIMIT, OUTLIERS = 1.1, 4.0, 1
SCENARIOS = {
    "one tone, width 0.01": _one_tone(0.9, 0.01, 1.0, 20.0),
    "one tone, width 1": _one_tone(1.0, 1.0, 1.0, 20.0),
    "16 tones, configured": load_scenario("grid.count = 16\n"),
    "16 tones, rayleigh": load_scenario("grid.count = 16\nchannel.kappa = 0.0\n"),
}


def main() -> int:
    failed = []
    for name, sc in SCENARIOS.items():
        closed = bcrb_closed_form(sc).bound
        z = np.array([(est.value - closed) / est.std_err
                      for est in (mc_bound(sc, DRAWS, seed=seed) for seed in SEEDS)])
        sd, outliers = float(np.std(z, ddof=1)), int(np.sum(np.abs(z) > Z_LIMIT))
        ok = sd <= SD_LIMIT and outliers <= OUTLIERS
        print(f"{name}: {'PASS' if ok else 'FAIL'}: sd(z) = {sd:.3f} (<= {SD_LIMIT}), "
              f"mean z = {np.mean(z):+.3f}, {outliers} of {len(z)} seeds with |z| > {Z_LIMIT:g} "
              f"(<= {OUTLIERS})")
        if not ok:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
