"""Criterion 01 at every seed from 0 to 7, outside the Tier-1 suite.

The acceptance test pins seed 2. This script runs the same five scenarios
with 1e6 Monte Carlo draws at each of seeds 0-7 and exits 1 unless every
seed passes both clauses: |z| <= 3 and relative error <= 2% on every
scenario. Run from the repository root:

    PYTHONPATH=src python tests/criterion_01_seeds.py
"""

import sys

from metabcrb import bcrb_closed_form, mc_bound
from test_acceptance import CRITERION_01_SCENARIOS, _one_tone

SEEDS = range(8)
DRAWS = 1_000_000


def main() -> int:
    closed = [bcrb_closed_form(_one_tone(*params)).bound for params in CRITERION_01_SCENARIOS]
    failed = []
    for seed in SEEDS:
        worst_z = worst_rel = 0.0
        for params, bound in zip(CRITERION_01_SCENARIOS, closed):
            est = mc_bound(_one_tone(*params), DRAWS, seed=seed)
            worst_z = max(worst_z, abs(est.value - bound) / est.std_err)
            worst_rel = max(worst_rel, abs(est.value - bound) / bound)
        ok = worst_z <= 3.0 and worst_rel <= 0.02
        print(f"seed {seed} {'PASS' if ok else 'FAIL'}: max |z| = {worst_z:.2f} (<= 3), "
              f"max rel = {worst_rel:.4%} (<= 2%)")
        if not ok:
            failed.append(seed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
