"""The benchmark's workloads: jobs, their inputs and their work counts.

The workload seed goes only to the Monte Carlo seeds of the `oracle` jobs.
Everything else is fixed, so the closed-form, Schur and dense values can be
checked against numbers stored from the seed commit (`reference.json`), and
every seed asks for the same amount of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import checks

# Scenario files a pass writes into its work directory. Unset keys take the
# package defaults: 90% dip, unit half-width, N(0, 1) prior, kappa = 1,
# 20 dB SNR, 128 tones at 0.05 spacing.
CONFIGS = {
    "default.cfg": "# package defaults\n",
    "grid1024.cfg": "grid.count = 1024\n",
    "grid16.cfg": "grid.count = 16\n",
}

MC_NARROW_DRAWS = 1_000_000
POSTERIOR_TRIALS = 20_000
VALIDATE_DRAWS = 100_000


@dataclass(frozen=True)
class Job:
    """One unit of work in a pass.

    A CLI job runs `metabcrb.cli.main(argv)`; `{work}` in argv is the work
    directory and `{seed}` the workload seed. A library job calls `call(seed)`
    and hands the returned values to `check`. `ref_keys` names the CSV
    columns, or the returned values, that reference.json stores. `items`
    counts what the job produces: closed-form bound values on the sweeps,
    Monte Carlo parameter draws plus estimator trials on `oracle`.
    """

    name: str
    items: int
    argv: tuple = ()
    call: Callable | None = None
    check: Callable | None = None
    ref_keys: tuple = ()
    seeded: bool = False  # CSV bytes depend on the workload seed

    @property
    def subcommand(self) -> str | None:
        return self.argv[0] if self.argv else None

    @property
    def csv(self) -> str | None:
        return f"{self.name}.csv" if self.argv else None

    def resolve_argv(self, work: str, seed: int) -> list[str]:
        out = os.path.join(work, self.csv)
        return [a.format(work=work, seed=seed) for a in self.argv] + ["--out", out]


def _cli(name, items, *argv, ref_keys=(), seeded=False):
    return Job(name=name, items=items, argv=argv, ref_keys=ref_keys, seeded=seeded)


def _one_tone(depth, width, kappa, snr_db):
    """Criterion 01's single-tone scenario on the prior-mean resonance."""
    from metabcrb import (RicianSpec, Scenario, SensingPrior, SensorModel,
                          SubcarrierGrid, snr_to_noise)
    return Scenario(
        sensor=SensorModel(absorption_depth=depth, half_width=width, shift_rate=1.0),
        prior=SensingPrior(mean=0.0, std=1.0),
        channel=RicianSpec(kappa=kappa),
        noise=snr_to_noise(snr_db),
        grid=SubcarrierGrid.uniform(center=0.0, spacing=1.0, count=1),
    )


def _los_16(snr_db):
    """Criterion 10's deterministic line-of-sight scenario: 16 tones at 0.4."""
    from metabcrb import (RicianSpec, Scenario, SensingPrior, SensorModel,
                          SubcarrierGrid, snr_to_noise)
    return Scenario(
        sensor=SensorModel(absorption_depth=0.9, half_width=1.0, shift_rate=1.0),
        prior=SensingPrior(mean=0.0, std=1.0),
        channel=RicianSpec(deterministic_los=True),
        noise=snr_to_noise(snr_db),
        grid=SubcarrierGrid.uniform(center=0.0, spacing=0.4, count=16),
    )


def mc_narrow(seed: int) -> dict:
    """Criterion 01's narrow scenario (width ratio 0.01): closed form vs 1e6 MC draws."""
    import metabcrb.bcrb
    import metabcrb.mc
    sc = _one_tone(0.9, 0.01, 1.0, 20.0)
    closed = metabcrb.bcrb.bcrb_closed_form(sc).bound
    est = metabcrb.mc.mc_bound(sc, MC_NARROW_DRAWS, seed)
    return {"closed_form": closed, "estimate": est.value, "std_err": est.std_err}


def posterior_los(seed: int) -> dict:
    """Criterion 10's LoS scenario at 10 dB: grid posterior-mean MSE vs the bound."""
    import metabcrb.bcrb
    import metabcrb.mc
    sc = _los_16(10.0)
    bound = metabcrb.bcrb.bcrb_closed_form(sc).bound
    est = metabcrb.mc.posterior_mean_mse(sc, POSTERIOR_TRIALS, seed=seed)
    return {"bound": bound, "estimate": est.value, "std_err": est.std_err}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


SWEEP_SHARED = Workload(
    name="sweep-shared",
    why="SNR, kappa and depth sweeps plus select on 1024 tones: every point reuses the "
        "same per-tone moments, so moment tables and array algebra show here",
    jobs=(
        _cli("sweep-snr", 3 * 41,
             "sweep", "--config", "{work}/grid1024.cfg", "--axis", "snr_db",
             "--start", "-10", "--stop", "30", "--points", "41",
             "--curve", "channel.kappa=0.0", "--curve", "channel.kappa=1.0",
             "--curve", "channel.kappa=5.0", ref_keys=("bcrb",)),
        _cli("sweep-depth", 2 * 19,
             "sweep", "--config", "{work}/grid1024.cfg", "--axis", "depth",
             "--start", "0.1", "--stop", "1.0", "--points", "19",
             "--curve", "channel.kappa=2.0", "--curve", "channel.los=true",
             ref_keys=("bcrb",)),
        _cli("select", 256,
             "select", "--config", "{work}/grid1024.cfg", "--budget", "256",
             ref_keys=("frequency", "bcrb")),
    ),
)

SWEEP_REGIMES = Workload(
    name="sweep-regimes",
    why="log FWHM sweep from 0.004 to 400 plus asymptotics: fresh moments at every point "
        "through all three routes, so a moment engine shows and a moment cache does not",
    jobs=(
        _cli("sweep-fwhm", 41,
             "sweep", "--config", "{work}/default.cfg", "--axis", "fwhm", "--log",
             "--start", "0.004", "--stop", "400", "--points", "41", "--svg",
             ref_keys=("bcrb",)),
        # 27 closed-form bounds behind the three slope fits of the report
        _cli("asymptotics", 27,
             "asymptotics", "--config", "{work}/default.cfg",
             ref_keys=("predicted", "computed")),
    ),
)

ORACLE = Workload(
    name="oracle",
    why="validate with 1e5 draws, a dense check, criterion 01's narrow MC case and "
        "criterion 10's posterior-mean estimator: Monte Carlo draws dominate",
    jobs=(
        # configured and Rayleigh variants draw; the LoS variant is exact
        _cli("validate", 2 * VALIDATE_DRAWS,
             "validate", "--config", "{work}/default.cfg",
             "--samples", str(VALIDATE_DRAWS), "--seed", "{seed}",
             ref_keys=("closed_form", "schur_from_blocks", "dense_inverse"), seeded=True),
        _cli("validate-dense", 2 * VALIDATE_DRAWS,
             "validate", "--config", "{work}/grid16.cfg",
             "--samples", str(VALIDATE_DRAWS), "--seed", "{seed}", "--dense-check",
             ref_keys=("closed_form", "schur_from_blocks", "dense_inverse"), seeded=True),
        Job(name="mc-narrow", items=MC_NARROW_DRAWS, call=mc_narrow,
            check=checks.check_mc_narrow, ref_keys=("closed_form",)),
        Job(name="posterior-los", items=POSTERIOR_TRIALS, call=posterior_los,
            check=checks.check_posterior, ref_keys=("bound",)),
    ),
)

WORKLOADS = {w.name: w for w in (SWEEP_SHARED, SWEEP_REGIMES, ORACLE)}


def write_configs(work: str) -> None:
    for name, text in CONFIGS.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(text)
