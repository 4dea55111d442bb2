"""Shipped scenario presets for the standard two-zone test building.

Five presets cover the canonical experiments: estimation failure without
excitation, the three-day acquisition protocol with excitation, the
week-long controller comparison on the acquired model, the deliberately
corrupted-model control pathology, and the observability study on the
acquisition trajectory.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .harness import ScenarioConfig, compare_runs, run_scenario, write_lines
from .network import minimal_parameterization, two_zone_example
from .simulator import OccupancySchedule, WeatherModel

PRESET_NAMES = (
    "fig5-failure",
    "fig7-acquisition",
    "fig6-badmodel",
    "table2-comparison",
    "fig9-10-observability",
)


def acquisition_weather() -> WeatherModel:
    """Cold snap around 20 degrees with daily and fast swings."""
    return WeatherModel(mean_temp=20.0, daily_amp=20.0, fast_amp=5.0, noise_std=0.25)


def comparison_weather() -> WeatherModel:
    """A week sliding from mid-fifties averages down into the teens."""
    bias = (
        (0.0, 18.0),          # days 1-2: mid fifties
        (2 * 1440.0, 10.0),   # day 3
        (3 * 1440.0, 2.0),    # day 4
        (4 * 1440.0, -8.0),   # day 5
        (5 * 1440.0, -19.0),  # days 6-7: teens
    )
    return WeatherModel(
        mean_temp=35.0, daily_amp=20.0, fast_amp=5.0,
        bias_schedule=bias, noise_std=0.25,
    )


def acquisition_config(seed: int, days: int = 3, excitation: bool = True,
                       name: str = "fig7-acquisition") -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        network=two_zone_example(),
        weather=acquisition_weather(),
        schedule=OccupancySchedule(),
        controller="thermostat",
        estimator=True,
        excitation_method="eigen",
        duration_steps=days * 96,
        seed=seed,
        protocol="acquisition" if excitation else "acquisition-no-excitation",
        param_seed_spread=(0.5, 2.0) if excitation else (0.5, 1.5),
    )


def corrupted_params(factor: float = 0.2):
    """A failed-estimation model: one inter-zone RC product badly wrong.

    Scaling R12C1 alone makes the controller's model believe far more heat
    flows into zone 1 than zone 2 pays to export (it breaks flow
    reciprocity), so holding zone 2 hot looks like free heating for zone 1.
    Scaling both inter-zone products equally preserves reciprocity, and the
    indirect route is then never worth its cost, so no pathology appears.
    """
    truth = minimal_parameterization(two_zone_example())
    p = truth.p.copy()
    names = truth.param_names()
    p[names.index("R12C1")] *= factor
    return truth.with_values(p, truth.q)


def run_preset(name: str, seed: int = 0, out_dir: Optional[Path] = None,
               use_true_model: bool = False) -> dict:
    """Execute a named preset; returns the reports it produced.

    ``use_true_model`` makes the comparison preset control with the exact
    plant parameters instead of the acquired estimate (sensitivity check).
    """
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    out = Path(out_dir) if out_dir is not None else None

    def sub(label):
        return None if out is None else out / label

    if name == "fig5-failure":
        config = acquisition_config(seed, days=2, excitation=False, name=name)
        report = run_scenario(config, sub("run"))
        return {"run": report}

    if name == "fig7-acquisition":
        config = acquisition_config(seed, days=3, excitation=True, name=name)
        report = run_scenario(config, sub("run"))
        return {"run": report}

    if name == "fig9-10-observability":
        config = replace(
            acquisition_config(seed, days=3, excitation=True, name=name),
            track_observability=True,
        )
        report = run_scenario(config, sub("run"))
        return {"run": report}

    if name == "table2-comparison":
        truth = minimal_parameterization(two_zone_example())
        if use_true_model:
            acq_report = None
            learned = truth
        else:
            acq = acquisition_config(seed, days=3, excitation=True, name=f"{name}-acquire")
            acq_report = run_scenario(acq, sub("acquire"))
            learned = acq_report.final_estimate_vector(truth)
        thermostat = ScenarioConfig(
            name=f"{name}-thermostat",
            network=two_zone_example(),
            weather=comparison_weather(),
            controller="thermostat",
            estimator=False,
            duration_steps=7 * 96,
            seed=seed,
        )
        mpc = replace(
            thermostat, name=f"{name}-mpc", controller="mpc",
            force_mpc=True, frozen_params=learned,
        )
        rep_th = run_scenario(thermostat, sub("thermostat"))
        rep_mpc = run_scenario(mpc, sub("mpc"))
        comparison = compare_runs(rep_th, rep_mpc)
        if out is not None:
            write_lines(out / "comparison.csv", comparison.csv())
        return {
            "acquire": acq_report,
            "thermostat": rep_th,
            "mpc": rep_mpc,
            "comparison": comparison,
        }

    if name == "fig6-badmodel":
        thermostat = ScenarioConfig(
            name=f"{name}-thermostat",
            network=two_zone_example(),
            weather=comparison_weather(),
            controller="thermostat",
            estimator=False,
            duration_steps=7 * 96,
            seed=seed,
        )
        bad = replace(
            thermostat, name=f"{name}-mpc", controller="mpc",
            force_mpc=True, frozen_params=corrupted_params(),
        )
        rep_th = run_scenario(thermostat, sub("thermostat"))
        rep_bad = run_scenario(bad, sub("mpc"))
        comparison = compare_runs(rep_th, rep_bad)
        if out is not None:
            write_lines(out / "comparison.csv", comparison.csv())
        return {"thermostat": rep_th, "mpc": rep_bad, "comparison": comparison}

    raise AssertionError("unreachable")
