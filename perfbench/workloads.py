"""The benchmark's workloads: scenario configs made from a seed, and the checks
that prove each workload exercised the layers it was chosen for.

Every workload drives ``thermobench.harness.run_scenario`` with plain
``ScenarioConfig`` objects; the library sees nothing of the benchmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional

from thermobench.harness import RunReport, ScenarioConfig
from thermobench.network import minimal_parameterization, two_zone_example
from thermobench.presets import acquisition_config, acquisition_weather, comparison_weather

# 52 steps of 15 minutes run Monday 00:00-13:00: 32 steps under the
# unoccupied band, the 08:00 switch to the occupied band, and 20 steps in it.
# Two passes give the 104 step samples that a p90 with ten samples beyond it
# needs.
MPC_STEPS = 52
# Consecutive seeds per acquire pass; the accuracy figures average over them.
ACQUIRE_SEEDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Optional[int]], list[ScenarioConfig]]
    # workload-level checks: (reports of one pass, call counts) -> failures
    check: Callable[[list[RunReport], Counter], list[str]]


def _mpc_week(seed: int, steps: Optional[int]) -> list[ScenarioConfig]:
    """The table2/fig6 MPC leg on the true model, as ``use_true_model`` runs it."""
    net = two_zone_example()
    return [ScenarioConfig(
        name="mpc-week",
        network=net,
        weather=comparison_weather(),
        controller="mpc",
        estimator=False,
        duration_steps=MPC_STEPS if steps is None else steps,
        seed=seed,
        force_mpc=True,
        frozen_params=minimal_parameterization(net),
    )]


def _acquire(seed: int, steps: Optional[int]) -> list[ScenarioConfig]:
    """The fig9-10 preset: passive, uniform-heat and excite days."""
    configs = []
    for s in range(seed, seed + ACQUIRE_SEEDS):
        cfg = replace(
            acquisition_config(s, days=3, excitation=True, name="fig9-10-observability"),
            track_observability=True,
        )
        configs.append(cfg if steps is None else replace(cfg, duration_steps=steps))
    return configs


def _online(seed: int, steps: Optional[int]) -> list[ScenarioConfig]:
    """Estimator, MPC and the optimal selector on every step, from the true model."""
    return [ScenarioConfig(
        name="online",
        network=two_zone_example(),
        weather=acquisition_weather(),
        controller="mpc-with-excitation",
        estimator=True,
        duration_steps=MPC_STEPS if steps is None else steps,
        seed=seed,
        start_at_truth=True,
        force_mpc=True,
    )]


def fallbacks(report: RunReport) -> int:
    return sum(1 for e in report.events if e.kind == "mpc-failure")


def _check_mpc_week(reports, calls):
    failures = []
    for r in reports:
        modes = Counter(row.mode for row in r.trace.rows)
        other = set(modes) - {"mpc", "thermostat-fallback"}
        if other:
            failures.append(f"{r.name} seed {r.seed}: steps in modes {sorted(other)}")
        if modes["thermostat-fallback"] != fallbacks(r):
            failures.append(
                f"{r.name} seed {r.seed}: {modes['thermostat-fallback']} fallback steps "
                f"but {fallbacks(r)} mpc-failure events"
            )
    return failures


def _check_acquire(reports, calls):
    failures = []
    if calls["solver.solve"]:
        failures.append(f"acquire called the solver {calls['solver.solve']} times")
    if not any(e.kind == "experiment" for r in reports for e in r.events):
        failures.append("acquire started no experiment")
    return failures


def _check_online(reports, calls):
    failures = []
    if calls["excitation.select_optimal"] < 1:
        failures.append("online never called select_optimal")
    if calls["solver.phase1"] < 1 or calls["solver.solve.lp"] < 1:
        failures.append("online never reached the phase-one and LP solves")
    return failures


WORKLOADS = {
    w.name: w for w in (
        Workload("mpc-week", _mpc_week, _check_mpc_week),
        Workload("acquire", _acquire, _check_acquire),
        Workload("online", _online, _check_online),
    )
}
