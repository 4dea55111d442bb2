"""Baseline thermostat: per-heater bang-bang with preheat lead and a hysteresis timer.

The thermostat regulates each heated zone about the active lower comfort
bound: heater on below the bound, off once the temperature clears the bound
plus a deadband. Occupied bounds are activated early by a per-heater preheat
lead sized offline at a design ambient temperature, and switch events are
separated by a minimum dwell so the controller cannot chatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreheatSizingError, ValidationError
from .network import DiscreteDynamics
from .simulator import OccupancySchedule


@dataclass(frozen=True)
class ThermostatConfig:
    schedule: OccupancySchedule
    preheat_minutes: tuple[float, ...]
    hysteresis_minutes: float = 15.0
    deadband: float = 1.0

    def __post_init__(self):
        if any(p < 0 for p in self.preheat_minutes):
            raise ValidationError("preheat durations must be non-negative")
        if self.hysteresis_minutes < 0:
            raise ValidationError("hysteresis must be non-negative")


@dataclass(frozen=True)
class ThermostatState:
    """Per-heater actuator memory: last output and last switch instant."""

    u_prev: np.ndarray
    last_switch: np.ndarray

    @classmethod
    def initial(cls, n_heaters: int) -> "ThermostatState":
        return cls(np.zeros(n_heaters), np.full(n_heaters, -np.inf))


def compute_preheat(model: DiscreteDynamics, sched: OccupancySchedule,
                    design_ext_temp: float = 32.0,
                    max_hours: float = 48.0) -> tuple[float, ...]:
    """Size the per-heater preheat lead at the design ambient temperature.

    Simulates the building from the unoccupied lower set point with every
    heater at full output and the ambient held at ``design_ext_temp``,
    records when each heated zone first reaches the occupied lower set
    point, and rounds those times up to whole steps of the model.
    """
    heated = [model.internal_ids.index(z) for z in model.heated_ids]
    temps = np.full(model.n_internal, sched.r_min_unocc)
    t_ext = np.full(len(model.external_ids), design_ext_temp)
    u = np.ones(len(heated))
    reach = np.full(len(heated), np.nan)
    reach[temps[heated] >= sched.r_min_occ] = 0.0
    t = 0.0
    while t < max_hours * 60.0:
        temps = model.Phi @ temps + model.Gamma_ext @ t_ext + model.Gamma_ctrl @ u
        t += model.dt
        newly = (temps[heated] >= sched.r_min_occ) & np.isnan(reach)
        reach[newly] = t
        if not np.any(np.isnan(reach)):
            break
    if np.any(np.isnan(reach)):
        zone = int(np.array(model.heated_ids)[np.isnan(reach)][0])
        raise PreheatSizingError(
            zone,
            f"zone {zone} cannot reach {sched.r_min_occ} at ambient "
            f"{design_ext_temp} within {max_hours} h",
        )
    steps = np.ceil(reach / model.dt - 1e-9)
    return tuple(float(s * model.dt) for s in steps)


def active_lower_bounds(cfg: ThermostatConfig, t: float, n_heaters: int) -> np.ndarray:
    """Lower bounds seen by the thermostat, one per heater: the occupied
    bound once t or t plus the heater's preheat lead is occupied."""
    sched = cfg.schedule
    times = np.full(n_heaters + 1, t)
    preheat = cfg.preheat_minutes[:n_heaters]
    times[1:len(preheat) + 1] += preheat
    occupied = sched.is_occupied(times)
    return np.where(occupied[0] | occupied[1:], sched.r_min_occ, sched.r_min_unocc)


def thermostat_control(
    measured: np.ndarray,
    t: float,
    state: ThermostatState,
    cfg: ThermostatConfig,
    override_r_min: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, ThermostatState]:
    """One bang-bang decision. Returns the binary command and updated memory.

    ``measured`` holds the heated zones' temperatures in heater order. An
    experiment may raise individual lower bounds through ``override_r_min``,
    also in heater order; the larger of the scheduled (preheat-shifted) and
    override bound is regulated.
    """
    measured = np.asarray(measured, dtype=float)
    n = len(measured)
    r_min = active_lower_bounds(cfg, t, n)
    if override_r_min is not None:
        r_min = np.fmax(r_min, override_r_min)  # NaN entries leave the bound alone
    u = state.u_prev.copy()
    last = state.last_switch.copy()
    for i in range(n):
        if u[i] >= 0.5:
            want = 0.0 if measured[i] > r_min[i] + cfg.deadband else 1.0
        else:
            want = 1.0 if measured[i] < r_min[i] else 0.0
        if want != u[i]:
            if t - last[i] >= cfg.hysteresis_minutes:
                u[i] = want
                last[i] = t
    return u, ThermostatState(u, last)
