"""Ground-truth plant: weather synthesis, occupancy schedule, integration, sensing.

Time is measured in minutes from the scenario start, which is taken to be
a Monday at 00:00. The plant integrates the true RC dynamics on a
one-minute grid with the ambient temperature held over each sub-step;
controllers act on a coarser control-step grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools

import numpy as np

from .errors import ValidationError
from .network import DiscreteDynamics, ThermalNetwork, discretize, minimal_parameterization

MINUTES_PER_DAY = 1440.0


@functools.lru_cache(maxsize=2)
def _day_noise(seed: int, day: int) -> np.ndarray:
    """Standard-normal draws for the minutes of one day, read-only.

    Two entries hold the most days one control step can touch.
    """
    draws = np.random.default_rng((seed, 0x5EED, day)).standard_normal(int(MINUTES_PER_DAY))
    draws.flags.writeable = False
    return draws


@dataclass(frozen=True)
class WeatherModel:
    """Ambient temperature: two sinusoids plus scripted bias and seeded noise.

    Amplitudes are peak-to-peak. ``bias_schedule`` is a piecewise-constant
    offset given as (start_minute, offset) breakpoints sorted ascending and
    starting at or before 0. The daily phase default puts the daily minimum
    at 06:00. Noise is white and constant over each whole minute. Minute m
    reads entry m mod 1440 of its day's block of draws, which one generator
    seeded by (seed, day) makes, so the noise is still a pure function of
    (seed, minute) and lookups are order-independent.
    """

    mean_temp: float
    daily_amp: float = 20.0
    daily_period: float = MINUTES_PER_DAY
    fast_amp: float = 5.0
    fast_period: float = 240.0
    bias_schedule: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    noise_std: float = 0.0
    seed: int = 0
    daily_phase: float = -np.pi
    fast_phase: float = 0.0

    def __post_init__(self):
        if self.daily_amp < 0 or self.fast_amp < 0 or self.noise_std < 0:
            raise ValidationError("weather amplitudes and noise must be non-negative")
        starts = [s for s, _ in self.bias_schedule]
        if not starts or starts[0] > 0 or sorted(starts) != starts:
            raise ValidationError("bias_schedule must be sorted and cover t >= 0")

    def bias(self, t):
        """Offset of the last breakpoint at or before t. Accepts scalar or array time."""
        starts, offsets = zip(*self.bias_schedule)
        idx = np.searchsorted(starts, t, side="right") - 1
        return np.asarray(offsets, dtype=float)[np.maximum(idx, 0)]

    def deterministic(self, t) -> np.ndarray:
        """Sinusoids plus bias, no noise. Accepts scalar or array time."""
        t = np.asarray(t, dtype=float)
        daily = 0.5 * self.daily_amp * np.sin(
            2.0 * np.pi * t / self.daily_period + self.daily_phase
        )
        fast = 0.5 * self.fast_amp * np.sin(
            2.0 * np.pi * t / self.fast_period + self.fast_phase
        )
        return self.mean_temp + daily + fast + self.bias(t)

    def noise(self, t):
        """Noise at time t (minutes); scalar or array time, an array reading each day's block once."""
        t = np.asarray(t, dtype=float)
        day, minute = np.divmod(np.floor(t).astype(int), int(MINUTES_PER_DAY))
        out = np.zeros(t.shape)
        for k in np.unique(day).tolist() if self.noise_std else ():
            out[day == k] = _day_noise(self.seed, k)[minute[day == k]] * self.noise_std
        return out if t.ndim else float(out)


def external_temperature(w: WeatherModel, t: float) -> float:
    """Realized ambient temperature at time t (minutes)."""
    return float(w.deterministic(t)) + w.noise(t)


def weather_forecast(w: WeatherModel, t0: float, horizon: int, dt: float) -> np.ndarray:
    """Forecast at the next ``horizon`` control steps starting at t0.

    The forecast keeps the daily sinusoid and bias but omits the fast
    sinusoid and the noise, so it degrades gracefully rather than matching
    the realized weather.
    """
    if horizon < 1:
        raise ValidationError("forecast horizon must be >= 1")
    times = t0 + dt * np.arange(horizon)
    daily = 0.5 * w.daily_amp * np.sin(
        2.0 * np.pi * times / w.daily_period + w.daily_phase
    )
    return w.mean_temp + daily + w.bias(times)


@dataclass(frozen=True)
class OccupancySchedule:
    """Occupied/unoccupied comfort bounds tied to a weekly clock.

    ``occupied_days`` are weekday indices (Monday=0). The occupied window is
    [start, end) in clock minutes, closed on the left so bounds switch exactly
    at the occupancy start instant.
    """

    occupied_days: tuple[int, ...] = (0, 1, 2, 3, 4)
    occupied_start: float = 8 * 60.0
    occupied_end: float = 18 * 60.0
    r_min_occ: float = 68.0
    r_max_occ: float = 72.0
    r_min_unocc: float = 60.0
    r_max_unocc: float = 80.0

    def __post_init__(self):
        if not (self.r_min_occ < self.r_max_occ and self.r_min_unocc < self.r_max_unocc):
            raise ValidationError("bounds must satisfy r_min < r_max")
        if not (self.r_min_unocc <= self.r_min_occ and self.r_max_occ <= self.r_max_unocc):
            raise ValidationError("occupied bounds must nest inside unoccupied bounds")

    def is_occupied(self, t):
        """Whether time t (minutes) is occupied. Accepts scalar or array time."""
        t = np.asarray(t, dtype=float)
        day = (t // MINUTES_PER_DAY % 7).astype(int)
        clock = t % MINUTES_PER_DAY
        weekly = np.array([d in self.occupied_days for d in range(7)])
        return weekly[day] & (self.occupied_start <= clock) & (clock < self.occupied_end)


def comfort_bounds(sched: OccupancySchedule, t: float, n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    """Active per-zone lower/upper comfort bounds at time t."""
    if sched.is_occupied(t):
        lo, hi = sched.r_min_occ, sched.r_max_occ
    else:
        lo, hi = sched.r_min_unocc, sched.r_max_unocc
    return np.full(n_zones, lo), np.full(n_zones, hi)


@dataclass(frozen=True)
class PlantState:
    """True node temperatures (all nodes, network order) and the clock."""

    true_temps: np.ndarray
    clock: float

    def __post_init__(self):
        object.__setattr__(self, "true_temps", np.asarray(self.true_temps, dtype=float))
        if not np.all(np.isfinite(self.true_temps)):
            raise ValidationError("non-finite plant temperature")


class PlantModel:
    """True-building integrator at a fixed one-minute sub-step."""

    SUBSTEP = 1.0

    def __init__(self, net: ThermalNetwork, substep: float = SUBSTEP):
        self.net = net
        self.substep = float(substep)
        self._disc = discretize(minimal_parameterization(net), net, self.substep)
        self._int_pos = [net.index_of(i) for i in self._disc.internal_ids]
        self._ext_pos = [net.index_of(i) for i in self._disc.external_ids]

    @property
    def discrete(self) -> DiscreteDynamics:
        return self._disc

    def initial_state(self, temps_by_id: dict[int, float], weather: WeatherModel) -> PlantState:
        """Start state; ``temps_by_id`` must name exactly the internal nodes."""
        if set(temps_by_id) != set(self._disc.internal_ids):
            raise ValidationError(f"initial temperatures must name nodes {self._disc.internal_ids}")
        temps = np.empty(len(self.net.nodes))
        for nid, value in temps_by_id.items():
            temps[self.net.index_of(nid)] = value
        for pos in self._ext_pos:
            temps[pos] = external_temperature(weather, 0.0)
        return PlantState(temps, 0.0)

    def step(self, state: PlantState, u: np.ndarray, weather: WeatherModel, dt: float) -> PlantState:
        """Advance the true plant by dt minutes under constant control input u."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise ValidationError("control input outside [0, 1]")
        if dt <= 0:
            raise ValidationError("dt must be positive")
        n_sub = int(round(dt / self.substep))
        if abs(n_sub * self.substep - dt) > 1e-9:
            raise ValidationError("dt must be a whole number of sub-steps")
        d = self._disc
        # each minute's ambient value is drawn once: a sub-step's end value
        # is the next sub-step's input
        times = state.clock + self.substep * np.arange(n_sub + 1)
        ambient = weather.deterministic(times) + weather.noise(times)
        t_ext = np.repeat(ambient[:, None], len(self._ext_pos), axis=1)
        drive = d.Gamma_ctrl @ u
        t_int = state.true_temps[self._int_pos]
        for k in range(n_sub):
            t_int = d.Phi @ t_int + d.Gamma_ext @ t_ext[k] + drive
        temps = state.true_temps.copy()
        temps[self._int_pos] = t_int
        temps[self._ext_pos] = ambient[-1]
        return PlantState(temps, float(times[-1]))


def measure(state: PlantState, noise_std: float, seed) -> np.ndarray:
    """Noisy temperature measurement of every node, reproducible per seed."""
    if noise_std < 0:
        raise ValidationError("noise_std must be non-negative")
    if noise_std == 0.0:
        return state.true_temps.copy()
    rng = np.random.default_rng(seed)
    return state.true_temps + rng.standard_normal(state.true_temps.shape) * noise_std


@dataclass
class TraceRow:
    """One control step of a closed-loop run."""

    step: int
    time: float
    true_temps: np.ndarray
    measured_temps: np.ndarray
    t_ext: float
    u: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    mode: str


@dataclass
class SimulationTrace:
    """Uniform-grid record of a closed-loop scenario run: temperatures by
    node, comfort bounds by zone, controls by heated zone."""

    dt: float
    node_ids: tuple[int, ...]
    zone_ids: tuple[int, ...]
    heated_ids: tuple[int, ...]
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows and abs(row.time - (self.rows[-1].time + self.dt)) > 1e-9:
            raise ValidationError("trace rows must advance by exactly dt")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)
