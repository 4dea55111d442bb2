"""Scenario configuration, the closed-loop driver, and result export.

One scenario is one closed-loop run: measure, estimate, guard, maybe
excite, control, advance the plant. The controller starts as a thermostat
and hands over to the predictive controller once the estimator has
converged (or immediately, when a run deliberately forces a model). All
randomness derives from the scenario seed, so identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    ScenarioMetrics,
    compute_metrics,
    coordinate_names,
    nullspace_trace,
)
from .errors import NumericalDegeneracyError, PhysicsViolationError, ValidationError
from .excitation import (
    Experiment,
    SelectorState,
    generate_eigen,
    select_heuristic,
    select_optimal,
)
from .monitor import Monitor, MonitorEvent, MonitorPolicy
from .mpc import MpcConfig, MpcSolution, mpc_step
from .network import (
    DiscreteDynamics,
    ParameterVector,
    ThermalNetwork,
    discretize,
    minimal_parameterization,
)
from .simulator import (
    OccupancySchedule,
    PlantModel,
    SimulationTrace,
    TraceRow,
    WeatherModel,
    comfort_bounds,
    measure,
    weather_forecast,
)
from .thermostat import ThermostatConfig, ThermostatState, compute_preheat, thermostat_control
from .ukf import (
    PARAM_FLOOR,
    UkfConfig,
    UkfModel,
    UkfState,
    initial_state,
    mark_converged,
    parameter_covariance_block,
    predict,
    update,
)

FLOAT_FMT = "%.9g"


@dataclass(frozen=True)
class ConvergenceConfig:
    cov_tol: float = 0.05
    drift_tol: float = 0.01
    drift_window: float = 720.0   # minutes
    min_history: float = 1440.0   # minutes before the test may pass


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    network: ThermalNetwork
    weather: WeatherModel
    schedule: OccupancySchedule = OccupancySchedule()
    controller: str = "thermostat"   # thermostat | mpc | mpc-with-excitation
    estimator: bool = True
    ukf: UkfConfig = UkfConfig()
    mpc: MpcConfig = MpcConfig()
    excitation_method: str = "eigen"  # eigen | heuristic-selector
    duration_steps: int = 96
    dt: float = 15.0
    seed: int = 0
    initial_temps: dict = field(default_factory=lambda: {1: 70.0, 2: 70.0})
    protocol: Optional[str] = None   # None | acquisition | acquisition-no-excitation
    param_seed_spread: tuple[float, float] = (0.5, 2.0)
    start_at_truth: bool = False
    force_mpc: bool = False
    frozen_params: Optional[ParameterVector] = None
    monitor: MonitorPolicy = MonitorPolicy()
    convergence: ConvergenceConfig = ConvergenceConfig()
    selector: SelectorState = SelectorState()
    meas_noise_std: float = 0.1
    track_observability: bool = False

    def __post_init__(self):
        if self.controller not in ("thermostat", "mpc", "mpc-with-excitation"):
            raise ValidationError(f"unknown controller {self.controller!r}")
        if self.excitation_method not in ("eigen", "heuristic-selector"):
            raise ValidationError(f"unknown excitation method {self.excitation_method!r}")
        if self.duration_steps < 0:
            raise ValidationError("duration must be non-negative")
        if self.protocol not in (None, "acquisition", "acquisition-no-excitation"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")


@dataclass
class EstimateRecord:
    time: float
    means: np.ndarray
    variances: np.ndarray
    nees: float
    converged: bool


@dataclass
class RunReport:
    name: str
    seed: int
    metrics: ScenarioMetrics
    trace: SimulationTrace
    estimates: list[EstimateRecord]
    events: list
    param_names: tuple[str, ...]
    final_params: Optional[np.ndarray]
    final_variances: Optional[np.ndarray]
    truth_params: np.ndarray
    converged_at: Optional[float]
    observability: list
    status: str
    manifest: dict = field(default_factory=dict)
    duration_steps: int = 0

    def final_estimate_vector(self, template: ParameterVector) -> ParameterVector:
        n_p = len(template.p)
        return template.with_values(self.final_params[:n_p], self.final_params[n_p:])


def convergence_criterion(
    history: Sequence[EstimateRecord],
    cfg: ConvergenceConfig = ConvergenceConfig(),
) -> bool:
    """Converged when every coefficient of variation is small and the means
    have stopped moving over the trailing window."""
    if not history:
        return False
    now = history[-1]
    if now.time - history[0].time < cfg.min_history:
        return False
    cov = np.sqrt(now.variances) / np.maximum(np.abs(now.means), 1e-300)
    if np.any(cov >= cfg.cov_tol):
        return False
    cutoff = now.time - cfg.drift_window
    past = next((rec for rec in history if rec.time >= cutoff), None)
    if past is None or now.time - past.time < cfg.drift_window - 1e-9:
        return False
    drift = np.abs(now.means - past.means) / np.maximum(np.abs(now.means), 1e-300)
    return bool(np.all(drift < cfg.drift_tol))


def step_policy(config: ScenarioConfig, t: float, converged: bool) -> tuple[str, Optional[str]]:
    """The one controller decision of a step: its mode, and the selector that
    may start an experiment.

    The mode is ``protocol-passive``, ``protocol-uniform``, ``thermostat`` or
    ``mpc`` (the trace label before a fallback or an experiment relabels it).
    The selector is ``optimal``, ``heuristic`` or None. MPC is allowed when
    forced, or for an MPC controller once the estimator, if any, converged.
    """
    phase = None
    if config.protocol:
        phase = ("protocol-passive", "protocol-uniform", "excite")[min(int(t // 1440.0), 2)]
    mpc_allowed = config.force_mpc or (
        config.controller != "thermostat" and (not config.estimator or converged)
    )
    mode = "mpc" if mpc_allowed else "thermostat"
    if phase in ("protocol-passive", "protocol-uniform"):
        mode = phase
    selector = None
    if config.estimator and (
        config.controller == "mpc-with-excitation"
        or (config.protocol == "acquisition" and phase == "excite")
    ):
        optimal = mpc_allowed and config.excitation_method != "heuristic-selector"
        selector = "optimal" if optimal else "heuristic"
    return mode, selector


# the heuristic selector looks as many steps ahead as its forecast is long
HEURISTIC_STEPS = 4


def _seeded(truth: ParameterVector, rng, spread) -> ParameterVector:
    """``truth`` with each RC product scaled by a factor drawn from ``spread``."""
    n_p = len(truth.p)
    factors = rng.uniform(*spread, size=n_p + len(truth.q))
    return truth.with_values(truth.p * factors[:n_p], truth.q * factors[n_p:])


class _Run:
    """What the closed loop carries from one step to the next, as at t = 0."""

    def __init__(self, config: ScenarioConfig):
        net = config.network
        self.config = config
        self.truth = truth = minimal_parameterization(net)
        self.plant = PlantModel(net)
        self.weather = replace(config.weather, seed=config.seed)
        self.plant_state = self.plant.initial_state(config.initial_temps, self.weather)
        truth_model = discretize(truth, net, config.dt)
        self.th_cfg = ThermostatConfig(config.schedule,
                                       compute_preheat(truth_model, config.schedule))
        # the control model, when it does not follow the estimate
        self.fixed_model: Optional[DiscreteDynamics] = None
        frozen = config.frozen_params
        if frozen is not None:
            self.fixed_model = discretize(frozen, net, config.dt)
        elif not config.estimator:
            self.fixed_model = truth_model
        zones, heated = net.internal_ids, net.heated_ids
        self.zone_rows = np.array([net.index_of(z_id) for z_id in zones])
        # the heated zones' positions among the zones: the thermostat's rows
        self.heated = np.array([zones.index(z_id) for z_id in heated], dtype=int)
        self.th_state = ThermostatState.initial(len(heated))
        self.u_prev = np.zeros(len(heated))
        self.trace = SimulationTrace(dt=config.dt, node_ids=net.node_ids, zone_ids=zones,
                                     heated_ids=heated)
        self.selector = config.selector
        # the latest MPC solution, which the next solve starts from
        self.last_mpc: Optional[MpcSolution] = None
        self.experiment: Optional[Experiment] = None
        self.obs_temps: list = []
        self.obs_times: list = []
        self.estimates: list[EstimateRecord] = []
        self.events: list = []
        self.converged_at: Optional[float] = None
        self.status = "ok"
        if config.estimator:
            rng = np.random.default_rng((config.seed, 0xA11))
            seeded = (truth if config.start_at_truth
                      else _seeded(truth, rng, config.param_seed_spread))
            z0 = measure(self.plant_state, config.meas_noise_std, (config.seed, 0xE0, 0))
            self.ukf_model = UkfModel(net, config.ukf)
            self.est_state: UkfState = initial_state(net, z0, seeded, config.ukf)
            self.monitor = Monitor(config.monitor, truth, seeded)
            self.events = self.monitor.events


@dataclass
class _Step:
    """One step's shared inputs and what its stages decided."""

    k: int
    t: float
    z: np.ndarray                     # measured node temperatures
    temps: np.ndarray                 # measured zone temperatures
    r_min: np.ndarray
    r_max: np.ndarray
    mode: str
    selector: Optional[str]
    model: Optional[DiscreteDynamics] = None
    mpc: Optional[tuple] = None       # (u, solution) of the step's last mpc_step


def run_scenario(config: ScenarioConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Execute the closed loop and optionally write the result files."""
    run = _Run(config)
    for k in range(config.duration_steps):
        step = _estimate(run, k)
        if step is None:
            break
        _excite(run, step)
        u, mode = _control(run, step)
        _advance_plant(run, step, u, mode)

    metrics = compute_metrics(run.trace)
    observability = []
    if config.track_observability and run.obs_temps:
        observability = nullspace_trace(
            np.array(run.obs_temps), run.obs_times, run.truth, config.network
        )
    last = run.estimates[-1] if run.estimates else None
    report = RunReport(
        name=config.name,
        seed=config.seed,
        metrics=metrics,
        trace=run.trace,
        estimates=run.estimates,
        events=list(run.events),
        param_names=run.truth.param_names(),
        final_params=last.means if last else None,
        final_variances=last.variances if last else None,
        truth_params=np.concatenate([run.truth.p, run.truth.q]),
        converged_at=run.converged_at,
        observability=observability,
        status=run.status,
        duration_steps=config.duration_steps,
    )
    if out_dir is not None:
        write_report(report, config, Path(out_dir))
    return report


def _estimate(run: _Run, k: int) -> Optional[_Step]:
    """Measure, filter, guard and test convergence, then decide the step's
    policy. None when the estimator degenerates, which ends the run."""
    config = run.config
    t = k * config.dt
    r_min, r_max = comfort_bounds(config.schedule, t, len(run.zone_rows))
    z = measure(run.plant_state, config.meas_noise_std, (config.seed, 0xE0, k))
    converged = False
    if config.estimator:
        monitor = run.monitor
        if k > 0:
            try:
                pred = predict(run.est_state, run.u_prev, config.dt, run.ukf_model,
                               noise_scale=monitor.noise_boost(t))
                run.est_state = update(pred.state, z, run.ukf_model).state
                run.est_state = monitor.observe(run.est_state, t, pred.clamped)
            except (NumericalDegeneracyError, PhysicsViolationError,
                    np.linalg.LinAlgError) as exc:  # numerical degeneracy ends the run
                run.status = f"degenerate: {exc}"
                return None
        est = run.est_state
        rec = EstimateRecord(
            t, np.concatenate([est.p, est.q]), np.abs(np.diag(est.P)[est.n_nodes:]),
            _temperature_nees(est, run.plant_state.true_temps), est.converged,
        )
        run.estimates.append(rec)
        if not est.converged and convergence_criterion(run.estimates, config.convergence):
            run.est_state = mark_converged(est)
            run.converged_at = t
            run.estimates[-1] = replace(rec, converged=True)
            run.events.append(MonitorEvent(t, "converged", ""))
        converged = run.est_state.converged

    if config.track_observability:
        run.obs_temps.append(run.plant_state.true_temps.copy())
        run.obs_times.append(t)
    mode, selector = step_policy(config, t, converged)
    return _Step(k, t, z, z[run.zone_rows], r_min, r_max, mode, selector)


def _excite(run: _Run, step: _Step) -> None:
    """Retire a finished experiment; when the policy names a selector and none
    runs, ask it for one. The optimal selector's baseline is the step's own
    MPC solution, which the control stage reuses when no experiment starts."""
    config = run.config
    if run.experiment is not None and not run.experiment.active(step.t, config.dt):
        run.experiment = None
    if step.selector is None or run.experiment is not None:
        return
    t, events = step.t, run.events
    candidates = generate_eigen(
        parameter_covariance_block(run.est_state), _estimated_params(run), config.network
    )
    model = _control_model(run, step)
    if step.selector == "optimal":
        step.mpc = mpc_step(model, step.temps, t, config.schedule, run.weather, config.mpc,
                            previous=run.last_mpc)
        baseline = run.last_mpc = step.mpc[1]
        if baseline.converged:
            run.experiment, run.selector, diag = select_optimal(
                candidates, baseline, run.selector, config.network, t,
            )
            gains = ",".join(f"{g:.3f}" for g in diag["gains"])
            events.append(MonitorEvent(
                t, "selector",
                f"optimal candidates={len(candidates)} gains=[{gains}] "
                f"threshold={run.selector.threshold:.4f}",
            ))
    else:
        forecast = weather_forecast(run.weather, t, HEURISTIC_STEPS, config.dt)
        for cand in candidates:
            run.experiment = select_heuristic(
                cand, step.z, model, forecast, step.r_min, step.r_max, config.network, t,
            )
            if run.experiment is not None:
                break
        else:
            events.append(MonitorEvent(
                t, "selector", f"heuristic candidates={len(candidates)} no-gain"
            ))
    if run.experiment is not None:
        events.append(MonitorEvent(t, "experiment", f"target={run.experiment.target}"))


def _control(run: _Run, step: _Step) -> tuple[np.ndarray, str]:
    """The step's heater command and trace label: a failed MPC solve falls
    back to the thermostat, and a step inside an experiment is so labelled."""
    config = run.config
    exp = run.experiment  # active at step.t: _excite retires a finished one
    override = None if exp is None else exp.lower_bounds(step.t, config.dt)[0, run.heated]
    mode = step.mode
    u = np.zeros(len(run.u_prev))
    if mode == "mpc":
        horizon = None if exp is None else exp.lower_bounds(
            step.t, config.dt, config.mpc.horizon, first=1)
        if step.mpc is None or horizon is not None:
            step.mpc = mpc_step(
                _control_model(run, step), step.temps, step.t, config.schedule,
                run.weather, config.mpc, r_min_override=horizon, previous=run.last_mpc,
            )
        u, sol = step.mpc
        run.last_mpc = sol
        if not sol.converged:
            run.events.append(MonitorEvent(
                step.t, "mpc-failure",
                f"status={sol.status} iterations={sol.iterations} "
                f"gap={sol.gap:.3e}",
            ))
            mode = "thermostat-fallback"
    elif mode == "protocol-uniform":
        occ = np.full(len(run.heated), config.schedule.r_min_occ)
        override = occ if override is None else np.fmax(occ, override)
    if mode in ("thermostat", "thermostat-fallback", "protocol-uniform"):
        u, run.th_state = thermostat_control(
            step.temps[run.heated], step.t, run.th_state, run.th_cfg, override_r_min=override,
        )
    return u, mode if exp is None else "excitation"


def _advance_plant(run: _Run, step: _Step, u: np.ndarray, mode: str) -> None:
    """Apply the command for one step and record it."""
    net = run.config.network
    run.plant_state = run.plant.step(run.plant_state, u, run.weather, run.config.dt)
    run.trace.append(TraceRow(
        step=step.k, time=step.t,
        true_temps=run.plant_state.true_temps.copy(),
        measured_temps=step.z,
        t_ext=float(run.plant_state.true_temps[net.index_of(net.external_ids[0])]),
        u=u.copy(),
        r_min=step.r_min, r_max=step.r_max,
        mode=mode,
    ))
    run.u_prev = u


def _temperature_nees(est_state, true_temps) -> float:
    n = est_state.n_nodes
    err = est_state.x_hat[:n] - true_temps
    P = est_state.P[:n, :n]
    try:
        return float(err @ np.linalg.solve(P, err))
    except np.linalg.LinAlgError:
        return float("nan")


def _estimated_params(run: _Run) -> ParameterVector:
    est = run.est_state
    return run.truth.with_values(np.maximum(est.p, PARAM_FLOOR), np.maximum(est.q, PARAM_FLOOR))


def _control_model(run: _Run, step: _Step) -> DiscreteDynamics:
    """The step's control model, built at most once per step (once per run
    when it does not follow the estimate)."""
    if step.model is None:
        step.model = run.fixed_model if run.fixed_model is not None else discretize(
            _estimated_params(run), run.config.network, run.config.dt)
    return step.model


# ---------------------------------------------------------------------------
# serialization


def _csv(header: Sequence[str], rows) -> list[str]:
    """CSV lines: a float cell in ``FLOAT_FMT``, None empty, any other as str."""
    return [",".join(header)] + [
        ",".join([FLOAT_FMT % v if isinstance(v, float) else "" if v is None else str(v)
                  for v in row]) for row in rows]


def write_lines(path: Path, lines) -> str:
    """Write ``lines`` to ``path`` with "\n" endings; the sha256 of the bytes."""
    data = "".join(f"{line}\n" for line in lines).encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def summary_rows(report: RunReport) -> list[tuple[str, object]]:
    """report.csv's key/value rows before its file digests: the run's name,
    seed, duration and status, its metrics, the final estimates and variances
    (when estimated) and converged_at (None when it never converged)."""
    rows = [("name", report.name), ("seed", report.seed),
            ("duration_steps", report.duration_steps), ("status", report.status)]
    rows += report.metrics.as_dict().items()
    if report.final_params is not None:
        for name, value, var in zip(report.param_names, report.final_params,
                                    report.final_variances):
            rows += [(f"estimate_{name}", value), (f"variance_{name}", var)]
    return rows + [("converged_at", report.converged_at)]


def write_report(report: RunReport, config: ScenarioConfig, out_dir: Path) -> None:
    """Write each output file of ``report`` into ``out_dir``; report.csv, the
    last, lists the sha256 of every other one."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trace, names = report.trace, report.param_names
    tables = {
        "trace.csv": _csv(
            ["step", "time", *(f"T{i}_{kind}" for kind in ("true", "meas") for i in trace.node_ids),
             "T_ext", *(f"u_zone{i}" for i in trace.heated_ids),
             *(f"r_{end}_zone{i}" for end in ("min", "max") for i in trace.zone_ids), "mode"],
            ([r.step, r.time, *r.true_temps, *r.measured_temps, r.t_ext, *r.u, *r.r_min,
              *r.r_max, r.mode] for r in trace.rows)),
        "estimates.csv": None if not report.estimates else _csv(
            ["time", *(f"mean_{n}" for n in names), *(f"var_{n}" for n in names),
             "nees", "converged"],
            ([e.time, *e.means, *e.variances, e.nees, int(e.converged)]
             for e in report.estimates)),
        "observability.csv": None if not report.observability else _csv(
            ["time", "rank", *(f"null_{n}" for n in coordinate_names(
                minimal_parameterization(config.network), config.network))],
            ([s.time, s.rank, *s.coordinate_magnitudes] for s in report.observability)),
        "events.log": [f"t={FLOAT_FMT % e.time} {e.kind} {e.detail}".removesuffix(" ")
                       for e in report.events],
    }
    report.manifest = {name: write_lines(out_dir / name, lines)
                       for name, lines in tables.items() if lines is not None}
    write_lines(out_dir / "report.csv", _csv(["key", "value"], summary_rows(report) + [
        (f"sha256_{name}", digest) for name, digest in sorted(report.manifest.items())]))


@dataclass
class Comparison:
    rows: list[tuple[str, float, float, float]]   # (row, a, b, b/a); 0/0 reads as 1

    def table(self) -> str:
        lines = [f"{'metric':<22}{'a':>14}{'b':>14}{'b/a':>10}"]
        for name, a, b, ratio in self.rows:
            lines.append(f"{name:<22}{a:>14.6g}{b:>14.6g}{ratio:>10.4f}")
        return "\n".join(lines)

    def csv(self) -> list[str]:
        return _csv(["metric", "a", "b", "ratio"], self.rows)


def compare_summaries(a: dict, b: dict) -> Comparison:
    """The comparison of two runs' summary rows, as ``summary_rows`` gives them
    or as read back from report.csv. The runs must share their duration and
    seed (so the weather). Compared is every row after name, seed,
    duration_steps and status whose value is a number in both runs: the
    metrics, the final estimates and variances, and converged_at when both
    converged."""
    for key, what in (("duration_steps", "durations"), ("seed", "weather seeds")):
        if a.get(key) != b.get(key):
            raise ValidationError(f"runs have different {what}")
    rows = []
    for key, value in a.items():
        if key in ("name", "seed", "duration_steps", "status") or key.startswith("sha256_"):
            continue
        try:
            va, vb = float(value), float(b[key])
        except (KeyError, TypeError, ValueError):
            continue
        rows.append((key, va, vb, vb / va if va != 0 else (1.0 if vb == 0 else float("inf"))))
    return Comparison(rows)


def compare_runs(a: RunReport, b: RunReport) -> Comparison:
    """Side-by-side summary rows of two runs over the same scenario conditions."""
    return compare_summaries(dict(summary_rows(a)), dict(summary_rows(b)))
