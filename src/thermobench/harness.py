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
    generate_montecarlo,
    montecarlo_candidates,
    select_heuristic,
    select_optimal,
    variational_candidates,
)
from .monitor import Monitor, MonitorEvent, MonitorPolicy, consensus_test
from .mpc import MpcConfig, horizon_bounds, mpc_step
from .network import (
    ParameterVector,
    ThermalNetwork,
    assemble_continuous,
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
    UkfConfig,
    UkfModel,
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
    excitation_method: str = "eigen"
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
    consensus_bank: int = 0

    def __post_init__(self):
        if self.controller not in ("thermostat", "mpc", "mpc-with-excitation"):
            raise ValidationError(f"unknown controller {self.controller!r}")
        if self.excitation_method not in (
            "eigen", "variational", "montecarlo",
            "heuristic-selector", "optimal-selector",
        ):
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
    weather_seed: int = 0
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
    past = None
    for rec in history:
        if rec.time >= cutoff:
            past = rec
            break
    if past is None or now.time - past.time < cfg.drift_window - 1e-9:
        return False
    drift = np.abs(now.means - past.means) / np.maximum(np.abs(now.means), 1e-300)
    return bool(np.all(drift < cfg.drift_tol))


def _acquisition_mode(t: float) -> str:
    day = int(t // 1440.0)
    if day == 0:
        return "passive"
    if day == 1:
        return "uniform-heat"
    return "excite"


def run_scenario(config: ScenarioConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Execute the closed loop and optionally write the result files."""
    net = config.network
    dt = config.dt
    truth = minimal_parameterization(net)
    plant = PlantModel(net)
    zones = list(plant.discrete.internal_ids)
    n_zones = len(zones)
    heated = list(plant.discrete.heated_ids)

    weather = replace(config.weather, seed=config.seed)
    plant_state = plant.initial_state(config.initial_temps, weather)

    # controller plumbing
    truth_model_15 = discretize(assemble_continuous(truth, net), dt)
    sched = config.schedule
    preheat = compute_preheat(truth_model_15, sched)
    th_cfg = ThermostatConfig(schedule=sched, preheat_minutes=preheat)
    th_state = ThermostatState.initial(len(heated))

    # estimator plumbing
    ukf_model = UkfModel(net, config.ukf) if config.estimator else None
    est_state = None
    monitor = None
    estimates: list[EstimateRecord] = []
    converged_at: Optional[float] = None
    if config.estimator:
        rng = np.random.default_rng((config.seed, 0xA11))
        if config.start_at_truth:
            seeded = truth
        else:
            lo, hi = config.param_seed_spread
            factors = rng.uniform(lo, hi, size=len(truth.p) + len(truth.q))
            seeded = truth.with_values(
                truth.p * factors[: len(truth.p)], truth.q * factors[len(truth.p):]
            )
        z0 = measure(plant_state, config.meas_noise_std, (config.seed, 0xE0, 0))
        est_state = initial_state(net, z0, seeded, config.ukf)
        monitor = Monitor(config.monitor, truth, seeded)
        # consensus bank: extra filters with independent parameter seeds that
        # see the same measurements; agreement is checked on a fixed cadence
        bank: list = []
        n_params = len(truth.p) + len(truth.q)
        for b in range(config.consensus_bank):
            bf = rng.uniform(*config.param_seed_spread, size=n_params)
            member_seed = truth.with_values(
                truth.p * bf[: len(truth.p)], truth.q * bf[len(truth.p):]
            )
            bank.append(initial_state(net, z0, member_seed, config.ukf))
        last_consensus = 0.0

    trace = SimulationTrace(dt=dt, node_ids=net.node_ids, zone_ids=tuple(zones))
    events = monitor.events if monitor is not None else []
    mc_cache: dict = {}
    selector = config.selector
    experiment: Optional[Experiment] = None
    u_prev = np.zeros(len(heated))
    status = "ok"
    mode = "thermostat"
    obs_temps: list[np.ndarray] = []
    obs_times: list[float] = []

    for k in range(config.duration_steps):
        t = k * dt
        r_min_now, r_max_now = comfort_bounds(sched, t, n_zones)
        z = measure(plant_state, config.meas_noise_std, (config.seed, 0xE0, k))

        # --- estimation ---------------------------------------------------
        if config.estimator:
            if k > 0:
                boost = monitor.noise_boost(t)
                try:
                    pred = predict(est_state, u_prev, dt, ukf_model, noise_scale=boost)
                    est_state = update(pred.state, z, ukf_model).state
                    est_state = monitor.observe(est_state, t, pred.clamped)
                    for b in range(len(bank)):
                        bp = predict(bank[b], u_prev, dt, ukf_model)
                        bank[b] = update(bp.state, z, ukf_model).state
                except (NumericalDegeneracyError, PhysicsViolationError,
                        np.linalg.LinAlgError) as exc:  # numerical degeneracy ends the run
                    status = f"degenerate: {exc}"
                    break
            if bank and t - last_consensus >= config.monitor.consensus_every and k > 0:
                last_consensus = t
                report_c = consensus_test(
                    [est_state] + bank, truth.param_names(),
                    config.monitor.consensus_threshold,
                )
                detail = "agree" if report_c.consensus else (
                    f"disagree (outlier filter {report_c.outlier()})"
                )
                monitor.events.append(MonitorEvent(t, "consensus", detail))
            means = np.concatenate([est_state.p, est_state.q])
            variances = np.abs(np.diag(est_state.P)[est_state.n_nodes:])
            nees = _temperature_nees(est_state, plant_state.true_temps)
            rec = EstimateRecord(t, means, variances, nees, est_state.converged)
            estimates.append(rec)
            if not est_state.converged and convergence_criterion(estimates, config.convergence):
                est_state = mark_converged(est_state)
                converged_at = t
                estimates[-1] = replace(rec, converged=True)
                monitor.events.append(MonitorEvent(t, "converged", ""))

        if config.track_observability:
            obs_temps.append(plant_state.true_temps.copy())
            obs_times.append(t)

        # --- era and model selection ---------------------------------------
        if config.frozen_params is not None:
            control_params = config.frozen_params
        elif config.estimator:
            control_params = truth.with_values(
                np.maximum(est_state.p, 1e-8), np.maximum(est_state.q, 1e-8)
            )
        else:
            control_params = truth
        mpc_allowed = config.force_mpc or (
            config.controller in ("mpc", "mpc-with-excitation")
            and (not config.estimator or est_state.converged)
        )

        protocol_mode = _acquisition_mode(t) if config.protocol else None
        excitation_on = (
            config.controller == "mpc-with-excitation"
            or (config.protocol == "acquisition" and protocol_mode == "excite")
        )

        # --- excitation -----------------------------------------------------
        if experiment is not None and not experiment.active(t, dt):
            experiment = None
        if excitation_on and experiment is None and config.estimator:
            experiment, selector = _try_excite(
                config, est_state, ukf_model, truth, net, z, t,
                r_min_now, r_max_now, selector, mpc_allowed, control_params,
                weather, sched, monitor, mc_cache,
            )

        override_now = None
        if experiment is not None:
            row = experiment.bounds_row(t, dt)
            if row is not None:
                override_now = row

        # --- control ---------------------------------------------------------
        mode = "thermostat"
        u = np.zeros(len(heated))
        if protocol_mode == "passive":
            mode = "protocol-passive"
        elif protocol_mode == "uniform-heat":
            occ = np.full(n_zones, sched.r_min_occ)
            u, th_state = thermostat_control(
                z[[net.index_of(z_id) for z_id in zones]], t, th_state, th_cfg,
                override_r_min=occ if override_now is None else np.fmax(occ, override_now),
            )
            mode = "protocol-uniform"
        elif mpc_allowed:
            model_est = discretize(assemble_continuous(control_params, net), dt)
            exp_override = _experiment_horizon_override(
                experiment, t, dt, config.mpc.horizon, n_zones
            )
            u, sol = mpc_step(
                model_est,
                z[[net.index_of(z_id) for z_id in zones]],
                t, sched, weather, config.mpc,
                r_min_override=exp_override,
            )
            if sol.converged:
                mode = "mpc"
            else:
                events.append(MonitorEvent(
                    t, "mpc-failure",
                    f"status={sol.status} iterations={sol.iterations} "
                    f"gap={sol.kkt.get('gap', float('nan')):.3e}",
                ))
                u, th_state = thermostat_control(
                    z[[net.index_of(z_id) for z_id in zones]], t, th_state, th_cfg,
                    override_r_min=override_now,
                )
                mode = "thermostat-fallback"
        else:
            u, th_state = thermostat_control(
                z[[net.index_of(z_id) for z_id in zones]], t, th_state, th_cfg,
                override_r_min=override_now,
            )
        if experiment is not None and override_now is not None:
            mode = "excitation"

        # --- plant ------------------------------------------------------------
        plant_state = plant.step(plant_state, u, weather, dt)
        trace.append(TraceRow(
            step=k, time=t,
            true_temps=plant_state.true_temps.copy(),
            measured_temps=z,
            t_ext=float(plant_state.true_temps[net.index_of(net.external_ids[0])]),
            u=u.copy(),
            r_min=r_min_now, r_max=r_max_now,
            mode=mode,
        ))
        u_prev = u

    metrics = compute_metrics(trace)
    observability = []
    if config.track_observability and obs_temps:
        observability = nullspace_trace(np.array(obs_temps), obs_times, truth, net)
    report = RunReport(
        name=config.name,
        seed=config.seed,
        metrics=metrics,
        trace=trace,
        estimates=estimates,
        events=list(events),
        param_names=truth.param_names(),
        final_params=estimates[-1].means if estimates else None,
        final_variances=estimates[-1].variances if estimates else None,
        truth_params=np.concatenate([truth.p, truth.q]),
        converged_at=converged_at,
        observability=observability,
        status=status,
        weather_seed=config.seed,
        duration_steps=config.duration_steps,
    )
    if out_dir is not None:
        write_report(report, config, Path(out_dir))
    return report


def _temperature_nees(est_state, true_temps) -> float:
    n = est_state.n_nodes
    err = est_state.x_hat[:n] - true_temps
    P = est_state.P[:n, :n]
    try:
        return float(err @ np.linalg.solve(P, err))
    except np.linalg.LinAlgError:
        return float("nan")


def _experiment_horizon_override(experiment, t, dt, horizon, n_zones):
    """Experiment bounds written onto the controller's horizon grid."""
    if experiment is None:
        return None
    override = np.full((horizon, n_zones), np.nan)
    any_set = False
    for k in range(1, horizon + 1):
        row = experiment.bounds_row(t + k * dt, dt)
        if row is not None:
            override[k - 1] = row
            any_set = True
    return override if any_set else None


def _candidates_for(config, est_state, truth, net, z, t, mc_cache):
    method = config.excitation_method
    pv_est = truth.with_values(
        np.maximum(est_state.p, 1e-8), np.maximum(est_state.q, 1e-8)
    )
    if method in ("eigen", "heuristic-selector", "optimal-selector"):
        return generate_eigen(parameter_covariance_block(est_state), pv_est, net)
    if method == "variational":
        return variational_candidates(pv_est, net, z)
    if method == "montecarlo":
        # the sampled closed-loop runs are expensive: re-rank once per day
        day = int(t // 1440.0)
        if day not in mc_cache:
            sens = generate_montecarlo(
                pv_est, parameter_covariance_block(est_state), net,
                replace(config.mpc, horizon=24), config.schedule, config.weather,
                np.array([est_state.temps[net.index_of(z_)] for z_ in net.internal_ids]),
                duration_steps=16, n_samples=6, seed=(config.seed, 0x3C, day),
            )
            mc_cache[day] = montecarlo_candidates(sens, pv_est, net)
        return mc_cache[day]
    raise ValidationError(f"unsupported excitation method {method!r}")


def _try_excite(config, est_state, ukf_model, truth, net, z, t,
                r_min_now, r_max_now, selector, mpc_allowed, control_params,
                weather, sched, monitor, mc_cache):
    """Generate candidates and ask the era-appropriate selector for an experiment."""
    candidates = _candidates_for(config, est_state, truth, net, z, t, mc_cache)
    model_est = discretize(assemble_continuous(control_params, net), config.dt)
    use_optimal = config.excitation_method == "optimal-selector" or (
        mpc_allowed and config.excitation_method != "heuristic-selector"
    )
    experiment = None
    if use_optimal and mpc_allowed:
        h = config.mpc.horizon
        r_min_h, r_max_h = horizon_bounds(sched, t, h, config.dt, len(r_min_now))
        forecast = weather_forecast(weather, t, h, config.dt)
        from .mpc import build_mpc_problem, solve_mpc
        baseline = solve_mpc(build_mpc_problem(
            model_est, z[[net.index_of(zid) for zid in model_est.internal_ids]],
            forecast, r_min_h, r_max_h, config.mpc,
        ))
        if baseline.converged:
            experiment, selector, diag = select_optimal(
                candidates, baseline, model_est,
                z[[net.index_of(zid) for zid in model_est.internal_ids]],
                forecast, r_min_h, r_max_h, selector, net, t,
            )
            if monitor is not None:
                gains = ",".join(f"{g:.3f}" for g in diag["gains"])
                monitor.events.append(MonitorEvent(
                    t, "selector",
                    f"optimal candidates={len(candidates)} gains=[{gains}] "
                    f"threshold={selector.threshold:.4f}",
                ))
    else:
        forecast = weather_forecast(weather, t, 4, config.dt)
        tried = 0
        for cand in candidates:
            tried += 1
            experiment = select_heuristic(
                cand, z, model_est, forecast, r_min_now, r_max_now, net, t,
                dt=config.dt,
            )
            if experiment is not None:
                break
        if monitor is not None and experiment is None:
            monitor.events.append(MonitorEvent(
                t, "selector", f"heuristic candidates={tried} no-gain"
            ))
    if experiment is not None and monitor is not None:
        monitor.events.append(MonitorEvent(t, "experiment", f"target={experiment.target}"))
    return experiment, selector


# ---------------------------------------------------------------------------
# serialization


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


def write_report(report: RunReport, config: ScenarioConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}

    trace_path = out_dir / "trace.csv"
    _write_trace(report.trace, trace_path)
    manifest["trace.csv"] = _sha256(trace_path)

    if report.estimates:
        est_path = out_dir / "estimates.csv"
        _write_estimates(report, est_path)
        manifest["estimates.csv"] = _sha256(est_path)

    if report.observability:
        obs_path = out_dir / "observability.csv"
        _write_observability(report, config, obs_path)
        manifest["observability.csv"] = _sha256(obs_path)

    events_path = out_dir / "events.log"
    with events_path.open("w", encoding="utf-8") as fh:
        for e in report.events:
            fh.write(f"t={_fmt(e.time)} {e.kind} {e.detail}\n".replace(" \n", "\n"))
    manifest["events.log"] = _sha256(events_path)

    report.manifest = manifest
    report_path = out_dir / "report.csv"
    with report_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        fh.write(f"name,{report.name}\n")
        fh.write(f"seed,{report.seed}\n")
        fh.write(f"duration_steps,{report.duration_steps}\n")
        fh.write(f"status,{report.status}\n")
        for key, value in report.metrics.as_dict().items():
            fh.write(f"{key},{_fmt(value)}\n")
        if report.final_params is not None:
            for name, value, var in zip(
                report.param_names, report.final_params, report.final_variances
            ):
                fh.write(f"estimate_{name},{_fmt(value)}\n")
                fh.write(f"variance_{name},{_fmt(var)}\n")
        fh.write(f"converged_at,{'' if report.converged_at is None else _fmt(report.converged_at)}\n")
        for fname, digest in sorted(manifest.items()):
            fh.write(f"sha256_{fname},{digest}\n")


def _write_trace(trace: SimulationTrace, path: Path) -> None:
    node_cols_true = [f"T{nid}_true" for nid in trace.node_ids]
    node_cols_meas = [f"T{nid}_meas" for nid in trace.node_ids]
    zone_u = [f"u_zone{zid}" for zid in trace.zone_ids]
    zone_rmin = [f"r_min_zone{zid}" for zid in trace.zone_ids]
    zone_rmax = [f"r_max_zone{zid}" for zid in trace.zone_ids]
    header = (
        ["step", "time"] + node_cols_true + node_cols_meas + ["T_ext"]
        + zone_u + zone_rmin + zone_rmax + ["mode"]
    )
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in trace.rows:
            cells = [str(row.step), _fmt(row.time)]
            cells += [_fmt(v) for v in row.true_temps]
            cells += [_fmt(v) for v in row.measured_temps]
            cells.append(_fmt(row.t_ext))
            cells += [_fmt(v) for v in row.u]
            cells += [_fmt(v) for v in row.r_min]
            cells += [_fmt(v) for v in row.r_max]
            cells.append(row.mode)
            fh.write(",".join(cells) + "\n")


def _write_estimates(report: RunReport, path: Path) -> None:
    names = report.param_names
    header = ["time"] + [f"mean_{n}" for n in names] + [f"var_{n}" for n in names]
    header += ["nees", "converged"]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rec in report.estimates:
            cells = [_fmt(rec.time)]
            cells += [_fmt(v) for v in rec.means]
            cells += [_fmt(v) for v in rec.variances]
            cells.append(_fmt(rec.nees))
            cells.append("1" if rec.converged else "0")
            fh.write(",".join(cells) + "\n")


def _write_observability(report: RunReport, config: ScenarioConfig, path: Path) -> None:
    truth = minimal_parameterization(config.network)
    names = coordinate_names(truth, config.network)
    header = ["time", "rank"] + [f"null_{n}" for n in names]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for snap in report.observability:
            cells = [_fmt(snap.time), str(snap.rank)]
            cells += [_fmt(v) for v in snap.coordinate_magnitudes]
            fh.write(",".join(cells) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Comparison:
    rows: list[tuple[str, float, float, float]]

    @classmethod
    def of(cls, pairs) -> "Comparison":
        """Rows from (metric, a, b) triples; b/a, where 0/0 reads as no change."""
        return cls([
            (key, a, b, b / a if a != 0 else (1.0 if b == 0 else float("inf")))
            for key, a, b in pairs
        ])

    def table(self) -> str:
        lines = [f"{'metric':<22}{'a':>14}{'b':>14}{'b/a':>10}"]
        for name, a, b, ratio in self.rows:
            lines.append(f"{name:<22}{a:>14.6g}{b:>14.6g}{ratio:>10.4f}")
        return "\n".join(lines)

    def ratio(self, metric: str) -> float:
        for name, _, _, r in self.rows:
            if name == metric:
                return r
        raise KeyError(metric)

    def write_csv(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("metric,a,b,ratio\n")
            for name, a, b, ratio in self.rows:
                fh.write(f"{name},{_fmt(a)},{_fmt(b)},{_fmt(ratio)}\n")


def compare_runs(a: RunReport, b: RunReport) -> Comparison:
    """Side-by-side metrics of two runs over the same scenario conditions."""
    if a.duration_steps != b.duration_steps:
        raise ValidationError("runs have different durations")
    if a.weather_seed != b.weather_seed:
        raise ValidationError("runs saw different weather")
    da, db = a.metrics.as_dict(), b.metrics.as_dict()
    return Comparison.of((key, float(da[key]), float(db[key])) for key in da)
