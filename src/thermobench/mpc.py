"""Soft-constrained receding-horizon controller with an embedded cone solver.

The per-step optimization trades an RMS penalty on comfort-band violations
(slack variables) against total heater effort, plus a terminal pull toward
the band midpoint. Both RMS terms are second-order-cone representable, so
the problem is condensed onto the control and slack variables and handed to
the interior-point solver as a linear objective over box, band, and
epigraph-cone constraints. Soft constraints keep the problem feasible from
any start, however far outside the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverFailure, ValidationError
from .network import DiscreteDynamics
from .simulator import OccupancySchedule, WeatherModel, comfort_bounds, weather_forecast
from .solver import ConeConstraint, ConicProgram, solve


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 96
    Q: float = 10.0
    R: float = 1.0
    Q_togo: float = 1.0
    dt: float = 15.0
    solver_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if min(self.Q, self.R, self.Q_togo) < 0:
            raise ValidationError("weights must be non-negative")


@dataclass(frozen=True)
class MpcProblem:
    """Fully numeric horizon problem.

    ``forecast`` has one row per step (h, n_ext); ``r_min``/``r_max``/``r``
    are (h, n) aligned with the predicted temperatures T(1..h).
    """

    model: DiscreteDynamics
    T0: np.ndarray
    forecast: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    r: np.ndarray
    config: MpcConfig

    def __post_init__(self):
        h, n = self.config.horizon, self.model.n_internal
        if self.T0.shape != (n,):
            raise ValidationError("T0 has wrong shape")
        if self.forecast.shape != (h, len(self.model.external_ids)):
            raise ValidationError("forecast length must equal the horizon")
        for name in ("r_min", "r_max", "r"):
            if getattr(self, name).shape != (h, n):
                raise ValidationError(f"{name} must be (horizon, zones)")
        if not np.allclose(self.r, 0.5 * (self.r_min + self.r_max)):
            raise ValidationError("r must be the band midpoint")


@dataclass
class MpcSolution:
    u: np.ndarray          # (h, m) control sequence, row per step
    T_pred: np.ndarray     # (h, n) predicted temperatures T(1..h)
    w: np.ndarray          # (h, n) slack values
    cost: float
    status: str
    iterations: int
    kkt: dict

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


def build_mpc_problem(model: DiscreteDynamics, T0: np.ndarray, forecast: np.ndarray,
                      r_min: np.ndarray, r_max: np.ndarray, config: MpcConfig) -> MpcProblem:
    """Assemble the numeric problem; midpoints are derived here."""
    forecast = np.asarray(forecast, dtype=float)
    if forecast.ndim == 1:
        forecast = forecast[:, None]
    r_min = np.asarray(r_min, dtype=float)
    r_max = np.asarray(r_max, dtype=float)
    return MpcProblem(
        model=model,
        T0=np.asarray(T0, dtype=float),
        forecast=forecast,
        r_min=r_min,
        r_max=r_max,
        r=0.5 * (r_min + r_max),
        config=config,
    )


def prediction_matrices(model: DiscreteDynamics, T0: np.ndarray,
                        forecast: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked affine map from controls to temperatures: T(1..h) = G u + d.

    ``u`` is the time-major flattened control sequence (h*m,), the result
    rows are time-major temperatures (h*n,).
    """
    n = model.n_internal
    m = model.Gamma_ctrl.shape[1]
    powers = [np.eye(n)]
    for _ in range(h - 1):
        powers.append(model.Phi @ powers[-1])
    G = np.zeros((h * n, h * m))
    d = np.empty(h * n)
    acc = T0.copy()
    forced = np.zeros(n)
    for k in range(1, h + 1):
        forced = model.Phi @ forced + model.Gamma_ext @ forecast[k - 1]
        acc = model.Phi @ acc
        d[(k - 1) * n: k * n] = acc + forced
        for j in range(k):
            G[(k - 1) * n: k * n, j * m: (j + 1) * m] = powers[k - 1 - j] @ model.Gamma_ctrl
    return G, d


def _condense(problem: MpcProblem):
    cfg = problem.config
    h = cfg.horizon
    n = problem.model.n_internal
    m = problem.model.Gamma_ctrl.shape[1]
    G, d = prediction_matrices(problem.model, problem.T0, problem.forecast, h)
    nu, nw = h * m, h * n
    nvar = nu + nw + 2

    r_min = problem.r_min.reshape(-1)
    r_max = problem.r_max.reshape(-1)

    A = np.zeros((2 * nu + 3 * nw, nvar))
    b = np.empty(2 * nu + 3 * nw)
    row = 0
    A[row:row + nu, :nu] = -np.eye(nu)
    b[row:row + nu] = 0.0
    row += nu
    A[row:row + nu, :nu] = np.eye(nu)
    b[row:row + nu] = 1.0
    row += nu
    A[row:row + nw, nu:nu + nw] = -np.eye(nw)
    b[row:row + nw] = 0.0
    row += nw
    A[row:row + nw, :nu] = -G
    A[row:row + nw, nu:nu + nw] = -np.eye(nw)
    b[row:row + nw] = d - r_min
    row += nw
    A[row:row + nw, :nu] = G
    A[row:row + nw, nu:nu + nw] = -np.eye(nw)
    b[row:row + nw] = r_max - d

    c = np.zeros(nvar)
    c[:nu] = cfg.R
    c[nu + nw] = cfg.Q / np.sqrt(n * h)
    c[nu + nw + 1] = cfg.Q_togo / np.sqrt(n)

    cones = []
    F1 = np.zeros((nw, nvar))
    F1[:, nu:nu + nw] = np.eye(nw)
    d1 = np.zeros(nvar)
    d1[nu + nw] = 1.0
    cones.append(ConeConstraint(F=F1, g=np.zeros(nw), d=d1))

    if cfg.Q_togo > 0:
        # a zero-cost epigraph variable would make the problem degenerate,
        # so the terminal cone exists only when its weight does
        G_h = G[(h - 1) * n:, :]
        F2 = np.zeros((n, nvar))
        F2[:, :nu] = G_h
        d2 = np.zeros(nvar)
        d2[nu + nw + 1] = 1.0
        cones.append(ConeConstraint(F=F2, g=d[(h - 1) * n:] - problem.r[-1], d=d2))
    else:
        # pin the unused epigraph variable
        extra = np.zeros((2, nvar))
        extra[0, nu + nw + 1] = 1.0
        extra[1, nu + nw + 1] = -1.0
        A = np.vstack([A, extra])
        b = np.concatenate([b, [1.0, 0.0]])

    def gram(wts: np.ndarray) -> np.ndarray:
        s1 = wts[:nu]
        s2 = wts[nu:2 * nu]
        s3 = wts[2 * nu:2 * nu + nw]
        s4 = wts[2 * nu + nw:2 * nu + 2 * nw]
        s5 = wts[2 * nu + 2 * nw:2 * nu + 3 * nw]
        M = np.zeros((nvar, nvar))
        M[:nu, :nu] = G.T @ ((s4 + s5)[:, None] * G)
        M[:nu, :nu][np.diag_indices(nu)] += s1 + s2
        cross = G.T * (s4 - s5)[None, :]
        M[:nu, nu:nu + nw] = cross
        M[nu:nu + nw, :nu] = cross.T
        M[nu:nu + nw, nu:nu + nw] = np.diag(s3 + s4 + s5)
        extra = wts[2 * nu + 3 * nw:]
        if len(extra):
            M[nu + nw + 1, nu + nw + 1] += extra.sum()
        return M

    prog = ConicProgram(c=c, A=A, b=b, cones=tuple(cones), gram=gram)
    return prog, G, d


def _closed_form_cost(problem: MpcProblem, u_flat: np.ndarray,
                      G: np.ndarray, d: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    cfg = problem.config
    h = cfg.horizon
    n = problem.model.n_internal
    T = (G @ u_flat + d).reshape(h, n)
    w = np.maximum(problem.r_min - T, 0.0) + np.maximum(T - problem.r_max, 0.0)
    J = (
        cfg.Q * np.sqrt(np.sum(w * w) / (n * h))
        + cfg.R * float(np.sum(u_flat))
        + cfg.Q_togo * np.sqrt(np.sum((T[-1] - problem.r[-1]) ** 2) / n)
    )
    return float(J), T, w


def solve_mpc(problem: MpcProblem) -> MpcSolution:
    """Globally solve the horizon problem; soft slacks guarantee feasibility."""
    cfg = problem.config
    h = cfg.horizon
    n = problem.model.n_internal
    m = problem.model.Gamma_ctrl.shape[1]
    prog, G, d = _condense(problem)
    nu, nw = h * m, h * n

    try:
        sol = solve(prog, tol=cfg.solver_tol, max_iter=cfg.max_iter)
    except SolverFailure:
        return MpcSolution(
            u=np.zeros((h, m)), T_pred=d.reshape(h, n), w=np.zeros((h, n)),
            cost=np.inf, status="failed", iterations=0, kkt={},
        )

    u_flat = np.clip(sol.x[:nu], 0.0, 1.0)
    cost, T_pred, w = _closed_form_cost(problem, u_flat, G, d)
    status = sol.status
    if not sol.optimal and sol.gap <= 1e-6 * (1.0 + abs(cost)) and sol.max_violation <= 1e-7:
        # near a cone apex (zero optimal slack) the dual certificate can lag
        # while the primal is already converged; a vanished surrogate gap on
        # a feasible point is accepted as solved
        status = "optimal"
    return MpcSolution(
        u=u_flat.reshape(h, m),
        T_pred=T_pred,
        w=w,
        cost=cost,
        status=status,
        iterations=sol.iterations,
        kkt={
            "gap": sol.gap,
            "dual_residual": sol.dual_residual,
            "max_violation": sol.max_violation,
        },
    )


def horizon_bounds(sched: OccupancySchedule, t: float, h: int, dt: float,
                   n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    """Scheduled comfort bounds for T(1..h) starting at time t."""
    r_min = np.empty((h, n_zones))
    r_max = np.empty((h, n_zones))
    for k in range(1, h + 1):
        lo, hi = comfort_bounds(sched, t + k * dt, n_zones)
        r_min[k - 1] = lo
        r_max[k - 1] = hi
    return r_min, r_max


def mpc_step(
    model: DiscreteDynamics,
    measured_internal: np.ndarray,
    t: float,
    sched: OccupancySchedule,
    weather: WeatherModel,
    config: MpcConfig,
    r_min_override: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, MpcSolution]:
    """One receding-horizon step: solve from current measurements, return u(0).

    ``r_min_override`` is an (h, n) array of experiment-raised lower bounds
    (NaN where unmodified). A failed solve returns a zero command with the
    failure status so the caller can fall back to the thermostat.
    """
    h, n = config.horizon, model.n_internal
    r_min, r_max = horizon_bounds(sched, t, h, config.dt, n)
    if r_min_override is not None:
        mask = ~np.isnan(r_min_override)
        r_min[mask] = np.maximum(r_min[mask], r_min_override[mask])
    forecast = weather_forecast(weather, t, h, config.dt)
    problem = build_mpc_problem(model, measured_internal, forecast, r_min, r_max, config)
    solution = solve_mpc(problem)
    if not solution.converged:
        return np.zeros(model.Gamma_ctrl.shape[1]), solution
    return solution.u[0].copy(), solution
