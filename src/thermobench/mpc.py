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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dsyr

from .errors import SolverFailure, ValidationError
from .network import DiscreteDynamics
from .simulator import MINUTES_PER_DAY, OccupancySchedule, WeatherModel, weather_forecast
from .solver import ConicProgram, RowOperator, factor_newton, solve


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 96
    Q: float = 10.0
    R: float = 1.0
    Q_togo: float = 1.0
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
    are (h, n) aligned with the predicted temperatures T(1..h), and ``t`` is
    the time of T0, which says how far apart two problems' horizons start.
    """

    model: DiscreteDynamics
    T0: np.ndarray
    forecast: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    r: np.ndarray
    config: MpcConfig
    t: float = 0.0

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
    problem: MpcProblem    # the problem this solves
    point: Optional[tuple] = None   # the solver's final (x, s, z); None when it failed

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


def build_mpc_problem(model: DiscreteDynamics, T0: np.ndarray, forecast: np.ndarray,
                      r_min: np.ndarray, r_max: np.ndarray, config: MpcConfig,
                      t: float = 0.0) -> MpcProblem:
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
        t=t,
    )


def prediction_matrices(model: DiscreteDynamics, T0: np.ndarray, forecast: np.ndarray,
                        h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked affine map from controls to temperatures: T(1..h) = G u + d.

    ``u`` is the time-major flattened control sequence (h*m,), the result
    rows are time-major temperatures (h*n,). G is block lower-Toeplitz with
    blocks Phi^(k-j) Gamma_ctrl; the forecast enters through the same
    Toeplitz structure of Phi^(k-j) Gamma_ext. The third result holds the
    powers Phi^0..Phi^h that both are built from, (h+1, n, n).
    """
    n = model.n_internal
    powers = np.empty((h + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, h + 1):
        powers[k] = model.Phi @ powers[k - 1]
    G = _block_toeplitz(powers[:h] @ model.Gamma_ctrl)
    forced = _block_toeplitz(powers[:h] @ model.Gamma_ext) @ forecast[:h].reshape(-1)
    d = (powers[1:] @ T0).reshape(-1) + forced
    return G, d, powers


def _block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """(h*n, h*m) block lower-triangular matrix with block (k, j) = blocks[k - j]."""
    h, n, m = blocks.shape
    # reversed and zero-padded, window h-1-k of the blocks holds block row k
    padded = np.concatenate([blocks[::-1], np.zeros((h - 1, n, m))])
    rows = sliding_window_view(padded, h, axis=0)[::-1]        # (k, n, m, j)
    return rows.transpose(0, 1, 3, 2).reshape(h * n, h * m)


def _condense(problem: MpcProblem):
    """The horizon problem over x = (u, w, t1, t2) with its structured Newton hook.

    u are the controls, w the band slacks, t1 the epigraph of the slack RMS
    cone ||w|| <= t1 and t2 that of the terminal cone ||T(h) - r(h)|| <= t2.
    Returns the program, G, d and the groups of x and of the solver's rows
    (the linear rows, then the cones' rows) as ``_shifted`` takes them.
    """
    cfg = problem.config
    h = cfg.horizon
    n = problem.model.n_internal
    m = problem.model.Gamma_ctrl.shape[1]
    G, d, powers = prediction_matrices(problem.model, problem.T0, problem.forecast, h)
    nu, nw = h * m, h * n
    nvar = nu + nw + 2

    r_min = problem.r_min.reshape(-1)
    r_max = problem.r_max.reshape(-1)

    # rows: u >= 0, u <= 1, w >= 0, T >= r_min - w, T <= r_max + w, with
    # T = G u + d
    iu, iw = np.arange(nu), np.arange(nw)
    rows = HorizonRows(G, n, nvar)
    rows.unit(iu, -1.0, np.zeros(nu), m)
    rows.unit(iu, 1.0, np.ones(nu), m)
    rows.unit(nu + iw, -1.0, np.zeros(nw), n)
    rows.through_g(-1.0, d - r_min, nu + iw, -1.0)
    rows.through_g(1.0, r_max - d, nu + iw, -1.0)
    if cfg.Q_togo == 0:
        # a zero-cost epigraph variable would make the problem degenerate,
        # so the terminal cone exists only when its weight does; without it
        # the unused t2 is pinned: 0 <= t2 <= 1
        rows.unit([nvar - 1], 1.0, [1.0])
        rows.unit([nvar - 1], -1.0, [0.0])

    # the cones' rows, head first: the RMS cone's (t1, w), then the terminal
    # cone's (t2, T(h) - r(h))
    rows.unit([nu + nw], -1.0, [0.0])
    rows.unit(nu + iw, -1.0, np.zeros(nw), n)
    cones = (1 + nw,)
    if cfg.Q_togo > 0:
        rows.unit([nvar - 1], -1.0, [0.0])
        rows.through_g(-1.0, d[-n:] - problem.r[-1], start=nw - n)
        cones += (1 + n,)

    c = np.zeros(nvar)
    c[:nu] = cfg.R
    c[nu + nw] = cfg.Q / np.sqrt(n * h)
    c[nu + nw + 1] = cfg.Q_togo / np.sqrt(n)
    prog = ConicProgram(c=c, A=rows, b=rows.b, cones=cones, kkt=_condensed_kkt(G, powers))
    return prog, G, d, ([(nu, m), (nw, n), (2, 0)], rows.groups)


class HorizonRows(RowOperator):
    """Rows A x + s = b over x = (u, ...), applied through G rather than stored.

    The controls u enter rows through the predicted temperatures G u + d, so
    A = E [I; G 0], with the few entries of E kept as (row, column, value)
    over x followed by G u: ``A @ x`` takes one product G u and ``A.T @ z``
    one G' y. ``groups`` holds (rows, rows per horizon step) for each group,
    the second 0 where the group is not time-major.
    """

    def __init__(self, G: np.ndarray, n: int, nvar: int):
        self.G, self.n, self.shape = G, n, (0, nvar)
        self.b = np.empty(0)
        self.groups: list = []
        self.row, self.col, self.val = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)

    def _add(self, b, stage: int, rows, cols, vals) -> None:
        """Rows b at the end, with the entries vals at (rows, cols), rows
        counted from the first new one."""
        self.row = np.append(self.row, self.shape[0] + np.asarray(rows, dtype=int))
        self.col = np.append(self.col, np.asarray(cols, dtype=int))
        self.val = np.append(self.val, vals)
        self.b = np.append(self.b, b)
        self.shape = (len(self.b), self.shape[1])
        self.groups.append((len(b), stage))

    def unit(self, cols, sign: float, b, stage: int = 0) -> None:
        """sign * x[col] <= b, one row per column, ``stage`` rows per step."""
        self._add(b, stage, np.arange(len(cols)), cols, np.full(len(cols), sign))

    def through_g(self, sign: float, b, cols=(), coef: float = 0.0, start: int = 0) -> None:
        """sign * (G u)_(start + i) + coef * x[cols[i]] <= b_i over len(b)
        rows of G from ``start``; without ``cols`` the second term is left
        out."""
        i = np.arange(len(b))
        self._add(b, self.n, np.append(i, i[:len(cols)]), np.append(self.shape[1] + start + i, cols),
                  np.repeat([sign, coef], [len(i), len(cols)]))

    def budget(self, b: float) -> None:
        """sum(u) <= b, one row."""
        nu = self.G.shape[1]
        self._add([b], 0, np.zeros(nu), np.arange(nu), np.ones(nu))

    def __matmul__(self, x):
        xg = np.concatenate([x, self.G @ x[:self.G.shape[1]]])
        return np.bincount(self.row, self.val * xg[self.col], minlength=self.shape[0])

    def rmatvec(self, z):
        nvar = self.shape[1]
        y = np.bincount(self.col, self.val * z[self.row], minlength=nvar + len(self.G))
        y[:self.G.shape[1]] += self.G.T @ y[nvar:]
        return y[:nvar]

    def row_max(self):
        col_max = np.concatenate([np.ones(self.shape[1]), np.abs(self.G).max(axis=1, initial=0.0)])
        out = np.zeros(self.shape[0])
        np.maximum.at(out, self.row, np.abs(self.val) * col_max[self.col])
        return out

    def toarray(self):
        nvar = self.shape[1]
        E = np.zeros((self.shape[0], nvar + len(self.G)))
        np.add.at(E, (self.row, self.col), self.val)
        E[:, :self.G.shape[1]] += E[:, nvar:] @ self.G
        return E[:, :nvar]


def _weighted_gram(G: np.ndarray, powers: np.ndarray):
    """Lower triangle of G' diag(alpha) G + G_h' W G_h, from the structure of G.

    G_h is the last block row of G and W an (n, n) matrix or None. With D_k
    the k-th n-block of alpha, plus W on the last, block (i, j) for i >= j
    is Gamma' P_i Phi^(i-j) Gamma, where P_i = sum_l (Phi^l)' D_(i+l) Phi^l:
    a Hankel product against the outer products of the rows of Phi^l, then
    one batched product against the block rows of G. Returns
    ``gram(out, alpha, W)``, which writes into the (h*m, h*m) array ``out``
    the blocks on and below the block diagonal, and zeros above: the
    Cholesky factor reads only that triangle.
    """
    nw, nu = G.shape
    h = len(powers) - 1
    n, m = nw // h, nu // h
    # row a of Phi^l times itself, (h*n, n*n) with rows (l, a)
    outer = np.einsum("lab,lac->labc", powers[:h], powers[:h]).reshape(h * n, n * n)
    # row i of the Hankel view is alpha from block i on, zeros past the horizon
    padded = np.zeros((2 * h - 1) * n)
    hankel = sliding_window_view(padded, h * n)[::n]
    to_end = powers[h - 1::-1]                     # Phi^(h-1-i) for each i
    Gamma = G[:n, :m]
    G_rows = G.reshape(h, n, nu)

    def gram(out, alpha, W=None):
        padded[:nw] = alpha
        P = (hankel @ outer).reshape(h, n, n)
        if W is not None:
            P += to_end.transpose(0, 2, 1) @ W @ to_end
        np.matmul((P @ Gamma).transpose(0, 2, 1), G_rows, out=out.reshape(h, m, nu))

    return gram


def _condensed_kkt(G: np.ndarray, powers: np.ndarray):
    """Newton hook of the condensed program: eliminate (w, t1), factor (u, t2).

    In the variable order (u, w, t1, t2), with the row weights split by the
    row groups of ``_condense`` into s1..s5 and the pinned-t2 rows:

    - the (w, t1) block is D + U C U', with D = diag(s3 + s4 + s5, 0) +
      I / beta1^2 and the RMS cone's rank-2 term U = [Jv, v] and C = [4 v'v,
      -2; -2, 0] / beta1^2. Sherman-Morrison-Woodbury inverts it: D^-1 U =
      [g, h] T with g = D^-1 v1 on w, h = beta1^2 v0 on t1 and T = [-1, 1;
      1, 1], so its inverse is D^-1 - [g, h] L [g, h]', L^-1 = diag(v1'g,
      beta1^2 v0^2) + beta1^2 / 4 [1 - v'v, -v'v; -v'v, -1 - v'v];
    - it couples only to u, through G' diag(s4 - s5), which the term in g
      turns into one rank-1 term of the Schur complement;
    - the terminal cone adds [G_h, e_t2]' W2^-2 [G_h, e_t2] on (u, t2), of
      rank n + 1, and pinned-t2 rows (when Q_togo = 0) add to t2 alone.

    What is left is the Schur complement onto (u, t2), whose lower triangle
    ``_weighted_gram`` assembles and a BLAS rank-1 update completes: one
    Cholesky of order h*m + 1 per iteration.
    """
    nw, nu = G.shape
    n = powers.shape[1]
    G_h = G[-n:]
    gram = _weighted_gram(G, powers)
    jsign = np.ones(n + 1)
    jsign[1:] = -1.0
    S = np.empty((nu + 1, nu + 1))
    diag_u = np.einsum("ii->i", S)[:nu]
    rank1 = np.zeros(nu + 1)

    def kkt(wts, scalings):
        s12 = wts[:nu] + wts[nu:2 * nu]
        s3, s4, s5 = wts[2 * nu:3 * nw + 2 * nu].reshape(3, nw)
        pinned = float(wts[2 * nu + 3 * nw:].sum())
        beta, v = scalings[0]
        b2, v0, v1 = beta**2, float(v[0]), v[1:]
        vv = float(v @ v)
        s345 = s3 + s4 + s5
        d_w = s345 + 1.0 / b2                      # D on w; 1 / beta^2 on t1
        inv_w = 1.0 / d_w
        g, h0 = v1 * inv_w, b2 * v0
        # L^-1 = [n00, n01; n01, n11]
        n00, n01 = float(v1 @ g) + 0.25 * b2 * (1.0 - vv), -0.25 * b2 * vv
        n11 = b2 * v0 * v0 - 0.25 * b2 * (1.0 + vv)
        det = n00 * n11 - n01 * n01
        l00, l01, l11 = n11 / det, -n01 / det, n00 / det
        delta = s4 - s5
        s45 = s4 + s5
        dg, d_inv = delta * g, delta * inv_w
        # s4 + s5 - delta^2 / dg_w, without the cancellation when s4 >> s5
        alpha = (s45 * (s3 + 1.0 / b2) + 4.0 * s4 * s5) * inv_w
        W2 = None
        if len(scalings) > 1:
            beta2, v2 = scalings[1]
            Jv2 = jsign * v2
            Winv = (2.0 * np.outer(Jv2, Jv2) - np.diag(jsign)) / beta2
            W2 = Winv @ Winv
            S[nu, :nu] = G_h.T @ W2[1:, 0]
            S[nu, nu] = pinned + W2[0, 0]
            gram(S[:nu, :nu], alpha, W2[1:, 1:])
        else:
            S[nu, :nu] = 0.0
            S[nu, nu] = pinned
            gram(S[:nu, :nu], alpha)
        rank1[:nu] = G.T @ dg
        dsyr(l00, rank1, lower=0, a=S.T, overwrite_a=1)     # the lower triangle of S
        diag_u[:] += s12
        solve_s = factor_newton(S)

        def solve(r):
            # B^-1 (y, r_t1) = (y / D - k g, beta^2 r_t1 - k' h): once with
            # y = r_w for the right side of (u, t2), once with y = r_w -
            # delta G u for (w, t1)
            r_w, r_t = r[nu:nu + nw], r[-2]
            k = l00 * float(g @ r_w) + l01 * h0 * r_t
            x_a = solve_s(np.append(r[:nu] - G.T @ (d_inv * r_w - k * dg), r[-1]))
            y = r_w - delta * (G @ x_a[:nu])
            sig, tau = float(g @ y), h0 * r_t
            out = np.empty_like(r)
            out[:nu], out[-1] = x_a[:nu], x_a[nu]
            out[nu:nu + nw] = y * inv_w - (l00 * sig + l01 * tau) * g
            out[-2] = b2 * r_t - h0 * (l01 * sig + l11 * tau)
            return out

        def apply(x):
            u, w, t1, t2 = x[:nu], x[nu:nu + nw], x[-2], x[-1]
            Gu = G @ u
            # the RMS cone's term, C U' (w, t1) = (c0, c1)
            sig, tau = float(v1 @ w), v0 * t1
            c0, c1 = (4.0 * vv * (tau - sig) - 2.0 * (tau + sig)) / b2, -2.0 * (tau - sig) / b2
            y = s45 * Gu + delta * w
            out = np.empty_like(x)
            out[-1] = pinned * t2
            if W2 is not None:
                # the terminal cone's term reaches u through G_h, the last rows of G
                q = W2 @ np.append(t2, Gu[-n:])
                y[-n:] += q[1:]
                out[-1] += q[0]
            out[:nu] = G.T @ y + s12 * u
            out[nu:nu + nw] = d_w * w + (c1 - c0) * v1 + delta * Gu
            out[-2] = t1 / b2 + v0 * (c0 + c1)
            return out

        return solve, apply

    return kkt


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


def _shifted(point: tuple, groups: tuple, steps: int) -> tuple:
    """The solver point (x, s, z) with each time-major group moved ``steps``
    horizon steps earlier and its last step repeated; other entries are kept."""
    def index(layout):
        parts, at = [], 0
        for size, stage in layout:
            rows = np.arange(at, at + size)
            if stage:
                by_step = rows.reshape(-1, stage)
                k = len(by_step)
                rows = by_step[np.minimum(np.arange(k) + steps, k - 1)].ravel()
            parts.append(rows)
            at += size
        return np.concatenate(parts)

    x, s, z = point
    rows = index(groups[1])
    return x[index(groups[0])], s[rows], z[rows]


def _warm_start(previous: Optional[MpcSolution], problem: MpcProblem, groups: tuple):
    """The start of ``problem``'s solve: the final point of ``previous``, the
    solution of an earlier problem of the same loop, shifted by the steps
    between their start times. None, a cold start, when there is no converged
    previous solution, its horizon does not overlap this one, or its rows
    are laid out differently. An experiment's raised bounds are one more
    change between the two problems, and its solves start warm as well: on
    the online workload's seeds 0-5 they took 12.1 iterations on average
    warm against 16.8 cold, and at most 29 against 49."""
    if previous is None or not previous.converged or previous.point is None:
        return None
    steps = round((problem.t - previous.problem.t) / problem.model.dt)
    x, s, _ = previous.point
    sizes = tuple(sum(size for size, _ in layout) for layout in groups)
    if not 0 <= steps < problem.config.horizon or (len(x), len(s)) != sizes:
        return None
    return _shifted(previous.point, groups, steps)


def solve_mpc(problem: MpcProblem, previous: Optional[MpcSolution] = None) -> MpcSolution:
    """Globally solve the horizon problem; soft slacks guarantee feasibility.
    The solve starts warm from ``previous`` (see ``_warm_start``)."""
    cfg = problem.config
    h = cfg.horizon
    n = problem.model.n_internal
    m = problem.model.Gamma_ctrl.shape[1]
    prog, G, d, groups = _condense(problem)
    nu, nw = h * m, h * n

    try:
        sol = solve(prog, _warm_start(previous, problem, groups),
                    tol=cfg.solver_tol, max_iter=cfg.max_iter)
    except SolverFailure:
        return MpcSolution(
            u=np.zeros((h, m)), T_pred=d.reshape(h, n), w=np.zeros((h, n)),
            cost=np.inf, status="failed", iterations=0, kkt={}, problem=problem,
        )

    u_flat = np.clip(sol.x[:nu], 0.0, 1.0)
    cost, T_pred, w = _closed_form_cost(problem, u_flat, G, d)
    return MpcSolution(
        u=u_flat.reshape(h, m),
        T_pred=T_pred,
        w=w,
        cost=cost,
        status=sol.status,
        iterations=sol.iterations,
        kkt={"gap": sol.gap, "dual_residual": sol.dual_residual},
        problem=problem,
        point=(sol.x, sol.s, sol.z),
    )


def horizon_bounds(sched: OccupancySchedule, t: float, h: int, dt: float,
                   n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    """Scheduled comfort bounds for T(1..h) starting at time t: the rule of
    ``OccupancySchedule.is_occupied`` at once over the h step times."""
    times = t + np.arange(1, h + 1) * dt
    clock = times % MINUTES_PER_DAY
    occupied = (np.isin(times // MINUTES_PER_DAY % 7, sched.occupied_days)
                & (sched.occupied_start <= clock) & (clock < sched.occupied_end))[:, None]
    return (np.where(occupied, sched.r_min_occ, sched.r_min_unocc).repeat(n_zones, axis=1),
            np.where(occupied, sched.r_max_occ, sched.r_max_unocc).repeat(n_zones, axis=1))


def mpc_step(
    model: DiscreteDynamics,
    measured_internal: np.ndarray,
    t: float,
    sched: OccupancySchedule,
    weather: WeatherModel,
    config: MpcConfig,
    r_min_override: Optional[np.ndarray] = None,
    previous: Optional[MpcSolution] = None,
) -> tuple[np.ndarray, MpcSolution]:
    """One receding-horizon step: solve from current measurements, return u(0).

    The horizon advances by the model's own step ``model.dt``.
    ``r_min_override`` is an (h, n) array of experiment-raised lower bounds
    (NaN where unmodified). ``previous`` is the loop's latest solution, which
    the solve starts from. A failed solve returns a zero command with the
    failure status so the caller can fall back to the thermostat.
    """
    h, n = config.horizon, model.n_internal
    r_min, r_max = horizon_bounds(sched, t, h, model.dt, n)
    if r_min_override is not None:
        mask = ~np.isnan(r_min_override)
        r_min[mask] = np.maximum(r_min[mask], r_min_override[mask])
    forecast = weather_forecast(weather, t, h, model.dt)
    problem = build_mpc_problem(model, measured_internal, forecast, r_min, r_max, config, t)
    solution = solve_mpc(problem, previous)
    if not solution.converged:
        return np.zeros(model.Gamma_ctrl.shape[1]), solution
    return solution.u[0].copy(), solution
