"""Targeted self-excitation: decide which zones to excite and when.

The generator ranks excitation targets from the eigen-structure of the
current estimate's parameter covariance: which zones touch the most
uncertain parameter directions. The selector turns a ranked candidate into
a concrete short-horizon set-point modification when the predicted
information gain justifies it: a simple heat-to-the-bound rule while the
building is still under thermostat control, and a budgeted convex program
once the predictive controller is running.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .mpc import HorizonRows, MpcSolution, _weighted_gram, prediction_matrices
from .network import DiscreteDynamics, ParameterVector, ThermalNetwork
from .network import discretize  # noqa: F401  unused; perfbench wraps it as a discretize span
from .solver import ConicProgram, KktHook, factor_newton, find_strictly_feasible, solve


@dataclass(frozen=True)
class ExcitationCandidate:
    """One uncertain parameter direction mapped back onto physical nodes."""

    eigenvalue: float
    node_weights: np.ndarray


@dataclass(frozen=True)
class Experiment:
    """A short-horizon set-point modification.

    ``e`` holds modified per-step lower bounds, one row per step over the
    short horizon, one column per zone; NaN leaves a bound untouched. The
    optimal selector raises every zone's bound halfway from r_min to the
    temperatures its LP planned, within r_max less the margin.
    """

    target: tuple[int, ...]
    e: np.ndarray
    start_time: float
    h_s: int

    def active(self, t: float, dt: float) -> bool:
        return self.start_time <= t < self.start_time + self.h_s * dt

    def bounds_row(self, t: float, dt: float) -> Optional[np.ndarray]:
        if not self.active(t, dt):
            return None
        k = int(round((t - self.start_time) / dt))
        return self.e[min(k, self.e.shape[0] - 1)]


@dataclass(frozen=True)
class SelectorState:
    """Trigger threshold with slow decay toward eventual excitation."""

    threshold: float = 1.0
    decay: float = 0.995
    initial: float = 1.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValidationError("threshold must be positive")

    def decayed(self) -> "SelectorState":
        return replace(self, threshold=self.threshold * self.decay)

    def reset(self) -> "SelectorState":
        return replace(self, threshold=self.initial)


def generate_eigen(
    P_RC: np.ndarray,
    params: ParameterVector,
    topology: ThermalNetwork,
) -> list[ExcitationCandidate]:
    """Rank node pairs to excite from the RC-parameter covariance.

    Each covariance eigenvector is written back into the rate-matrix
    pattern (eigenvector entry at the directed-edge slot of its parameter),
    diagonals carry the signed row/column sums, and external columns fold
    into their own diagonal since those nodes have no parameters of their
    own. The diagonal is the per-node uncertainty weight vector.
    """
    P_RC = np.asarray(P_RC, dtype=float)
    n_p = len(params.p)
    if P_RC.shape != (n_p, n_p):
        raise ValidationError("covariance block has wrong dimension")
    if np.max(np.abs(P_RC - P_RC.T)) > 1e-8 * (1.0 + np.max(np.abs(P_RC))):
        raise ValidationError("covariance block is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (P_RC + P_RC.T))
    if np.min(eigvals) < -1e-8 * max(1.0, float(np.max(np.abs(eigvals)))):
        raise ValidationError("covariance block is not positive semidefinite")
    order = sorted(range(n_p), key=lambda m: (-abs(eigvals[m]), m))
    candidates = []
    for m in order:
        # weights carry the direction's standard deviation so that a
        # well-known direction produces no urge to excite anything
        scale = np.sqrt(max(float(eigvals[m]), 0.0))
        weights = _node_weights_for_vector(scale * eigvecs[:, m], params, topology)
        candidates.append(ExcitationCandidate(float(eigvals[m]), weights))
    return candidates


def _node_weights_for_vector(v, params, topology):
    idx = {nid: k for k, nid in enumerate(topology.node_ids)}
    external = [node.is_external for node in topology.nodes]
    n = len(topology.nodes)
    A = np.zeros((n, n))
    for k, (i, j) in enumerate(params.edge_map):
        A[idx[i], idx[j]] = v[k]
    off = A - np.diag(np.diag(A))
    w = np.empty(n)
    for r in range(n):
        if external[r]:
            w[r] = off[:, r].sum()
        else:
            w[r] = off[r, :].sum() - off[:, r].sum()
    return w


def _choose_targets(
    candidate: ExcitationCandidate,
    topology: ThermalNetwork,
    pair_ratio: float = 0.75,
) -> Optional[tuple[str, tuple[int, ...]]]:
    """Case split on the two largest weights.

    Within ``pair_ratio`` of each other they form a pair, otherwise the top
    node is excited against everything else. External nodes cannot be
    excited: a pair against the ambient collapses to the single-node case,
    and an external top node defers to its strongest internal neighbor.
    """
    weights = np.abs(candidate.node_weights)
    node_ids = list(topology.node_ids)
    order = np.argsort(-weights, kind="stable")
    if weights[order[0]] <= 0:
        return None
    i_id = node_ids[order[0]]
    j_id = node_ids[order[1]]
    if topology.node(i_id).is_external:
        neighbors = [nid for nid, _ in topology.neighbors(i_id)
                     if not topology.node(nid).is_external]
        if not neighbors:
            return None
        i_id = max(neighbors, key=lambda nid: weights[topology.index_of(nid)])
        if i_id == j_id and len(order) > 2:
            j_id = node_ids[order[2]]
    if weights[order[1]] >= pair_ratio * weights[order[0]] and i_id != j_id:
        if topology.node(j_id).is_external:
            return ("single", (i_id,))
        return ("pair", (i_id, j_id))
    return ("single", (i_id,))


def _heat_target(case, topology) -> Optional[int]:
    """The zone whose heater runs: the first heated node among the targets."""
    kind, nodes = case
    heated = set(topology.heated_ids)
    for nid in nodes:
        if nid in heated:
            return nid
    return None


def _step_separation(case, T_int, t_ext, zones):
    """Separation value of one temperature snapshot for the chosen case."""
    kind, nodes = case
    if kind == "pair":
        return abs(T_int[zones.index(nodes[0])] - T_int[zones.index(nodes[1])])
    zi = zones.index(nodes[0])
    total = sum(abs(T_int[zi] - T_int[z]) for z in range(len(zones)) if z != zi)
    total += sum(abs(T_int[zi] - te) for te in np.atleast_1d(t_ext))
    return float(total)


def select_heuristic(
    candidate: ExcitationCandidate,
    temps: np.ndarray,
    model: DiscreteDynamics,
    forecast: np.ndarray,
    r_min_now: np.ndarray,
    r_max_now: np.ndarray,
    topology: ThermalNetwork,
    t: float,
    min_gain: float = 0.5,
    bound_margin: float = 2.0,
) -> Optional[Experiment]:
    """Thermostat-era selection: heat one zone toward its upper bound briefly.

    Predicts (through the current model estimate) the mean extra separation
    from running the target heater flat out over the short horizon, one step
    per row of ``forecast``; below ``min_gain`` degrees of predicted gain, or
    without headroom under the upper bound, nothing is emitted.
    """
    case = _choose_targets(candidate, topology)
    if case is None:
        return None
    target = _heat_target(case, topology)
    if target is None:
        return None
    zones = list(model.internal_ids)
    z_idx = zones.index(target)
    if temps[topology.index_of(target)] >= r_max_now[z_idx] - bound_margin:
        return None

    forecast = np.atleast_2d(np.asarray(forecast, float).reshape(len(forecast), -1))
    h_s = len(forecast)
    T0 = np.array([temps[topology.index_of(z)] for z in zones])
    m = model.Gamma_ctrl.shape[1]
    u_on = np.zeros(m)
    u_on[list(model.heated_ids).index(target)] = 1.0

    def mean_separation(u):
        T = T0.copy()
        total = 0.0
        for k in range(h_s):
            T = model.Phi @ T + model.Gamma_ext @ forecast[k] + model.Gamma_ctrl @ u
            total += _step_separation(case, T, forecast[k], zones)
        return total / h_s

    gain = mean_separation(u_on) - mean_separation(np.zeros(m))
    if gain < min_gain:
        return None
    e = np.full((h_s, len(zones)), np.nan)
    e[:, z_idx] = r_max_now[z_idx] - bound_margin
    return Experiment(tuple(case[1]), e, t, h_s)


def select_optimal(
    candidates: Sequence[ExcitationCandidate],
    baseline: MpcSolution,
    selector: SelectorState,
    topology: ThermalNetwork,
    t: float,
    h_s: int = 8,
    budget_mult: float = 1.1,
    bound_margin: float = 2.0,
) -> tuple[Optional[Experiment], SelectorState, dict]:
    """Predictive-era selection: budgeted separation maximization.

    For each candidate in order, maximizes the horizon-summed separation of
    the target nodes over the hard-bounded dynamics with a control budget
    tied to the unexcited baseline. The absolute-value objective splits
    into two sign-fixed linear programs, one per direction, and the better
    one counts. The first candidate whose mean separation gain beats the
    threshold becomes an experiment and resets the threshold; if none
    does, the threshold decays. The baseline's own problem supplies the
    model, start temperatures, forecast and comfort band. The LPs run over
    the controls alone, and the experiment's bounds follow from the winning
    LP's planned temperatures (``Experiment``), not from the solver's path.
    The LPs of all candidates and directions differ only in their costs, so
    their rows, Newton hook and phase-one point are built once per call;
    each LP is solved cold.
    """
    problem = baseline.problem
    forecast = problem.forecast
    h = baseline.u.shape[0]
    if h < 4 * h_s:
        raise ValidationError("short horizon must be well inside the control horizon")
    diagnostics: dict = {"gains": []}
    zones = list(problem.model.internal_ids)
    cases = [case for case in (_choose_targets(cand, topology) for cand in candidates)
             if case is not None and _heat_target(case, topology) is not None]
    program = _separation_program(
        problem.model, problem.T0, forecast, problem.r_min, problem.r_max,
        budget_mult * float(np.sum(baseline.u)), h_s, bound_margin,
    ) if cases else None
    if program is None or program.x0 is None:
        # without a strictly feasible point no LP of any case is solved
        return None, selector.decayed(), diagnostics
    for case in cases:
        best = None
        for direction in (1.0, -1.0):
            res = _separation_lp(case, direction, program, forecast, zones)
            if res is not None and (best is None or res[0] > best[0]):
                best = res
        if best is None:
            continue
        J_exc, e_opt, u_opt = best
        J_base = _trajectory_separation(case, baseline.T_pred, forecast, zones)
        gain = (J_exc - J_base) / h
        diagnostics["gains"].append(gain)
        if gain > selector.threshold:
            return Experiment(tuple(case[1]), e_opt, t, h_s), selector.reset(), diagnostics
    return None, selector.decayed(), diagnostics


def _trajectory_separation(case, T_traj, forecast, zones):
    """Horizon-summed separation of a temperature trajectory, scaled by 1/n."""
    total = 0.0
    for k, T in enumerate(T_traj):
        total += _step_separation(case, T, forecast[k], zones)
    return total / len(zones)


@dataclass(frozen=True)
class SeparationProgram:
    """Rows A x <= b over the controls x = u that every separation LP of one
    selection shares, with their Newton hook and a strictly feasible point
    (None when there is none, or when the experiment bounds have no room:
    e_lo < e_hi must hold strictly). The predicted temperatures are G u + d;
    e_lo and e_hi bound the experiment's lower bounds over the first h_s
    steps."""

    G: np.ndarray
    d: np.ndarray
    A: HorizonRows
    b: np.ndarray
    kkt: KktHook
    x0: Optional[np.ndarray]
    e_lo: np.ndarray
    e_hi: np.ndarray


def _separation_program(model, T0, forecast, r_min, r_max, u_budget, h_s, bound_margin):
    """The rows of the separation LPs, their hook and their phase-one point."""
    h, n = r_min.shape
    nu = h * model.Gamma_ctrl.shape[1]
    G, d, powers = prediction_matrices(model, T0, forecast, h)
    e_lo, e_hi = r_min[:h_s], r_max[:h_s] - bound_margin
    # rows: 0 <= u <= 1, r_min <= G u + d <= r_max, sum(u) <= budget
    rows = HorizonRows(G, n, nu)
    rows.unit(np.arange(nu), -1.0, np.zeros(nu))
    rows.unit(np.arange(nu), 1.0, np.ones(nu))
    rows.through_g(-1.0, d - r_min.reshape(-1))
    rows.through_g(1.0, r_max.reshape(-1) - d)
    rows.budget(u_budget)
    kkt = _separation_kkt(G, powers)
    # with no room between the bounds an experiment cannot raise them
    x0 = find_strictly_feasible(rows, rows.b, kkt=kkt) if np.all(e_lo < e_hi) else None
    return SeparationProgram(G, d, rows, rows.b, kkt, x0, e_lo, e_hi)


def _separation_kkt(G, powers):
    """Newton hook of the separation LP: one Cholesky of order h*m.

    With the row weights split by the row groups of ``_separation_program``
    into w1..w5, the Newton matrix is diag(w1 + w2) + G' diag(w3 + w4) G +
    w5 11', and ``_weighted_gram`` assembles the lower triangle of its
    middle term.
    """
    nw, nu = G.shape
    gram = _weighted_gram(G, powers)
    S = np.empty((nu, nu))
    diag_u = np.einsum("ii->i", S)

    def kkt(wts, scalings):
        w12 = wts[:nu] + wts[nu:2 * nu]
        w34 = wts[2 * nu:2 * nu + nw] + wts[2 * nu + nw:2 * nu + 2 * nw]
        w5 = float(wts[2 * nu + 2 * nw])
        gram(S, w34)
        S[:] += w5
        diag_u[:] += w12
        return factor_newton(S)

    return kkt


def _separation_weights(case, direction, zones, n_ext, h):
    """The weight v of each predicted temperature, time-major over the h
    steps, in one sign-fixed LP: its controls cost c = -G' v, their share in
    the horizon-summed separation."""
    n = len(zones)
    kind, nodes = case
    zi = zones.index(nodes[0])
    y = np.zeros(n)
    if kind == "pair":
        y[zi], y[zones.index(nodes[1])] = 1.0, -1.0
    else:
        # the ambient terms |T_i - T_ext| contribute their T_i gradient with
        # one count per external node; the ambient itself is not a decision
        y[:] = -1.0
        y[zi] = n - 1 + n_ext
    return direction * np.tile(y, h)


def _separation_lp(case, direction, program, forecast, zones):
    """One sign-fixed linear program over the controls, with the experiment
    bounds it implies."""
    G, d = program.G, program.d
    nw, nu = G.shape
    n = len(zones)
    h = nw // n
    v = _separation_weights(case, direction, zones, forecast.shape[1], h)
    sol = solve(ConicProgram(c=-(G.T @ v), A=program.A, b=program.b, kkt=program.kkt))
    if not sol.optimal:
        return None
    u_opt = np.clip(sol.x, 0.0, 1.0)
    T = (G @ u_opt + d).reshape(h, n)
    J = _trajectory_separation(case, T, forecast, zones)
    # the bounds halfway up from e_lo to the planned temperatures, the centre
    # of the interval the LP leaves free
    e_lo, e_hi = program.e_lo, program.e_hi
    e_opt = np.clip(e_lo + 0.5 * (np.minimum(e_hi, T[:len(e_lo)]) - e_lo), e_lo, e_hi)
    return J, e_opt, u_opt.reshape(h, nu // h)
