"""Joint state/parameter estimation with an unscented Kalman filter.

The augmented state stacks all node temperatures, the RC-product vector,
and the heater coefficients. Prediction is nonlinear because temperatures
multiply reciprocal RC products, so sigma points are propagated through
the exact one-step discretization built from each point's own parameters;
parameters themselves follow a random walk. Measurements are direct
temperature readings, so the update is the standard linear Kalman step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
# the two kernels behind scipy.linalg.expm; scipy.linalg loads them already.
# Their signatures and the scaling done inside pick_pade_structure are those
# of scipy 1.17, the floor pyproject.toml declares.
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .errors import NumericalDegeneracyError, ValidationError
from .network import ParameterVector, ThermalNetwork, generator, minimal_parameterization

PARAM_FLOOR = 1e-8


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a (k, n, n) stack.

    This is the generic branch of ``scipy.linalg.expm`` (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 2009) without its per-matrix wrapper: one
    workspace, ``pick_pade_structure`` for the Pade degree and the scaling s,
    ``pade_UV_calc`` for the Pade solve, then s plain squarings. Where a
    matrix is neither triangular nor diagonal, scipy takes the same branch
    and the result equals ``scipy.linalg.expm`` bit for bit; a UKF generator
    is such a matrix whenever two internal zones share an edge. scipy squares
    a triangular matrix by its Code Fragment 2.1 instead and zeroes its other
    triangle, for example the generator of a single-zone building. There the
    two differ by at most 1e-13 of the largest entry for steps of up to ten
    days, and round-off of order 1e-18 stays in the zero rows, which
    ``propagate_points`` does not read. A failed allocation raises
    MemoryError and an internal LAPACK error RuntimeError, as in scipy.
    """
    out = np.empty_like(A)
    work = np.empty((5,) + A.shape[1:])
    for k, a in enumerate(A):
        work[0] = a
        m, s = pick_pade_structure(work)
        if m < 0:
            raise MemoryError(f"expm could not allocate its Pade workspace (error code {m})")
        info = pade_UV_calc(work, m)
        if info <= -11:
            raise MemoryError(f"expm could not allocate its Pade workspace (error code {info})")
        if info != 0:
            raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
        e = work[0]
        for _ in range(s):
            e = e @ e
        out[k] = e
    return out


def _check_finite(*arrays: np.ndarray) -> None:
    """The check scipy's ``check_finite=True`` makes, with its ValueError."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


@dataclass(frozen=True)
class UkfConfig:
    """Sigma-point spread, noise intensities, and initial covariances.

    Process noise for the parameter blocks is a random walk whose standard
    deviation is a fraction of the current estimate, scaled down by
    ``converged_noise_factor`` once the harness declares convergence.
    """

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    temp_process_std: float = 0.02      # deg per step, internal nodes
    ext_process_std: float = 1.0        # deg per step, ambient random walk
    p_process_frac: float = 1e-3        # fraction of current value per step
    q_process_frac: float = 1e-3
    converged_noise_factor: float = 0.1
    meas_std: float = 0.1
    init_temp_std: float = 0.1
    init_p_frac: float = 0.4
    init_q_frac: float = 0.4

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must be in (0, 1]")
        for name in ("temp_process_std", "ext_process_std", "p_process_frac",
                     "q_process_frac", "meas_std", "init_temp_std"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class UkfState:
    """Augmented mean [temps (all nodes); p; q], full covariance, step count."""

    x_hat: np.ndarray
    P: np.ndarray
    n_nodes: int
    n_p: int
    n_q: int
    step: int = 0
    converged: bool = False

    def __post_init__(self):
        L = self.n_nodes + self.n_p + self.n_q
        if self.x_hat.shape != (L,) or self.P.shape != (L, L):
            raise ValidationError("state dimensions inconsistent")

    @property
    def dim(self) -> int:
        return self.n_nodes + self.n_p + self.n_q

    @property
    def temps(self) -> np.ndarray:
        return self.x_hat[: self.n_nodes]

    @property
    def p(self) -> np.ndarray:
        return self.x_hat[self.n_nodes: self.n_nodes + self.n_p]

    @property
    def q(self) -> np.ndarray:
        return self.x_hat[self.n_nodes + self.n_p:]


def initial_state(
    net: ThermalNetwork,
    temps: np.ndarray,
    params: ParameterVector,
    config: UkfConfig,
) -> UkfState:
    """Build a filter state from seed temperatures and seed parameters."""
    n = len(net.nodes)
    x = np.concatenate([np.asarray(temps, float), params.p, params.q])
    var = np.concatenate([
        np.full(n, config.init_temp_std**2),
        (config.init_p_frac * params.p) ** 2,
        (config.init_q_frac * params.q) ** 2,
    ])
    return UkfState(x, np.diag(var), n, len(params.p), len(params.q))


def sigma_points(x_hat: np.ndarray, P: np.ndarray, config: UkfConfig):
    """Scaled unscented transform point set with mean/covariance weights."""
    L = len(x_hat)
    lam = config.alpha**2 * (L + config.kappa) - L
    spread = L + lam
    _check_finite(P)
    sqrtP = None
    jitter = 0.0
    for attempt in range(6):
        factor, info = dpotrf(P + jitter * np.eye(L) if jitter else P, lower=1, clean=1)
        if info == 0:
            sqrtP = factor
            break
        jitter = max(jitter * 100.0, 1e-12 * (np.trace(P) / L + 1.0))
    if sqrtP is None:
        raise NumericalDegeneracyError("covariance square root failed")
    offsets = np.sqrt(spread) * sqrtP
    points = np.empty((2 * L + 1, L))
    points[0] = x_hat
    points[1: L + 1] = x_hat + offsets.T
    points[L + 1:] = x_hat - offsets.T
    w_mean = np.full(2 * L + 1, 0.5 / spread)
    w_cov = w_mean.copy()
    w_mean[0] = lam / spread
    w_cov[0] = lam / spread + (1.0 - config.alpha**2 + config.beta)
    return points, w_mean, w_cov


@dataclass
class PredictResult:
    state: UkfState
    clamped: tuple[str, ...]


class UkfModel:
    """Propagation context: topology, state positions, cached names.

    The sigma-point map exponentiates ``network.generator`` at each point's
    parameters for the internal-node transition; the ambient node and the
    parameters are carried as random walks.
    """

    def __init__(self, net: ThermalNetwork, config: UkfConfig):
        self.net = net
        self.config = config
        self.template = minimal_parameterization(net)
        self.n_nodes = len(net.nodes)
        self.n_p = len(self.template.p)
        self._int_pos = [net.index_of(i) for i in net.internal_ids]
        self._ext_pos = [net.index_of(i) for i in net.external_ids]
        self._names = self.template.param_names()

    def propagate_points(self, points: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
        """Advance every augmented point (one per row) by dt; parameters stay put."""
        n, n_p, n_i = self.n_nodes, self.n_p, len(self._int_pos)
        params = np.maximum(points[:, n:], PARAM_FLOOR)
        E = expm(generator(params[:, :n_p], params[:, n_p:], self.template, self.net) * dt)
        state_in = np.concatenate([
            points[:, self._int_pos], points[:, self._ext_pos],
            np.broadcast_to(u, (len(points), len(u))),
        ], axis=1)
        out = points.copy()
        # one gemv per point; einsum would sum in a different order
        out[:, self._int_pos] = (E[:, :n_i] @ state_in[:, :, None])[:, :, 0]
        return out

    def process_noise(self, state: UkfState, scale: float = 1.0) -> np.ndarray:
        cfg = self.config
        factor = scale * (cfg.converged_noise_factor if state.converged else 1.0)
        n = self.n_nodes
        var = np.empty(state.dim)
        var[:n] = cfg.temp_process_std**2
        for pos in self._ext_pos:
            var[pos] = cfg.ext_process_std**2
        var[n:n + self.n_p] = (factor * cfg.p_process_frac * np.abs(state.p)) ** 2
        var[n + self.n_p:] = (factor * cfg.q_process_frac * np.abs(state.q)) ** 2
        return np.diag(var)


def predict(state: UkfState, u: np.ndarray, dt: float, model: UkfModel,
            noise_scale: float = 1.0) -> PredictResult:
    """Unscented prediction through the parameter-dependent thermal map.

    ``noise_scale`` multiplies the parameter random-walk intensities; the
    monitor raises it temporarily after restoring from a bad region.
    """
    cfg = model.config
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        raise ValidationError("control input outside [0, 1]")
    points, w_mean, w_cov = sigma_points(state.x_hat, state.P, cfg)
    n, n_p = state.n_nodes, state.n_p
    clamped: set[str] = set()
    params_block = points[:, n:]
    low = params_block < PARAM_FLOOR
    if np.any(low):
        for col in np.unique(np.nonzero(low)[1]):
            clamped.add(model._names[col])
    propagated = model.propagate_points(points, u, dt)
    mean = w_mean @ propagated
    diff = propagated - mean
    P = (w_cov[:, None] * diff).T @ diff
    P = 0.5 * (P + P.T) + model.process_noise(state, noise_scale)
    _assert_psd(P)
    new = UkfState(mean, P, n, n_p, state.n_q, state.step + 1, state.converged)
    return PredictResult(new, tuple(sorted(clamped)))


@dataclass
class UpdateResult:
    state: UkfState
    innovation: np.ndarray


def update(state: UkfState, z: np.ndarray, model: UkfModel) -> UpdateResult:
    """Linear Kalman measurement update: every node temperature is sensed."""
    z = np.asarray(z, dtype=float)
    n = state.n_nodes
    if z.shape != (n,):
        raise ValidationError("measurement dimension mismatch")
    cfg = model.config
    R = np.eye(n) * cfg.meas_std**2
    P = state.P
    S = P[:n, :n] + R
    PHt = P[:, :n]
    _check_finite(S, PHt)
    chol, info = dpotrf(S, lower=1, clean=0)
    if info > 0:
        raise NumericalDegeneracyError("innovation covariance singular")
    K = dpotrs(chol, PHt.T, lower=1)[0].T
    innovation = z - state.x_hat[:n]
    x_new = state.x_hat + K @ innovation
    # Joseph form keeps the covariance symmetric positive semidefinite
    IKH = np.eye(state.dim)
    IKH[:, :n] -= K
    P_new = IKH @ P @ IKH.T + K @ R @ K.T
    P_new = 0.5 * (P_new + P_new.T)
    _assert_psd(P_new)
    new = UkfState(x_new, P_new, n, state.n_p, state.n_q, state.step, state.converged)
    return UpdateResult(new, innovation)


def parameter_covariance_block(state: UkfState) -> np.ndarray:
    """The RC-product block of the covariance, symmetrized."""
    n, n_p = state.n_nodes, state.n_p
    block = state.P[n:n + n_p, n:n + n_p]
    return 0.5 * (block + block.T)


def mark_converged(state: UkfState, converged: bool = True) -> UkfState:
    return replace(state, converged=converged)


def _assert_psd(P: np.ndarray) -> None:
    """Raise when the smallest eigenvalue of P is below -1e-9.

    That is when P + 1e-9 I is not positive definite, which one Cholesky
    factorization tells; the eigenvalues are computed only for the message.
    dpotrf reads the lower triangle, as eigvalsh does, and both are backward
    stable: each decides for a matrix within a few ulps of ||P|| of P. So
    the two verdicts differ only for a smallest eigenvalue within that
    rounding distance of -1e-9.
    """
    _, info = dpotrf(P + 1e-9 * np.eye(len(P)), lower=1, clean=0)
    if info > 0:
        min_eig = float(np.min(np.linalg.eigvalsh(P)))
        raise NumericalDegeneracyError(f"covariance lost PSD: min eig {min_eig:.3e}")
