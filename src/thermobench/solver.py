"""Small dense primal-dual interior-point solver for linear-objective cone programs.

Problems have the form::

    minimize    c' x
    subject to  A x <= b
                ||F_k x + g_k|| <= d_k' x + e_k      (second-order cones)

Internally the constraints are stacked into conic standard form
G x + s = h, s in K, with K a product of a nonnegative orthant and
second-order cones, and solved by a Mehrotra-style predictor-corrector
primal-dual interior-point method with Nesterov-Todd scaling. The start
may be primal/dual infeasible; both residuals are driven to zero along
the way.

Problem sizes here are desk scale (a few hundred variables). ``A`` may be a
dense array or a ``scipy.sparse`` array; the cone rows ``F`` likewise. The
dominant per-iteration cost is the reduced Newton system: by default it is
assembled densely and factored by Cholesky, and callers whose constraints
have structure can supply a ``kkt`` hook that factors it their own way, in
the style of CVXOPT's ``kktsolver``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import SolverFailure


@dataclass(frozen=True)
class ConeConstraint:
    """Second-order cone ||F x + g|| <= d' x + e."""

    F: np.ndarray
    g: np.ndarray
    d: np.ndarray
    e: float = 0.0

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        return self.F @ x + self.g, float(self.d @ x + self.e)

    def violation(self, x: np.ndarray) -> float:
        y, s = self.residual(x)
        return float(np.linalg.norm(y) - s)


@dataclass(frozen=True)
class ConicProgram:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: tuple[ConeConstraint, ...] = ()
    # optional structured Newton solver, see ``KktHook``; None assembles the
    # reduced matrix densely
    kkt: Optional["KktHook"] = None

    @property
    def n(self) -> int:
        return len(self.c)


# One Newton system per iteration: kkt(wts, scalings) -> (solve, apply) for
#   M = A' diag(wts) A + sum_k C_k' W_k^-2 C_k,   C_k = [d_k'; F_k],
# with wts one weight per row of ``A`` and scalings[k] = (beta, v) the
# Nesterov-Todd scaling W_k = beta (2 v v' - J) of cone k. ``solve(r)``
# returns M^-1 r and ``apply(x)`` returns M x; the solver refines once with
# the residual r - apply(solve(r)). Factor through ``factor_newton`` so the
# regularization and its failure are the solver's.
KktHook = Callable[
    [np.ndarray, list[tuple[float, np.ndarray]]],
    tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]],
]


def factor_newton(M: np.ndarray):
    """Cholesky factor of a Newton matrix, shifted by 1e-12 on the diagonal.

    When rounding has left it indefinite, the shift grows to 1e-6 of the
    largest diagonal entry once; after that the system is reported as
    ``SolverFailure``. ``M`` is modified in place.
    """
    diag = np.diag_indices_from(M)
    M[diag] += 1e-12
    try:
        return cho_factor(M, lower=True, check_finite=False)
    except LinAlgError:
        M[diag] += 1e-6 * float(np.max(M.diagonal()))
        try:
            return cho_factor(M, lower=True, check_finite=False)
        except LinAlgError:
            raise SolverFailure("Newton system not positive definite")


def dense_kkt(prob: "ConicProgram") -> KktHook:
    """The reference hook: the reduced Newton matrix assembled densely."""
    A = prob.A.toarray() if _is_sparse(prob.A) else prob.A
    gram = [np.outer(cone.d, cone.d) + cone.F.T @ cone.F for cone in prob.cones]

    def kkt(wts, scalings):
        M = A.T @ (wts[:, None] * A)
        for cone, GtG, (beta, v) in zip(prob.cones, gram, scalings):
            # W^-2 = (I + 4 (v'v) Jv (Jv)' - 2 Jv v' - 2 v (Jv)') / beta^2
            Gt_Jv = cone.d * v[0] - cone.F.T @ v[1:]
            Gt_v = cone.d * v[0] + cone.F.T @ v[1:]
            M += (
                GtG
                + 4.0 * float(v @ v) * np.outer(Gt_Jv, Gt_Jv)
                - 2.0 * np.outer(Gt_Jv, Gt_v)
                - 2.0 * np.outer(Gt_v, Gt_Jv)
            ) / beta**2
        factor = factor_newton(M)
        return (lambda r: cho_solve(factor, r, check_finite=False)), M.__matmul__

    return kkt


@dataclass
class Solution:
    x: np.ndarray
    lam: np.ndarray
    status: str
    iterations: int
    gap: float
    dual_residual: float
    primal_residual: float
    max_violation: float

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pos_roots_max_step(a2: float, a1: float, a0: float) -> float:
    """Smallest positive root of a2 t^2 + a1 t + a0 = 0, +inf when none.

    Used for cone boundary steps, where a0 > 0 (strict interior at t=0).
    """
    if abs(a2) < 1e-300:
        if a1 < 0:
            return -a0 / a1
        return np.inf
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        return np.inf if a2 > 0 else np.inf
    sq = np.sqrt(disc)
    r1 = (-a1 - sq) / (2.0 * a2)
    r2 = (-a1 + sq) / (2.0 * a2)
    best = np.inf
    for r in (r1, r2):
        if r > 0:
            best = min(best, r)
    return best


class _SocBlock:
    """One second-order cone block with its Nesterov-Todd scaling state."""

    __slots__ = ("dim", "beta", "v")

    def __init__(self, dim: int):
        self.dim = dim
        self.beta = 1.0
        self.v = np.zeros(dim)
        self.v[0] = 1.0

    @staticmethod
    def jdot(u: np.ndarray, w: np.ndarray) -> float:
        return float(u[0] * w[0] - u[1:] @ w[1:])

    @staticmethod
    def jmul(u: np.ndarray) -> np.ndarray:
        out = u.copy()
        out[1:] = -out[1:]
        return out

    def update_scaling(self, s: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Recompute W from the current iterate; returns lambda = W z.

        The scaling point satisfies P(w) z = s; W is its square root, built
        from the Jordan square root of the normalized scaling point.
        """
        s_res = self.jdot(s, s)
        z_res = self.jdot(z, z)
        sbar = s / np.sqrt(s_res)
        zbar = z / np.sqrt(z_res)
        gamma = np.sqrt((1.0 + float(sbar @ zbar)) / 2.0)
        wbar = (sbar + self.jmul(zbar)) / (2.0 * gamma)
        self.v = wbar.copy()
        self.v[0] += 1.0
        self.v /= np.sqrt(2.0 * (wbar[0] + 1.0))
        self.beta = (s_res / z_res) ** 0.25
        return self.apply_w(z)

    def apply_w(self, u: np.ndarray) -> np.ndarray:
        return self.beta * (2.0 * self.v * float(self.v @ u) - self.jmul(u))

    def apply_winv(self, u: np.ndarray) -> np.ndarray:
        jv = self.jmul(self.v)
        return (2.0 * jv * float(jv @ u) - self.jmul(u)) / self.beta

    @staticmethod
    def prod(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[0] = u @ w
        out[1:] = u[0] * w[1:] + w[0] * u[1:]
        return out

    @staticmethod
    def inv(u: np.ndarray) -> np.ndarray:
        return _SocBlock.jmul(u) / _SocBlock.jdot(u, u)

    @staticmethod
    def max_step(s: np.ndarray, ds: np.ndarray) -> float:
        """Largest a with s + a ds strictly in the cone."""
        a2 = float(ds[0] ** 2 - ds[1:] @ ds[1:])
        a1 = 2.0 * float(s[0] * ds[0] - s[1:] @ ds[1:])
        a0 = float(s[0] ** 2 - s[1:] @ s[1:])
        limit = _pos_roots_max_step(a2, a1, a0)
        if ds[0] < 0:
            limit = min(limit, -s[0] / ds[0])
        return limit


def solve(
    prob: ConicProgram,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 60,
    stall_window: int = 10,
) -> Solution:
    """Predictor-corrector interior-point iteration in conic standard form.

    ``x0`` is an optional warm-start hint for the primal variables; the
    method does not require a feasible start. ``status`` is "optimal" when
    the relative primal residual, dual residual, and duality gap are all
    below ``tol``, otherwise "stalled" or "max_iter" with the best iterate.
    """
    c = np.asarray(prob.c, dtype=float)

    # row equilibration of the linear block keeps multipliers commensurate
    row_max = abs(prob.A).max(axis=1)
    if _is_sparse(prob.A):
        row_scale = 1.0 / np.maximum(row_max.toarray(), 1.0)
        A = prob.A.multiply(row_scale[:, None]).tocsr()
    else:
        row_scale = 1.0 / np.maximum(row_max, 1.0)
        A = prob.A * row_scale[:, None]
    b = prob.b * row_scale
    At = _transposed(A)
    Ft = [_transposed(cone.F) for cone in prob.cones]
    m_lin = A.shape[0]
    kkt = prob.kkt if prob.kkt is not None else dense_kkt(prob)
    sq = row_scale * row_scale

    socs = [_SocBlock(1 + cone.F.shape[0]) for cone in prob.cones]
    nu_degree = m_lin + len(socs)

    def soc_eval(k: int, x: np.ndarray) -> np.ndarray:
        cone = prob.cones[k]
        out = np.empty(socs[k].dim)
        out[0] = cone.d @ x + cone.e
        out[1:] = cone.F @ x + cone.g
        return out

    def soc_adjoint(k: int, u: np.ndarray) -> np.ndarray:
        cone = prob.cones[k]
        return cone.d * u[0] + Ft[k] @ u[1:]

    # least-squares initialization: x from min ||Gx - h||, z = G y with
    # y = -M0^-1 c (exactly dual feasible before the cone shift), then both
    # s and z shifted into their cone interiors; M0 is the Newton matrix at
    # unit weights and identity scalings
    solve0, _ = kkt(sq, [(1.0, blk.v) for blk in socs])
    if x0 is None:
        Gt_h = At @ b
        for k, cone in enumerate(prob.cones):
            Gt_h -= soc_adjoint(k, np.concatenate([[cone.e], cone.g]))
        x = solve0(Gt_h)
    else:
        x = np.asarray(x0, dtype=float).copy()
    y_dual = solve0(-c)

    s_lin = b - A @ x
    shift = max(0.0, 1.0 - float(np.min(s_lin)))
    s_lin = s_lin + shift
    z_lin = A @ y_dual
    shift = max(0.0, 1.0 - float(np.min(z_lin)))
    z_lin = z_lin + shift
    s_soc = []
    z_soc = []
    for k in range(len(socs)):
        sk = soc_eval(k, x)
        excess = sk[0] - float(np.linalg.norm(sk[1:]))
        if excess < 1.0:
            sk[0] += 1.0 - excess
        s_soc.append(sk)
        zk = np.empty(socs[k].dim)
        zk[0] = -(prob.cones[k].d @ y_dual)
        zk[1:] = -(prob.cones[k].F @ y_dual)
        excess = zk[0] - float(np.linalg.norm(zk[1:]))
        if excess < 1.0:
            zk[0] += 1.0 - excess
        z_soc.append(zk)

    scale_p = 1.0 + float(np.linalg.norm(b)) + sum(
        np.linalg.norm(np.concatenate([[cone.e], cone.g])) for cone in prob.cones
    )
    scale_d = 1.0 + float(np.linalg.norm(c))

    status = "max_iter"
    best_progress = np.inf
    since_improved = 0
    it = 0
    gap = np.inf
    pres = np.inf
    dres = np.inf

    for it in range(1, max_iter + 1):
        # rx = c + G'z with G_soc = -[d'; F]; rz = G x + s - h per block
        rx = c + At @ z_lin
        for k in range(len(socs)):
            rx -= soc_adjoint(k, z_soc[k])
        rz_lin = A @ x + s_lin - b
        rz_soc = [s_soc[k] - soc_eval(k, x) for k in range(len(socs))]

        gap = float(s_lin @ z_lin) + sum(
            float(s_soc[k] @ z_soc[k]) for k in range(len(socs))
        )
        pres = float(
            np.sqrt(
                np.linalg.norm(rz_lin) ** 2
                + sum(np.linalg.norm(r) ** 2 for r in rz_soc)
            )
        )
        dres = float(np.linalg.norm(rx))
        if (
            dres <= tol * scale_d
            and pres <= tol * scale_p
            and gap <= tol * (1.0 + abs(float(c @ x)))
        ):
            status = "optimal"
            break
        progress = gap + pres + dres
        if progress < 0.99 * best_progress:
            best_progress = progress
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= stall_window:
                status = "stalled"
                break

        # Nesterov-Todd scalings; bail out if rounding pushed an iterate
        # outside its cone (can happen hugging the boundary at convergence)
        interior = np.all(s_lin > 0) and np.all(z_lin > 0)
        for k in range(len(socs)):
            interior = (
                interior
                and _SocBlock.jdot(s_soc[k], s_soc[k]) > 0
                and _SocBlock.jdot(z_soc[k], z_soc[k]) > 0
                and s_soc[k][0] > 0
                and z_soc[k][0] > 0
            )
        if not interior:
            status = "stalled"
            break
        w_lin = s_lin / z_lin          # W^2 diagonal for the orthant
        lam_lin = np.sqrt(s_lin * z_lin)
        lam_soc = [socs[k].update_scaling(s_soc[k], z_soc[k]) for k in range(len(socs))]
        mu = gap / nu_degree

        winv2 = 1.0 / w_lin
        kkt_solve, kkt_apply = kkt(winv2 * sq, [(blk.beta, blk.v) for blk in socs])
        sqrt_w = np.sqrt(w_lin)

        def newton(tgt_lin, tgt_soc):
            """Direction for targets tgt = desired lambda o (W^-T ds + W dz).

            Eliminations: ds = W d_c - W^2 dz with d_c = lambda^-1 o tgt, and
            dz = W^-2 (G dx + rz + W d_c), leaving G' W^-2 G dx = rhs.
            """
            dc_lin = tgt_lin / lam_lin
            dc_soc = [
                _SocBlock.prod(_SocBlock.inv(lam_soc[k]), tgt_soc[k])
                for k in range(len(socs))
            ]
            rhs = -rx - At @ (winv2 * (rz_lin + sqrt_w * dc_lin))
            for k in range(len(socs)):
                blk = socs[k]
                tmp = _apply_winv2(blk, rz_soc[k] + blk.apply_w(dc_soc[k]))
                # -G_soc' v = +[d; F]' v for these rows
                rhs += soc_adjoint(k, tmp)
            dx = kkt_solve(rhs)
            # one pass of iterative refinement: near the boundary the W^-2
            # recovery of dz amplifies factorization error in dx
            dx += kkt_solve(rhs - kkt_apply(dx))
            dz_lin = winv2 * (A @ dx + rz_lin + sqrt_w * dc_lin)
            ds_lin = sqrt_w * dc_lin - w_lin * dz_lin
            dz_soc = []
            ds_soc = []
            for k in range(len(socs)):
                blk = socs[k]
                Gdx = -_soc_eval_dir(prob.cones[k], dx)
                dz_k = _apply_winv2(blk, Gdx + rz_soc[k] + blk.apply_w(dc_soc[k]))
                ds_k = blk.apply_w(dc_soc[k] - blk.apply_w(dz_k))
                dz_soc.append(dz_k)
                ds_soc.append(ds_k)
            return dx, dz_lin, ds_lin, dz_soc, ds_soc

        def max_steps(ds_lin, dz_lin, ds_soc, dz_soc):
            a = 1.0
            negs = ds_lin < 0
            if np.any(negs):
                a = min(a, float(np.min(-s_lin[negs] / ds_lin[negs])))
            negz = dz_lin < 0
            if np.any(negz):
                a = min(a, float(np.min(-z_lin[negz] / dz_lin[negz])))
            for k in range(len(socs)):
                a = min(a, _SocBlock.max_step(s_soc[k], ds_soc[k]))
                a = min(a, _SocBlock.max_step(z_soc[k], dz_soc[k]))
            return a

        # predictor (affine scaling) direction
        tgt_lin = -lam_lin * lam_lin
        tgt_soc = [-_SocBlock.prod(lam_soc[k], lam_soc[k]) for k in range(len(socs))]
        dxa, dza_lin, dsa_lin, dza_soc, dsa_soc = newton(tgt_lin, tgt_soc)
        a_aff = min(1.0, 0.999 * max_steps(dsa_lin, dza_lin, dsa_soc, dza_soc))
        gap_aff = float((s_lin + a_aff * dsa_lin) @ (z_lin + a_aff * dza_lin))
        for k in range(len(socs)):
            gap_aff += float(
                (s_soc[k] + a_aff * dsa_soc[k]) @ (z_soc[k] + a_aff * dza_soc[k])
            )
        sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-6), 0.9999)
        # with an infeasible start the gap can race ahead of the residuals;
        # hold it with pure centering until feasibility catches up
        gap_rel = gap / (1.0 + abs(float(c @ x)))
        resid_rel = max(pres / scale_p, dres / scale_d)
        if gap_rel < 0.1 * resid_rel:
            sigma = 0.9999

        # corrector with Mehrotra second-order term
        cen_lin = sigma * mu - lam_lin * lam_lin
        cen_soc = []
        tgt_soc = []
        for k in range(len(socs)):
            blk = socs[k]
            e_k = np.zeros(blk.dim)
            e_k[0] = 1.0
            cen_soc.append(sigma * mu * e_k - _SocBlock.prod(lam_soc[k], lam_soc[k]))
            corr = _SocBlock.prod(blk.apply_winv(dsa_soc[k]), blk.apply_w(dza_soc[k]))
            tgt_soc.append(cen_soc[k] - corr)
        dx, dz_lin, ds_lin, dz_soc, ds_soc = newton(cen_lin - dsa_lin * dza_lin, tgt_soc)
        a = min(1.0, 0.99 * max_steps(ds_lin, dz_lin, ds_soc, dz_soc))
        if a < 0.1:
            # the second-order term can jam the step against a cone boundary
            # for many iterations in a row; the plain centred direction from
            # the same factorization often still moves, so take the longer
            cen = newton(cen_lin, cen_soc)
            a_cen = min(1.0, 0.99 * max_steps(cen[2], cen[1], cen[4], cen[3]))
            if a_cen > a:
                dx, dz_lin, ds_lin, dz_soc, ds_soc = cen
                a = a_cen

        x = x + a * dx
        s_lin = s_lin + a * ds_lin
        z_lin = z_lin + a * dz_lin
        for k in range(len(socs)):
            s_soc[k] = s_soc[k] + a * ds_soc[k]
            z_soc[k] = z_soc[k] + a * dz_soc[k]

    if status != "optimal":
        # stalled within the acceptable band: conditioning can floor the
        # dual residual slightly above the requested tolerance even though
        # the iterate is converged for every practical purpose
        acceptable = 1e3 * tol
        if (
            dres <= acceptable * scale_d
            and pres <= acceptable * scale_p
            and gap <= acceptable * (1.0 + abs(float(c @ x)))
        ):
            status = "optimal"

    # multipliers in the original (unequilibrated) row scaling
    lam = z_lin * row_scale
    viol = float(np.max(prob.A @ x - prob.b)) if m_lin else -np.inf
    for cone in prob.cones:
        viol = max(viol, cone.violation(x))
    return Solution(
        x=x,
        lam=lam,
        status=status,
        iterations=it,
        gap=gap,
        dual_residual=dres,
        primal_residual=pres,
        max_violation=viol,
    )


def _is_sparse(M) -> bool:
    """A ``scipy.sparse`` array, told apart without importing scipy.sparse."""
    return hasattr(M, "tocsr")


def _transposed(M):
    """M' in a layout with fast products: CSR when sparse, a view when dense."""
    return M.T.tocsr() if _is_sparse(M) else M.T


def _apply_winv2(blk: _SocBlock, u: np.ndarray) -> np.ndarray:
    return blk.apply_winv(blk.apply_winv(u))


def _soc_eval_dir(cone: ConeConstraint, dx: np.ndarray) -> np.ndarray:
    out = np.empty(1 + cone.F.shape[0])
    out[0] = cone.d @ dx
    out[1:] = cone.F @ dx
    return out


def find_strictly_feasible(
    A: np.ndarray,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    margin: float = 1e-7,
    tol: float = 1e-8,
) -> Optional[np.ndarray]:
    """Phase-one search for a point with A x < b strictly.

    Minimizes the worst violation s subject to A x - s <= b and s >= -1.
    Returns the found point when the optimum is clearly negative, else None.
    """
    m, n = A.shape
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    s0 = float(np.max(A @ x0 - b)) + 1.0
    A1 = np.hstack([A, -np.ones((m, 1))])
    A1 = np.vstack([A1, np.zeros((1, n + 1))])
    A1[-1, -1] = -1.0
    b1 = np.concatenate([b, [1.0]])
    c1 = np.zeros(n + 1)
    c1[-1] = 1.0
    prob = ConicProgram(c=c1, A=A1, b=b1)
    sol = solve(prob, np.concatenate([x0, [s0]]), tol=tol)
    x, s = sol.x[:n], sol.x[-1]
    if s < -margin and np.max(A @ x - b) < -margin / 2:
        return x
    return None
