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
dense array or a ``RowOperator``, which applies structured rows without
storing them; the cone rows ``F`` likewise. The dominant per-iteration cost
is the reduced Newton system: by default it is assembled densely and
factored by Cholesky, and callers whose constraints have structure can
supply a ``kkt`` hook that factors it their own way, in the style of
CVXOPT's ``kktsolver``.
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


class RowOperator:
    """Constraint rows applied rather than stored, as CVXOPT's cone solvers
    take G as a function. A subclass gives ``shape``, ``A @ x``,
    ``rmatvec(z)`` = A' z, ``row_max()`` (each row's largest magnitude) and
    ``toarray()``, the dense reference; ``A.T @ z`` calls ``rmatvec``."""

    @property
    def T(self):
        return _Adjoint(self)


class _Adjoint:
    def __init__(self, rows: RowOperator):
        self.rows = rows

    def __matmul__(self, z):
        return self.rows.rmatvec(z)


@dataclass(frozen=True)
class ConicProgram:
    c: np.ndarray
    A: np.ndarray | RowOperator
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
# the residual r - apply(solve(r)) when that exceeds 1e-10 ||r||. Factor
# through ``factor_newton`` so the regularization and its failure are the
# solver's.
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
    A = _dense(prob.A)
    rows = [(cone.d, _dense(cone.F)) for cone in prob.cones]
    gram = [np.outer(d, d) + F.T @ F for d, F in rows]

    def kkt(wts, scalings):
        M = A.T @ (wts[:, None] * A)
        for (d, F), GtG, (beta, v) in zip(rows, gram, scalings):
            # W^-2 = (I + 4 (v'v) Jv (Jv)' - 2 Jv v' - 2 v (Jv)') / beta^2
            Gt_Jv = d * v[0] - F.T @ v[1:]
            Gt_v = d * v[0] + F.T @ v[1:]
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
    s: np.ndarray          # slacks of the rows A x <= b, then of each cone's rows
    z: np.ndarray          # their multipliers; ``solve`` takes (x, s, z) as a start
    status: str
    iterations: int
    gap: float
    dual_residual: float
    primal_residual: float
    max_violation: float
    refinements: int = 0   # Newton solves refined by a second solve with the factor

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Cones:
    """The cone R+^m x Q^q1 x ... x Q^qK over one stacked slack vector.

    The orthant takes the first m entries, elementwise; the second-order
    cones follow as contiguous blocks, head entry first, handled all at once
    through the (K, q1 + ... + qK) block indicator ``sums``, whose product
    with a vector of the cone part gives one sum per cone. ``scale`` stores
    the Nesterov-Todd scaling W of an iterate, which ``w`` and ``winv``
    apply: sqrt(s / z) on the orthant and beta (2 v v' - J) on each cone.
    """

    def __init__(self, m: int, dims: list[int]):
        sizes = np.asarray(dims, dtype=int)
        self.m = m
        self.dims = dims
        self.heads = np.cumsum(sizes) - sizes                # within the cone part
        self.block = np.repeat(np.arange(len(dims)), sizes)
        self.sums = (self.block == np.arange(len(dims))[:, None]).astype(float)
        self.jsign = -np.ones(int(sizes.sum()))
        self.jsign[self.heads] = 1.0
        self.unit = np.concatenate([np.ones(m), (self.jsign > 0).astype(float)])
        self.degree = m + len(dims)

    def _jdot(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """u' J w per cone, of cone parts (or of rows of them)."""
        return (self.jsign * u * w) @ self.sums.T

    def _prod(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Jordan product of cone parts: (u'w, u0 w1 + w0 u1) per cone."""
        out = u[self.heads][self.block] * w + w[self.heads][self.block] * u
        out[self.heads] = self.sums @ (u * w)
        return out

    def _tail_norms(self, u: np.ndarray) -> np.ndarray:
        """||u1|| of each second-order cone's part (u0, u1) of u."""
        tail = u[self.m:] * u[self.m:]
        tail[self.heads] = 0.0
        return np.sqrt(self.sums @ tail)

    def shift_inside(self, u: np.ndarray) -> np.ndarray:
        """u moved to at least one unit inside the cone: the orthant by one
        common shift, each second-order cone through its head entry."""
        m, heads = self.m, self.m + self.heads
        u = u.copy()
        if m:
            u[:m] += max(0.0, 1.0 - float(np.min(u[:m])))
        u[heads] += np.maximum(0.0, 1.0 - (u[heads] - self._tail_norms(u)))
        return u

    def centre(self, s: np.ndarray, z: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """(s, z) moved inside the cone and onto the central path at mu where
        that takes the least change: on the orthant the smaller of s_i and
        z_i rises until s_i z_i >= mu, both to sqrt(mu) when both are below
        it; each cone's s and z rise through their heads until u0 - ||u1||
        >= sqrt(mu)."""
        m, heads, root = self.m, self.m + self.heads, np.sqrt(mu)
        s_o = np.maximum(s[:m], mu / np.maximum(z[:m], root))
        z_o = np.maximum(z[:m], mu / np.maximum(s[:m], root))
        s, z = s.copy(), z.copy()
        s[:m], z[:m] = s_o, z_o
        for u in (s, z):
            u[heads] = np.maximum(u[heads], self._tail_norms(u) + root)
        return s, z

    def interior(self, u: np.ndarray) -> bool:
        """Every row of u strictly inside the cone."""
        m = self.m
        return bool(np.all(u[:, :m] > 0) and np.all(u[:, m + self.heads] > 0)
                    and np.all(self._jdot(u[:, m:], u[:, m:]) > 0))

    def scale(self, s: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Compute W from the iterate (s, z); returns lambda = W z."""
        m = self.m
        self.w_diag = np.empty_like(s)
        self.w_diag[:m] = np.sqrt(s[:m] / z[:m])
        if self.dims:
            self._scale_cones(s[m:], z[m:])
        self.winv_diag = 1.0 / self.w_diag
        return self.w(z)

    def _scale_cones(self, s: np.ndarray, z: np.ndarray) -> None:
        """On each cone the scaling point satisfies P(w) z = s, and W is its
        square root, built from the Jordan square root of the normalized
        point."""
        blk, jsign = self.block, self.jsign
        s_res = self._jdot(s, s)
        z_res = self._jdot(z, z)
        sbar = s / np.sqrt(s_res)[blk]
        zbar = z / np.sqrt(z_res)[blk]
        gamma = np.sqrt((1.0 + self.sums @ (sbar * zbar)) / 2.0)
        wbar = (sbar + jsign * zbar) / (2.0 * gamma)[blk]
        v = (wbar + self.unit[self.m:]) / np.sqrt(2.0 * (wbar[self.heads] + 1.0))[blk]
        self.beta = (s_res / z_res) ** 0.25
        self.v = v
        beta = self.beta[blk]
        self.w_diag[self.m:] = -jsign * beta
        # W u = beta (2 v (v'u) - J u), W^-1 u = (2 Jv (Jv)'u - J u) / beta
        self.w_low, self.v_rows = 2.0 * beta * v, self.sums * v
        self.winv_low, self.jv_rows = 2.0 * jsign * v / beta, self.sums * (jsign * v)

    def scalings(self) -> list[tuple[float, np.ndarray]]:
        """(beta, v) of each second-order cone, as ``KktHook`` takes them."""
        return [(float(self.beta[k]), self.v[head:head + dim])
                for k, (head, dim) in enumerate(zip(self.heads, self.dims))]

    def w(self, u: np.ndarray) -> np.ndarray:
        out = self.w_diag * u
        if self.dims:
            out[self.m:] += self.w_low * (self.v_rows @ u[self.m:])[self.block]
        return out

    def winv(self, u: np.ndarray) -> np.ndarray:
        out = self.winv_diag * u
        if self.dims:
            out[self.m:] += self.winv_low * (self.jv_rows @ u[self.m:])[self.block]
        return out

    def prod(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Jordan product u o w."""
        m = self.m
        if not self.dims:
            return u * w
        return np.concatenate([u[:m] * w[:m], self._prod(u[m:], w[m:])])

    def ldiv(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """lam^-1 o u; on a cone, the inverse J lam / (lam' J lam) first."""
        m = self.m
        if not self.dims:
            return u / lam
        lam_c = lam[m:]
        inv = self.jsign * lam_c / self._jdot(lam_c, lam_c)[self.block]
        return np.concatenate([u[:m] / lam[:m], self._prod(inv, u[m:])])

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        """Largest a <= 1 with every row of u + a du in the cone, for rows of
        u in its interior (u and du hold one point per row).

        A ratio test on the orthant and the cones' head entries, and on each
        cone the smallest positive root of q(a) = (u + a du)' J (u + a du) =
        a2 a^2 + 2 b a + a0, in the form a0 / (sqrt(b^2 - a2 a0) - b), which
        stays exact as the quadratic term vanishes.
        """
        m, heads = self.m, self.m + self.heads
        worst = max(float(np.max(-du[:, :m] / u[:, :m], initial=0.0)),
                    float(np.max(-du[:, heads] / u[:, heads], initial=0.0)))
        a = 1.0 / worst if worst > 1.0 else 1.0
        if not self.dims:
            return a
        u_c, du_c = u[:, m:], du[:, m:]
        a2, b, a0 = self._jdot(np.stack([du_c, u_c, u_c]), np.stack([du_c, du_c, u_c]))
        disc = b * b - a2 * a0
        denom = np.sqrt(np.maximum(disc, 0.0)) - b
        ok = (disc >= 0) & (denom > 0)
        return min(a, float(np.min(a0[ok] / denom[ok]))) if np.any(ok) else a


def solve(
    prob: ConicProgram,
    start: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    tol: float = 1e-8,
    max_iter: int = 60,
    stall_window: int = 10,
) -> Solution:
    """Predictor-corrector interior-point iteration in conic standard form.

    ``start`` is an optional start point (x, s, z) in the layout of
    ``Solution``, for example an earlier solution of a similar program. s
    and z need not lie inside the cone: ``_Cones.centre`` moves them onto
    the central path at the mu of ``_start_mu``. Without a start the
    iteration starts from a least-squares point, at the price of one more
    Newton factorization. Neither start needs to be feasible. ``status`` is
    "optimal" when the relative primal residual, dual residual, and duality
    gap are all below ``tol``, otherwise "stalled" or "max_iter" with the
    best iterate.
    """
    c = np.asarray(prob.c, dtype=float)
    m = prob.A.shape[0]
    # G x + s = h with the linear rows, then each cone's rows -[d'; F] and
    # h = [e; g]; the linear rows are equilibrated, which keeps their
    # multipliers commensurate
    row_scale = _equilibrate(prob.A)
    G, Gt = _stack(prob.A, row_scale, prob.cones)
    h = np.concatenate([prob.b * row_scale]
                       + [np.concatenate([[cone.e], cone.g]) for cone in prob.cones])
    cones = _Cones(m, [1 + cone.F.shape[0] for cone in prob.cones])
    sq = row_scale * row_scale
    kkt = prob.kkt if prob.kkt is not None else dense_kkt(prob)
    scale_p = 1.0 + float(np.linalg.norm(h[:m])) + float(np.sum(np.sqrt(cones.sums @ (h[m:] * h[m:]))))
    scale_d = 1.0 + float(np.linalg.norm(c))

    if start is None:
        # least-squares initialization: x from min ||Gx - h||, z = G y with
        # y = -M0^-1 c (exactly dual feasible before the cone shift), then
        # both s and z shifted into their cone interiors; M0 is the Newton
        # matrix at unit weights and identity scalings
        cones.scale(cones.unit, cones.unit)            # W = I at s = z = e
        solve0, _ = kkt(sq, cones.scalings())
        x = solve0(Gt(h))
        s = cones.shift_inside(h - G(x))
        z = cones.shift_inside(G(solve0(-c)))
    else:
        x, s, z = (np.array(v, dtype=float) for v in start)
        s[:m] *= row_scale
        z[:m] /= row_scale
        # centred on the mu that balances its gap against its residuals;
        # centring moves the dual residual, so mu is balanced once more
        # against the centred point's, and never lowered
        mu, centred = 0.0, (s, z)
        for _ in range(2):
            s_c, z_c = centred
            mu = max(mu, _start_mu(G(x) + s_c - h, c + Gt(z_c), s_c @ z_c, c @ x,
                                   scale_p, scale_d, cones.degree, tol))
            centred = cones.centre(s, z, mu)
        s, z = centred

    status = "max_iter"
    best_progress = np.inf
    since_improved = 0
    it = refinements = 0
    # the iterate closest to the stopping test: its largest measure relative
    # to its scale, with x, s, z, gap, primal and dual residual
    best = (np.inf, x, s, z, np.inf, np.inf, np.inf)

    for it in range(1, max_iter + 1):
        rx = c + Gt(z)
        rz = G(x) + s - h
        gap = float(s @ z)
        pres = float(np.linalg.norm(rz))
        dres = float(np.linalg.norm(rx))
        score = max(dres / scale_d, pres / scale_p, gap / (1.0 + abs(float(c @ x))))
        if score <= tol:
            status = "optimal"
            break
        if score < best[0]:
            best = (score, x, s, z, gap, pres, dres)
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
        sz = np.stack([s, z])
        if not cones.interior(sz):
            status = "stalled"
            break
        lam = cones.scale(s, z)
        mu = gap / cones.degree
        kkt_solve, kkt_apply = kkt(sq * cones.winv_diag[:m] ** 2, cones.scalings())

        def newton(tgt):
            """Direction for targets tgt = desired lambda o (W^-T ds + W dz).

            Eliminations: ds = W d_c - W^2 dz with d_c = lambda^-1 o tgt, and
            dz = W^-2 (G dx + rz + W d_c), leaving G' W^-2 G dx = rhs.
            """
            nonlocal refinements
            w_dc = cones.w(cones.ldiv(lam, tgt))
            rhs = -rx - Gt(cones.winv(cones.winv(rz + w_dc)))
            dx = kkt_solve(rhs)
            # one pass of iterative refinement where the residual shows
            # factorization error: near the boundary the W^-2 recovery of dz
            # amplifies it
            res = rhs - kkt_apply(dx)
            if np.linalg.norm(res) > 1e-10 * np.linalg.norm(rhs):
                dx += kkt_solve(res)
                refinements += 1
            dz = cones.winv(cones.winv(G(dx) + rz + w_dc))
            return dx, w_dc - cones.w(cones.w(dz)), dz

        def max_step(ds, dz):
            return cones.max_step(sz, np.stack([ds, dz]))

        # predictor (affine scaling) direction
        lam_sq = cones.prod(lam, lam)
        dxa, dsa, dza = newton(-lam_sq)
        a_aff = min(1.0, 0.999 * max_step(dsa, dza))
        gap_aff = float((s + a_aff * dsa) @ (z + a_aff * dza))
        sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-6), 0.9999)
        # with an infeasible start the gap can race ahead of the residuals;
        # hold it with pure centering until feasibility catches up
        gap_rel = gap / (1.0 + abs(float(c @ x)))
        resid_rel = max(pres / scale_p, dres / scale_d)
        if gap_rel < 0.1 * resid_rel:
            sigma = 0.9999

        # corrector with Mehrotra second-order term
        cen = sigma * mu * cones.unit - lam_sq
        dx, ds, dz = newton(cen - cones.prod(cones.winv(dsa), cones.w(dza)))
        a = min(1.0, 0.99 * max_step(ds, dz))
        if a < 0.1:
            # the second-order term can jam the step against a cone boundary
            # for many iterations in a row; the plain centred direction from
            # the same factorization often still moves, so take the longer
            centred = newton(cen)
            a_cen = min(1.0, 0.99 * max_step(centred[1], centred[2]))
            if a_cen > a:
                (dx, ds, dz), a = centred, a_cen

        x = x + a * dx
        s = s + a * ds
        z = z + a * dz

    if status != "optimal":
        # near the optimum of a degenerate problem the Newton error can throw
        # the dual residual back up, so the best iterate is the answer; it is
        # accepted within a band, where conditioning floors the residuals
        # slightly above the requested tolerance even though the iterate is
        # converged for every practical purpose
        score, x, s, z, gap, pres, dres = best
        if score <= 1e3 * tol:
            status = "optimal"

    # slacks and multipliers in the original (unequilibrated) row scaling
    s = np.concatenate([s[:m] / row_scale, s[m:]])
    z = np.concatenate([z[:m] * row_scale, z[m:]])
    viol = float(np.max(prob.A @ x - prob.b)) if m else -np.inf
    for cone in prob.cones:
        viol = max(viol, cone.violation(x))
    return Solution(
        x=x,
        s=s,
        z=z,
        status=status,
        iterations=it,
        gap=gap,
        dual_residual=dres,
        primal_residual=pres,
        max_violation=viol,
        refinements=refinements,
    )


def _start_mu(rz, rx, gap, cost, scale_p, scale_d, degree, tol) -> float:
    """The mu a start is centred on (``_Cones.centre``), from its primal and
    dual residuals rz and rx, its gap s'z and its cost c'x.

    A start from a nearby program is nearly complementary, s_i z_i ~ 0, so
    its first Newton step would stop at the cone's boundary. Centred on mu,
    its relative gap is degree * mu / (1 + |c'x|), and mu is chosen so that
    this equals its relative residual: the three measures of the stopping
    test then start level, the balance the iteration keeps (it only centres
    while the gap is below a tenth of the residual). A start whose own gap
    is larger keeps it, and a start that already solves the program within
    ``tol`` is centred at that tolerance. Centred on a tenth of this mu, the
    MPC week's hardest solves took up to 19 iterations more than cold ones.
    """
    resid = max(float(np.linalg.norm(rz)) / scale_p, float(np.linalg.norm(rx)) / scale_d, tol)
    return max(resid * (1.0 + abs(float(cost))), float(gap)) / degree


def _dense(M) -> np.ndarray:
    """M as an array: an array itself, or a ``RowOperator``'s ``toarray()``."""
    return M.toarray() if isinstance(M, RowOperator) else M


def _stack(A, scale: np.ndarray, cones):
    """(G x, G' z) as functions, for G = [diag(scale) A; -d_1'; -F_1; ...]:
    the rows of A, each multiplied by its ``scale``, then each cone's rows."""
    m = A.shape[0]
    sizes = [1 + cone.F.shape[0] for cone in cones]
    ends = m + np.cumsum(sizes, dtype=int)
    heads = ends - sizes

    def apply(x):
        out = np.empty(m + sum(sizes))
        out[:m] = scale * (A @ x)
        for cone, at, end in zip(cones, heads, ends):
            out[at] = -(cone.d @ x)
            out[at + 1:end] = -(cone.F @ x)
        return out

    def apply_t(z):
        out = A.T @ (scale * z[:m])
        for cone, at, end in zip(cones, heads, ends):
            out -= cone.d * z[at] + cone.F.T @ z[at + 1:end]
        return out

    return apply, apply_t


def _row_max(A) -> np.ndarray:
    """The largest magnitude in each row of A."""
    return A.row_max() if isinstance(A, RowOperator) else np.abs(A).max(axis=1, initial=0.0)


def _equilibrate(A) -> np.ndarray:
    """Row factors of A: one over each row's largest magnitude where that
    exceeds 1, else 1."""
    return 1.0 / np.maximum(_row_max(A), 1.0)


def find_strictly_feasible(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    margin: float = 1e-7,
    tol: float = 1e-8,
    kkt: Optional[KktHook] = None,
) -> Optional[np.ndarray]:
    """Phase-one search for a point with A x < b strictly.

    Minimizes the worst violation s subject to A x - s <= b and s >= -1.
    Returns the found point when the optimum is clearly negative, else None.
    ``A`` is an array or a ``RowOperator``; ``kkt`` is the Newton hook of a
    program with the rows A x <= b, which the phase-one program borders
    (``phase_one``).
    """
    n = A.shape[1]
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    # x0 with the worst violation plus one puts every row one unit inside
    x1 = np.append(x0, float(np.max(A @ x0 - b)) + 1.0)
    prog = phase_one(A, b, kkt)
    # the multiplier 1 on -s <= 1 alone cancels the cost of s: exactly dual
    # feasible, as x1 is primal feasible
    z1 = np.zeros(len(prog.b))
    z1[-1] = 1.0
    sol = solve(prog, (x1, prog.b - prog.A @ x1, z1), tol=tol)
    x, s = sol.x[:n], sol.x[-1]
    if s < -margin and np.max(A @ x - b) < -margin / 2:
        return x
    return None


def phase_one(A, b: np.ndarray, kkt: Optional[KktHook] = None) -> ConicProgram:
    """The phase-one program over (x, s): minimize s subject to the rows
    [A, -1] (x, s) <= b and -s <= 1.

    Its Newton matrix borders the base one, M = A' D A, with D the weights
    of the rows of A, by the column -a = -A' D 1 and the corner
    sigma = 1' D 1 + w_s. ``kkt`` (``dense_kkt`` of the rows when None)
    factors M; each phase-one solve is two solves with that factor, one of
    them shared by the whole iteration, and the scalar Schur complement
    sigma - a' M^-1 a.
    """
    m, n = A.shape
    base = kkt if kkt is not None else dense_kkt(ConicProgram(c=np.zeros(n), A=A, b=b))

    def bordered(wts, scalings):
        solve_base, apply_base = base(wts[:m], scalings)
        a = A.T @ wts[:m]
        sigma = float(wts.sum())
        m_a = solve_base(a)
        schur = sigma - float(a @ m_a)

        def solve_one(r):
            x = solve_base(r[:-1])
            s = (r[-1] + float(a @ x)) / schur
            return np.append(x + s * m_a, s)

        def apply(x):
            return np.append(apply_base(x[:-1]) - a * x[-1], sigma * x[-1] - float(a @ x[:-1]))

        return solve_one, apply

    c1 = np.zeros(n + 1)
    c1[-1] = 1.0
    return ConicProgram(c=c1, A=_Bordered(A), b=np.append(b, 1.0), kkt=bordered)


class _Bordered(RowOperator):
    """The phase-one rows [A, -1; 0, -1] over (x, s)."""

    def __init__(self, A):
        self.A = A
        self.shape = (A.shape[0] + 1, A.shape[1] + 1)

    def __matmul__(self, xs):
        return np.append(self.A @ xs[:-1] - xs[-1], -xs[-1])

    def rmatvec(self, z):
        return np.append(self.A.T @ z[:-1], -z.sum())

    def row_max(self):
        return np.append(np.maximum(_row_max(self.A), 1.0), 1.0)

    def toarray(self):
        m, n = self.A.shape
        return np.block([[_dense(self.A), -np.ones((m, 1))], [np.zeros((1, n)), -np.ones((1, 1))]])
