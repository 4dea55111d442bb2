"""Small dense primal-dual interior-point solver for linear-objective cone programs.

Problems come in conic standard form, as CVXOPT's ``conelp`` takes them::

    minimize    c' x
    subject to  A x + s = b,   s in K

with K a nonnegative orthant over the first rows of ``A`` (the linear rows
A_l x <= b_l) times one second-order cone over each following block of rows,
head first: a cone ||F x + g|| <= d' x + e is the rows -d' and -F with
right sides e and g. The solver is a Mehrotra-style predictor-corrector
primal-dual interior-point method with Nesterov-Todd scaling. The start may
be primal/dual infeasible; both residuals are driven to zero along the way.

Problem sizes here are desk scale (a few hundred variables). ``A`` may be a
dense array or a ``RowOperator``, which applies structured rows without
storing them, so each iteration's products with all rows are one operator
product each. The dominant per-iteration cost is the reduced Newton system:
by default it is assembled densely and factored by Cholesky, and callers
whose constraints have structure can supply a ``kkt`` hook that factors it
their own way, in the style of CVXOPT's ``kktsolver``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, LinAlgError
from scipy.linalg.blas import dtrsv

from .errors import SolverFailure


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
    A: np.ndarray | RowOperator     # the linear rows, then each cone's rows
    b: np.ndarray
    cones: tuple[int, ...] = ()     # the sizes of the second-order cones
    # optional structured Newton solver, see ``KktHook``; None assembles the
    # reduced matrix densely
    kkt: Optional["KktHook"] = None

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        """The number of linear rows."""
        return self.A.shape[0] - sum(self.cones)


# One Newton system per iteration: kkt(wts, scalings) -> solve, with
# solve(r) = M^-1 r for
#   M = A_l' diag(wts) A_l + sum_k A_k' W_k^-2 A_k,
# A_l the linear rows of ``A`` and wts one weight per row of them, A_k the
# rows of cone k and scalings[k] = (beta, v) its Nesterov-Todd scaling
# W_k = beta (2 v v' - J). Factor through ``factor_newton``, which reads only
# the lower triangle and returns the solve with the factor, so the
# regularization and its failure are the solver's.
KktHook = Callable[[np.ndarray, list[tuple[float, np.ndarray]]], Callable[[np.ndarray], np.ndarray]]


def factor_newton(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Cholesky factor of a Newton matrix, shifted by 1e-12 on the diagonal,
    as the solve r -> M^-1 r. Only the lower triangle of M is read.

    When rounding has left it indefinite, the shift grows to 1e-6 of the
    largest diagonal entry once; after that the system is reported as
    ``SolverFailure``. ``M`` is modified in place.
    """
    diag = np.einsum("ii->i", M)
    diag += 1e-12
    try:
        factor, _ = cho_factor(M, lower=True, check_finite=False)
    except LinAlgError:
        diag += 1e-6 * float(np.max(diag))
        try:
            factor, _ = cho_factor(M, lower=True, check_finite=False)
        except LinAlgError:
            raise SolverFailure("Newton system not positive definite")
    # two triangular solves with L: for one right side, cheaper than dpotrs
    return lambda r: dtrsv(factor, dtrsv(factor, r, lower=1), trans=1, lower=1, overwrite_x=1)


def dense_kkt(prob: "ConicProgram") -> KktHook:
    """The reference hook: the reduced Newton matrix assembled densely."""
    A = _dense(prob.A)
    A_l, A_k = A[:prob.m], np.split(A[prob.m:], np.cumsum(prob.cones)[:-1])

    def kkt(wts, scalings):
        M = A_l.T @ (wts[:, None] * A_l)
        for C, (beta, v) in zip(A_k, scalings):
            J = np.ones(len(v))
            J[1:] = -1.0
            W_inv_C = (2.0 * np.outer(J * v, J * v) - np.diag(J)) @ C / beta
            M += W_inv_C.T @ W_inv_C
        return factor_newton(M)

    return kkt


@dataclass
class Solution:
    x: np.ndarray
    s: np.ndarray          # slacks of the rows, b - A x at a solution
    z: np.ndarray          # their multipliers; ``solve`` takes (x, s, z) as a start
    status: str
    iterations: int
    gap: float
    dual_residual: float
    primal_residual: float

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Cones:
    """The cone R+^m x Q^q1 x ... x Q^qK over one stacked slack vector.

    The orthant takes the first m entries, elementwise; the second-order
    cones follow as contiguous blocks, head entry first, handled all at once
    through the (K, q1 + ... + qK) block indicator ``sums``, whose product
    with a vector of the cone part gives one sum per cone.

    ``interior`` keeps an iterate (s, z) and what the step searches from it
    share; ``scale`` computes its Nesterov-Todd scaling W: sqrt(s / z) on
    the orthant and beta (2 v v' - J) on each cone. W and W^-1 are each a
    diagonal plus, on each cone, a rank-1 term; ``apply`` applies one of
    them or W^-2. ``ldiv`` solves lambda o x = u, with lambda = W z, which
    on a cone is not lambda^-1 o u: the Jordan product does not associate.
    """

    def __init__(self, m: int, dims: list[int]):
        sizes = np.asarray(dims, dtype=int)
        self.m = m
        self.dims = dims
        self.heads = np.cumsum(sizes) - sizes                # within the cone part
        self.at_heads = m + self.heads                       # within the whole vector
        self.block = np.repeat(np.arange(len(dims)), sizes)
        self.sums = (self.block == np.arange(len(dims))[:, None]).astype(float)
        self.jsign = -np.ones(int(sizes.sum()))
        self.jsign[self.heads] = 1.0
        self.unit = np.concatenate([np.ones(m), (self.jsign > 0).astype(float)])
        self.degree = m + len(dims)
        self.beta = np.empty(0)

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
        m, heads = self.m, self.at_heads
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
        m, heads, root = self.m, self.at_heads, np.sqrt(mu)
        s_o = np.maximum(s[:m], mu / np.maximum(z[:m], root))
        z_o = np.maximum(z[:m], mu / np.maximum(s[:m], root))
        s, z = s.copy(), z.copy()
        s[:m], z[:m] = s_o, z_o
        for u in (s, z):
            u[heads] = np.maximum(u[heads], self._tail_norms(u) + root)
        return s, z

    def interior(self, u: np.ndarray) -> bool:
        """Whether both rows of u = [s; z] are strictly inside the cone. If
        so, keeps them with what every step search from them shares: the
        reciprocals of their orthant entries and cone heads, and u'Ju on
        each cone."""
        m = self.m
        heads = u[:, self.at_heads]
        uju = self._jdot(u[:, m:], u[:, m:])
        if not ((m == 0 or u[:, :m].min() > 0) and (not self.dims or heads.min() > 0 and uju.min() > 0)):
            return False
        self.u, self.inv_orthant, self.inv_heads, self.uju = u, 1.0 / u[:, :m], 1.0 / heads, uju
        return True

    def scale(self) -> np.ndarray:
        """Compute W at the iterate ``interior`` kept; returns lambda = W z
        and keeps what ``ldiv`` divides by."""
        s, z = self.u
        m = self.m
        terms = self._scale_cones() if self.dims else ((None, None),) * 2
        # on a cone W = beta (2 v v' - J), whose diagonal part is -beta J
        w_diag = np.concatenate([np.sqrt(s[:m] / z[:m]), -self.jsign * self.beta[self.block]])
        winv_diag = 1.0 / w_diag
        self.W, self.Winv = (w_diag, *terms[0]), (winv_diag, *terms[1])
        self.winv_sq = winv_diag * winv_diag
        lam = self.apply(self.W, z)
        self.lam, self.inv_lam, lam_c = lam, 1.0 / lam[:m], lam[m:]
        self.lam_jj, self.lam_heads = self._jdot(lam_c, lam_c), lam_c[self.heads][self.block]
        return lam

    def _scale_cones(self) -> tuple:
        """On each cone the scaling point satisfies P(w) z = s, and W is its
        square root, built from the Jordan square root of the normalized
        point. Keeps beta and v of each cone and returns the cone terms of
        W and W^-1 as ``apply`` takes them."""
        blk, jsign = self.block, self.jsign
        s_res, z_res = self.uju
        sbar, zbar = self.u[:, self.m:] / np.sqrt(self.uju)[:, blk]
        gamma = np.sqrt((1.0 + self.sums @ (sbar * zbar)) / 2.0)
        wbar = (sbar + jsign * zbar) / (2.0 * gamma)[blk]
        v = (wbar + self.unit[self.m:]) / np.sqrt(2.0 * (wbar[self.heads] + 1.0))[blk]
        self.beta, self.v = (s_res / z_res) ** 0.25, v
        # W u = beta (2 v (v'u) - J u) and W^-1 u = (2 Jv ((Jv)'u) - J u) /
        # beta: the rows v' and (Jv)' of each cone, and their multiples
        b = self.beta[:, None]
        V, JV = self.sums * v, self.sums * (jsign * v)
        return (V, 2.0 * b * V), (JV, 2.0 / b * JV)

    def apply(self, op, u: np.ndarray, twice: bool = False) -> np.ndarray:
        """u under W or W^-1 (``op`` is ``W`` or ``Winv``), or under W^-2
        with ``twice``: a diagonal, plus on each cone a rank-1 term. The
        square's diagonal on the orthant is one product; on a cone it is
        applied as two steps, which keeps the rounding of each step's
        rank-1 term apart near the cone's boundary."""
        diag, rows, terms = op
        m = self.m
        out = (self.winv_sq if twice else diag) * u
        if self.dims:
            u_c = u[m:]
            if twice:
                u_c = diag[m:] * u_c + (rows @ u_c) @ terms
                out[m:] = diag[m:] * u_c
            out[m:] += (rows @ u_c) @ terms
        return out

    def scalings(self) -> list[tuple[float, np.ndarray]]:
        """(beta, v) of each second-order cone, as ``KktHook`` takes them."""
        return [(float(self.beta[k]), self.v[head:head + dim])
                for k, (head, dim) in enumerate(zip(self.heads, self.dims))]

    def prod(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Jordan product u o w."""
        out = u * w
        out[self.m:] = self._prod(u[self.m:], w[self.m:])
        return out

    def ldiv(self, u: np.ndarray) -> np.ndarray:
        """x with lambda o x = u, for the lambda of the last ``scale``: on each
        cone x0 = (lambda0 u0 - lambda1'u1) / (lambda'J lambda), x1 = (u1 -
        x0 lambda1) / lambda0, the solve with lambda's arrow matrix."""
        m, lam_c, u_c = self.m, self.lam[self.m:], u[self.m:]
        x0 = self._jdot(lam_c, u_c) / self.lam_jj
        out = np.concatenate([self.inv_lam * u[:m], (u_c - x0[self.block] * lam_c) / self.lam_heads])
        out[self.at_heads] = x0
        return out

    def max_step(self, du: np.ndarray) -> float:
        """Largest a <= 1 with both rows of u + a du in the cone, from the
        iterate u = [s; z] that ``interior`` kept and du = [ds; dz].

        A ratio test on the orthant and the cones' head entries, and on each
        cone the smallest positive root of q(a) = (u + a du)' J (u + a du) =
        a2 a^2 + 2 b a + a0, in the form a0 / (sqrt(b^2 - a2 a0) - b), which
        stays exact as the quadratic term vanishes.
        """
        m = self.m
        worst = -min(float((du[:, :m] * self.inv_orthant).min(initial=0.0)),
                     float((du[:, self.at_heads] * self.inv_heads).min(initial=0.0)))
        a = 1.0 / worst if worst > 1.0 else 1.0
        if not self.dims:
            return a
        du_c = du[:, m:]
        jdu = self.jsign * du_c
        a2, b = (jdu * du_c) @ self.sums.T, (jdu * self.u[:, m:]) @ self.sums.T
        for q2, q1, q0 in zip(a2.ravel().tolist(), b.ravel().tolist(), self.uju.ravel().tolist()):
            disc = q1 * q1 - q2 * q0
            if disc >= 0 and math.sqrt(disc) - q1 > 0:
                a = min(a, q0 / (math.sqrt(disc) - q1))
        return a


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
    A, At, m = prob.A, prob.A.T, prob.m
    # G x + s = h is A x + s = b with the linear rows equilibrated, which
    # keeps their multipliers commensurate
    row_scale = _equilibrate(A, m)
    h = row_scale * prob.b
    cones = _Cones(m, list(prob.cones))
    sq = row_scale[:m] ** 2
    kkt = prob.kkt if prob.kkt is not None else dense_kkt(prob)
    scale_p = 1.0 + float(np.linalg.norm(h[:m])) + float(np.sum(np.sqrt(cones.sums @ (h[m:] * h[m:]))))
    scale_d = 1.0 + float(np.linalg.norm(c))

    def G(x):
        return row_scale * (A @ x)

    def Gt(z):
        return At @ (row_scale * z)

    if start is None:
        # least-squares initialization: x from min ||Gx - h||, z = G y with
        # y = -M0^-1 c (exactly dual feasible before the cone shift), then
        # both s and z shifted into their cone interiors; M0 is the Newton
        # matrix at unit weights and identity scalings
        cones.interior(np.stack([cones.unit, cones.unit]))
        cones.scale()                                  # W = I at s = z = e
        solve0 = kkt(sq, cones.scalings())
        x = solve0(Gt(h))
        gx = G(x)
        s = cones.shift_inside(h - gx)
        z = cones.shift_inside(G(solve0(-c)))
    else:
        x, s, z = (np.array(v, dtype=float) for v in start)
        s *= row_scale
        z /= row_scale
        # centred on the mu that balances its gap against its residuals;
        # centring moves the dual residual, so mu is balanced once more
        # against the centred point's, and never lowered
        mu, centred, gx = 0.0, (s, z), G(x)
        for _ in range(2):
            s_c, z_c = centred
            mu = max(mu, _start_mu(gx + s_c - h, c + Gt(z_c), s_c @ z_c, c @ x,
                                   scale_p, scale_d, cones.degree, tol))
            centred = cones.centre(s, z, mu)
        s, z = centred

    status = "max_iter"
    best_progress = np.inf
    since_improved = 0
    it = 0
    sz = np.array([s, z])
    # the iterate closest to the stopping test: its largest measure relative
    # to its scale, with x, [s; z], gap, primal and dual residual
    best = (np.inf, x, sz, np.inf, np.inf, np.inf)

    for it in range(1, max_iter + 1):
        s, z = sz
        rx = c + Gt(z)
        rz = gx + s - h
        gap = float(s @ z)
        pres = math.sqrt(rz @ rz)
        dres = math.sqrt(rx @ rx)
        score = max(dres / scale_d, pres / scale_p, gap / (1.0 + abs(float(c @ x))))
        if score <= tol:
            status = "optimal"
            break
        if score < best[0]:
            best = (score, x, sz, gap, pres, dres)
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
        if not cones.interior(sz):
            status = "stalled"
            break
        lam = cones.scale()
        mu = gap / cones.degree
        kkt_solve = kkt(sq * cones.winv_sq[:m], cones.scalings())
        neg_rx = -rx

        def newton(d_c):
            """Direction (dx, [ds; dz]), then W^-1 ds and W dz, for targets
            tgt = desired lambda o (W^-1 ds + W dz), given as d_c with
            lambda o d_c = tgt. Eliminations: dz = W^-2 (G dx + rz + W d_c),
            leaving G' W^-2 G dx = -rx - G' W^-2 (rz + W d_c), and W^-1 ds =
            d_c - W dz, where W dz is the first half of W^-2.
            """
            r = rz + cones.apply(cones.W, d_c)
            dx = kkt_solve(neg_rx - Gt(cones.apply(cones.Winv, r, twice=True)))
            w_dz = cones.apply(cones.Winv, G(dx) + r)
            w_ds = d_c - w_dz
            return dx, np.array([cones.apply(cones.W, w_ds), cones.apply(cones.Winv, w_dz)]), w_ds, w_dz

        # predictor (affine scaling) direction, for -lambda o lambda: it only
        # sets sigma and the second-order term
        _, dsza, w_dsa, w_dza = newton(-lam)
        a_aff = min(1.0, 0.999 * cones.max_step(dsza))
        s_aff, z_aff = sz + a_aff * dsza
        sigma = min(max((max(float(s_aff @ z_aff), 0.0) / gap) ** 3, 1e-6), 0.9999)
        # with an infeasible start the gap can race ahead of the residuals;
        # hold it with pure centering until feasibility catches up
        gap_rel = gap / (1.0 + abs(float(c @ x)))
        resid_rel = max(pres / scale_p, dres / scale_d)
        if gap_rel < 0.1 * resid_rel:
            sigma = 0.9999

        # corrector with Mehrotra second-order term
        cen = sigma * mu * cones.unit - cones.prod(lam, lam)
        dx, dsz, _, _ = newton(cones.ldiv(cen - cones.prod(w_dsa, w_dza)))
        a = min(1.0, 0.99 * cones.max_step(dsz))
        if a < 0.1:
            # the second-order term can jam the step against a cone boundary
            # for many iterations in a row; the plain centred direction from
            # the same factorization often still moves, so take the longer
            centred = newton(cones.ldiv(cen))[:2]
            a_cen = min(1.0, 0.99 * cones.max_step(centred[1]))
            if a_cen > a:
                (dx, dsz), a = centred, a_cen

        x = x + a * dx
        gx = G(x)
        sz = sz + a * dsz

    if status != "optimal":
        # near the optimum of a degenerate problem the Newton error can throw
        # the dual residual back up, so the best iterate is the answer; it is
        # accepted within a band, where conditioning floors the residuals
        # slightly above the requested tolerance even though the iterate is
        # converged for every practical purpose
        score, x, sz, gap, pres, dres = best
        if score <= 1e3 * tol:
            status = "optimal"

    # slacks and multipliers in the original (unequilibrated) row scaling
    return Solution(
        x=x,
        s=sz[0] / row_scale,
        z=sz[1] * row_scale,
        status=status,
        iterations=it,
        gap=gap,
        dual_residual=dres,
        primal_residual=pres,
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


def _row_max(A) -> np.ndarray:
    """The largest magnitude in each row of A."""
    return A.row_max() if isinstance(A, RowOperator) else np.abs(A).max(axis=1, initial=0.0)


def _equilibrate(A, m: int) -> np.ndarray:
    """Row factors of A: over its first m rows, one over each row's largest
    magnitude where that exceeds 1, else 1; 1 on the rows after them."""
    scale = 1.0 / np.maximum(_row_max(A), 1.0)
    scale[m:] = 1.0
    return scale


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
        solve_base = base(wts[:m], scalings)
        a = A.T @ wts[:m]
        sigma = float(wts.sum())
        m_a = solve_base(a)
        schur = sigma - float(a @ m_a)

        def solve_one(r):
            x = solve_base(r[:-1])
            s = (r[-1] + float(a @ x)) / schur
            return np.append(x + s * m_a, s)

        return solve_one

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
