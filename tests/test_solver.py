import numpy as np
import pytest
from scipy.optimize import linprog

from thermobench.errors import SolverFailure
from thermobench.mpc import HorizonRows
from thermobench.solver import (
    ConicProgram,
    dense_kkt,
    find_strictly_feasible,
    solve,
)


def box_rows(n, lo, hi):
    A = np.vstack([-np.eye(n), np.eye(n)])
    b = np.concatenate([-lo * np.ones(n), hi * np.ones(n)])
    return A, b


def cone_rows(F, g, d, e=0.0):
    """The rows and right sides of the cone ||F x + g|| <= d' x + e in
    standard form A x + s = b: the head row -d' with e, then -F with g."""
    return np.vstack([-d, -F]), np.concatenate([[e], g])


def with_cones(c, A, b, cones):
    """The program with the linear rows A x <= b and the cones given as
    (F, g, d) triples, their rows after the linear ones."""
    rows = [cone_rows(*cone) for cone in cones]
    return ConicProgram(c=c, A=np.vstack([A] + [r for r, _ in rows]),
                        b=np.concatenate([b] + [rhs for _, rhs in rows]),
                        cones=tuple(len(rhs) for _, rhs in rows))


def primal_start(prob, x):
    """A start at the primal point x: its slacks, and zero multipliers."""
    s = prob.b - prob.A @ x
    return x, s, np.zeros(len(s))


def test_simple_lp():
    A, b = box_rows(2, 1.0, 10.0)
    prob = ConicProgram(c=np.ones(2), A=A, b=b)
    sol = solve(prob, primal_start(prob, np.array([5.0, 5.0])))
    assert sol.optimal
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-6)
    assert np.max(prob.A @ sol.x - prob.b) <= 0


def test_random_lps_match_linprog():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 3 * n + 2))
        A_extra = rng.normal(size=(m, n))
        b_extra = A_extra @ rng.normal(size=n) + rng.uniform(0.5, 2.0, size=m)
        A_box, b_box = box_rows(n, -5.0, 5.0)
        A = np.vstack([A_extra, A_box])
        b = np.concatenate([b_extra, b_box])
        c = rng.normal(size=n)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        assert ref.success
        x0 = find_strictly_feasible(A, b)
        assert x0 is not None
        prob = ConicProgram(c=c, A=A, b=b)
        sol = solve(prob, primal_start(prob, x0))
        assert sol.optimal, f"trial {trial}: {sol.status}"
        assert c @ sol.x <= ref.fun + 1e-5
        assert np.max(A @ sol.x - b) <= 1e-7


def test_box_projection_socp():
    # minimize ||x - z|| over the unit box: optimum is the clipped point
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        z = rng.uniform(-2.0, 3.0, size=n)
        A_box, b_box = box_rows(n, 0.0, 1.0)
        A = np.hstack([A_box, np.zeros((2 * n, 1))])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        F = np.hstack([np.eye(n), np.zeros((n, 1))])
        d = np.zeros(n + 1)
        d[-1] = 1.0
        prob = with_cones(c, A, b_box, [(F, -z, d)])
        x0 = np.concatenate([np.full(n, 0.5), [np.linalg.norm(np.full(n, 0.5) - z) + 1.0]])
        sol = solve(prob, primal_start(prob, x0))
        expected = np.linalg.norm(np.clip(z, 0.0, 1.0) - z)
        assert sol.optimal
        assert abs(sol.x[-1] - expected) < 1e-5
        np.testing.assert_allclose(sol.x[:n], np.clip(z, 0.0, 1.0), atol=1e-4)


def test_cone_value_reaches_zero_norm():
    # optimum has an exactly zero cone argument: t -> 0 boundary stress
    A_box, b_box = box_rows(1, -1.0, 1.0)
    A = np.hstack([A_box, np.zeros((2, 1))])
    c = np.array([0.0, 1.0])
    prob = with_cones(c, A, b_box, [(np.array([[1.0, 0.0]]), np.zeros(1), np.array([0.0, 1.0]))])
    sol = solve(prob, primal_start(prob, np.array([0.5, 2.0])))
    assert sol.x[1] < 1e-4
    assert abs(sol.x[0]) < 1e-3


def test_infeasible_start_recovers():
    # the method does not need a feasible start: it drives the primal
    # residual to zero on the way to the optimum
    A, b = box_rows(2, 0.0, 1.0)
    prob = ConicProgram(c=np.ones(2), A=A, b=b)
    sol = solve(prob, primal_start(prob, np.array([7.0, -3.0])))
    assert sol.optimal
    np.testing.assert_allclose(sol.x, [0.0, 0.0], atol=1e-6)
    assert np.max(A @ sol.x - b) <= 1e-7


def test_find_strictly_feasible_positive_case():
    A, b = box_rows(3, 0.0, 1.0)
    x = find_strictly_feasible(A, b, x0=np.array([4.0, -3.0, 0.2]))
    assert x is not None
    assert np.max(A @ x - b) < 0


def test_find_strictly_feasible_negative_case():
    # x >= 1 and x <= 0 simultaneously: empty interior
    A = np.array([[-1.0], [1.0]])
    b = np.array([-1.0, 0.0])
    assert find_strictly_feasible(A, b) is None


def test_find_strictly_feasible_operator_rows():
    # the random rows of test_random_lps_match_linprog, as an array and as a
    # row operator (rows through G = A_extra, then the box as unit rows): the
    # same phase-one point
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 3 * n + 2))
        A_extra = rng.normal(size=(m, n))
        b_extra = A_extra @ rng.normal(size=n) + rng.uniform(0.5, 2.0, size=m)
        A_box, b_box = box_rows(n, -5.0, 5.0)
        A = np.vstack([A_extra, A_box])
        b = np.concatenate([b_extra, b_box])
        rows = HorizonRows(A_extra, 1, n)
        rows.through_g(1.0, b_extra)
        rows.unit(np.arange(n), -1.0, b_box[:n])
        rows.unit(np.arange(n), 1.0, b_box[n:])
        np.testing.assert_array_equal(rows.toarray(), A)
        x_dense = find_strictly_feasible(A, b)
        x_rows = find_strictly_feasible(rows, rows.b)
        assert x_dense is not None and x_rows is not None
        assert np.max(np.abs(x_rows - x_dense)) <= 1e-12 * (1.0 + np.max(np.abs(x_dense)))


def counted_hook(prob, noise=0.0):
    """``dense_kkt`` of prob with its solve and apply calls counted, the
    solve perturbed by ``noise`` relative along a fixed direction."""
    calls = {"solve": 0, "apply": 0}
    q = np.random.default_rng(0).normal(size=prob.n)
    q /= np.linalg.norm(q)
    exact = dense_kkt(prob)

    def kkt(wts, scalings):
        solve_exact, apply = exact(wts, scalings)

        def solve_counted(r):
            calls["solve"] += 1
            x = solve_exact(r)
            return x + noise * np.linalg.norm(x) * q

        def apply_counted(x):
            calls["apply"] += 1
            return apply(x)

        return solve_counted, apply_counted

    return kkt, calls


def test_newton_refines_only_on_demand():
    """Each Newton solve applies the hook once to check its residual, and
    solves a second time only when that residual exceeds 1e-10 of the right
    side: never with an exact factor, always with one whose solves are off by
    1e-6, whose refined direction is still exact to rounding. Two iterations
    from one start, with either hook, end at the same iterate."""
    A, b = box_rows(3, 0.0, 1.0)
    A = np.vstack([A, np.ones((1, 3))])
    b = np.append(b, 2.0)
    base = ConicProgram(c=np.array([1.0, -2.0, 0.5]), A=A, b=b)
    start = primal_start(base, np.array([0.3, 0.4, 0.2]))
    ends = []
    for noise in (0.0, 1e-6):
        kkt, calls = counted_hook(base, noise)
        sol = solve(ConicProgram(c=base.c, A=A, b=b, kkt=kkt), start, max_iter=2)
        newton = calls["apply"]
        assert newton >= 4
        assert sol.refinements == (0 if noise == 0 else newton)
        assert calls["solve"] == newton + sol.refinements
        ends.append(sol.x)
    assert np.linalg.norm(ends[1] - ends[0]) <= 1e-10 * np.linalg.norm(ends[0])


@pytest.mark.parametrize("seed", range(10))
def test_several_cones_project_blockwise(seed):
    # minimize sum_k t_k with ||x_k - z_k|| <= t_k over the unit box: the
    # blocks decouple, so the optimum clips each z_k to the box on its own
    sizes = (1, 3, 8)
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    z = rng.uniform(-2.0, 3.0, size=n)
    A_box, b_box = box_rows(n, 0.0, 1.0)
    A = np.hstack([A_box, np.zeros((2 * n, len(sizes)))])
    c = np.concatenate([np.zeros(n), np.ones(len(sizes))])
    cones = []
    start = 0
    for k, size in enumerate(sizes):
        block = slice(start, start + size)
        F = np.zeros((size, n + len(sizes)))
        F[:, block] = np.eye(size)
        d = np.zeros(n + len(sizes))
        d[n + k] = 1.0
        cones.append((F, -z[block], d))
        start += size
    sol = solve(with_cones(c, A, b_box, cones))
    x_star = np.clip(z, 0.0, 1.0)
    cost = sum(np.linalg.norm(part) for part in np.split(x_star - z, np.cumsum(sizes)[:-1]))
    assert sol.optimal
    assert abs(c @ sol.x - cost) <= 1e-6
    np.testing.assert_allclose(sol.x[:n], x_star, atol=1e-4)
