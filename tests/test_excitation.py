from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from thermobench import excitation, solver
from thermobench.errors import ValidationError
from thermobench.excitation import (
    Experiment,
    SelectorState,
    _choose_targets,
    _differences,
    _separation_lp,
    _separation_program,
    generate_eigen,
    select_heuristic,
    select_optimal,
)
from thermobench.mpc import MpcConfig, MpcSolution, build_mpc_problem, horizon_bounds, solve_mpc
from thermobench.network import (
    Edge,
    Node,
    ParameterVector,
    ThermalNetwork,
    discretize,
    minimal_parameterization,
    two_zone_example,
)
from thermobench.simulator import OccupancySchedule, WeatherModel, weather_forecast
from thermobench.solver import ConicProgram, phase_one, solve


def table1():
    net = two_zone_example()
    return net, minimal_parameterization(net)


class TestGenerateEigen:
    def test_isotropic_covariance_ties_broken_by_index(self):
        net, pv = table1()
        cands = generate_eigen(np.eye(4) * 2.5, pv, net)
        assert len(cands) == 4
        assert all(c.eigenvalue == pytest.approx(2.5) for c in cands)

    def test_variance_on_inter_zone_product(self):
        net, pv = table1()
        P = np.diag([4.0, 0.0, 0.0, 0.0])  # uncertainty only on R12C1
        top = generate_eigen(P, pv, net)[0]
        assert top.eigenvalue == pytest.approx(4.0)
        # weights in parameter-std units: sqrt(4) on the edge's two nodes
        np.testing.assert_allclose(np.abs(top.node_weights), [2.0, 2.0, 0.0], atol=1e-12)
        assert top.node_weights[0] == pytest.approx(-top.node_weights[1])

    def test_variance_on_external_product(self):
        net, pv = table1()
        P = np.diag([0.0, 3.0, 0.0, 0.0])  # uncertainty only on R13C1
        top = generate_eigen(P, pv, net)[0]
        np.testing.assert_allclose(
            top.node_weights, [np.sqrt(3.0), 0.0, np.sqrt(3.0)], atol=1e-12
        )

    def test_zero_matrix_gives_no_targets(self):
        net, pv = table1()
        cands = generate_eigen(np.zeros((4, 4)), pv, net)
        for c in cands:
            np.testing.assert_allclose(c.node_weights, 0.0)
            assert _choose_targets(c, net) is None

    def test_asymmetric_rejected(self):
        net, pv = table1()
        P = np.eye(4)
        P[0, 1] = 0.5
        with pytest.raises(ValidationError):
            generate_eigen(P, pv, net)

    def test_relabeling_invariance(self):
        net, pv = table1()
        rng = np.random.default_rng(3)
        S = rng.normal(size=(4, 4))
        P = S @ S.T
        cands = generate_eigen(P, pv, net)
        perm = [2, 3, 0, 1]
        pv_perm = ParameterVector(
            pv.p[perm], pv.q,
            tuple(pv.edge_map[k] for k in perm), pv.zone_map,
        )
        P_perm = P[np.ix_(perm, perm)]
        cands_perm = generate_eigen(P_perm, pv_perm, net)
        for a, b in zip(cands, cands_perm):
            assert a.eigenvalue == pytest.approx(b.eigenvalue)
            np.testing.assert_allclose(
                np.abs(a.node_weights), np.abs(b.node_weights), atol=1e-9
            )

    def test_symmetric_building_symmetric_weights(self):
        net = ThermalNetwork(
            nodes=(Node(1, capacitance=10.0), Node(2, capacitance=10.0),
                   Node(3, is_external=True)),
            edges=(Edge(1, 2, 100.0), Edge(1, 3, 50.0), Edge(2, 3, 50.0)),
            heat_rates={1: 0.2, 2: 0.2},
        )
        pv = minimal_parameterization(net)
        cands = generate_eigen(np.eye(4), pv, net)
        mags = sorted(tuple(np.round(np.abs(c.node_weights), 9)) for c in cands)
        swapped = sorted(
            tuple(np.round(np.abs(c.node_weights)[[1, 0, 2]], 9)) for c in cands
        )
        assert mags == swapped


class TestChooseTargets:
    def test_pair_case(self):
        net, _ = table1()
        cand = make_candidate([0.9, 0.8, 0.05])
        assert _choose_targets(cand, net) == ("pair", (1, 2))

    def test_single_case(self):
        net, _ = table1()
        cand = make_candidate([0.9, 0.5, 0.05])
        assert _choose_targets(cand, net) == ("single", (1,))

    def test_external_pair_collapses_to_single(self):
        net, _ = table1()
        cand = make_candidate([0.9, 0.05, 0.8])
        assert _choose_targets(cand, net) == ("single", (1,))

    def test_external_top_defers_to_internal_neighbor(self):
        net, _ = table1()
        cand = make_candidate([0.2, 0.5, 0.9])
        kind, nodes = _choose_targets(cand, net)
        assert nodes[0] == 2


def make_candidate(weights):
    return __import__("thermobench.excitation", fromlist=["ExcitationCandidate"]).ExcitationCandidate(
        1.0, np.array(weights, dtype=float)
    )


def table1_model(dt=15.0):
    net = two_zone_example()
    return discretize(minimal_parameterization(net), net, dt)


class TestSelectHeuristic:
    def test_emits_experiment_with_headroom(self):
        net, _ = table1()
        model = table1_model()
        cand = make_candidate([0.9, 0.8, 0.05])
        exp = select_heuristic(
            cand, np.array([70.0, 70.0, 20.0]), model, np.full(4, 20.0),
            np.full(2, 60.0), np.full(2, 80.0), net, t=120.0,
        )
        assert exp is not None
        assert exp.target == (1, 2)
        assert exp.e.shape == (4, 2)
        np.testing.assert_allclose(exp.e[:, 0], 78.0)
        assert np.all(np.isnan(exp.e[:, 1]))

    def test_no_headroom_returns_none(self):
        net, _ = table1()
        model = table1_model()
        cand = make_candidate([0.9, 0.8, 0.05])
        exp = select_heuristic(
            cand, np.array([71.0, 70.0, 20.0]), model, np.full(4, 20.0),
            np.full(2, 68.0), np.full(2, 72.0), net, t=0.0,
        )
        assert exp is None

    def test_weak_heater_returns_none(self):
        net = ThermalNetwork(
            nodes=two_zone_example().nodes,
            edges=two_zone_example().edges,
            heat_rates={1: 0.001, 2: 0.001},
        )
        model = discretize(minimal_parameterization(net), net, 15.0)
        cand = make_candidate([0.9, 0.8, 0.05])
        exp = select_heuristic(
            cand, np.array([70.0, 70.0, 20.0]), model, np.full(4, 20.0),
            np.full(2, 60.0), np.full(2, 80.0), net, t=0.0,
        )
        assert exp is None

    def test_experiment_activity_window(self):
        e = np.full((4, 2), np.nan)
        exp = Experiment((1,), e, 100.0)
        assert exp.active(100.0, 15.0)
        assert exp.active(145.0, 15.0)
        assert not exp.active(160.0, 15.0)
        assert exp.lower_bounds(130.0, 15.0) is not None
        assert exp.lower_bounds(160.0, 15.0) is None

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("steps", [1, 8])
    @pytest.mark.parametrize("offset", [-6, -3, 0, 1, 2, 5, 8, 9, 20])
    def test_lower_bounds_match_the_window_rule(self, offset, steps, first):
        """``lower_bounds`` against the bounds read one time at a time: row k
        of e at start + k dt, while start <= t < start + len(e) dt. The
        window of 4 steps starts ``offset`` steps after t, so it begins
        before, inside and after the horizon read."""
        dt, t = 15.0, 600.0
        e = np.arange(8.0).reshape(4, 2) + 70.0
        e[1, 0] = np.nan
        exp = Experiment((1,), e, t + offset * dt)

        def row_at(time):
            if not exp.start_time <= time < exp.start_time + len(e) * dt:
                return None
            return e[int(round((time - exp.start_time) / dt))]

        ref = [row_at(t + (first + k) * dt) for k in range(steps)]
        got = exp.lower_bounds(t, dt, steps, first)
        if all(row is None for row in ref):
            assert got is None
            return
        expect = np.array([np.full(2, np.nan) if row is None else row for row in ref])
        np.testing.assert_array_equal(got, expect)


class TestSelectorState:
    def test_decay_and_reset(self):
        s = SelectorState(threshold=1.0, decay=0.995, initial=1.0)
        for _ in range(10):
            s = s.decayed()
        assert s.threshold == pytest.approx(0.995**10)
        assert s.reset().threshold == 1.0


def single_heater_model():
    net = ThermalNetwork(
        nodes=(Node(1, capacitance=10.0), Node(2, capacitance=8.0),
               Node(3, is_external=True)),
        edges=(Edge(1, 2, 60.0), Edge(1, 3, 70.0), Edge(2, 3, 90.0)),
        heat_rates={1: 0.25},
    )
    return net, discretize(minimal_parameterization(net), net, 15.0)


class TestSelectOptimal:
    def baseline(self, model, T0, forecast, r_min, r_max, h, Q_togo=1.0):
        cfg = MpcConfig(horizon=h, Q_togo=Q_togo)
        prob = build_mpc_problem(model, T0, forecast, r_min, r_max, cfg)
        return solve_mpc(prob)

    def test_split_subproblems_match_grid(self):
        net, model = single_heater_model()
        h, h_s = 4, 1
        T0 = np.array([68.0, 68.0])
        forecast = np.full((4, 1), 30.0)
        r_min = np.full((4, 2), 55.0)
        r_max = np.full((4, 2), 85.0)
        u_budget = 2.5
        case = ("pair", (1, 2))
        best = None
        program = _separation_program(model, T0, forecast, r_min, r_max, u_budget, h_s, 2.0)
        for direction in (1.0, -1.0):
            res = _separation_lp(case, direction, program, forecast, [1, 2])
            if res is not None and (best is None or res[0] > best[0]):
                best = res
        assert best is not None
        # brute force over a dense feasible control grid
        levels = np.linspace(0.0, 1.0, 21)
        grids = np.meshgrid(*([levels] * 4), indexing="ij")
        U = np.stack([g.ravel() for g in grids], axis=1)
        U = U[U.sum(axis=1) <= u_budget + 1e-12]
        T = np.broadcast_to(T0, (len(U), 2)).copy()
        sep = np.zeros(len(U))
        feasible = np.ones(len(U), dtype=bool)
        for k in range(4):
            T = T @ model.Phi.T + model.Gamma_ext @ [30.0] + np.outer(U[:, k], model.Gamma_ctrl[:, 0])
            feasible &= np.all((T >= 55.0 - 1e-9) & (T <= 85.0 + 1e-9), axis=1)
            sep += np.abs(T[:, 0] - T[:, 1])
        grid_best = float(np.max(sep[feasible])) / 2
        assert abs(best[0] - grid_best) <= 1e-3
        # the winning subproblem's control effort respects the budget
        assert float(np.sum(best[2])) <= u_budget + 1e-6

    def test_no_budget_headroom_no_selection(self):
        net, _ = table1()
        model = table1_model()
        h, h_s = 32, 8
        sched = OccupancySchedule()
        weather = WeatherModel(mean_temp=20.0, daily_amp=0.0, fast_amp=0.0)
        t = 10 * 60.0
        r_min, r_max = horizon_bounds(sched, t, h, 15.0, 2)
        forecast = weather_forecast(weather, t, h, 15.0)
        T0 = np.array([68.0, 68.0])
        # no midpoint pull: the baseline rides the lower bound exactly, so a
        # same-energy excitation cannot buy separation
        base = self.baseline(model, T0, forecast, r_min, r_max, h, Q_togo=0.0)
        cands = generate_eigen(np.eye(4), minimal_parameterization(net), net)
        exp, state, diag = select_optimal(
            cands, base, SelectorState(threshold=0.5), net, t,
            h_s=h_s, budget_mult=1.0,
        )
        assert exp is None
        assert state.threshold < 0.5  # decayed

    def test_collapsed_bounds_zero_gain(self):
        net, _ = table1()
        model = table1_model()
        h, h_s = 32, 8
        forecast = np.full(h, 66.0)
        r_min = np.full((h, 2), 66.0)
        r_max = np.full((h, 2), 68.0)  # r_max - 2 == r_min: single feasible e
        T0 = np.array([67.0, 67.0])
        base = self.baseline(model, T0, forecast, r_min, r_max, h)
        cands = generate_eigen(np.eye(4), minimal_parameterization(net), net)
        exp, state, diag = select_optimal(
            cands, base, SelectorState(threshold=0.25), net, 0.0, h_s=h_s,
        )
        assert exp is None

    def warm_morning(self):
        """09:00 on a warm day, h = 48: the baseline, the candidates of a
        covariance with two uncertain directions, and the comfort band."""
        net, _ = table1()
        model = table1_model()
        h = 48
        sched = OccupancySchedule()
        weather = WeatherModel(mean_temp=25.0, daily_amp=10.0, fast_amp=0.0)
        t = 9 * 60.0
        r_min, r_max = horizon_bounds(sched, t, h, 15.0, 2)
        forecast = weather_forecast(weather, t, h, 15.0)
        base = self.baseline(model, np.array([68.5, 68.5]), forecast, r_min, r_max, h)
        cands = generate_eigen(np.diag([9.0, 0.1, 4.0, 0.1]), minimal_parameterization(net), net)
        return net, t, base, cands, r_min, r_max

    def test_slack_budget_selects_and_resets_threshold(self):
        net, t, base, cands, r_min, r_max = self.warm_morning()
        h_s = 8
        exp, state, diag = select_optimal(
            cands, base, SelectorState(threshold=0.3), net, t, h_s=h_s, budget_mult=1.5,
        )
        assert exp is not None
        assert state.threshold == SelectorState().initial
        assert max(diag["gains"]) > 0.3
        # the emitted bounds respect the margin below the upper bound
        assert np.all(exp.e <= r_max[:h_s] - 2.0 + 1e-9)
        assert np.all(exp.e >= r_min[:h_s] - 1e-9)

    @pytest.mark.parametrize("path, tol", [("refine", 1e-9), ("start", 1e-6)])
    def test_bounds_do_not_depend_on_solver_path(self, monkeypatch, path, tol):
        """The experiment's bounds follow from the LP's optimum, not from
        where its iteration stops. On the setup of
        ``test_slack_budget_selects_and_resets_threshold`` the path changes
        in two ways, and e stays put:

        - ``refine``: every Newton solve of the LPs and of their phase one
          is refined once by its residual against A' diag(wts) A, written
          out here from the rows, and gives the same e to 1e-9. The change
          is small; bounds read off the interior-point path moved by only
          1.5e-12 under it;
        - ``start``: every LP starts from u = 0 with its slacks and unit
          multipliers instead of its own start. Bounds read off the path
          moved by 0.46 F under it. The LP stops at a relative gap of 1e-8,
          and the planned temperatures on an active comfort bound (about
          68 F) agree only to its order, so e is held to 1e-6 here."""
        net, t, base, cands, _, _ = self.warm_morning()

        def select():
            exp, _, _ = select_optimal(cands, base, SelectorState(threshold=0.3), net, t,
                                       h_s=8, budget_mult=1.5)
            return exp

        plain = select()
        if path == "refine":
            def refining(prob, *args, **kwargs):
                A, kkt = prob.A.toarray(), prob.kkt

                def refined_kkt(wts, scalings):
                    solve_kkt, M = kkt(wts, scalings), A.T @ (wts[:, None] * A)
                    return lambda r: (x := solve_kkt(r)) + solve_kkt(r - M @ x)

                return solve(replace(prob, kkt=refined_kkt), *args, **kwargs)

            # the LPs call solve through excitation, their phase one through solver
            monkeypatch.setattr(excitation, "solve", refining)
            monkeypatch.setattr(solver, "solve", refining)
        else:
            def from_zero(prob, start=None, **kwargs):
                x = np.zeros(prob.n)
                return solve(prob, (x, prob.b - prob.A @ x, np.ones(len(prob.b))), **kwargs)

            monkeypatch.setattr(excitation, "solve", from_zero)
        moved = select()
        assert plain is not None and moved is not None
        assert moved.target == plain.target
        assert np.max(np.abs(moved.e - plain.e)) <= tol

    def test_one_phase_one_per_selection(self, monkeypatch):
        """The separation LPs share their rows, so a selection builds them and
        solves their phase one once, however many candidates and directions
        it tries: here every candidate is tried (threshold out of reach), and
        then the first one wins."""
        net, t, base, cands, _, _ = self.warm_morning()
        h_s = 8
        counts = Counter()
        for name in ("find_strictly_feasible", "solve", "prediction_matrices"):
            fn = getattr(excitation, name)
            monkeypatch.setattr(excitation, name, lambda *a, _fn=fn, _name=name, **k:
                                counts.update([_name]) or _fn(*a, **k))
        for threshold, tried in ((1e9, len(cands)), (0.3, 1)):
            counts.clear()
            exp, _, diag = select_optimal(
                cands, base, SelectorState(threshold=threshold), net, t, h_s=h_s, budget_mult=1.5,
            )
            assert (exp is None) == (threshold > 1.0)
            assert len(diag["gains"]) == tried
            assert counts == {"find_strictly_feasible": 1, "prediction_matrices": 1, "solve": 2 * tried}


def separation_setup(model, h, h_s):
    """The separation program ``select_optimal`` builds at 09:00 on a warm
    day, with the budget of its MPC baseline, and the baseline's problem."""
    sched = OccupancySchedule()
    weather = WeatherModel(mean_temp=25.0, daily_amp=10.0, fast_amp=0.0)
    t = 9 * 60.0
    r_min, r_max = horizon_bounds(sched, t, h, 15.0, 2)
    problem = build_mpc_problem(model, np.array([68.5, 68.5]), weather_forecast(weather, t, h, 15.0),
                                r_min, r_max, MpcConfig(horizon=h))
    budget = 1.1 * float(np.sum(solve_mpc(problem).u))
    program = _separation_program(model, problem.T0, problem.forecast, r_min, r_max,
                                  budget, h_s, 2.0)
    return program, problem


def backward_error(M, x, r):
    """||M x - r|| / (||M|| ||x|| + ||r||) in the Jacobi scaling of M, the
    scaling Cholesky's error does not depend on."""
    d = np.sqrt(M.diagonal())
    M_s = M / np.outer(d, d)
    return np.linalg.norm((M @ x - r) / d) / (
        np.linalg.norm(M_s, 2) * np.linalg.norm(d * x) + np.linalg.norm(r / d))


@pytest.mark.parametrize("heaters", [2, 1])
@pytest.mark.parametrize("h", [4, 32, 96])
def test_separation_hooks_match_dense(h, heaters):
    """The separation LP's hook and the bordered phase-one hook against the
    dense matrix A' diag(wts) A of their own rows, with row weights spread
    over exp(+-18) as near convergence. The rows do not depend on the case
    (pair or single) or the direction, only the costs do, so the buildings
    vary instead: two heaters (h*m = h*n) and one (h*m < h*n).

    Two solves of one system agree only to its condition number, which
    reaches 1e13 here even after Jacobi scaling, so each solve is held to a
    backward error of 1e-10 on that matrix; ``dense_kkt`` itself reaches
    only 4e-9 there at these weights, through the absolute 1e-12 diagonal
    shift of ``factor_newton`` on diagonals as small as exp(-18)."""
    rng = np.random.default_rng(h + heaters)
    model = table1_model() if heaters == 2 else single_heater_model()[1]
    program, _ = separation_setup(model, h, 1 if h < 32 else 8)
    lp = ConicProgram(c=np.zeros(program.A.shape[1]), A=program.A, b=program.b, kkt=program.kkt)
    for prog in (lp, phase_one(program.A, program.b, program.kkt)):
        A = prog.A.toarray()
        for _ in range(3):
            wts = np.exp(rng.uniform(-18.0, 18.0, size=A.shape[0]))
            r = rng.normal(size=A.shape[1])
            assert backward_error(A.T @ (wts[:, None] * A), prog.kkt(wts, [])(r), r) <= 1e-10


@pytest.mark.parametrize("heaters", [2, 1])
@pytest.mark.parametrize("h", [4, 32, 96])
def test_separation_rows_match_dense(h, heaters):
    """The separation LP's rows, applied through G, against the matrix
    written out here from their definition: -u <= 0, u <= 1,
    -(G u) <= d - r_min, G u <= r_max - d and sum(u) <= budget; and the
    phase-one rows bordered by the column -1 and the row -s <= 1."""
    rng = np.random.default_rng(h + heaters)
    model = table1_model() if heaters == 2 else single_heater_model()[1]
    program, _ = separation_setup(model, h, 1 if h < 32 else 8)
    G = program.G
    nu = G.shape[1]
    I_u = np.eye(nu)
    D = np.vstack([-I_u, I_u, -G, G, np.ones(nu)])
    np.testing.assert_array_equal(program.A.toarray(), D)
    np.testing.assert_array_equal(program.A.row_max(), np.abs(D).max(axis=1))
    m = len(D)
    D1 = np.block([[D, -np.ones((m, 1))], [np.zeros((1, nu)), -np.ones((1, 1))]])
    for rows, ref in ((program.A, D), (phase_one(program.A, program.b).A, D1)):
        for _ in range(3):
            x, z = rng.normal(size=ref.shape[1]), rng.normal(size=ref.shape[0])
            assert np.linalg.norm(rows @ x - ref @ x) <= 1e-13 * np.linalg.norm(ref @ x)
            assert np.linalg.norm(rows.T @ z - ref.T @ z) <= 1e-13 * np.linalg.norm(ref.T @ z)


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("case", [("pair", (1, 2)), ("single", (1,))])
def test_separation_lp_matches_highs(case, direction):
    """Each sign-fixed separation LP at h = 96 over the controls alone,
    solved cold through its hook, reaches the optimum HiGHS finds on the LP
    over (u, e) with the modified bounds e as variables, written out here:
    the rows over u, then e_lo <= e <= e_hi and e - G_s u <= d_s, G_s being
    the first h_s*n rows of G, with e at no cost. e never constrains u
    there, so both LPs have the same optimal value."""
    program, problem = separation_setup(table1_model(), 96, 8)
    assert program.x0 is not None
    G, d = program.G, program.d
    nw, nu = G.shape
    e_lo, e_hi = program.e_lo.reshape(-1), program.e_hi.reshape(-1)
    ne = e_lo.size
    I_u, I_e = np.eye(nu, nu + ne), np.eye(ne, nu + ne, nu)
    G_x = np.hstack([G, np.zeros((nw, ne))])
    budget = np.concatenate([np.ones(nu), np.zeros(ne)])
    A_full = np.vstack([-I_u, I_u, -G_x, G_x, budget, -I_e, I_e, I_e - G_x[:ne]])
    b_full = np.concatenate([program.b, -e_lo, e_hi, d[:ne]])
    v = direction * np.tile(_differences(case, [1, 2], 1)[:, :2].sum(axis=0), 96)
    c = -(G.T @ v)
    ref = linprog(np.append(c, np.zeros(ne)), A_ub=A_full, b_ub=b_full, bounds=(None, None),
                  method="highs")
    assert ref.success
    sol = solve(ConicProgram(c=c, A=program.A, b=program.b, kkt=program.kkt))
    assert sol.optimal
    assert abs(c @ sol.x - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
