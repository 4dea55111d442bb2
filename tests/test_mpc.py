from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from thermobench import mpc as mpc_module
from thermobench.errors import ValidationError
from thermobench.harness import ScenarioConfig, run_scenario
from thermobench.mpc import (
    MpcConfig,
    _closed_form_cost,
    _condense,
    _warm_start,
    _weighted_gram,
    build_mpc_problem,
    horizon_bounds,
    mpc_step,
    prediction_matrices,
    solve_mpc,
)
from thermobench.network import (
    Edge,
    Node,
    ThermalNetwork,
    continuous_from_network,
    discretize,
    minimal_parameterization,
    two_zone_example,
)
from thermobench.presets import comparison_weather
from thermobench.simulator import OccupancySchedule, WeatherModel, comfort_bounds, weather_forecast
from thermobench.solver import dense_kkt


def grid_oracle_cost(model, T0, forecast, r_min, r_max, cfg, step=0.05):
    """Brute-force reference: enumerate a control grid, simulate the dynamics
    step by step (independently of the controller's condensed matrices), and
    score each candidate with slack computed in closed form."""
    h = cfg.horizon
    n = model.n_internal
    m = model.Gamma_ctrl.shape[1]
    levels = np.arange(0.0, 1.0 + 1e-12, step)
    grids = np.meshgrid(*([levels] * (h * m)), indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1)  # (N, h*m)
    N = U.shape[0]
    T = np.broadcast_to(T0, (N, n)).copy()
    r = 0.5 * (r_min + r_max)
    slack_sq = np.zeros(N)
    for k in range(h):
        u_k = U[:, k * m:(k + 1) * m]
        T = T @ model.Phi.T + model.Gamma_ext @ forecast[k] + u_k @ model.Gamma_ctrl.T
        w = np.maximum(r_min[k] - T, 0.0) + np.maximum(T - r_max[k], 0.0)
        slack_sq += np.sum(w * w, axis=1)
    terminal = np.sqrt(np.sum((T - r[-1]) ** 2, axis=1) / n)
    cost = (
        cfg.Q * np.sqrt(slack_sq / (n * h))
        + cfg.R * U.sum(axis=1)
        + cfg.Q_togo * terminal
    )
    return float(cost.min())


def single_zone_model(dt=15.0):
    net = ThermalNetwork(
        nodes=(Node(1, capacitance=10.0), Node(2, is_external=True)),
        edges=(Edge(1, 2, 80.0),),
        heat_rates={1: 0.2},
    )
    return discretize(continuous_from_network(net), dt)


def table1_model(dt=15.0):
    return discretize(continuous_from_network(two_zone_example()), dt)


def flat_bounds(h, n, lo=68.0, hi=72.0):
    return np.full((h, n), lo), np.full((h, n), hi)


def test_structured_kkt_matches_dense():
    """The condensed Newton hook solves the reduced system that the dense
    matrix A' diag(wts) A + sum_k C_k' W_k^-2 C_k defines, with W_k built here
    from its definition beta (2 v v' - J), on random row weights and NT
    scalings; with the terminal cone and with pinned t2 rows (Q_togo = 0)."""
    rng = np.random.default_rng(9)
    h = 12
    r_min, r_max = flat_bounds(h, 2)
    for q_togo in (1.0, 0.0):
        cfg = MpcConfig(horizon=h, Q_togo=q_togo)
        problem = build_mpc_problem(table1_model(), np.array([66.0, 71.0]),
                                    np.full(h, 30.0), r_min, r_max, cfg)
        prog = _condense(problem)[0]
        assert len(prog.cones) == (2 if q_togo > 0 else 1)
        rows = prog.A.toarray()
        A = rows[:prog.m]
        for _ in range(4):
            wts = np.exp(rng.uniform(-3.0, 3.0, size=A.shape[0]))
            M = A.T @ (wts[:, None] * A)
            scalings = []
            at = prog.m
            for size in prog.cones:
                v1 = rng.normal(size=size - 1) * rng.uniform(0.1, 2.0)
                v = np.concatenate([[np.sqrt(1.0 + v1 @ v1)], v1])
                beta = rng.uniform(0.3, 3.0)
                J = np.diag(np.concatenate([[1.0], -np.ones(len(v1))]))
                W_inv = np.linalg.inv(beta * (2.0 * np.outer(v, v) - J))
                C = rows[at:at + size]
                at += size
                M += C.T @ W_inv @ W_inv @ C
                scalings.append((beta, v))
            r = rng.normal(size=prog.n)
            ref = np.linalg.solve(M, r)
            for hook in (prog.kkt, dense_kkt(prog)):
                solve, apply = hook(wts, scalings)
                assert np.linalg.norm(solve(r) - ref) <= 1e-10 * np.linalg.norm(ref)
                scale = np.linalg.norm(M) * np.linalg.norm(ref)
                assert np.linalg.norm(apply(ref) - M @ ref) <= 1e-13 * scale


def operator_error(rows, D, rng):
    """Largest relative error of ``rows @ x`` and ``rows.T @ z`` against the
    dense matrix D, over three random x and z."""
    worst = 0.0
    for _ in range(3):
        x, z = rng.normal(size=D.shape[1]), rng.normal(size=D.shape[0])
        for got, ref in ((rows @ x, D @ x), (rows.T @ z, D.T @ z)):
            worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return worst


@pytest.mark.parametrize("q_togo", [1.0, 0.0])
@pytest.mark.parametrize("dt", [15.0, 30.0])
@pytest.mark.parametrize("h", [1, 2, 12, 96])
def test_horizon_rows_match_dense(h, dt, q_togo):
    """The condensed program's rows, applied through G, against the matrix
    written out here from their definition: -u <= 0, u <= 1, -w <= 0,
    -(G u) - w <= d - r_min, G u - w <= r_max - d, and with Q_togo = 0 the
    pinned t2 rows; then the cones' rows in A x + s = b, head first: the RMS
    cone's -t1 and -w with right side 0 and, when Q_togo > 0, the terminal
    cone's -t2 with 0 and -(G_h u) with d_h - r_h, G_h the last block row
    of G."""
    rng = np.random.default_rng(h)
    r_min, r_max = flat_bounds(h, 2)
    cfg = MpcConfig(horizon=h, Q_togo=q_togo)
    problem = build_mpc_problem(table1_model(dt), np.array([66.0, 71.0]),
                                rng.uniform(10.0, 50.0, size=h), r_min, r_max, cfg)
    prog, G, d, _ = _condense(problem)
    nw, nu = G.shape
    nvar = nu + nw + 2
    I_u, I_w = np.eye(nu, nvar), np.eye(nw, nvar, nu)
    G_x = np.hstack([G, np.zeros((nw, nvar - nu))])
    D = [-I_u, I_u, -I_w, -G_x - I_w, G_x - I_w]
    b = [np.zeros(nu), np.ones(nu), np.zeros(nw), d - r_min.ravel(), r_max.ravel() - d]
    t1, t2 = np.eye(1, nvar, nu + nw), np.eye(1, nvar, nvar - 1)
    if q_togo == 0:
        D += [t2, -t2]
        b += [[1.0], [0.0]]
    D += [-t1, -I_w]
    b += [[0.0], np.zeros(nw)]
    if q_togo > 0:
        n = G.shape[0] // h
        D += [-t2, -G_x[-n:]]
        b += [[0.0], d[-n:] - problem.r[-1]]
    D = np.vstack(D)
    assert prog.cones == ((1 + nw, 1 + n) if q_togo > 0 else (1 + nw,))
    np.testing.assert_array_equal(prog.b, np.concatenate(b))
    np.testing.assert_array_equal(prog.A.toarray(), D)
    np.testing.assert_array_equal(prog.A.row_max(), np.abs(D).max(axis=1))
    assert operator_error(prog.A, D, rng) <= 1e-13


@pytest.mark.parametrize("sched", [
    OccupancySchedule(),
    OccupancySchedule(occupied_days=(0, 2, 6), occupied_start=450.0, occupied_end=1035.0),
])
def test_horizon_bounds_match_per_step_loop(sched):
    """The bounds evaluated at once over the step times equal those of one
    ``comfort_bounds`` call per step, bit for bit: from every 15-minute start
    of a week, and with the first step time exactly at each switch instant of
    the week (occupancy start, end, midnight) and at the ulp before it."""
    h, dt = 96, 15.0

    def per_step(t):
        rows = [comfort_bounds(sched, t + k * dt, 2) for k in range(1, h + 1)]
        return np.array([lo for lo, _ in rows]), np.array([hi for _, hi in rows])

    starts = list(np.arange(0.0, 7 * 1440.0, dt))
    switches = [day * 1440.0 + clock for day in range(7)
                for clock in (sched.occupied_start, sched.occupied_end, 1440.0)]
    for switch in switches:
        for first in (switch, np.nextafter(switch, -np.inf)):
            t = first - dt
            assert t + dt == first
            starts.append(t)
    for t in starts:
        for got, ref in zip(horizon_bounds(sched, t, h, dt, 2), per_step(t)):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("dt", [15.0, 30.0])
@pytest.mark.parametrize("h", [1, 2, 12, 96])
def test_toeplitz_gram_matches_dense_product(h, dt):
    """The Schur block assembled from G's block lower-Toeplitz structure
    equals G' diag(alpha) G + G_h' E G_h in its lower triangle, the one the
    Cholesky factor reads, for weights spread over exp(+-18) as near
    convergence; without E it is the case Q_togo = 0."""
    rng = np.random.default_rng(h)
    model = table1_model(dt)
    n = model.n_internal
    G, _, powers = prediction_matrices(model, np.array([66.0, 71.0]),
                                       rng.uniform(10.0, 50.0, size=(h, 1)), h)
    gram = _weighted_gram(G, powers)
    G_h = G[-n:]
    for terminal in (True, False):
        alpha = np.exp(rng.uniform(-18.0, 18.0, size=G.shape[0]))
        ref = G.T @ (alpha[:, None] * G)
        E = None
        if terminal:
            B = rng.normal(size=(n, n))
            E = B @ B.T * np.exp(rng.uniform(-18.0, 18.0))
            ref += G_h.T @ E @ G_h
        got = np.empty_like(ref)
        gram(got, alpha, E)
        assert np.linalg.norm(np.tril(got - ref)) <= 1e-12 * np.linalg.norm(ref)


class TestProblemConstruction:
    def test_single_step_problem(self):
        cfg = MpcConfig(horizon=1)
        model = table1_model()
        r_min, r_max = flat_bounds(1, 2)
        prob = build_mpc_problem(model, np.array([70.0, 70.0]), np.array([30.0]), r_min, r_max, cfg)
        assert prob.forecast.shape == (1, 1)
        np.testing.assert_allclose(prob.r, 70.0)

    def test_midpoint_computed(self):
        cfg = MpcConfig(horizon=4)
        model = table1_model()
        r_min, r_max = flat_bounds(4, 2)
        prob = build_mpc_problem(model, np.array([70.0, 70.0]), np.full(4, 30.0), r_min, r_max, cfg)
        np.testing.assert_allclose(prob.r, 70.0)

    def test_shape_mismatch_rejected(self):
        cfg = MpcConfig(horizon=4)
        model = table1_model()
        r_min, r_max = flat_bounds(3, 2)
        with pytest.raises(ValidationError):
            build_mpc_problem(model, np.array([70.0, 70.0]), np.full(4, 30.0), r_min, r_max, cfg)

    def test_horizon_bounds_show_occupancy_step(self):
        sched = OccupancySchedule()
        # 06:00 Monday: occupancy begins within a 24-step (6 h) horizon
        r_min, _ = horizon_bounds(sched, 6 * 60.0, 24, 15.0, 2)
        assert r_min[0, 0] == 60.0
        assert r_min[-1, 0] == 68.0
        assert {60.0, 68.0} == set(np.unique(r_min))


class TestSolveMpc:
    def test_warm_midband_no_heating(self):
        cfg = MpcConfig(horizon=8)
        model = table1_model()
        r_min, r_max = flat_bounds(8, 2, 60.0, 80.0)
        prob = build_mpc_problem(
            model, np.array([70.0, 70.0]), np.full(8, 70.0), r_min, r_max, cfg
        )
        sol = solve_mpc(prob)
        assert sol.converged
        np.testing.assert_allclose(sol.u, 0.0, atol=1e-5)
        # held at the midpoint by the warm ambient: no slack, no terminal gap
        assert sol.cost < 1e-4

    def test_solver_status_passed_through(self):
        cfg = MpcConfig(horizon=8, max_iter=3)
        r_min, r_max = flat_bounds(8, 2, 68.0, 72.0)
        prob = build_mpc_problem(
            table1_model(), np.array([40.0, 40.0]), np.full(8, 10.0), r_min, r_max, cfg
        )
        sol = solve_mpc(prob)
        assert sol.status == "max_iter"
        assert sol.iterations == 3 and not sol.converged

    def test_stalled_solve_is_not_promoted(self, monkeypatch):
        # a converged solve reported as stalled stays stalled: the solver's
        # own stopping test alone decides "optimal", and mpc_step falls back
        # to a zero command; the solution it returns is solve_mpc's
        real_solve = mpc_module.solve

        def stalled(*args, **kwargs):
            return replace(real_solve(*args, **kwargs), status="stalled")

        args = (table1_model(), np.array([55.0, 55.0]), 10 * 60.0, OccupancySchedule(),
                WeatherModel(mean_temp=40.0, daily_amp=0.0, fast_amp=0.0), MpcConfig(horizon=16))
        u_real, _ = mpc_step(*args)
        assert np.any(u_real > 0.1)
        monkeypatch.setattr(mpc_module, "solve", stalled)
        u0, sol = mpc_step(*args)
        assert sol.status == "stalled" and not sol.converged
        np.testing.assert_array_equal(u0, 0.0)

    def test_cold_start_max_effort_and_feasible(self):
        cfg = MpcConfig(horizon=8)
        model = table1_model()
        r_min, r_max = flat_bounds(8, 2, 68.0, 72.0)
        prob = build_mpc_problem(
            model, np.array([40.0, 40.0]), np.full(8, 10.0), r_min, r_max, cfg
        )
        sol = solve_mpc(prob)
        assert sol.converged  # soft constraints keep it solvable
        np.testing.assert_allclose(sol.u[:4], 1.0, atol=1e-4)
        assert np.all(sol.w[0] > 0)

    def test_dynamics_residual(self):
        cfg = MpcConfig(horizon=12)
        model = table1_model()
        r_min, r_max = flat_bounds(12, 2)
        forecast = np.linspace(20.0, 40.0, 12)
        prob = build_mpc_problem(model, np.array([66.0, 69.0]), forecast, r_min, r_max, cfg)
        sol = solve_mpc(prob)
        T = np.vstack([prob.T0, sol.T_pred])
        for k in range(12):
            pred = (
                model.Phi @ T[k]
                + model.Gamma_ext @ np.atleast_1d(forecast[k])
                + model.Gamma_ctrl @ sol.u[k]
            )
            assert np.max(np.abs(sol.T_pred[k] - pred)) < 1e-6

    def test_toy_cost_matches_grid_oracle(self):
        cfg = MpcConfig(horizon=3)
        model = single_zone_model()
        r_min = np.full((3, 1), 66.0)
        r_max = np.full((3, 1), 70.0)
        forecast = np.array([25.0, 28.0, 31.0])
        T0 = np.array([64.0])
        prob = build_mpc_problem(model, T0, forecast, r_min, r_max, cfg)
        sol = solve_mpc(prob)
        oracle = grid_oracle_cost(model, T0, forecast[:, None], r_min, r_max, cfg, step=0.05)
        assert sol.cost <= oracle + 1e-4

    def test_random_toys_beat_oracle_and_stay_feasible(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n_zones = int(rng.integers(1, 3))
            h = int(rng.integers(1, 5))
            if n_zones * h > 6:
                h = 3
            model = single_zone_model() if n_zones == 1 else table1_model()
            cfg = MpcConfig(
                horizon=h,
                Q=float(rng.uniform(2, 20)),
                R=float(rng.uniform(0.1, 3)),
                Q_togo=float(rng.uniform(0, 2)),
            )
            T0 = rng.uniform(58.0, 75.0, size=n_zones)
            forecast = rng.uniform(10.0, 50.0, size=h)
            lo = rng.uniform(60.0, 68.0)
            r_min = np.full((h, n_zones), lo)
            r_max = np.full((h, n_zones), lo + rng.uniform(2.0, 8.0))
            prob = build_mpc_problem(model, T0, forecast, r_min, r_max, cfg)
            sol = solve_mpc(prob)
            assert sol.converged, f"trial {trial}"
            step = 0.05 if n_zones * h <= 4 else 0.1
            oracle = grid_oracle_cost(model, T0, forecast[:, None], r_min, r_max, cfg, step)
            assert sol.cost <= oracle + 1e-4, f"trial {trial}"
            assert np.all(sol.u >= -1e-6) and np.all(sol.u <= 1 + 1e-6)
            assert np.all(sol.w >= -1e-6)

    def test_slack_zero_strictly_inside(self):
        cfg = MpcConfig(horizon=8)
        model = table1_model()
        r_min, r_max = flat_bounds(8, 2, 60.0, 80.0)
        prob = build_mpc_problem(
            model, np.array([70.0, 70.0]), np.full(8, 65.0), r_min, r_max, cfg
        )
        sol = solve_mpc(prob)
        inside = (sol.T_pred > r_min + 0.5) & (sol.T_pred < r_max - 0.5)
        assert np.all(sol.w[inside] < 1e-6)

    def test_control_price_monotonicity(self):
        model = table1_model()
        r_min, r_max = flat_bounds(16, 2)
        forecast = np.full(16, 20.0)
        T0 = np.array([67.0, 67.0])
        totals = []
        for R in [0.2, 1.0, 5.0]:
            cfg = MpcConfig(horizon=16, R=R)
            sol = solve_mpc(build_mpc_problem(model, T0, forecast, r_min, r_max, cfg))
            totals.append(sol.u.sum())
        assert totals[0] >= totals[1] - 1e-5
        assert totals[1] >= totals[2] - 1e-5

    def test_argmin_invariant_under_cost_scaling(self):
        model = table1_model()
        r_min, r_max = flat_bounds(8, 2)
        forecast = np.full(8, 25.0)
        T0 = np.array([66.0, 71.0])
        base = MpcConfig(horizon=8, Q=10.0, R=1.0, Q_togo=1.0)
        scaled = MpcConfig(horizon=8, Q=70.0, R=7.0, Q_togo=7.0)
        sol_a = solve_mpc(build_mpc_problem(model, T0, forecast, r_min, r_max, base))
        sol_b = solve_mpc(build_mpc_problem(model, T0, forecast, r_min, r_max, scaled))
        np.testing.assert_allclose(sol_a.u, sol_b.u, atol=2e-4)
        assert abs(sol_b.cost - 7.0 * sol_a.cost) < 1e-3


class TestMpcStep:
    def test_steady_midband_idle(self):
        model = table1_model()
        sched = OccupancySchedule()
        weather = WeatherModel(mean_temp=72.0, daily_amp=0.0, fast_amp=0.0)
        cfg = MpcConfig(horizon=24)
        u0, sol = mpc_step(model, np.array([70.0, 70.0]), 10 * 60.0, sched, weather, cfg)
        assert sol.converged
        np.testing.assert_allclose(u0, 0.0, atol=1e-5)

    def test_override_raises_bound_and_heats(self):
        model = table1_model()
        sched = OccupancySchedule()
        weather = WeatherModel(mean_temp=40.0, daily_amp=0.0, fast_amp=0.0)
        cfg = MpcConfig(horizon=16)
        override = np.full((16, 2), np.nan)
        override[:8, 0] = 71.5
        u_plain, _ = mpc_step(model, np.array([70.0, 70.0]), 10 * 60.0, sched, weather, cfg)
        u_exc, sol = mpc_step(
            model, np.array([70.0, 70.0]), 10 * 60.0, sched, weather, cfg,
            r_min_override=override,
        )
        assert sol.converged
        assert u_exc[0] > u_plain[0] + 0.1

    def test_horizon_follows_the_model_step(self):
        # at dt=30 the 4-step horizon from 06:30 reaches past the 08:00 switch
        # to the occupied band; at dt=15 it would end at 07:30
        model = table1_model(dt=30.0)
        sched = OccupancySchedule()
        weather = WeatherModel(mean_temp=40.0, daily_amp=10.0, fast_amp=0.0)
        cfg = MpcConfig(horizon=4)
        T0, t = np.array([64.0, 64.0]), 6.5 * 60.0
        r_min, r_max = horizon_bounds(sched, t, 4, 30.0, 2)
        assert r_min[-1, 0] == sched.r_min_occ
        ref = solve_mpc(build_mpc_problem(
            model, T0, weather_forecast(weather, t, 4, 30.0), r_min, r_max, cfg,
        ))
        u0, sol = mpc_step(model, T0, t, sched, weather, cfg)
        assert sol.converged and ref.converged
        np.testing.assert_array_equal(sol.u, ref.u)
        assert sol.cost == ref.cost
        np.testing.assert_array_equal(sol.problem.r_min, r_min)
        np.testing.assert_array_equal(u0, ref.u[0])


@pytest.fixture(scope="module")
def true_model_week_seed29():
    """The first 32 steps of the table2 MPC leg (true model) at seed 29, with
    every horizon problem and its solution recorded by start time."""
    net = two_zone_example()
    config = ScenarioConfig(
        name="mpc-week", network=net, weather=comparison_weather(),
        controller="mpc", estimator=False, duration_steps=32, seed=29,
        force_mpc=True, frozen_params=minimal_parameterization(net),
    )
    solved = []
    solve = mpc_module.solve_mpc

    def recording(problem, previous=None):
        solution = solve(problem, previous)
        solved.append((problem, solution))
        return solution

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc_module, "solve_mpc", recording)
        report = run_scenario(config)
    times = [row.time for row in report.trace.rows]
    return report, dict(zip(times, solved))


def test_true_model_week_seed29_no_fallback(true_model_week_seed29):
    # the solves at t=450 and t=465 of this week jammed Mehrotra's corrector
    # against a cone boundary until the stall rule fired
    report, solved = true_model_week_seed29
    assert [e for e in report.events if e.kind == "mpc-failure"] == []
    assert {row.mode for row in report.trace.rows} == {"mpc"}
    assert all(sol.converged for _, sol in solved.values())


def test_warm_starts_agree_with_cold(true_model_week_seed29):
    """On every instance of the seed-29 week, solves started from the
    shifted previous solution, from all zeros and from a point far outside
    the cones end optimal where the cold solve does: the start's centring
    moves the last two inside the cones. Each is solved to 1e-10, which
    brings two optimal points within the bounds; at the loop's 1e-8 the
    costs of the far starts differ from the cold one's by up to 3e-8 of it."""
    _, solved = true_model_week_seed29
    times = sorted(solved)
    for prev_t, t in zip(times, times[1:]):
        problem, _ = solved[t]
        problem = replace(problem, config=replace(problem.config, solver_tol=1e-10))
        cold = solve_mpc(problem)
        assert cold.converged
        n_x, n_s = len(cold.point[0]), len(cold.point[1])
        starts = {
            "shifted": solved[prev_t][1],
            # a previous solution of this same problem hands its point on as it is
            "zeros": replace(cold, point=(np.zeros(n_x), np.zeros(n_s), np.zeros(n_s))),
            "outside": replace(cold, point=(np.full(n_x, 10.0), np.full(n_s, -10.0),
                                            np.full(n_s, -10.0))),
        }
        for name, previous in starts.items():
            warm = solve_mpc(problem, previous)
            assert warm.status == "optimal", f"t={t} {name}: {warm.status}"
            assert abs(warm.cost - cold.cost) <= 1e-8 * (1.0 + abs(cold.cost)), f"t={t} {name}"
            np.testing.assert_allclose(warm.u, cold.u, rtol=0, atol=1e-6, err_msg=f"t={t} {name}")


def test_shifted_start_moves_each_horizon_group(true_model_week_seed29):
    """The shift moves u, w, the five row groups and the RMS cone's tail one
    step earlier with the last step repeated, and keeps t1, t2, the RMS
    cone's head and the terminal cone."""
    _, solved = true_model_week_seed29
    _, previous = solved[450.0]
    nxt, _ = solved[465.0]
    x, s, z = previous.point
    groups = _condense(nxt)[3]
    h, n, m = 96, 2, 2
    nu, nw = h * m, h * n
    x1, s1, z1 = _warm_start(previous, nxt, groups)

    def shifted(v, stage):
        return np.concatenate([v[stage:], v[-stage:]])

    np.testing.assert_array_equal(x1[:nu], shifted(x[:nu], m))
    np.testing.assert_array_equal(x1[nu:nu + nw], shifted(x[nu:nu + nw], n))
    np.testing.assert_array_equal(x1[-2:], x[-2:])
    bounds = np.cumsum([0, nu, nu, nw, nw, nw])
    for (lo, hi), stage in zip(zip(bounds, bounds[1:]), (m, m, n, n, n)):
        for v, v1 in ((s, s1), (z, z1)):
            np.testing.assert_array_equal(v1[lo:hi], shifted(v[lo:hi], stage))
    rms = bounds[-1]
    for v, v1 in ((s, s1), (z, z1)):
        assert v1[rms] == v[rms]
        np.testing.assert_array_equal(v1[rms + 1:rms + 1 + nw], shifted(v[rms + 1:rms + 1 + nw], n))
        np.testing.assert_array_equal(v1[rms + 1 + nw:], v[rms + 1 + nw:])
    assert len(s1) == rms + 1 + nw + 1 + n
    # no overlap, a failed previous solve or a different layout: a cold start
    assert _warm_start(previous, replace(nxt, t=nxt.t + 96 * 15.0), groups) is None
    assert _warm_start(replace(previous, status="stalled"), nxt, groups) is None
    short = replace(nxt, config=replace(nxt.config, horizon=48), forecast=nxt.forecast[:48],
                    r_min=nxt.r_min[:48], r_max=nxt.r_max[:48], r=nxt.r[:48])
    assert _warm_start(previous, short, _condense(short)[3]) is None


def smoothed_cost(problem, G, d, eps=1e-7):
    """The closed-form horizon cost and its gradient, with both RMS terms
    smoothed at their kink as sqrt(mean square + eps^2)."""
    cfg = problem.config
    h, n = cfg.horizon, problem.model.n_internal
    r_min = problem.r_min.reshape(-1)
    r_max = problem.r_max.reshape(-1)
    r_h = problem.r[-1]

    def f(u):
        T = G @ u + d
        excess = T - np.clip(T, r_min, r_max)
        band = np.sqrt(excess @ excess / (n * h) + eps**2)
        miss = T[-n:] - r_h
        terminal = np.sqrt(miss @ miss / n + eps**2)
        dT = cfg.Q * excess / (n * h * band)
        dT[-n:] += cfg.Q_togo * miss / (n * terminal)
        J = cfg.Q * band + cfg.R * u.sum() + cfg.Q_togo * terminal
        return J, G.T @ dT + cfg.R

    return f


def test_ipm_matches_full_horizon_oracle(true_model_week_seed29):
    """Bounded quasi-Newton on the closed-form cost, from the IPM answer and
    from zero, finds nothing cheaper than the IPM on full h=96 instances.

    Only the leg started from the IPM answer is sharp: it ends 1e-8 to 3e-7
    above the IPM cost. The leg started from zero stops 0.05-0.59 above it
    within its 2000 iterations, so it catches only gross IPM failures."""
    _, solved = true_model_week_seed29
    times = sorted(solved)
    sample = sorted(set(times[::6]) | {450.0, 465.0})
    for t in sample:
        problem, sol = solved[t]
        _, G, d, _ = _condense(problem)
        f = smoothed_cost(problem, G, d)
        for start in (sol.u.reshape(-1), np.zeros(G.shape[1])):
            res = minimize(f, start, jac=True, method="L-BFGS-B",
                           bounds=[(0.0, 1.0)] * G.shape[1],
                           options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-11})
            oracle, _, _ = _closed_form_cost(problem, np.clip(res.x, 0.0, 1.0), G, d)
            assert sol.cost <= oracle + 1e-6, f"t={t}: ipm {sol.cost} oracle {oracle}"
