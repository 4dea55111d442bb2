import numpy as np
import pytest

from thermobench.errors import ValidationError
from thermobench.mpc import (
    MpcConfig,
    build_mpc_problem,
    horizon_bounds,
    mpc_step,
    solve_mpc,
)
from thermobench.network import (
    Edge,
    Node,
    ThermalNetwork,
    continuous_from_network,
    discretize,
    two_zone_example,
)
from thermobench.simulator import OccupancySchedule, WeatherModel


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
