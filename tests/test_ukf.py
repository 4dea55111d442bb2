import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

from thermobench import ukf
from thermobench.errors import NumericalDegeneracyError, ValidationError
from thermobench.network import Edge, Node, ThermalNetwork, minimal_parameterization, two_zone_example
from thermobench.simulator import PlantModel, WeatherModel
from thermobench.ukf import (
    PARAM_FLOOR,
    UkfConfig,
    UkfModel,
    UkfState,
    initial_state,
    mark_converged,
    parameter_covariance_block,
    predict,
    sigma_points,
    update,
)


def make_model(config=None):
    net = two_zone_example()
    return UkfModel(net, config or UkfConfig())


def truth_state(config=None, temps=(70.0, 70.0, 20.0)):
    net = two_zone_example()
    cfg = config or UkfConfig()
    pv = minimal_parameterization(net)
    return initial_state(net, np.array(temps), pv, cfg)


def noise_free_config(**kw):
    return UkfConfig(
        temp_process_std=0.0, ext_process_std=0.0,
        p_process_frac=0.0, q_process_frac=0.0,
        meas_std=kw.pop("meas_std", 0.1), **kw,
    )


def exact_start_config(**kw):
    # zero process noise and a zero initial covariance: the filter state is
    # the truth and should stay there
    return noise_free_config(
        init_temp_std=0.0, init_p_frac=0.0, init_q_frac=0.0, **kw
    )


class TestSigmaPoints:
    def test_zero_covariance_collapses(self):
        x = np.array([1.0, -2.0, 3.0])
        pts, wm, wc = sigma_points(x, np.zeros((3, 3)), UkfConfig())
        np.testing.assert_allclose(pts, np.tile(x, (7, 1)), atol=1e-5)

    def test_scalar_symmetry(self):
        pts, wm, _ = sigma_points(np.array([5.0]), np.array([[1.0]]), UkfConfig())
        assert pts[0, 0] == 5.0
        np.testing.assert_allclose(pts[1, 0] - 5.0, -(pts[2, 0] - 5.0))
        assert abs(wm.sum() - 1.0) < 1e-12

    def test_weighted_mean_recovers_center(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            L = 7
            x = rng.normal(size=L)
            S = rng.normal(size=(L, L))
            P = S @ S.T + 0.1 * np.eye(L)
            pts, wm, _ = sigma_points(x, P, UkfConfig())
            np.testing.assert_allclose(wm @ pts, x, atol=1e-12)

    def test_jitter_path_matches_scipy_cholesky_bitwise(self):
        v = np.array([1.0, 2.0, 3.0, 0.5])
        P = np.outer(v, v)  # rank one: the second pivot vanishes
        with pytest.raises(LinAlgError):
            cholesky(P, lower=True)
        cfg = UkfConfig()
        L = len(v)
        jitter = 0.0
        for _ in range(6):  # the retry rule of sigma_points, on scipy's Cholesky
            try:
                root = cholesky(P + jitter * np.eye(L) if jitter else P, lower=True)
                break
            except LinAlgError:
                jitter = max(jitter * 100.0, 1e-12 * (np.trace(P) / L + 1.0))
        assert jitter > 0
        spread = L + (cfg.alpha**2 * (L + cfg.kappa) - L)
        offsets = np.sqrt(spread) * root
        x = np.array([70.0, 66.0, 1500.0, 0.2])
        pts, _, _ = sigma_points(x, P, cfg)
        assert np.array_equal(pts[1:L + 1], x + offsets.T)
        assert np.array_equal(pts[L + 1:], x - offsets.T)

    @pytest.mark.parametrize("cell", [(0, 0), (2, 5), (8, 8)])
    def test_non_finite_covariance_rejected(self, cell):
        state = truth_state()
        P = state.P.copy()
        P[cell] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            sigma_points(state.x_hat, P, UkfConfig())


def reference_generator(net, point):
    """One point's generator over [internal nodes, ambient nodes, heaters]."""
    pv = minimal_parameterization(net)
    order = list(net.internal_ids) + list(net.external_ids)
    n, n_p = len(net.nodes), len(pv.p)
    p = np.maximum(point[n:n + n_p], PARAM_FLOOR)
    q = np.maximum(point[n + n_p:], PARAM_FLOOR)
    M = np.zeros((len(order) + len(q), len(order) + len(q)))
    for k, (i, j) in enumerate(pv.edge_map):
        rate = 1.0 / p[k]
        M[order.index(i), order.index(j)] += rate
        M[order.index(i), order.index(i)] -= rate
    for l, zone in enumerate(pv.zone_map):
        M[order.index(zone), len(order) + l] = q[l]
    return M


def reference_propagate(net, point, u, dt):
    """One point at a time: its own generator and its own matrix exponential."""
    order = list(net.internal_ids) + list(net.external_ids)
    n_i = len(net.internal_ids)
    E = expm(reference_generator(net, point) * dt)
    pos = [net.index_of(nid) for nid in order]
    out = point.copy()
    out[pos[:n_i]] = E[:n_i] @ np.concatenate([point[pos], u])
    return out


def single_zone_example():
    return ThermalNetwork(
        nodes=(Node(1, capacitance=17.0), Node(2, is_external=True)),
        edges=(Edge(1, 2, 60.0),),
        heat_rates={1: 0.18},
    )


def generator_stack(net, temps):
    cfg = UkfConfig()
    state = initial_state(net, np.array(temps), minimal_parameterization(net), cfg)
    points, _, _ = sigma_points(state.x_hat, state.P, cfg)
    return np.array([reference_generator(net, pt) for pt in points])


class TestExpm:
    # dt in minutes, from one minute to ten days
    DTS = (1.0, 15.0, 60.0, 240.0, 1440.0, 14400.0)

    def test_matches_scipy_bitwise_over_every_pade_degree(self):
        # ukf.expm relies on the kernel signatures and on the scaling inside
        # pick_pade_structure of scipy >= 1.17, the floor in pyproject.toml;
        # this equality holds on that condition
        stack = generator_stack(two_zone_example(), [70.5, 66.0, 21.0])
        structures = set()
        for dt in self.DTS:
            A = stack * dt
            for a in A:
                work = np.empty((5,) + a.shape)
                work[0] = a
                structures.add(pick_pade_structure(work))
            assert np.array_equal(ukf.expm(A), expm(A)), dt
        assert {m for m, _ in structures} == {3, 5, 7, 9, 13}
        assert max(s for _, s in structures) > 0

    def test_triangular_generator_within_1e13_of_scipy(self):
        # one zone: the generator is upper triangular, and scipy squares it
        # by its triangular rule where ukf.expm squares plainly
        stack = generator_stack(single_zone_example(), [70.0, 20.0])
        assert np.all(np.tril(stack, -1) == 0)
        for dt in self.DTS:
            ours, ref = ukf.expm(stack * dt), expm(stack * dt)
            assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max(), dt


    @pytest.mark.parametrize("structure, info, error", [
        ((-1, 0), 0, MemoryError),   # no memory for the Pade structure
        ((13, 0), -11, MemoryError),  # no memory in the Pade solve
        ((13, 0), -3, RuntimeError),  # LAPACK argument error
        ((13, 0), 2, RuntimeError),   # exactly singular Pade denominator
    ])
    def test_kernel_failures_raise_as_scipy(self, monkeypatch, structure, info, error):
        monkeypatch.setattr(ukf, "pick_pade_structure", lambda work: structure)
        monkeypatch.setattr(ukf, "pade_UV_calc", lambda work, m: info)
        with pytest.raises(error):
            ukf.expm(np.zeros((2, 3, 3)))


class TestPropagation:
    def test_batched_map_matches_per_point_reference_bitwise(self):
        net = two_zone_example()
        cfg = UkfConfig()
        pv = minimal_parameterization(net)
        seeded = pv.with_values(pv.p * [0.6, 1.7, 1.1, 0.8], pv.q * [1.3, 0.7])
        state = initial_state(net, np.array([70.5, 66.0, 21.0]), seeded, cfg)
        points, _, _ = sigma_points(state.x_hat, state.P, cfg)
        below = points[0].copy()
        below[3] = 0.5 * PARAM_FLOOR  # R12C1 under the floor: the clamp applies
        points = np.vstack([points, below])
        u = np.array([0.35, 0.8])
        batched = UkfModel(net, cfg).propagate_points(points, u, 15.0)
        reference = np.array([reference_propagate(net, pt, u, 15.0) for pt in points])
        assert np.array_equal(batched, reference)
        assert np.all(np.isfinite(batched[-1]))


class TestPredict:
    def test_matches_plant_with_true_parameters(self):
        cfg = exact_start_config()
        model = make_model(cfg)
        state = truth_state(cfg)
        u = np.array([0.3, 0.7])
        weather = WeatherModel(mean_temp=20.0, daily_amp=0.0, fast_amp=0.0)
        plant = PlantModel(two_zone_example())
        ps = plant.initial_state({1: 70.0, 2: 70.0}, weather)
        ps = plant.step(ps, u, weather, 15.0)
        res = predict(state, u, 15.0, model)
        np.testing.assert_allclose(res.state.temps, ps.true_temps, atol=1e-9)
        assert res.clamped == ()

    def test_parameter_variance_never_shrinks(self):
        model = make_model()
        state = truth_state()
        before = np.diag(parameter_covariance_block(state)).copy()
        res = predict(state, np.zeros(2), 15.0, model)
        after = np.diag(parameter_covariance_block(res.state))
        assert np.all(after >= before - 1e-12)

    def test_heater_block_inert_when_off(self):
        cfg = exact_start_config()
        model = make_model(cfg)
        state = truth_state(cfg)
        bumped = UkfState(
            state.x_hat * np.concatenate([np.ones(7), [3.0, 0.25]]),
            state.P, state.n_nodes, state.n_p, state.n_q,
        )
        a = predict(state, np.zeros(2), 15.0, model)
        b = predict(bumped, np.zeros(2), 15.0, model)
        np.testing.assert_allclose(a.state.temps, b.state.temps, atol=1e-12)

    def test_negative_parameter_point_flagged(self):
        cfg = UkfConfig(init_p_frac=0.4)
        model = make_model(cfg)
        state = truth_state(cfg)
        x = state.x_hat.copy()
        x[3] = -5.0  # force the R12C1 coordinate negative
        bad = UkfState(x, state.P, 3, 4, 2)
        res = predict(bad, np.zeros(2), 15.0, model)
        assert "R12C1" in res.clamped

    def test_rejects_out_of_range_control(self):
        model = make_model()
        with pytest.raises(ValidationError):
            predict(truth_state(), np.array([1.5, 0.0]), 15.0, model)

    def test_estimates_are_fixed_points_at_truth(self):
        cfg = exact_start_config(meas_std=1e-6)
        model = make_model(cfg)
        weather = WeatherModel(mean_temp=20.0, daily_amp=0.0, fast_amp=0.0)
        plant = PlantModel(two_zone_example())
        ps = plant.initial_state({1: 70.0, 2: 70.0}, weather)
        state = truth_state(cfg)
        p0, q0 = state.p.copy(), state.q.copy()
        u = np.array([0.5, 0.5])
        for _ in range(10):
            ps = plant.step(ps, u, weather, 15.0)
            state = predict(state, u, 15.0, model).state
            state = update(state, ps.true_temps, model).state
            np.testing.assert_allclose(state.p, p0, rtol=1e-9)
            np.testing.assert_allclose(state.q, q0, rtol=1e-9)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        model = make_model()
        state = truth_state()
        res = update(state, state.temps.copy(), model)
        np.testing.assert_allclose(res.state.x_hat, state.x_hat, atol=1e-12)
        np.testing.assert_array_equal(res.innovation, np.zeros(3))
        before = np.diag(state.P)[:3]
        after = np.diag(res.state.P)[:3]
        assert np.all(after < before)

    def test_uninformative_measurement_is_noop(self):
        cfg = UkfConfig(meas_std=1e9)
        model = make_model(cfg)
        state = truth_state(cfg)
        res = update(state, np.array([90.0, 10.0, 50.0]), model)
        np.testing.assert_allclose(res.state.x_hat, state.x_hat, atol=1e-9)

    def test_dimension_checked(self):
        model = make_model()
        with pytest.raises(ValidationError):
            update(truth_state(), np.array([70.0, 70.0]), model)

    def test_indefinite_innovation_covariance_is_degenerate(self):
        state = truth_state()
        P = state.P.copy()
        P[1, 1] = -1.0  # S = P[:3, :3] + R loses its second pivot
        bad = UkfState(state.x_hat, P, 3, 4, 2)
        with pytest.raises(NumericalDegeneracyError):
            update(bad, state.temps.copy(), make_model())

    # (1, 1) lies in S = P[:3, :3] + R, (6, 2) only in the gain's P[:, :3]
    @pytest.mark.parametrize("cell", [(1, 1), (6, 2)])
    def test_non_finite_covariance_rejected(self, cell):
        state = truth_state()
        P = state.P.copy()
        P[cell] = np.nan
        bad = UkfState(state.x_hat, P, 3, 4, 2)
        with pytest.raises(ValueError, match="infs or NaNs"):
            update(bad, state.temps.copy(), make_model())


class TestParameterCovariance:
    def test_diagonal_case(self):
        state = truth_state()
        block = parameter_covariance_block(state)
        np.testing.assert_allclose(block, np.diag(np.diag(block)))
        assert block.shape == (4, 4)

    def test_symmetric(self):
        model = make_model()
        state = predict(truth_state(), np.zeros(2), 15.0, model).state
        block = parameter_covariance_block(state)
        np.testing.assert_allclose(block, block.T, atol=1e-14)


def test_mark_converged_scales_process_noise():
    cfg = UkfConfig()
    model = make_model(cfg)
    state = truth_state(cfg)
    loud = predict(state, np.zeros(2), 15.0, model).state
    quiet = predict(mark_converged(state), np.zeros(2), 15.0, model).state
    assert np.all(
        np.diag(parameter_covariance_block(quiet))
        <= np.diag(parameter_covariance_block(loud)) + 1e-15
    )


@pytest.mark.parametrize("offset, raises", [(-1e-11, True), (1e-11, False), (-1e-6, True), (1.0, False)])
def test_psd_guard_threshold(offset, raises):
    """The Cholesky guard keeps the eigenvalue test's verdict on either side
    of its -1e-9 threshold: P's smallest eigenvalue is -1e-9 + offset, the
    rest are spread over [1e-3, 1e3] in a random basis."""
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    eig = np.concatenate([[-1e-9 + offset], np.logspace(-3, 3, 8)])
    P = (Q * eig) @ Q.T
    P = 0.5 * (P + P.T)
    assert (np.min(np.linalg.eigvalsh(P)) < -1e-9) == raises
    if raises:
        with pytest.raises(NumericalDegeneracyError, match="lost PSD"):
            ukf._assert_psd(P)
    else:
        ukf._assert_psd(P)
