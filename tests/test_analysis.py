from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from thermobench.analysis import compute_metrics, coordinate_names, nullspace_trace, rate_sensitivity
from thermobench.network import generator, minimal_parameterization, two_zone_example
from thermobench.simulator import SimulationTrace, TraceRow


def table1():
    net = two_zone_example()
    return net, minimal_parameterization(net)


# Independent oracle for nullspace_trace: the stacked discrete observability
# matrix of the joint [temperature; RC-parameter] dynamics, with its own
# Jacobian, its own matrix exponential and its own SVD.

def oracle_jacobian(temps, params, topology):
    """Temperature block = rate matrix (1/p_k at each edge, minus the row's
    sum on the diagonal); parameter columns hold -(T_j - T_i)/p_k^2."""
    n, n_p = len(topology.nodes), len(params.p)
    J = np.zeros((n + n_p, n + n_p))
    idx = {nid: k for k, nid in enumerate(topology.node_ids)}
    for k, (i, j) in enumerate(params.edge_map):
        J[idx[i], idx[j]] = 1.0 / params.p[k]
        J[idx[i], idx[i]] -= 1.0 / params.p[k]
        J[idx[i], n + k] = -(temps[idx[j]] - temps[idx[i]]) / params.p[k] ** 2
    return J


def oracle_transition(temps, params, topology, dt=15.0):
    return expm(oracle_jacobian(np.asarray(temps, dtype=float), params, topology) * dt)


def measurement_matrix(n_temps, n_params):
    return np.hstack([np.eye(n_temps), np.zeros((n_temps, n_params))])


def observability_matrix(F, C):
    """Stacked [C; CF; ...; CF^(dim-1)]."""
    blocks = [C]
    for _ in range(F.shape[0] - 1):
        blocks.append(blocks[-1] @ F)
    return np.vstack(blocks)


@dataclass(frozen=True)
class OracleSnapshot:
    rank: int
    condition_number: float
    nullspace_basis: np.ndarray
    coordinate_magnitudes: np.ndarray

    @property
    def nullspace_dim(self):
        return self.nullspace_basis.shape[1]


def analyze_observability(O, rank_rtol=1e-10):
    _, s, Vt = np.linalg.svd(O, full_matrices=True)
    rank = int(np.sum(s > rank_rtol * s[0]))
    smin = s[-1] if len(s) == O.shape[1] else 0.0
    cond = float(s[0] / smin) if smin > 0 else np.inf
    basis = Vt[rank:].T
    return OracleSnapshot(rank, cond, basis, np.linalg.norm(basis, axis=1))


def oracle_observability(temps, params, topology):
    F = oracle_transition(temps, params, topology)
    return observability_matrix(F, measurement_matrix(len(topology.nodes), len(params.p)))


class TestAugmentedJacobian:
    """The tests-only oracle Jacobian of the joint [temperature; RC-parameter] dynamics."""

    def test_parameter_rows_zero(self):
        net, pv = table1()
        J = oracle_jacobian(np.array([70.0, 66.0, 20.0]), pv, net)
        np.testing.assert_array_equal(J[3:], 0.0)

    def test_temperature_block_is_rate_matrix(self):
        net, pv = table1()
        J = oracle_jacobian(np.array([70.0, 66.0, 20.0]), pv, net)
        # table 1 lists its zones before the ambient node, as the generator does
        np.testing.assert_array_equal(J[:3, :3], generator(pv.p, pv.q, pv, net)[:3, :3])

    def test_uniform_temperatures_kill_sensitivities(self):
        net, pv = table1()
        J = oracle_jacobian(np.full(3, 68.0), pv, net)
        np.testing.assert_array_equal(J[:, 3:], 0.0)

    def test_sensitivity_entries(self):
        net, pv = table1()
        for temps in ([70.0, 66.0, 20.0], [68.0, 68.0, 68.0], [71.0, 71.0, 35.0]):
            J = oracle_jacobian(np.array(temps), pv, net)
            np.testing.assert_array_equal(J[:3, 3:], rate_sensitivity(pv, net, temps))
        J = oracle_jacobian(np.array([70.0, 66.0, 20.0]), pv, net)
        assert J[0, 3] == pytest.approx(-(66.0 - 70.0) / 2550.0**2)
        assert J[1, 5] == pytest.approx(-(70.0 - 66.0) / 1500.0**2)


class TestRateSensitivity:
    def test_uniform_temperatures_vanish(self):
        net, pv = table1()
        S = rate_sensitivity(pv, net, np.full(3, 70.0))
        np.testing.assert_allclose(S, 0.0)

    def test_matches_finite_differences(self):
        net, pv = table1()
        T = np.array([70.0, 64.0, 22.0])

        def rate(p_vec):
            return generator(p_vec, pv.q, pv, net)[:3, :3] @ T

        S = rate_sensitivity(pv, net, T)
        for k in range(4):
            h = pv.p[k] * 1e-5
            bump = np.zeros(4)
            bump[k] = h
            fd = (rate(pv.p + bump) - rate(pv.p - bump)) / (2 * h)
            np.testing.assert_allclose(S[:, k], fd, rtol=1e-6, atol=1e-14)

    def test_linear_in_temperature_difference(self):
        net, pv = table1()
        base = np.array([70.0, 64.0, 22.0])
        doubled = np.array([76.0, 64.0, 22.0])  # doubles T1 - T2
        S1 = rate_sensitivity(pv, net, base)
        S2 = rate_sensitivity(pv, net, doubled)
        assert S2[1, 2] == pytest.approx(2.0 * S1[1, 2])


class TestObservabilityMatrix:
    def test_identity_transition_rank_three(self):
        C = measurement_matrix(3, 4)
        O = observability_matrix(np.eye(7), C)
        assert O.shape == (21, 7)
        snap = analyze_observability(O)
        assert snap.rank == 3
        assert snap.nullspace_dim == 4

    def test_table1_rank_five(self):
        net, pv = table1()
        snap = analyze_observability(oracle_observability([74.0, 67.0, 22.0], pv, net))
        assert snap.rank == 5
        assert snap.nullspace_dim == 2

    def test_rank_threshold_robust(self):
        net, pv = table1()
        O = oracle_observability([74.0, 67.0, 22.0], pv, net)
        a = analyze_observability(O, rank_rtol=1e-10)
        b = analyze_observability(O, rank_rtol=1e-8)
        assert a.rank == b.rank == 5

    def test_nullspace_orthonormal_and_annihilated(self):
        net, pv = table1()
        O = oracle_observability([74.0, 67.0, 22.0], pv, net)
        basis = analyze_observability(O).nullspace_basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.max(np.abs(O @ basis)) < 1e-8
        (snap,) = nullspace_trace(np.array([[74.0, 67.0, 22.0]]), [0.0], pv, net)
        np.testing.assert_allclose(snap.nullspace_basis.T @ snap.nullspace_basis,
                                   np.eye(2), atol=1e-12)
        assert np.max(np.abs(O @ snap.nullspace_basis)) < 1e-8

    def test_rank_invariant_under_row_scaling(self):
        net, pv = table1()
        F = oracle_transition([74.0, 67.0, 22.0], pv, net)
        C = measurement_matrix(3, 4)
        C_scaled = np.diag([3.0, 0.2, 11.0]) @ C
        a = analyze_observability(observability_matrix(F, C))
        b = analyze_observability(observability_matrix(F, C_scaled))
        assert a.rank == b.rank

    def test_condition_number_severely_ill(self):
        net, pv = table1()
        for temps in ([74.0, 67.0, 22.0], [70.0, 70.0, 20.0], [68.0, 71.5, 35.0]):
            snap = analyze_observability(oracle_observability(temps, pv, net))
            assert snap.condition_number >= 1e10

    def test_nullspace_trace_matches_stacked_oracle(self):
        # parameters are constant and every node is measured, so ker O is
        # {0} x ker S: equal rank, equal parameter magnitudes, zero on T
        net, pv = table1()
        rng = np.random.default_rng(20151229)
        points = np.column_stack([
            rng.uniform(55.0, 80.0, 200), rng.uniform(55.0, 80.0, 200),
            rng.uniform(-10.0, 40.0, 200),
        ])
        points[:5] = [[68.0] * 3, [20.0] * 3, [70.0, 70.0, 20.0],
                      [66.0, 66.0, 66.0 + 1e-3], [72.0, 60.0, 72.0]]
        points[5:40, 1] = points[5:40, 0]  # T1 = T2
        snaps = nullspace_trace(points, np.arange(len(points)) * 15.0, pv, net)
        for temps, snap in zip(points, snaps):
            ref = analyze_observability(oracle_observability(temps, pv, net))
            assert snap.rank == ref.rank, temps
            assert snap.nullspace_dim == ref.nullspace_dim, temps
            np.testing.assert_array_equal(snap.coordinate_magnitudes[:3], 0.0)
            np.testing.assert_allclose(snap.coordinate_magnitudes[3:],
                                       ref.coordinate_magnitudes[3:], rtol=0, atol=1e-12)
        assert {s.rank for s in snaps} == {3, 5}

    def test_static_temperatures_static_nullspace(self):
        net, pv = table1()
        temps = np.tile([72.0, 66.0, 25.0], (5, 1))
        snaps = nullspace_trace(temps, np.arange(5) * 15.0, pv, net)
        base = snaps[0].coordinate_magnitudes
        for s in snaps[1:]:
            np.testing.assert_allclose(s.coordinate_magnitudes, base, atol=1e-12)

    def test_nullspace_magnitudes_closed_form(self):
        # Parameters are constant and temperatures are measured, so a null
        # vector is a parameter step that leaves every zone's rate unchanged:
        # zone 1's lives on (R12C1, R13C1) with c12 * dR12C1 + c13 * dR13C1 = 0,
        # c1j = (Tj - T1) / p1j^2, and zone 2's likewise on (R12C2, R23C2).
        net, pv = table1()
        p = dict(zip(pv.param_names(), pv.p))
        names = coordinate_names(pv, net)
        points = np.array([
            [70.0, 68.0, 20.0], [72.0, 60.0, 55.0], [74.0, 67.0, 22.0],
            [68.0, 71.5, 35.0], [66.0, 74.0, 10.0],
        ])
        snaps = nullspace_trace(points, np.arange(len(points)) * 15.0, pv, net)
        for (T1, T2, T3), snap in zip(points, snaps):
            m = dict(zip(names, snap.coordinate_magnitudes))
            c12, c13 = (T2 - T1) / p["R12C1"] ** 2, (T3 - T1) / p["R13C1"] ** 2
            c21, c23 = (T1 - T2) / p["R12C2"] ** 2, (T3 - T2) / p["R23C2"] ** 2
            expected = {
                "R12C1": abs(c13) / np.hypot(c12, c13),
                "R13C1": abs(c12) / np.hypot(c12, c13),
                "R12C2": abs(c23) / np.hypot(c21, c23),
                "R23C2": abs(c21) / np.hypot(c21, c23),
            }
            for name, value in expected.items():
                assert m[name] == pytest.approx(value, abs=1e-12), name
            assert m["R12C1"] ** 2 + m["R13C1"] ** 2 == pytest.approx(1.0, abs=1e-12)
            assert m["R12C2"] ** 2 + m["R23C2"] ** 2 == pytest.approx(1.0, abs=1e-12)
            # halving it needs |T2 - T1| >= 10.8 |T3 - T1|
            assert m["R12C1"] > 0.99

    def test_coordinate_names(self):
        net, pv = table1()
        names = coordinate_names(pv, net)
        assert names == ("T1", "T2", "T3", "R12C1", "R13C1", "R12C2", "R23C2")


def make_trace(rows):
    trace = SimulationTrace(dt=15.0, node_ids=(1, 2, 3), zone_ids=(1, 2), heated_ids=(1, 2))
    for k, (temps, u, r_min, r_max) in enumerate(rows):
        trace.append(TraceRow(
            step=k, time=k * 15.0,
            true_temps=np.array(temps), measured_temps=np.array(temps),
            t_ext=temps[2], u=np.array(u),
            r_min=np.array(r_min), r_max=np.array(r_max), mode="thermostat",
        ))
    return trace


class TestMetrics:
    def test_inside_bounds_zero_discomfort(self):
        rows = [([70.0, 70.5, 20.0], [0.4, 0.1], [68.0, 68.0], [72.0, 72.0])] * 6
        m = compute_metrics(make_trace(rows))
        assert m.discomfort == 0.0
        assert m.energy == pytest.approx(3.0)

    def test_no_control_zero_energy(self):
        rows = [([66.0, 74.0, 20.0], [0.0, 0.0], [68.0, 68.0], [72.0, 72.0])] * 4
        m = compute_metrics(make_trace(rows))
        assert m.energy == 0.0
        # violations: zone 1 is 2 below, zone 2 is 2 above
        assert m.discomfort == pytest.approx(2.0)

    def test_empty_trace(self):
        m = compute_metrics(make_trace([]))
        assert m.discomfort == 0.0 and m.energy == 0.0 and m.steps == 0

    def test_energy_additive_discomfort_rms_composable(self):
        rows_a = [([66.0, 70.0, 20.0], [1.0, 0.0], [68.0, 68.0], [72.0, 72.0])] * 3
        rows_b = [([70.0, 75.0, 20.0], [0.0, 1.0], [68.0, 68.0], [72.0, 72.0])] * 5
        ma = compute_metrics(make_trace(rows_a))
        mb = compute_metrics(make_trace(rows_b))
        mab = compute_metrics(make_trace(rows_a + rows_b))
        assert mab.energy == pytest.approx(ma.energy + mb.energy)
        expected = np.sqrt(
            (ma.discomfort**2 * ma.steps + mb.discomfort**2 * mb.steps)
            / (ma.steps + mb.steps)
        )
        assert mab.discomfort == pytest.approx(expected)
