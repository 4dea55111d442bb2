import numpy as np
import pytest

from thermobench.errors import PhysicsViolationError, ValidationError
from thermobench.network import (
    Edge,
    Node,
    ThermalNetwork,
    discretize,
    generator,
    load_network,
    minimal_parameterization,
    two_zone_example,
)


def single_zone():
    return ThermalNetwork(
        nodes=(Node(1, capacitance=5.0), Node(2, is_external=True)),
        edges=(Edge(1, 2, 30.0),),
        heat_rates={1: 0.2},
    )


def path_three_plus_external():
    # 1 - 2 - 3 internal path, external node 4 attached to node 1
    return ThermalNetwork(
        nodes=(
            Node(1, capacitance=5.0),
            Node(2, capacitance=6.0),
            Node(3, capacitance=7.0),
            Node(4, is_external=True),
        ),
        edges=(Edge(1, 2, 10.0), Edge(2, 3, 20.0), Edge(1, 4, 30.0)),
        heat_rates={1: 0.1},
    )


class TestMinimalParameterization:
    def test_two_zone_values(self):
        pv = minimal_parameterization(two_zone_example())
        # Direct arithmetic: R12*C1, R13*C1, R12*C2, R23*C2
        np.testing.assert_allclose(pv.p, [150 * 17, 60 * 17, 150 * 10, 100 * 10])
        np.testing.assert_allclose(pv.p, [2550.0, 1020.0, 1500.0, 1000.0])
        assert pv.edge_map == ((1, 2), (1, 3), (2, 1), (2, 3))
        assert len(pv.q) == 2
        np.testing.assert_allclose(pv.q, [0.18, 0.22])
        assert pv.param_names()[:4] == ("R12C1", "R13C1", "R12C2", "R23C2")

    def test_smallest_valid_graph(self):
        pv = minimal_parameterization(single_zone())
        assert len(pv.p) == 1
        assert len(pv.q) == 1
        np.testing.assert_allclose(pv.p, [150.0])

    def test_path_counts_directed_internal_heads(self):
        # Hand count: internal-internal edges contribute 2 directions each,
        # the external attachment contributes 1.
        pv = minimal_parameterization(path_three_plus_external())
        assert len(pv.p) == 2 * 2 + 1

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValidationError):
            ThermalNetwork(
                nodes=(Node(1, capacitance=1.0), Node(2, capacitance=1.0)),
                edges=(),
            )

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(ValidationError):
            ThermalNetwork(
                nodes=(Node(1, capacitance=1.0), Node(2, is_external=True)),
                edges=(Edge(1, 2, -3.0),),
            )


def network_generator(net):
    pv = minimal_parameterization(net)
    return generator(pv.p, pv.q, pv, net)


def model(net, dt):
    return discretize(minimal_parameterization(net), net, dt)


class TestAssembleContinuous:
    """``generator``: the continuous-time assembly over [internal, ambient, heaters]."""

    def test_two_zone_entries_exact(self):
        M = network_generator(two_zone_example())
        assert abs(M[0, 1] - 1.0 / 2550.0) < 1e-12
        assert abs(M[0, 2] - 1.0 / 1020.0) < 1e-12
        assert abs(M[1, 0] - 1.0 / 1500.0) < 1e-12
        assert abs(M[1, 2] - 1.0 / 1000.0) < 1e-12
        assert abs(M[0, 0] + (1.0 / 2550.0 + 1.0 / 1020.0)) < 1e-12
        assert abs(M[1, 1] + (1.0 / 1500.0 + 1.0 / 1000.0)) < 1e-12
        # the ambient and heater rows are zero: held inputs
        np.testing.assert_allclose(M[2:, :], 0.0)
        # the heater block is diagonal over heated zones with the heater rates
        np.testing.assert_allclose(M[:2, 3:], np.diag([0.18, 0.22]))

    def test_matches_direct_construction(self):
        net = path_three_plus_external()
        M = network_generator(net)
        # Independent construction straight from R and C
        direct = np.zeros((4, 4))
        direct[0, 1] = 1.0 / (10.0 * 5.0)
        direct[0, 3] = 1.0 / (30.0 * 5.0)
        direct[1, 0] = 1.0 / (10.0 * 6.0)
        direct[1, 2] = 1.0 / (20.0 * 6.0)
        direct[2, 1] = 1.0 / (20.0 * 7.0)
        for r in range(3):
            direct[r, r] = -direct[r].sum()
        np.testing.assert_allclose(M[:4, :4], direct, atol=1e-12)
        np.testing.assert_allclose(M[:, 4], [0.1, 0.0, 0.0, 0.0, 0.0])

    def test_isolated_node_row_zero(self):
        net = ThermalNetwork(nodes=(Node(1, capacitance=2.0),), edges=(), heat_rates={1: 0.5})
        np.testing.assert_allclose(network_generator(net), [[0.0, 0.5], [0.0, 0.0]])

    def test_uniform_temperature_is_stationary(self):
        M = network_generator(two_zone_example())
        np.testing.assert_allclose(M[:, :3] @ np.full(3, 71.3), 0.0, atol=1e-12)

    def test_rejects_nonpositive_parameter(self):
        pv = minimal_parameterization(two_zone_example())
        bad = pv.with_values(pv.p * np.array([1, 1, -1, 1]), pv.q)
        with pytest.raises(PhysicsViolationError):
            discretize(bad, two_zone_example(), 15.0)

    def test_row_sum_property_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_int = rng.integers(1, 5)
            nodes = [Node(i, capacitance=float(rng.uniform(1, 30))) for i in range(1, n_int + 1)]
            nodes.append(Node(n_int + 1, is_external=True))
            # spanning-tree style connectivity plus random extra edges
            edges = []
            for i in range(2, n_int + 2):
                j = int(rng.integers(1, i))
                edges.append(Edge(i, j, float(rng.uniform(5, 200))))
            net = ThermalNetwork(tuple(nodes), tuple(edges))
            A = network_generator(net)
            off = A - np.diag(np.diag(A))
            assert np.all(off >= 0)
            n = len(net.nodes)
            np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=n * np.finfo(float).eps * 10)

    def test_leading_axes_give_one_generator_per_row(self):
        net = two_zone_example()
        pv = minimal_parameterization(net)
        P = pv.p * np.array([[1.0], [2.0], [0.5]])
        Q = pv.q * np.array([[1.0], [3.0], [2.0]])
        stack = generator(P, Q, pv, net)
        assert stack.shape == (3, 5, 5)
        for k in range(3):
            np.testing.assert_array_equal(stack[k], generator(P[k], Q[k], pv, net))


class TestDiscretize:
    def test_dt_to_zero_limit(self):
        d = model(two_zone_example(), 1e-9)
        assert np.linalg.norm(d.Phi - np.eye(2)) < 1e-6
        assert np.linalg.norm(d.Gamma_ext) < 1e-6
        assert np.linalg.norm(d.Gamma_ctrl) < 1e-6

    def test_scalar_closed_form(self):
        # dT/dt = -a (T - T_ext) with a = 1/(R*C) = 1e-3
        net = ThermalNetwork(
            nodes=(Node(1, capacitance=1.0), Node(2, is_external=True)),
            edges=(Edge(1, 2, 1000.0),),
        )
        d = model(net, 15.0)
        assert abs(d.Phi[0, 0] - np.exp(-1e-3 * 15.0)) < 1e-12
        assert abs(d.Phi[0, 0] - 0.985112) < 1e-6

    def test_conservation_row_sums(self):
        d = model(two_zone_example(), 15.0)
        total = d.Phi.sum(axis=1) + d.Gamma_ext.sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_semigroup_property(self):
        net = two_zone_example()
        d1, d2, d15 = model(net, 6.0), model(net, 9.0), model(net, 15.0)
        np.testing.assert_allclose(d2.Phi @ d1.Phi, d15.Phi, atol=1e-10)
        np.testing.assert_allclose(
            d2.Phi @ d1.Gamma_ext + d2.Gamma_ext, d15.Gamma_ext, atol=1e-10
        )
        np.testing.assert_allclose(
            d2.Phi @ d1.Gamma_ctrl + d2.Gamma_ctrl, d15.Gamma_ctrl, atol=1e-10
        )

    def test_eigenvalues_stable(self):
        d = model(two_zone_example(), 15.0)
        eig = np.linalg.eigvals(d.Phi)
        assert np.all(np.abs(np.imag(eig)) < 1e-12)
        assert np.all(np.real(eig) > 0) and np.all(np.real(eig) <= 1)

    def test_free_response_converges_to_ambient(self):
        d = model(two_zone_example(), 15.0)
        t_ext = np.array([20.0])
        temps = np.array([70.0, 65.0])
        prev_gap = np.max(np.abs(temps - 20.0))
        for _ in range(700):
            temps = d.Phi @ temps + d.Gamma_ext @ t_ext
            gap = np.max(np.abs(temps - 20.0))
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 0.1


def test_load_network_roundtrip(tmp_path):
    doc = {
        "nodes": [
            {"id": 1, "capacitance": 17.0},
            {"id": 2, "capacitance": 10.0},
            {"id": 3, "external": True},
        ],
        "edges": [
            {"i": 1, "j": 2, "resistance": 150.0},
            {"i": 1, "j": 3, "resistance": 60.0},
            {"i": 2, "j": 3, "resistance": 100.0},
        ],
        "heaters": [{"node": 1, "rate": 0.18}, {"node": 2, "rate": 0.22}],
    }
    path = tmp_path / "net.json"
    import json

    path.write_text(json.dumps(doc))
    net = load_network(path)
    assert net == two_zone_example()
    pv = minimal_parameterization(net)
    np.testing.assert_allclose(pv.p, [2550.0, 1020.0, 1500.0, 1000.0])


def test_load_network_rejects_garbage():
    with pytest.raises(ValidationError):
        load_network({"nodes": [{"id": 1}], "edges": []})
