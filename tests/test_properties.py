"""Property tests of the network generator, the solver's step search and
the MPC's Newton hook."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermobench.mpc import MpcConfig, _condense, build_mpc_problem
from thermobench.network import (
    Edge,
    Node,
    ThermalNetwork,
    discretize,
    generator,
    minimal_parameterization,
    two_zone_example,
)
from thermobench.solver import _Cones, dense_kkt
from thermobench.ukf import UkfConfig, UkfModel

# reruns check the same examples
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def boundary_measures(cones, x, scale):
    """How far inside the cone each block of x lies, relative to ``scale``
    of the same block: x_i on the orthant, x0 - ||x1|| on each cone."""
    m = cones.m
    out = [x[:m] / scale[:m]]
    for head, dim in zip(cones.heads, cones.dims):
        block = slice(m + head, m + head + dim)
        x_c, s_c = x[block], scale[block]
        out.append([(x_c[0] - np.linalg.norm(x_c[1:])) / (abs(s_c[0]) + np.linalg.norm(s_c[1:]))])
    return np.concatenate(out)


@st.composite
def interior_points(draw):
    """An orthant and two second-order cones, a point with both rows [s; z]
    strictly inside, some of them close to the boundary, and a direction."""
    m = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(2, 6), min_size=2, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cones = _Cones(m, dims)
    rows = []
    for _ in range(2):
        u = np.empty(m + sum(dims))
        u[:m] = np.exp(rng.uniform(-8.0, 3.0, size=m))
        for head, dim in zip(cones.heads, cones.dims):
            tail = rng.normal(size=dim - 1) * np.exp(rng.uniform(-3.0, 3.0))
            gap = np.exp(rng.uniform(-12.0, 1.0)) * (1.0 + np.linalg.norm(tail))
            u[m + head:m + head + dim] = np.concatenate([[np.linalg.norm(tail) + gap], tail])
        rows.append(u)
    u = np.stack(rows)
    du = rng.normal(size=u.shape) * np.exp(rng.uniform(-3.0, 3.0))
    return cones, u, du


@PROPERTY
@given(interior_points())
def test_step_search_stops_at_the_boundary(case):
    """The step a of ``max_step`` keeps u + 0.999 a du strictly inside the
    cone, and when a < 1, u + a du lies on its boundary to 1e-9 relative:
    the block nearest the boundary has reached it, and no block is outside."""
    cones, u, du = case
    assert cones.interior(u)
    a = cones.max_step(du)
    assert 0.0 < a <= 1.0
    assert cones.interior(u + 0.999 * a * du)
    if a < 1.0:
        x = u + a * du
        scale = np.abs(u) + a * np.abs(du)
        nearest = min(boundary_measures(cones, row, s).min() for row, s in zip(x, scale))
        assert abs(nearest) <= 1e-9


@st.composite
def scaled_points(draw):
    """An orthant and cones of sizes 2-8 with a point lambda strictly inside,
    some cones close to the boundary, and a right side u."""
    m = draw(st.integers(0, 6))
    dims = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cones = _Cones(m, dims)
    lam = np.empty(m + sum(dims))
    lam[:m] = np.exp(rng.uniform(-6.0, 3.0, size=m))
    for head, dim in zip(cones.heads, cones.dims):
        tail = rng.normal(size=dim - 1) * np.exp(rng.uniform(-3.0, 3.0))
        gap = np.exp(rng.uniform(-6.0, 1.0)) * (1.0 + np.linalg.norm(tail))
        lam[m + head:m + head + dim] = np.concatenate([[np.linalg.norm(tail) + gap], tail])
    return cones, lam, rng.normal(size=lam.shape)


@PROPERTY
@given(scaled_points())
def test_ldiv_solves_the_jordan_product(case):
    """``ldiv`` returns the x with lambda o x = u, for the lambda that
    ``scale`` keeps: prod(lambda, ldiv(u)) equals u to 1e-12 relative to the
    terms of the product."""
    cones, point, u = case
    # s = z gives W = I, so lambda is the point itself up to rounding
    assert cones.interior(np.stack([point, point]))
    lam = cones.scale()
    x = cones.ldiv(u)
    scale = np.abs(cones.prod(np.abs(lam), np.abs(x))) + np.abs(u)
    assert np.all(np.abs(cones.prod(lam, x) - u) <= 1e-12 * scale)


def random_scaling(rng, size):
    """(beta, v) with beta > 0 and v'Jv = 1, as a Nesterov-Todd scaling."""
    v1 = rng.normal(size=size - 1) * rng.uniform(0.1, 2.0)
    return rng.uniform(0.3, 3.0), np.concatenate([[np.sqrt(1.0 + v1 @ v1)], v1])


@PROPERTY
@given(h=st.integers(1, 6), q_togo=st.sampled_from([1.0, 0.0]), seed=st.integers(0, 2**32 - 1))
def test_condensed_kkt_matches_dense(h, q_togo, seed):
    """The condensed hook solves with the reduced Newton matrix that
    ``dense_kkt`` assembles from the program's rows, to 1e-9 relative, over
    random row weights and NT scalings at small horizons."""
    rng = np.random.default_rng(seed)
    net = two_zone_example()
    model = discretize(minimal_parameterization(net), net, 15.0)
    cfg = MpcConfig(horizon=h, Q_togo=q_togo)
    problem = build_mpc_problem(model, np.array([66.0, 71.0]), rng.uniform(10.0, 50.0, size=h),
                                np.full((h, 2), 68.0), np.full((h, 2), 72.0), cfg)
    prog = _condense(problem)[0]
    wts = np.exp(rng.uniform(-3.0, 3.0, size=prog.m))
    scalings = [random_scaling(rng, size) for size in prog.cones]
    r = rng.normal(size=prog.n)
    ref = dense_kkt(prog)(wts, scalings)(r)
    assert np.linalg.norm(prog.kkt(wts, scalings)(r) - ref) <= 1e-9 * np.linalg.norm(ref)


def building(ids, external, edges, heated, rng):
    """A network over ``ids`` in that order, with random capacitances,
    resistances and heater rates."""
    nodes = tuple(Node(i, is_external=True) if i in external
                  else Node(i, capacitance=float(rng.uniform(1.0, 30.0))) for i in ids)
    return ThermalNetwork(nodes, tuple(Edge(i, j, float(rng.uniform(5.0, 300.0))) for i, j in edges),
                          {z: float(rng.uniform(0.05, 0.3)) for z in heated})


@st.composite
def networks(draw):
    """Connected buildings of 1-10 zones and 1-2 ambient nodes in shuffled
    node order, some zones unheated, and some with a hub zone joined to
    every other node."""
    n_int = draw(st.integers(1, 10))
    n_ext = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [int(i) for i in rng.permutation(n_int + n_ext) + 1]
    zones, external = ids[:n_int], set(ids[n_int:])
    if draw(st.booleans()):
        edges = {(zones[0], j) for j in ids[1:]}
    else:
        # a random spanning tree rooted at a zone, so that no edge joins two ambient nodes
        order = zones + sorted(external)
        edges = {(order[int(rng.integers(0, min(k, n_int)))], order[k]) for k in range(1, len(order))}
    for _ in range(draw(st.integers(0, 6))):
        i, j = rng.choice(zones), rng.choice(ids)
        if i != j and (i, j) not in edges and (j, i) not in edges:
            edges.add((int(i), int(j)))
    heated = [z for z in zones if draw(st.booleans())]
    return building(ids, external, sorted(edges), heated, rng)


def hub_with_unheated_zones():
    """Zone 5 joins the nine other nodes; zones 1 and 7 have no heater."""
    rng = np.random.default_rng(11)
    ids = [3, 9, 5, 1, 10, 2, 8, 4, 7, 6]
    return building(ids, {9, 4}, [(5, j) for j in ids if j != 5] + [(1, 2)],
                    [3, 10, 2, 8, 6], rng)


@PROPERTY
@given(net=networks(), seed=st.integers(0, 2**32 - 1))
@example(net=hub_with_unheated_zones(), seed=0)
def test_generator_rows_and_both_exponentials(net, seed):
    """The generator holds 1/p at each edge and q at each heater, its zone
    rows sum to 0 and its ambient and heater rows are 0; ``discretize`` and
    the UKF's ``propagate_points`` at the same parameters advance the zones
    alike to rounding."""
    rng = np.random.default_rng(seed)
    pv = minimal_parameterization(net)
    M = generator(pv.p, pv.q, pv, net)
    order = net.internal_ids + net.external_ids
    n_i, n_x = len(net.internal_ids), len(order)
    expect = np.zeros_like(M)
    for k, (i, j) in enumerate(pv.edge_map):
        expect[order.index(i), order.index(j)] = 1.0 / pv.p[k]
    for l, z in enumerate(pv.zone_map):
        expect[order.index(z), n_x + l] = pv.q[l]
    off = ~np.eye(len(M), dtype=bool)
    assert np.array_equal(M[off], expect[off])
    assert not M[n_i:].any()
    rates = np.abs(M[:n_i, :n_x]).sum(axis=1)
    assert np.all(np.abs(M[:n_i, :n_x].sum(axis=1)) <= 4 * n_x * np.finfo(float).eps * rates)

    model = discretize(pv, net, 15.0)
    ukf_model = UkfModel(net, UkfConfig())
    temps = rng.uniform(20.0, 80.0, size=(3, len(net.nodes)))
    points = np.concatenate([temps, np.tile(np.concatenate([pv.p, pv.q]), (3, 1))], axis=1)
    u = rng.uniform(0.0, 1.0, size=len(pv.q))
    out = ukf_model.propagate_points(points, u, 15.0)
    pos = [net.index_of(i) for i in net.internal_ids]
    ext = [net.index_of(i) for i in net.external_ids]
    for row, T in zip(out, temps):
        ref = model.Phi @ T[pos] + model.Gamma_ext @ T[ext] + model.Gamma_ctrl @ u
        np.testing.assert_allclose(row[pos], ref, rtol=0, atol=1e-12 * 80.0)
