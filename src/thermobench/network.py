"""RC thermal network model: graph definition, minimal parameterization, dynamics assembly.

A building is a simple undirected weighted graph. Nodes hold thermal
capacitances and temperatures, edges hold thermal resistances, and heated
zones add a temperature-rate contribution proportional to their control
input. External (ambient) nodes have effectively infinite capacitance:
their temperature is imposed, never integrated.

The identifiable parameterization groups the dynamics into RC products
(one per directed edge whose head is an internal node) and heater rate
coefficients (one per heated zone). All dynamics matrices are assembled
from those parameters, so an estimator that learns the parameter vector
fully determines the model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import PhysicsViolationError, ValidationError


@dataclass(frozen=True)
class Node:
    """A thermal zone (internal) or ambient boundary (external)."""

    id: int
    capacitance: Optional[float] = None
    is_external: bool = False


@dataclass(frozen=True)
class Edge:
    """Undirected thermal connection with resistance between two nodes."""

    i: int
    j: int
    resistance: float


@dataclass(frozen=True)
class ThermalNetwork:
    """Building graph: nodes with capacitance, resistive edges, heater rates.

    ``heat_rates`` maps node id -> full-output temperature-rate contribution
    of that node's heater (degrees per minute at control input 1). Nodes
    without heaters may be omitted or mapped to 0. External nodes must not
    have heaters.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    heat_rates: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate node ids")
        if not self.nodes:
            raise ValidationError("network has no nodes")
        known = set(ids)
        seen = set()
        for e in self.edges:
            if e.i == e.j:
                raise ValidationError(f"self-edge at node {e.i}")
            if e.i not in known or e.j not in known:
                raise ValidationError(f"edge ({e.i},{e.j}) references unknown node")
            if e.resistance <= 0:
                raise ValidationError(f"edge ({e.i},{e.j}) has non-positive resistance")
            key = (min(e.i, e.j), max(e.i, e.j))
            if key in seen:
                raise ValidationError(f"duplicate edge ({e.i},{e.j})")
            seen.add(key)
        for n in self.nodes:
            if n.is_external:
                if n.capacitance is not None:
                    raise ValidationError(
                        f"external node {n.id} must not store a capacitance"
                    )
            else:
                if n.capacitance is None or n.capacitance <= 0:
                    raise ValidationError(f"node {n.id} needs a positive capacitance")
        for nid, b in self.heat_rates.items():
            if nid not in known:
                raise ValidationError(f"heater on unknown node {nid}")
            if b < 0:
                raise ValidationError(f"heater rate on node {nid} is negative")
            if b > 0 and self.node(nid).is_external:
                raise ValidationError(f"external node {nid} cannot have a heater")
        if not self._connected():
            raise ValidationError("network graph is not connected")

    def _connected(self) -> bool:
        if len(self.nodes) == 1:
            return True
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        stack = [self.nodes[0].id]
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        return len(seen) == len(self.nodes)

    # -- lookups -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def internal_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if not n.is_external)

    @property
    def external_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.is_external)

    @property
    def heated_ids(self) -> tuple[int, ...]:
        """Heated zones, in node order."""
        return tuple(
            n.id for n in self.nodes if self.heat_rates.get(n.id, 0.0) > 0.0
        )

    def index_of(self, node_id: int) -> int:
        return self.node_ids.index(node_id)

    def neighbors(self, node_id: int) -> tuple[tuple[int, float], ...]:
        """(neighbor id, resistance) pairs in node order."""
        res = {}
        for e in self.edges:
            if e.i == node_id:
                res[e.j] = e.resistance
            elif e.j == node_id:
                res[e.i] = e.resistance
        return tuple((nid, res[nid]) for nid in self.node_ids if nid in res)


@dataclass(frozen=True)
class ParameterVector:
    """Minimal identifiable parameterization of a thermal network.

    ``p[k]`` is the RC product R_ij * C_i for the directed edge ``edge_map[k]
    == (i, j)`` whose head ``i`` is internal. ``q[l]`` is the heater rate
    coefficient of zone ``zone_map[l]``.
    """

    p: np.ndarray
    q: np.ndarray
    edge_map: tuple[tuple[int, int], ...]
    zone_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if self.p.shape != (len(self.edge_map),):
            raise ValidationError("p length does not match edge_map")
        if self.q.shape != (len(self.zone_map),):
            raise ValidationError("q length does not match zone_map")
        if len(set(self.edge_map)) != len(self.edge_map):
            raise ValidationError("edge_map has duplicate entries")
        if len(set(self.zone_map)) != len(self.zone_map):
            raise ValidationError("zone_map has duplicate entries")

    def with_values(self, p: np.ndarray, q: np.ndarray) -> "ParameterVector":
        """Same index maps, new numeric values."""
        return ParameterVector(np.asarray(p, float), np.asarray(q, float),
                               self.edge_map, self.zone_map)

    def param_names(self) -> tuple[str, ...]:
        """Human-readable names, RC products first then heater rates."""
        names = []
        for (i, j) in self.edge_map:
            a, b = min(i, j), max(i, j)
            names.append(f"R{a}{b}C{i}")
        for nid in self.zone_map:
            names.append(f"q{nid}")
        return tuple(names)


def minimal_parameterization(net: ThermalNetwork) -> ParameterVector:
    """Extract the RC products and heater coefficients that determine the dynamics.

    One p entry per directed edge (i <- j) with internal head i, ordered by
    node order of i then node order of j; one q entry per heated zone in
    node order.
    """
    edge_map: list[tuple[int, int]] = []
    p_vals: list[float] = []
    for nid in net.internal_ids:
        c_i = net.node(nid).capacitance
        for (jid, r_ij) in net.neighbors(nid):
            edge_map.append((nid, jid))
            p_vals.append(r_ij * c_i)
    zone_map = net.heated_ids
    q_vals = [net.heat_rates[z] for z in zone_map]
    pv = ParameterVector(
        np.array(p_vals, dtype=float),
        np.array(q_vals, dtype=float),
        tuple(edge_map),
        zone_map,
    )
    if not np.all(pv.p > 0):
        raise ValidationError("non-positive RC product")
    return pv


@dataclass(frozen=True)
class ContinuousDynamics:
    """Continuous-time rate dynamics dT/dt = A T + B_ctrl u over all nodes.

    Rows of external nodes are zero; their temperature is imposed externally.
    ``node_ids`` fixes the ordering of A's rows/columns, ``heated_ids`` the
    ordering of B_ctrl's columns.
    """

    A: np.ndarray
    B_ctrl: np.ndarray
    node_ids: tuple[int, ...]
    external: tuple[bool, ...]
    heated_ids: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def internal_idx(self) -> np.ndarray:
        return np.flatnonzero(~np.asarray(self.external))

    @property
    def external_idx(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.external))


def assemble_continuous(params: ParameterVector, topology: ThermalNetwork) -> ContinuousDynamics:
    """Build the rate matrix A and control matrix B_ctrl from a parameter vector.

    Off-diagonal A entries are reciprocals of the mapped RC products, each
    diagonal entry is the negative sum of its row's off-diagonals, and
    external-node rows stay zero.

    Raises ``PhysicsViolationError`` if any p entry is non-positive: callers
    that tolerate excursions (e.g. sigma-point propagation) must clamp first.
    """
    if np.any(params.p <= 0):
        bad = [params.param_names()[k] for k in np.flatnonzero(params.p <= 0)]
        raise PhysicsViolationError(f"non-positive RC products: {', '.join(bad)}")
    n = len(topology.nodes)
    idx = {nid: k for k, nid in enumerate(topology.node_ids)}
    A = np.zeros((n, n))
    for k, (i, j) in enumerate(params.edge_map):
        A[idx[i], idx[j]] = 1.0 / params.p[k]
    for r in range(n):
        A[r, r] = -np.sum(A[r, :]) + A[r, r]
    B = np.zeros((n, len(params.zone_map)))
    for l, z in enumerate(params.zone_map):
        B[idx[z], l] = params.q[l]
    external = tuple(node.is_external for node in topology.nodes)
    return ContinuousDynamics(A, B, topology.node_ids, external, params.zone_map)


def continuous_from_network(net: ThermalNetwork) -> ContinuousDynamics:
    """Convenience: parameterize and assemble in one step."""
    return assemble_continuous(minimal_parameterization(net), net)


@dataclass(frozen=True)
class DiscreteDynamics:
    """Exact zero-order-hold discretization over internal nodes.

    T_int(k+1) = Phi T_int(k) + Gamma_ext T_ext(k) + Gamma_ctrl u(k),
    with external temperatures and control inputs held over each step.
    """

    Phi: np.ndarray
    Gamma_ext: np.ndarray
    Gamma_ctrl: np.ndarray
    dt: float
    internal_ids: tuple[int, ...]
    external_ids: tuple[int, ...]
    heated_ids: tuple[int, ...]

    @property
    def n_internal(self) -> int:
        return len(self.internal_ids)


def discretize(cont: ContinuousDynamics, dt: float) -> DiscreteDynamics:
    """Zero-order-hold discretization via a single augmented matrix exponential."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    int_idx = cont.internal_idx
    ext_idx = cont.external_idx
    n_i, n_e = len(int_idx), len(ext_idx)
    m = cont.B_ctrl.shape[1]
    A_ii = cont.A[np.ix_(int_idx, int_idx)]
    A_ie = cont.A[np.ix_(int_idx, ext_idx)]
    B_i = cont.B_ctrl[int_idx, :]
    M = np.zeros((n_i + n_e + m, n_i + n_e + m))
    M[:n_i, :n_i] = A_ii
    M[:n_i, n_i:n_i + n_e] = A_ie
    M[:n_i, n_i + n_e:] = B_i
    E = expm(M * dt)
    node_ids = np.asarray(cont.node_ids)
    return DiscreteDynamics(
        Phi=E[:n_i, :n_i],
        Gamma_ext=E[:n_i, n_i:n_i + n_e],
        Gamma_ctrl=E[:n_i, n_i + n_e:],
        dt=float(dt),
        internal_ids=tuple(int(v) for v in node_ids[int_idx]),
        external_ids=tuple(int(v) for v in node_ids[ext_idx]),
        heated_ids=cont.heated_ids,
    )


def load_network(source) -> ThermalNetwork:
    """Load a network from a JSON file path, file object, or parsed dict.

    Schema::

        {"nodes":   [{"id": 1, "capacitance": 17.0},
                     {"id": 3, "external": true}],
         "edges":   [{"i": 1, "j": 3, "resistance": 60.0}],
         "heaters": [{"node": 1, "rate": 0.18}]}
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    try:
        nodes = tuple(
            Node(
                id=int(n["id"]),
                capacitance=(None if n.get("external") else float(n["capacitance"])),
                is_external=bool(n.get("external", False)),
            )
            for n in doc["nodes"]
        )
        edges = tuple(
            Edge(int(e["i"]), int(e["j"]), float(e["resistance"]))
            for e in doc["edges"]
        )
        heaters = {int(h["node"]): float(h["rate"]) for h in doc.get("heaters", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network definition: {exc}") from exc
    return ThermalNetwork(nodes, edges, heaters)


def two_zone_example() -> ThermalNetwork:
    """The standard two-zone test building used throughout the test scenarios.

    Zones 1 and 2 are weakly coupled to each other (high inter-zone
    resistance) and each strongly coupled to the ambient node 3.
    """
    return ThermalNetwork(
        nodes=(
            Node(1, capacitance=17.0),
            Node(2, capacitance=10.0),
            Node(3, is_external=True),
        ),
        edges=(
            Edge(1, 2, 150.0),
            Edge(1, 3, 60.0),
            Edge(2, 3, 100.0),
        ),
        heat_rates={1: 0.18, 2: 0.22},
    )
