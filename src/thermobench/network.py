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


def generator(p: np.ndarray, q: np.ndarray, template: ParameterVector,
              topology: ThermalNetwork) -> np.ndarray:
    """Zero-order-hold generator over [internal nodes, ambient nodes, heaters].

    Rows of internal nodes hold 1/p at each edge's neighbour and minus the
    sum of those rates on the diagonal, and q at each heater's column; the
    other rows are zero, so the held inputs stay constant. ``template``
    supplies the edge and zone maps; ``p`` and ``q`` may carry leading axes,
    one generator per row. Edges are written one by one, off-diagonal then
    diagonal, so each diagonal sums its rates in edge order.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    cell = {nid: k for k, nid in enumerate(topology.internal_ids + topology.external_ids)}
    n_x = len(cell)
    M = np.zeros(p.shape[:-1] + (n_x + len(template.zone_map),) * 2)
    rates = 1.0 / p
    for k, (i, j) in enumerate(template.edge_map):
        M[..., cell[i], cell[j]] = rates[..., k]
        M[..., cell[i], cell[i]] -= rates[..., k]
    for l, z in enumerate(template.zone_map):
        M[..., cell[z], n_x + l] = q[..., l]
    return M


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


def discretize(params: ParameterVector, topology: ThermalNetwork, dt: float) -> DiscreteDynamics:
    """Zero-order-hold discretization: one matrix exponential of the generator.

    Raises ``PhysicsViolationError`` if any p entry is non-positive: callers
    that tolerate excursions (e.g. sigma-point propagation) must clamp first.
    """
    if np.any(params.p <= 0):
        bad = [params.param_names()[k] for k in np.flatnonzero(params.p <= 0)]
        raise PhysicsViolationError(f"non-positive RC products: {', '.join(bad)}")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    n_i = len(topology.internal_ids)
    n_x = len(topology.nodes)
    E = expm(generator(params.p, params.q, params, topology) * dt)
    return DiscreteDynamics(
        Phi=E[:n_i, :n_i],
        Gamma_ext=E[:n_i, n_i:n_x],
        Gamma_ctrl=E[:n_i, n_x:],
        dt=float(dt),
        internal_ids=topology.internal_ids,
        external_ids=topology.external_ids,
        heated_ids=params.zone_map,
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
