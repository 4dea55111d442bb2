"""Observability diagnostics and scenario metrics.

The observability analysis asks which parameter combinations the data
cannot see at an operating point. Every node temperature is measured and
the parameters are constant, so the nullspace of the stacked observability
matrix of the joint temperature/parameter dynamics is exactly
{0} x ker(S), where S is the temperature-rate sensitivity to the RC
products; the snapshot reads rank and nullspace directions off S alone.
Heater coefficients are excluded; they are directly driven by the inputs
and learn quickly, so the interesting structure is in the RC products.

Scenario metrics score a closed-loop run: RMS comfort-bound violation of
the realized zone temperatures and accumulated control effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm  # noqa: F401  unused; kept so perfbench's analysis.expm counter binds

from .errors import ValidationError
from .network import ParameterVector, ThermalNetwork
from .simulator import SimulationTrace

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ObservabilitySnapshot:
    time: float
    rank: int
    nullspace_basis: np.ndarray        # (dim, null_dim), orthonormal columns
    coordinate_magnitudes: np.ndarray  # (dim,) L2 of each coordinate across the basis

    @property
    def nullspace_dim(self) -> int:
        return self.nullspace_basis.shape[1]


@dataclass(frozen=True)
class ScenarioMetrics:
    discomfort: float
    energy: float
    discomfort_per_zone: np.ndarray
    energy_per_zone: np.ndarray
    steps: int

    def as_dict(self) -> dict:
        return {
            "discomfort": self.discomfort,
            "energy": self.energy,
            "steps": self.steps,
            **{f"discomfort_zone{k}": v for k, v in enumerate(self.discomfort_per_zone)},
            **{f"energy_zone{k}": v for k, v in enumerate(self.energy_per_zone)},
        }


def rate_sensitivity(
    params: ParameterVector,
    topology: ThermalNetwork,
    T_operating: np.ndarray,
) -> np.ndarray:
    """Temperature-rate sensitivity to each RC product at an operating point.

    Entry (i, k) is the derivative of node i's temperature rate with
    respect to parameter k: -(T_j - T_i) / p_k^2 at the parameter's edge,
    zero elsewhere. Vanishes wherever temperatures are uniform.
    """
    T = np.asarray(T_operating, dtype=float)
    idx = {nid: k for k, nid in enumerate(topology.node_ids)}
    S = np.zeros((len(topology.nodes), len(params.p)))
    for k, (i, j) in enumerate(params.edge_map):
        S[idx[i], k] = -(T[idx[j]] - T[idx[i]]) / params.p[k] ** 2
    return S


def nullspace_trace(
    temps_series: np.ndarray,
    times: Sequence[float],
    params: ParameterVector,
    topology: ThermalNetwork,
) -> list[ObservabilitySnapshot]:
    """Observability snapshot at every operating point of a trajectory.

    The rank is n_nodes + rank(S) and the nullspace basis is [0; ker S],
    with S the sensitivity of ``rate_sensitivity``.
    """
    n = len(topology.nodes)
    n_p = len(params.p)
    out = []
    for temps, t in zip(np.asarray(temps_series, dtype=float), times):
        if temps.shape != (n,):
            raise ValidationError("temperature vector has wrong length")
        S = rate_sensitivity(params, topology, temps)
        _, s, Vt = np.linalg.svd(S, full_matrices=True)
        rank = int(np.sum(s > RANK_RTOL * s[0]))
        basis = np.zeros((n + n_p, n_p - rank))
        basis[n:] = Vt[rank:].T
        out.append(ObservabilitySnapshot(t, n + rank, basis, np.linalg.norm(basis, axis=1)))
    return out


def coordinate_names(params: ParameterVector, topology: ThermalNetwork) -> tuple[str, ...]:
    temp_names = tuple(f"T{nid}" for nid in topology.node_ids)
    return temp_names + params.param_names()[: len(params.p)]


def compute_metrics(trace: SimulationTrace) -> ScenarioMetrics:
    """Comfort and energy scores of a finished run.

    Discomfort is the RMS of bound violations of the realized true zone
    temperatures against the scheduled bounds; energy is the accumulated
    control effort (dimensionless heater on-time), per heater.
    """
    K = len(trace)
    n_zones = len(trace.zone_ids)
    energy = np.zeros(len(trace.heated_ids))
    if K == 0:
        return ScenarioMetrics(0.0, 0.0, np.zeros(n_zones), energy, 0)
    zone_pos = [trace.node_ids.index(z) for z in trace.zone_ids]
    sq = np.zeros(n_zones)
    for row in trace.rows:
        T = row.true_temps[zone_pos]
        low = np.maximum(row.r_min - T, 0.0)
        high = np.maximum(T - row.r_max, 0.0)
        sq += low**2 + high**2
        energy += row.u
    discomfort = float(np.sqrt(np.sum(sq) / (n_zones * K)))
    per_zone = np.sqrt(sq / K)
    return ScenarioMetrics(discomfort, float(np.sum(energy)), per_zone, energy, K)
