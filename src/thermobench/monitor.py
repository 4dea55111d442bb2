"""Estimator guard rails: checkpoints and physics checks.

The estimator can walk a parameter into a physically impossible region
(non-positive RC product). The monitor periodically snapshots the filter
and flags physics violations so the harness can restore the last good
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import ParameterVector
from .ukf import UkfState


@dataclass(frozen=True)
class Checkpoint:
    state: UkfState
    time: float


@dataclass(frozen=True)
class PhysicsViolation:
    name: str
    value: float
    floor: float


@dataclass(frozen=True)
class MonitorPolicy:
    """Automated reactions to the conditions a human operator would watch."""

    checkpoint_every: float = 360.0          # minutes of simulated time
    violation_floor_frac: float = 1e-6       # of the initial estimate
    noise_boost_factor: float = 2.0
    noise_boost_duration: float = 720.0


def checkpoint(state: UkfState, time: float) -> Checkpoint:
    """Snapshot the filter so a later restore reproduces it exactly."""
    snap = UkfState(
        state.x_hat.copy(), state.P.copy(),
        state.n_nodes, state.n_p, state.n_q, state.step, state.converged,
    )
    return Checkpoint(snap, time)


def restore(cp: Checkpoint) -> UkfState:
    return checkpoint(cp.state, cp.time).state


def check_physics(
    state: UkfState,
    template: ParameterVector,
    initial: ParameterVector,
    floor_frac: float = 1e-6,
) -> list[PhysicsViolation]:
    """Flag any RC product or heater coefficient at or below its floor."""
    names = template.param_names()
    violations = []
    floors = np.concatenate([
        floor_frac * np.abs(initial.p),
        floor_frac * np.abs(initial.q),
    ])
    values = np.concatenate([state.p, state.q])
    for k, (value, floor) in enumerate(zip(values, floors)):
        if value <= floor:
            violations.append(PhysicsViolation(names[k], float(value), float(floor)))
    return violations


@dataclass
class MonitorEvent:
    time: float
    kind: str
    detail: str


class Monitor:
    """Bookkeeping wrapper the scenario loop drives once per control step."""

    def __init__(self, policy: MonitorPolicy, template: ParameterVector,
                 initial: ParameterVector):
        self.policy = policy
        self.template = template
        self.initial = initial
        self.last_checkpoint: Optional[Checkpoint] = None
        self.noise_boost_until: float = -np.inf
        self.events: list[MonitorEvent] = []

    def observe(self, state: UkfState, time: float,
                clamped: tuple[str, ...] = ()) -> UkfState:
        """Checkpoint on cadence, restore on physics violation.

        Returns the state the estimator should continue from (the restored
        checkpoint when a violation fired, otherwise the input state).
        """
        for name in clamped:
            self.events.append(MonitorEvent(time, "sigma-clamp", name))
        violations = check_physics(
            state, self.template, self.initial, self.policy.violation_floor_frac
        )
        if violations and self.last_checkpoint is not None:
            detail = ", ".join(f"{v.name}={v.value:.4g}" for v in violations)
            self.events.append(MonitorEvent(time, "physics-violation", detail))
            self.events.append(
                MonitorEvent(time, "restore", f"checkpoint@{self.last_checkpoint.time:g}")
            )
            self.noise_boost_until = time + self.policy.noise_boost_duration
            return restore(self.last_checkpoint)
        if violations:
            detail = ", ".join(v.name for v in violations)
            self.events.append(
                MonitorEvent(time, "physics-violation", detail + " (no checkpoint)")
            )
        if (
            self.last_checkpoint is None
            or time - self.last_checkpoint.time >= self.policy.checkpoint_every
        ):
            self.last_checkpoint = checkpoint(state, time)
            self.events.append(MonitorEvent(time, "checkpoint", f"t={time:g}"))
        return state

    def noise_boost(self, time: float) -> float:
        """Process-noise multiplier after a restore, to escape the bad region."""
        return self.policy.noise_boost_factor if time < self.noise_boost_until else 1.0
