import numpy as np

from thermobench.monitor import (
    Monitor,
    MonitorPolicy,
    check_physics,
    checkpoint,
    restore,
)
from thermobench.network import minimal_parameterization, two_zone_example
from thermobench.ukf import UkfConfig, UkfModel, UkfState, initial_state, predict, update


def make_state(p_scale=1.0, temps=(70.0, 70.0, 20.0)):
    net = two_zone_example()
    cfg = UkfConfig()
    pv = minimal_parameterization(net)
    seeded = pv.with_values(pv.p * p_scale, pv.q)
    return initial_state(net, np.array(temps), seeded, cfg)


def template():
    return minimal_parameterization(two_zone_example())


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        state = make_state()
        state = UkfState(
            state.x_hat + rng.normal(size=state.dim) * 0.01,
            state.P + np.eye(state.dim) * 1e-6,
            state.n_nodes, state.n_p, state.n_q, step=17,
        )
        cp = checkpoint(state, 123.0)
        back = restore(cp)
        np.testing.assert_array_equal(back.x_hat, state.x_hat)
        np.testing.assert_array_equal(back.P, state.P)
        assert back.step == state.step

    def test_restore_is_independent_copy(self):
        state = make_state()
        cp = checkpoint(state, 0.0)
        first = restore(cp)
        first.x_hat[0] = -999.0
        second = restore(cp)
        assert second.x_hat[0] != -999.0


class TestCheckPhysics:
    def test_healthy_state_clean(self):
        pv = template()
        assert check_physics(make_state(), pv, pv) == []

    def test_negative_parameter_named(self):
        pv = template()
        state = make_state()
        x = state.x_hat.copy()
        x[4] = -10.0  # R13C1 coordinate
        bad = UkfState(x, state.P, 3, 4, 2)
        violations = check_physics(bad, pv, pv)
        assert [v.name for v in violations] == ["R13C1"]
        assert violations[0].value == -10.0

    def test_zero_counts_as_violation(self):
        pv = template()
        state = make_state()
        x = state.x_hat.copy()
        x[3] = 0.0
        bad = UkfState(x, state.P, 3, 4, 2)
        assert [v.name for v in check_physics(bad, pv, pv)] == ["R12C1"]


class TestMonitorLoop:
    def test_checkpoint_cadence(self):
        pv = template()
        mon = Monitor(MonitorPolicy(checkpoint_every=360.0), pv, pv)
        state = make_state()
        for k in range(97):
            state = mon.observe(state, k * 15.0)
        checkpoints = [e for e in mon.events if e.kind == "checkpoint"]
        # one at t=0 plus one every 6 simulated hours
        assert len(checkpoints) == 5

    def test_restore_after_violation_resumes_from_checkpoint(self):
        pv = template()
        mon = Monitor(MonitorPolicy(), pv, pv)
        state = make_state()
        state = mon.observe(state, 0.0)
        x_bad = state.x_hat.copy()
        x_bad[3] = -4.0
        bad = UkfState(x_bad, state.P, 3, 4, 2, step=9)
        recovered = mon.observe(bad, 15.0)
        assert recovered.x_hat[3] == state.x_hat[3]
        assert [e.kind for e in mon.events].count("physics-violation") == 1
        assert mon.noise_boost(20.0) > 1.0
        assert mon.noise_boost(15.0 + 721.0) == 1.0

    def test_replay_determinism_after_restore(self):
        # re-running from the checkpoint with the same inputs reproduces the
        # trajectory that followed the original restore
        net = two_zone_example()
        cfg = UkfConfig()
        model = UkfModel(net, cfg)
        pv = minimal_parameterization(net)
        mon = Monitor(MonitorPolicy(), pv, pv)
        state = make_state()
        state = mon.observe(state, 0.0)
        u = np.array([0.4, 0.2])
        z = np.array([69.5, 70.2, 20.3])
        def advance(s):
            s = predict(s, u, 15.0, model).state
            return update(s, z, model).state
        a = advance(mon.observe(restore(mon.last_checkpoint), 15.0))
        b = advance(mon.observe(restore(mon.last_checkpoint), 15.0))
        np.testing.assert_array_equal(a.x_hat, b.x_hat)
        np.testing.assert_array_equal(a.P, b.P)
