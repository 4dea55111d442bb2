import numpy as np
import pytest

from thermobench.errors import PreheatSizingError
from thermobench.network import (
    Edge,
    Node,
    ThermalNetwork,
    discretize,
    minimal_parameterization,
    two_zone_example,
)
from thermobench.simulator import OccupancySchedule
from thermobench.thermostat import (
    ThermostatConfig,
    ThermostatState,
    active_lower_bounds,
    compute_preheat,
    thermostat_control,
)


def table1_model(dt=15.0):
    net = two_zone_example()
    return discretize(minimal_parameterization(net), net, dt)


class TestComputePreheat:
    def test_already_at_bound_is_zero(self):
        sched = OccupancySchedule(r_min_unocc=68.0, r_max_unocc=80.0)
        preheat = compute_preheat(table1_model(), sched)
        assert preheat == (0.0, 0.0)

    def test_stronger_heater_shorter(self):
        sched = OccupancySchedule()
        base = compute_preheat(table1_model(), sched)
        strong_net = ThermalNetwork(
            nodes=two_zone_example().nodes,
            edges=two_zone_example().edges,
            heat_rates={1: 0.36, 2: 0.44},
        )
        strong_model = discretize(minimal_parameterization(strong_net), strong_net, 15.0)
        strong = compute_preheat(strong_model, sched)
        assert all(s < b for s, b in zip(strong, base))

    def test_table1_regression_values(self):
        # sized once for the standard two-zone building, 60 -> 68 at ambient 32
        preheat = compute_preheat(table1_model(), OccupancySchedule())
        assert preheat == (60.0, 45.0)

    def test_unreachable_raises_with_zone(self):
        weak_net = ThermalNetwork(
            nodes=two_zone_example().nodes,
            edges=two_zone_example().edges,
            heat_rates={1: 0.001, 2: 0.22},
        )
        model = discretize(minimal_parameterization(weak_net), weak_net, 15.0)
        with pytest.raises(PreheatSizingError) as err:
            compute_preheat(model, OccupancySchedule(), max_hours=12.0)
        assert err.value.zone_id == 1


def make_cfg():
    return ThermostatConfig(
        schedule=OccupancySchedule(),
        preheat_minutes=(60.0, 45.0),
    )


class TestThermostatControl:
    def test_far_above_bounds_off(self):
        cfg = make_cfg()
        state = ThermostatState.initial(2)
        u, _ = thermostat_control(np.array([75.0, 76.0]), 10 * 60.0, state, cfg)
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_below_bound_turns_on_after_dwell(self):
        cfg = make_cfg()
        state = ThermostatState(np.zeros(2), np.array([0.0, 0.0]))
        u, _ = thermostat_control(np.array([67.0, 67.0]), 20.0 + 10 * 60.0, state, cfg)
        np.testing.assert_array_equal(u, [1.0, 1.0])

    def test_hysteresis_holds_recent_switch(self):
        cfg = make_cfg()
        t0 = 10 * 60.0
        state = ThermostatState(np.zeros(2), np.array([t0, t0]))
        u, _ = thermostat_control(np.array([67.0, 67.0]), t0 + 5.0, state, cfg)
        np.testing.assert_array_equal(u, [0.0, 0.0])
        u, _ = thermostat_control(np.array([67.0, 67.0]), t0 + 15.0, state, cfg)
        np.testing.assert_array_equal(u, [1.0, 1.0])

    def test_deadband_keeps_heating_until_cleared(self):
        cfg = make_cfg()
        t = 10 * 60.0
        state = ThermostatState(np.ones(2), np.full(2, t - 30.0))
        u, _ = thermostat_control(np.array([68.5, 68.5]), t, state, cfg)
        np.testing.assert_array_equal(u, [1.0, 1.0])  # inside deadband, stays on
        u, _ = thermostat_control(np.array([69.5, 69.5]), t, state, cfg)
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_override_bound_drives_heating(self):
        cfg = make_cfg()
        state = ThermostatState.initial(2)
        u, _ = thermostat_control(
            np.array([69.0, 69.0]), 10 * 60.0, state, cfg,
            override_r_min=np.array([70.0, np.nan]),
        )
        assert u[0] == 1.0 and u[1] == 0.0

    def test_preheat_shifts_occupied_bound(self):
        cfg = make_cfg()
        # 07:15, zone 1 preheat lead of 60 min already raises its lower bound
        bounds = active_lower_bounds(cfg, 7 * 60.0 + 15.0, 2)
        assert bounds[0] == 68.0
        assert bounds[1] == 68.0
        bounds = active_lower_bounds(cfg, 6 * 60.0 + 30.0, 2)
        np.testing.assert_array_equal(bounds, [60.0, 60.0])
