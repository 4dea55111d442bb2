import numpy as np
import pytest

from thermobench.errors import ValidationError
from thermobench.network import two_zone_example
from thermobench.presets import comparison_weather
from thermobench.simulator import (
    OccupancySchedule,
    PlantModel,
    WeatherModel,
    comfort_bounds,
    external_temperature,
    measure,
    weather_forecast,
)


def acquisition_weather(noise_std=0.0, seed=0):
    # Ambient starts at 20 at t=0 (phases put both sinusoids at zero there).
    return WeatherModel(mean_temp=20.0, daily_amp=20.0, fast_amp=5.0,
                        noise_std=noise_std, seed=seed)


class TestWeather:
    def test_degenerate_weather_constant(self):
        w = WeatherModel(mean_temp=42.0, daily_amp=0.0, fast_amp=0.0)
        for t in [0.0, 123.0, 5000.5]:
            assert external_temperature(w, t) == pytest.approx(42.0)

    def test_daily_range(self):
        w = acquisition_weather()
        t = np.arange(0, 1440)
        vals = np.array([external_temperature(w, float(tt)) for tt in t])
        spread = vals.max() - vals.min()
        assert 15.0 <= spread <= 25.0

    def test_initial_value_is_twenty(self):
        assert external_temperature(acquisition_weather(), 0.0) == pytest.approx(20.0)

    def test_daily_minimum_at_six(self):
        w = WeatherModel(mean_temp=20.0, daily_amp=20.0, fast_amp=0.0)
        t = np.arange(0, 1440)
        vals = w.deterministic(t)
        assert t[np.argmin(vals)] == 6 * 60

    def test_noise_reproducible(self):
        w1 = acquisition_weather(noise_std=0.5, seed=9)
        w2 = acquisition_weather(noise_std=0.5, seed=9)
        for t in [0.0, 77.0, 1439.0]:
            assert external_temperature(w1, t) == external_temperature(w2, t)
        w3 = acquisition_weather(noise_std=0.5, seed=10)
        assert external_temperature(w1, 77.0) != external_temperature(w3, 77.0)

    def test_noise_is_pure_function_of_seed_and_minute(self):
        minutes = np.array([0, 1, 777, 1438, 1439, 1440, 1441, 2000, 2878, 2879,
                            2880, 2881, 4319, 4320, 10079], dtype=float)
        first, other = (acquisition_weather(noise_std=0.5, seed=9) for _ in range(2))
        forward = [first.noise(t) for t in minutes]
        shuffled = np.empty(len(minutes))
        for i in np.random.default_rng(0).permutation(len(minutes)):
            shuffled[i] = other.noise(minutes[i])
        assert np.array_equal(shuffled, forward)
        # constant over each whole minute
        assert [other.noise(t + 0.5) for t in minutes] == forward
        third = [acquisition_weather(noise_std=0.5, seed=10).noise(t) for t in minutes]
        assert np.all(np.array(third) != np.array(forward))

    def test_noise_of_an_array_matches_scalar_lookups(self):
        """An array of times reads the same draws bit for bit as one scalar
        lookup per time, across the day boundaries at minutes 1440 and 2880."""
        w = acquisition_weather(noise_std=0.5, seed=9)
        for start in (1430.0, 2870.25):
            times = start + np.arange(21)
            scalar = [w.noise(t) for t in times.tolist()]
            assert np.array_equal(w.noise(times), scalar)
            assert isinstance(scalar[0], float)
        assert np.array_equal(acquisition_weather().noise(times), np.zeros(21))
        assert acquisition_weather().noise(1439.0) == 0.0

    def test_bias_schedule_applies(self):
        w = WeatherModel(mean_temp=30.0, daily_amp=0.0, fast_amp=0.0,
                         bias_schedule=((0.0, 5.0), (100.0, -5.0)))
        assert external_temperature(w, 50.0) == pytest.approx(35.0)
        assert external_temperature(w, 100.0) == pytest.approx(25.0)
        assert external_temperature(w, 500.0) == pytest.approx(25.0)


def reference_bias(w, t):
    """The scalar breakpoint walk: the offset of the last start at or before t."""
    value = w.bias_schedule[0][1]
    for start, offset in w.bias_schedule:
        if t >= start:
            value = offset
        else:
            break
    return value


def test_deterministic_array_matches_scalar_bitwise():
    w = comparison_weather()
    starts = np.array([s for s, _ in w.bias_schedule])
    week = np.arange(0.0, 7 * 1440.0, 0.5)
    times = np.sort(np.concatenate([week, starts, np.nextafter(starts, -np.inf)]))
    assert np.array_equal(w.bias(times), [reference_bias(w, t) for t in times])
    scalar = np.array([float(w.deterministic(t)) for t in times])
    assert np.array_equal(w.deterministic(times), scalar)
    f = weather_forecast(w, 0.0, 7 * 96, 15.0)
    assert np.array_equal(f, [w.mean_temp + 0.5 * w.daily_amp * np.sin(
        2.0 * np.pi * t / w.daily_period + w.daily_phase) + reference_bias(w, t)
        for t in 15.0 * np.arange(7 * 96)])


class TestForecast:
    def test_perfect_when_no_fast_and_no_noise(self):
        w = WeatherModel(mean_temp=25.0, daily_amp=20.0, fast_amp=0.0)
        f = weather_forecast(w, t0=300.0, horizon=8, dt=15.0)
        realized = [external_temperature(w, 300.0 + 15.0 * k) for k in range(8)]
        np.testing.assert_allclose(f, realized, atol=1e-12)

    def test_error_bounded_by_fast_amplitude(self):
        w = acquisition_weather()
        f = weather_forecast(w, t0=0.0, horizon=96, dt=15.0)
        realized = np.array(
            [external_temperature(w, 15.0 * k) for k in range(96)]
        )
        assert np.max(np.abs(f - realized)) <= 2.5 + 1e-12

    def test_single_step_shape(self):
        f = weather_forecast(acquisition_weather(), 0.0, 1, 15.0)
        assert f.shape == (1,)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError):
            weather_forecast(acquisition_weather(), 0.0, 0, 15.0)


def reference_step(plant, state, u, weather, dt):
    """The plant integration drawing the ambient value twice per sub-step."""
    d, net = plant.discrete, plant.net
    int_pos = [net.index_of(i) for i in d.internal_ids]
    ext_pos = [net.index_of(i) for i in d.external_ids]
    temps, t = state.true_temps.copy(), state.clock
    for _ in range(int(round(dt / plant.substep))):
        t_ext = np.array([external_temperature(weather, t)] * len(ext_pos))
        temps[int_pos] = d.Phi @ temps[int_pos] + d.Gamma_ext @ t_ext + d.Gamma_ctrl @ u
        t += plant.substep
        temps[ext_pos] = external_temperature(weather, t)
    return temps, t


class TestPlant:
    def test_step_matches_two_draw_reference_with_one_draw_per_minute(self, monkeypatch):
        plant = PlantModel(two_zone_example())
        w = acquisition_weather(noise_std=0.25, seed=3)
        state = plant.initial_state({1: 70.0, 2: 66.0}, w)
        draws = []
        noise = WeatherModel.noise
        for k in range(12):
            u = np.array([0.1 * (k % 4), 1.0 - 0.07 * k])
            temps, clock = reference_step(plant, state, u, w, 15.0)
            monkeypatch.setattr(WeatherModel, "noise",
                                lambda self, t: draws.append(t) or noise(self, t))
            start = state.clock
            state = plant.step(state, u, w, 15.0)
            monkeypatch.setattr(WeatherModel, "noise", noise)
            assert np.array_equal(state.true_temps, temps)
            assert state.clock == clock
            # one lookup covers the step's 15 + 1 minutes
            assert len(draws) == 1
            np.testing.assert_array_equal(draws[0], start + np.arange(15 + 1))
            draws.clear()

    def test_equilibrium(self):
        net = two_zone_example()
        plant = PlantModel(net)
        w = WeatherModel(mean_temp=70.0, daily_amp=0.0, fast_amp=0.0)
        state = plant.initial_state({1: 70.0, 2: 70.0}, w)
        nxt = plant.step(state, np.zeros(2), w, 15.0)
        np.testing.assert_allclose(nxt.true_temps, state.true_temps, atol=1e-12)

    def test_free_cooling_monotone(self):
        net = two_zone_example()
        plant = PlantModel(net)
        w = WeatherModel(mean_temp=20.0, daily_amp=0.0, fast_amp=0.0)
        state = plant.initial_state({1: 70.0, 2: 70.0}, w)
        for _ in range(24):
            nxt = plant.step(state, np.zeros(2), w, 15.0)
            assert np.all(nxt.true_temps[:2] < state.true_temps[:2])
            state = nxt

    def test_full_heat_raises_temps_first_hour(self):
        net = two_zone_example()
        plant = PlantModel(net)
        w = WeatherModel(mean_temp=20.0, daily_amp=0.0, fast_amp=0.0)
        state = plant.initial_state({1: 70.0, 2: 70.0}, w)
        for _ in range(4):
            nxt = plant.step(state, np.ones(2), w, 15.0)
            assert np.all(nxt.true_temps[:2] > state.true_temps[:2])
            state = nxt

    def test_rejects_out_of_range_control(self):
        plant = PlantModel(two_zone_example())
        w = WeatherModel(mean_temp=20.0)
        state = plant.initial_state({1: 70.0, 2: 70.0}, w)
        with pytest.raises(ValidationError):
            plant.step(state, np.array([1.2, 0.0]), w, 15.0)

    def test_free_response_stays_within_ambient_envelope(self):
        plant = PlantModel(two_zone_example())
        w = acquisition_weather(noise_std=0.0)
        state = plant.initial_state({1: 70.0, 2: 70.0}, w)
        lo, hi = 10.0, 30.0  # ambient range for this weather model
        for k in range(5 * 96):
            state = plant.step(state, np.zeros(2), w, 15.0)
        # after a multi-day transient the zones live inside the ambient envelope
        for _ in range(96):
            state = plant.step(state, np.zeros(2), w, 15.0)
            assert lo - 1e-6 <= state.true_temps[0] <= hi + 1e-6
            assert lo - 1e-6 <= state.true_temps[1] <= hi + 1e-6

    def test_substep_refinement_converged(self):
        net = two_zone_example()
        w = acquisition_weather()
        coarse = PlantModel(net, substep=1.0)
        fine = PlantModel(net, substep=0.5)
        sc = coarse.initial_state({1: 70.0, 2: 70.0}, w)
        sf = fine.initial_state({1: 70.0, 2: 70.0}, w)
        u = np.array([0.3, 0.6])
        worst = 0.0
        for k in range(7 * 96):
            sc = coarse.step(sc, u, w, 15.0)
            sf = fine.step(sf, u, w, 15.0)
            worst = max(worst, np.max(np.abs(sc.true_temps - sf.true_temps)))
        assert worst < 0.01


class TestMeasure:
    def test_zero_noise_exact(self):
        plant = PlantModel(two_zone_example())
        w = WeatherModel(mean_temp=20.0)
        state = plant.initial_state({1: 70.0, 2: 68.0}, w)
        np.testing.assert_array_equal(measure(state, 0.0, 1), state.true_temps)

    def test_sample_std(self):
        plant = PlantModel(two_zone_example())
        w = WeatherModel(mean_temp=20.0)
        state = plant.initial_state({1: 70.0, 2: 68.0}, w)
        draws = np.array([measure(state, 0.1, (42, k))[0] for k in range(10_000)])
        assert 0.095 <= draws.std(ddof=1) <= 0.105

    def test_same_seed_identical(self):
        plant = PlantModel(two_zone_example())
        w = WeatherModel(mean_temp=20.0)
        state = plant.initial_state({1: 70.0, 2: 68.0}, w)
        np.testing.assert_array_equal(measure(state, 0.1, 7), measure(state, 0.1, 7))


class TestSchedule:
    def test_weekday_daytime_occupied(self):
        sched = OccupancySchedule()
        lo, hi = comfort_bounds(sched, 10 * 60.0, 2)  # Monday 10:00
        np.testing.assert_allclose(lo, 68.0)
        np.testing.assert_allclose(hi, 72.0)

    def test_weekday_night_unoccupied(self):
        sched = OccupancySchedule()
        lo, hi = comfort_bounds(sched, 3 * 60.0, 2)
        np.testing.assert_allclose(lo, 60.0)
        np.testing.assert_allclose(hi, 80.0)

    def test_boundary_instant_is_occupied(self):
        sched = OccupancySchedule()
        lo, _ = comfort_bounds(sched, 8 * 60.0, 1)
        assert lo[0] == 68.0
        # ... and the end instant is already unoccupied (closed-left)
        lo, _ = comfort_bounds(sched, 18 * 60.0, 1)
        assert lo[0] == 60.0

    def test_weekend_unoccupied(self):
        sched = OccupancySchedule()
        saturday_noon = 5 * 1440.0 + 12 * 60.0
        lo, _ = comfort_bounds(sched, saturday_noon, 1)
        assert lo[0] == 60.0

    def test_bounds_nesting_enforced(self):
        with pytest.raises(ValidationError):
            OccupancySchedule(r_min_occ=55.0)

    def test_array_time_matches_scalar_rule(self):
        sched = OccupancySchedule(occupied_days=(0, 2, 6), occupied_start=7 * 60.0)

        def rule(t):
            day, clock = int(t // 1440.0) % 7, t % 1440.0
            return day in sched.occupied_days and sched.occupied_start <= clock < sched.occupied_end

        edges = [d * 1440.0 + c for d in range(8) for c in (0.0, 7 * 60.0, 18 * 60.0)]
        times = np.concatenate([np.arange(-1440.0, 9 * 1440.0, 7.5), edges,
                                np.nextafter(edges, -np.inf)])
        got = sched.is_occupied(times)
        assert got.shape == times.shape
        assert got.tolist() == [rule(t) for t in times]
        assert all(bool(sched.is_occupied(t)) == rule(t) for t in times[::37])
