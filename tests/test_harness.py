import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermobench import mpc
from thermobench.errors import NumericalDegeneracyError, ValidationError
from thermobench.excitation import SelectorState
from thermobench.harness import (
    ConvergenceConfig,
    EstimateRecord,
    ScenarioConfig,
    compare_runs,
    convergence_criterion,
    run_scenario,
    step_policy,
)
from thermobench.cli import load_scenario, main
from thermobench.network import Edge, Node, ThermalNetwork, minimal_parameterization, two_zone_example
from thermobench.presets import (
    acquisition_config,
    acquisition_weather,
    comparison_weather,
    corrupted_params,
)
from thermobench.simulator import WeatherModel


def tiny_config(**kw):
    base = ScenarioConfig(
        name="tiny",
        network=two_zone_example(),
        weather=WeatherModel(mean_temp=25.0, daily_amp=10.0, fast_amp=2.0, noise_std=0.1),
        duration_steps=kw.pop("duration_steps", 8),
        seed=kw.pop("seed", 3),
    )
    return replace(base, **kw)


class TestConvergenceCriterion:
    def record(self, t, means, cov_frac):
        means = np.asarray(means, dtype=float)
        return EstimateRecord(t, means, (cov_frac * means) ** 2, 0.0, False)

    def test_fresh_filter_not_converged(self):
        history = [self.record(0.0, [2550.0, 1020.0], 0.4)]
        assert not convergence_criterion(history)

    def test_converged_history(self):
        history = [self.record(15.0 * k, [2550.0, 1020.0], 0.01) for k in range(200)]
        assert convergence_criterion(history)

    def test_shrunk_but_drifting_not_converged(self):
        history = [
            self.record(15.0 * k, [2550.0 * (1 + 0.002 * k), 1020.0], 0.01)
            for k in range(200)
        ]
        assert not convergence_criterion(history)

    def test_needs_a_day_of_history(self):
        history = [self.record(15.0 * k, [2550.0], 0.01) for k in range(20)]
        assert not convergence_criterion(history)


class TestRunScenario:
    def test_zero_duration(self):
        report = run_scenario(tiny_config(duration_steps=0))
        assert len(report.trace) == 0
        assert report.metrics.energy == 0.0
        assert report.metrics.discomfort == 0.0

    def test_mode_safety_no_mpc_before_convergence(self):
        config = tiny_config(controller="mpc", duration_steps=24)
        report = run_scenario(config)
        modes = {row.mode for row in report.trace.rows}
        assert "mpc" not in modes

    def test_forced_mpc_runs_immediately(self):
        config = tiny_config(
            controller="mpc", force_mpc=True, estimator=False,
            frozen_params=None, duration_steps=4,
        )
        report = run_scenario(config)
        assert {row.mode for row in report.trace.rows} == {"mpc"}

    def test_acquisition_protocol_modes(self):
        config = acquisition_config(seed=1, days=3)
        report = run_scenario(config)
        by_day = {}
        for row in report.trace.rows:
            by_day.setdefault(int(row.time // 1440), set()).add(row.mode)
        assert by_day[0] == {"protocol-passive"}
        assert by_day[1] == {"protocol-uniform"}
        assert by_day[2] <= {"excitation", "thermostat", "thermostat-fallback"}
        assert "excitation" in by_day[2]

    def test_trace_written_deterministically(self, tmp_path):
        config = tiny_config(duration_steps=12)
        run_scenario(config, tmp_path / "a")
        run_scenario(config, tmp_path / "b")
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()
        header = a.decode().splitlines()[0]
        assert header.startswith("step,time,T1_true,T2_true,T3_true,T1_meas")
        assert header.endswith("mode")

    def test_different_seed_changes_trace(self, tmp_path):
        run_scenario(tiny_config(seed=3), tmp_path / "a")
        run_scenario(tiny_config(seed=4), tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()

    def test_report_files_and_manifest(self, tmp_path):
        # estimator, selector events and observability: every output is written
        config = tiny_config(
            controller="mpc-with-excitation", force_mpc=True, start_at_truth=True,
            track_observability=True, duration_steps=4,
        )
        report = run_scenario(config, tmp_path)
        report_lines = (tmp_path / "report.csv").read_text().splitlines()
        keys = {line.split(",")[0] for line in report_lines}
        assert {"name", "seed", "discomfort", "energy", "sha256_trace.csv"} <= keys
        digests = {
            line.split(",")[0].removeprefix("sha256_"): line.split(",")[1]
            for line in report_lines if line.startswith("sha256_")
        }
        written = {path.name for path in tmp_path.iterdir()} - {"report.csv"}
        assert written == set(digests) == {
            "trace.csv", "estimates.csv", "observability.csv", "events.log"
        }
        assert (tmp_path / "events.log").read_text()
        for name, digest in digests.items():
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(), name
        assert report.manifest == digests

    def test_only_numerical_degeneracy_ends_the_run(self, monkeypatch):
        from thermobench import harness

        def raising(exc):
            def predict(*args, **kwargs):
                raise exc
            return predict

        monkeypatch.setattr(harness, "predict", raising(TypeError("a real bug")))
        with pytest.raises(TypeError, match="a real bug"):
            run_scenario(tiny_config(duration_steps=4))
        monkeypatch.setattr(harness, "predict",
                            raising(NumericalDegeneracyError("covariance lost PSD")))
        report = run_scenario(tiny_config(duration_steps=4))
        assert report.status.startswith("degenerate:")
        assert len(report.trace) == 1


def three_zone_two_heaters():
    """Zones 1-3 in a row under one ambient node 4; zone 3 has no heater."""
    return ThermalNetwork(
        nodes=(Node(1, capacitance=17.0), Node(2, capacitance=10.0),
               Node(3, capacitance=12.0), Node(4, is_external=True)),
        edges=(Edge(1, 2, 150.0), Edge(2, 3, 40.0), Edge(1, 4, 60.0),
               Edge(2, 4, 100.0), Edge(3, 4, 300.0)),
        heat_rates={1: 0.18, 2: 0.22},
    )


@pytest.mark.parametrize("overrides", [
    {"controller": "thermostat", "protocol": "acquisition", "duration_steps": 100},
    {"controller": "mpc", "estimator": False, "force_mpc": True, "duration_steps": 6},
])
def test_unheated_zone_runs_under_both_controllers(tmp_path, overrides):
    # the thermostat, its preheat and overrides, the energy metric and the
    # u columns of trace.csv count heaters; temperatures and bounds count zones
    config = tiny_config(network=three_zone_two_heaters(),
                         initial_temps={1: 66.0, 2: 66.0, 3: 66.0}, **overrides)
    report = run_scenario(config, tmp_path)
    assert report.status == "ok" and len(report.trace) == config.duration_steps
    assert report.metrics.energy_per_zone.shape == (2,)
    assert report.metrics.discomfort_per_zone.shape == (3,)
    assert report.metrics.energy == pytest.approx(sum(float(np.sum(r.u)) for r in report.trace.rows))
    header = (tmp_path / "trace.csv").read_text().splitlines()[0].split(",")
    assert [c for c in header if c.startswith("u_")] == ["u_zone1", "u_zone2"]
    assert [c for c in header if c.startswith("r_min_")] == [f"r_min_zone{z}" for z in (1, 2, 3)]
    modes = {r.mode for r in report.trace.rows}
    assert ("mpc" in modes) == (overrides["controller"] == "mpc")


class TestStepPolicy:
    DAY = 1440.0

    @pytest.mark.parametrize("overrides, t, converged, expected", [
        ({}, 0.0, True, ("thermostat", None)),
        ({"controller": "mpc"}, 0.0, False, ("thermostat", None)),
        ({"controller": "mpc"}, 0.0, True, ("mpc", None)),
        ({"force_mpc": True}, 0.0, False, ("mpc", None)),
        ({"controller": "mpc", "estimator": False}, 0.0, False, ("mpc", None)),
        ({"controller": "mpc-with-excitation", "estimator": False}, 0.0, False, ("mpc", None)),
        ({"controller": "mpc-with-excitation"}, 0.0, False, ("thermostat", "heuristic")),
        ({"controller": "mpc-with-excitation"}, 0.0, True, ("mpc", "optimal")),
        ({"controller": "mpc-with-excitation", "excitation_method": "heuristic-selector"},
         0.0, True, ("mpc", "heuristic")),
        ({"controller": "mpc-with-excitation", "excitation_method": "heuristic-selector"},
         0.0, False, ("thermostat", "heuristic")),
        ({"protocol": "acquisition"}, 0.0, False, ("protocol-passive", None)),
        ({"protocol": "acquisition"}, DAY, False, ("protocol-uniform", None)),
        ({"protocol": "acquisition"}, 2 * DAY, False, ("thermostat", "heuristic")),
        ({"protocol": "acquisition", "force_mpc": True}, 2 * DAY, False, ("mpc", "optimal")),
        ({"protocol": "acquisition-no-excitation"}, 2 * DAY, False, ("thermostat", None)),
    ])
    def test_mode_and_selector(self, overrides, t, converged, expected):
        assert step_policy(tiny_config(**overrides), t, converged) == expected

    @pytest.mark.parametrize("method", ["optimal-selector", "variational", "montecarlo"])
    def test_removed_excitation_methods_are_rejected(self, method):
        # "optimal-selector" behaved exactly as "eigen"; the variational and
        # Monte Carlo generators never beat it; the names are now rejected
        with pytest.raises(ValidationError, match="unknown excitation method"):
            tiny_config(controller="mpc-with-excitation", excitation_method=method)


def test_selector_step_solves_its_mpc_problem_once(monkeypatch):
    """A step whose selector starts no experiment controls with the
    selector's baseline solution instead of solving the same problem again."""
    config = ScenarioConfig(
        name="online", network=two_zone_example(), weather=acquisition_weather(),
        controller="mpc-with-excitation", estimator=True, duration_steps=3,
        start_at_truth=True, force_mpc=True,
        selector=SelectorState(threshold=1e9, initial=1e9),
    )
    calls = []
    solve = mpc.solve_mpc

    def counting(problem, previous=None):
        calls.append(problem)
        return solve(problem, previous)

    monkeypatch.setattr(mpc, "solve_mpc", counting)
    report = run_scenario(config)
    assert [row.mode for row in report.trace.rows] == ["mpc"] * 3
    assert sum(e.kind == "selector" for e in report.events) == 3
    assert not any(e.kind == "experiment" for e in report.events)
    assert len(calls) == 3


class TestCompareRuns:
    def test_identical_runs_unity_ratios(self):
        a = run_scenario(tiny_config())
        b = run_scenario(tiny_config())
        comp = compare_runs(a, b)
        for name, va, vb, ratio in comp.rows:
            assert ratio == pytest.approx(1.0)

    def test_mismatched_duration_rejected(self):
        a = run_scenario(tiny_config(duration_steps=4))
        b = run_scenario(tiny_config(duration_steps=8))
        with pytest.raises(ValidationError):
            compare_runs(a, b)

    def test_mismatched_weather_seed_rejected(self):
        a = run_scenario(tiny_config(seed=1))
        b = run_scenario(tiny_config(seed=2))
        with pytest.raises(ValidationError):
            compare_runs(a, b)


class TestBadModelPreset:
    def test_corrupted_params_scale_one_interzone_edge(self):
        pv = corrupted_params(0.2)
        names = pv.param_names()
        assert pv.p[names.index("R12C1")] == pytest.approx(0.2 * 2550.0)
        assert pv.p[names.index("R12C2")] == pytest.approx(1500.0)
        assert pv.p[names.index("R13C1")] == pytest.approx(1020.0)
        assert pv.p[names.index("R23C2")] == pytest.approx(1000.0)


class TestCli:
    def scenario_doc(self):
        return {
            "name": "cli-test",
            "network": {
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
            },
            "weather": {"mean_temp": 25.0, "daily_amp": 10.0, "noise_std": 0.1},
            "controller": "thermostat",
            "duration_steps": 6,
            "seed": 5,
        }

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_doc()))
        config = load_scenario(path)
        assert config.name == "cli-test"
        assert config.duration_steps == 6
        assert config.network == two_zone_example()

    def test_run_and_compare_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_doc()))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", str(path), "--out-dir", str(tmp_path / "b")]) == 0
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "discomfort" in out

    def test_compare_zero_over_zero_is_unity(self, tmp_path):
        # the CLI reads 0/0 as compare_runs does: no change, not inf
        for label, discomfort in (("a", 2.0), ("b", 3.0)):
            (tmp_path / label).mkdir()
            (tmp_path / label / "report.csv").write_text(
                "key,value\nname,x\nseed,0\nduration_steps,4\nstatus,ok\n"
                f"discomfort,{discomfort}\nenergy,0\n"
            )
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in out.read_text().splitlines()[1:]}
        assert float(rows["energy"][2]) == 1.0
        assert float(rows["discomfort"][2]) == 1.5

    def test_compare_agrees_with_compare_runs(self, tmp_path, capsys):
        """The CLI compares the rows compare_runs compares, estimates and
        variances included, and both reject the same mismatches."""
        reports = {
            label: run_scenario(config, tmp_path / label) for label, config in (
                ("a", tiny_config()), ("b", tiny_config(start_at_truth=True)),
                ("seed", tiny_config(seed=4)), ("duration", tiny_config(duration_steps=6)),
            )
        }
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--out", str(out)]) == 0
        cli_rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        rows = compare_runs(reports["a"], reports["b"]).rows
        assert [r[0] for r in cli_rows] == [r[0] for r in rows]
        names = [r[0] for r in rows]
        assert any(n.startswith("estimate_") for n in names)
        assert any(n.startswith("variance_") for n in names)
        for (_, *cli_values), (_, *values) in zip(cli_rows, rows):
            assert float(cli_values[2]) == pytest.approx(values[2], rel=1e-8)
        for label, why in (("seed", "different weather seeds"), ("duration", "different durations")):
            capsys.readouterr()
            assert main(["compare", str(tmp_path / "a"), str(tmp_path / label)]) == 2
            assert why in capsys.readouterr().err
            with pytest.raises(ValidationError, match=why):
                compare_runs(reports["a"], reports[label])

    def test_compare_missing_report_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path / "nope"), str(tmp_path / "nope2")])

    def test_initial_temps_must_name_every_zone(self, tmp_path):
        # without initial_temps the two-zone default leaves zone 4 unnamed;
        # it must be rejected, not started from an uninitialised buffer
        doc = self.scenario_doc()
        doc["network"]["nodes"].append({"id": 4, "capacitance": 12.0})
        doc["network"]["edges"] += [{"i": 2, "j": 4, "resistance": 120.0},
                                    {"i": 4, "j": 3, "resistance": 80.0}]
        doc["network"]["heaters"].append({"node": 4, "rate": 0.2})
        path = tmp_path / "three_zone.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="initial temperatures"):
            run_scenario(load_scenario(path))
        doc["initial_temps"] = {"1": 70.0, "2": 70.0, "4": 65.0}
        path.write_text(json.dumps(doc))
        report = run_scenario(load_scenario(path))
        assert report.status == "ok"
        z0 = report.trace.rows[0].measured_temps
        assert z0[report.trace.node_ids.index(4)] == pytest.approx(65.0, abs=1.0)

    def test_malformed_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": {"nodes": []}}))
        with pytest.raises(ValidationError):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["consensus_bank", "contoller"])
    def test_unknown_scenario_key_rejected(self, tmp_path, key):
        # an unknown or misspelt key must not run silently with the default
        doc = self.scenario_doc()
        doc[key] = 2
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=key):
            load_scenario(path)


def test_mpc_runs_do_not_share_warm_starts(tmp_path):
    """Each run starts its MPC cold and warms only from its own solves: an
    MPC run, a different one, then the first again in one process write the
    same manifest the first time and the third."""
    net = two_zone_example()
    week = ScenarioConfig(
        name="mpc-week", network=net, weather=comparison_weather(), controller="mpc",
        estimator=False, duration_steps=6, seed=1, force_mpc=True,
        frozen_params=minimal_parameterization(net),
    )
    # one step: its last solve starts where the first run's first one does
    online = ScenarioConfig(
        name="online", network=net, weather=acquisition_weather(),
        controller="mpc-with-excitation", estimator=True, duration_steps=1,
        start_at_truth=True, force_mpc=True,
    )
    for name, config in (("a", week), ("b", online), ("c", week)):
        run_scenario(config, tmp_path / name)
    first, third = ((tmp_path / name / "report.csv").read_text() for name in ("a", "c"))
    assert first == third
    assert sum(line.startswith("sha256_") for line in first.splitlines()) >= 2


def test_mpc_runs_do_not_share_horizons(monkeypatch):
    """Each run builds its own horizon structure: within a run every solve
    of the frozen model shares one, and two runs of one config in one
    process share none."""
    config = ScenarioConfig(
        name="mpc-week", network=two_zone_example(), weather=comparison_weather(),
        controller="mpc", estimator=False, duration_steps=4, seed=1, force_mpc=True,
        frozen_params=minimal_parameterization(two_zone_example()),
    )
    horizons = []
    solve_mpc = mpc.solve_mpc

    def recording(problem, previous=None):
        sol = solve_mpc(problem, previous)
        horizons[-1].append(sol.horizon)
        return sol

    monkeypatch.setattr(mpc, "solve_mpc", recording)
    for _ in range(2):
        horizons.append([])
        run_scenario(config)
    first, second = ({id(h) for h in run} for run in horizons)
    assert len(horizons[0]) == 4 and len(first) == len(second) == 1
    assert not first & second
