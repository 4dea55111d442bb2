"""Command-line entry points: run a scenario file, run a preset, compare runs.

Scenario files are JSON::

    {
      "name": "my-run",
      "network": {"nodes": [...], "edges": [...], "heaters": [...]},
      "weather": {"mean_temp": 20.0, "daily_amp": 20.0, "fast_amp": 5.0,
                  "noise_std": 0.25, "bias_schedule": [[0, 0.0]]},
      "schedule": {"r_min_occ": 68, "r_max_occ": 72,
                   "r_min_unocc": 60, "r_max_unocc": 80},
      "controller": "thermostat" | "mpc" | "mpc-with-excitation",
      "estimator": true,
      "excitation_method": "eigen" | "heuristic-selector",
      "duration_days": 3,            (or "duration_steps": 288)
      "protocol": null | "acquisition" | "acquisition-no-excitation",
      "initial_temps": {"1": 70.0, "2": 70.0},
      "seed": 0
    }

The network may also be a path to a separate network JSON file.
``initial_temps`` must name every internal node; absent, ``ScenarioConfig``'s default applies.
Any other top-level key is an error.
"""

from __future__ import annotations

import os

# the dense solvers here run small matrices where BLAS thread fan-out costs
# more than it saves; must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SCENARIO_KEYS = frozenset({
    "name", "network", "weather", "schedule", "controller", "estimator", "excitation_method",
    "duration_steps", "duration_days", "protocol", "initial_temps", "seed",
})


def load_scenario(path):
    from .errors import ValidationError
    from .harness import ScenarioConfig
    from .network import load_network
    from .simulator import OccupancySchedule, WeatherModel

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        unknown = sorted(set(doc) - SCENARIO_KEYS)
        if unknown:
            raise ValidationError(f"unknown scenario keys: {', '.join(unknown)}")
        net_spec = doc["network"]
        network = load_network(
            net_spec if isinstance(net_spec, dict)
            else Path(path).parent / net_spec
        )
        weather_doc = dict(doc.get("weather", {"mean_temp": 20.0}))
        if "bias_schedule" in weather_doc:
            weather_doc["bias_schedule"] = tuple(
                (float(a), float(b)) for a, b in weather_doc["bias_schedule"]
            )
        weather = WeatherModel(**weather_doc)
        schedule = OccupancySchedule(**doc.get("schedule", {}))
        duration = doc.get("duration_steps")
        if duration is None:
            duration = int(doc.get("duration_days", 1) * 96)
        extra = {}
        if "initial_temps" in doc:
            extra["initial_temps"] = {int(k): float(v) for k, v in doc["initial_temps"].items()}
        return ScenarioConfig(
            name=doc.get("name", Path(path).stem),
            network=network,
            weather=weather,
            schedule=schedule,
            controller=doc.get("controller", "thermostat"),
            estimator=bool(doc.get("estimator", True)),
            excitation_method=doc.get("excitation_method", "eigen"),
            duration_steps=int(duration),
            seed=int(doc.get("seed", 0)),
            protocol=doc.get("protocol"),
            **extra,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario file: {exc}") from exc


def _cmd_run(args) -> int:
    from .harness import run_scenario

    config = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    report = run_scenario(config, Path(args.out_dir))
    print(f"{config.name}: status={report.status} steps={report.duration_steps}")
    for key, value in report.metrics.as_dict().items():
        print(f"  {key} = {value:.6g}")
    return 0 if report.status == "ok" else 1


def _run_one_preset(name, seed, out_dir):
    from .presets import run_preset

    results = run_preset(name, seed=seed, out_dir=Path(out_dir) / name)
    lines = [f"{name}:"]
    for label, item in results.items():
        if hasattr(item, "metrics"):
            m = item.metrics
            lines.append(
                f"  {label}: discomfort={m.discomfort:.4g} energy={m.energy:.4g}"
            )
        elif hasattr(item, "table"):
            lines.append("  comparison:")
            lines.extend("    " + row for row in item.table().splitlines())
    return "\n".join(lines)


def _cmd_preset(args) -> int:
    from .presets import PRESET_NAMES

    names = list(PRESET_NAMES) if args.name == "all" else [args.name]
    if args.jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_run_one_preset, n, args.seed, args.out_dir)
                for n in names
            ]
            for fut in futures:
                print(fut.result())
    else:
        for n in names:
            print(_run_one_preset(n, args.seed, args.out_dir))
    return 0


def _cmd_compare(args) -> int:
    from .harness import Comparison

    a = _load_report_csv(args.report_a)
    b = _load_report_csv(args.report_b)
    if a["duration_steps"] != b["duration_steps"]:
        print("error: runs have different durations", file=sys.stderr)
        return 2
    if a["seed"] != b["seed"]:
        print("error: runs saw different weather seeds", file=sys.stderr)
        return 2
    pairs = []
    for key in a:
        if key in ("name", "seed", "duration_steps", "status") or key.startswith("sha256"):
            continue
        try:
            pairs.append((key, float(a[key]), float(b[key])))
        except (ValueError, KeyError):
            continue
    comparison = Comparison.of(pairs)
    print(comparison.table())
    if args.out:
        comparison.write_csv(args.out)
    return 0


def _load_report_csv(path):
    p = Path(path)
    if p.is_dir():
        p = p / "report.csv"
    if not p.exists():
        print(f"error: report file {p} not found", file=sys.stderr)
        raise SystemExit(2)
    out = {}
    with p.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            key, _, value = line.rstrip("\n").partition(",")
            out[key] = value
    out["duration_steps"] = int(out.get("duration_steps", 0))
    out["seed"] = int(out.get("seed", 0))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermobench",
        description="Two-zone thermal estimation/control workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a shipped preset (or 'all')")
    p_preset.add_argument("name")
    p_preset.add_argument("--seed", type=int, default=0)
    p_preset.add_argument("--out-dir", default="out")
    p_preset.add_argument("--jobs", type=int, default=1)
    p_preset.set_defaults(func=_cmd_preset)

    p_cmp = sub.add_parser("compare", help="compare two run reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
