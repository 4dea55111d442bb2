"""Fallback and iteration sweep of the closed loop's solver calls.

    python3 scripts/solver_sweep.py --workload online --seeds 0-20,57 --out a.json [--jobs 2]
    python3 scripts/solver_sweep.py --compare a.json b.json

Runs ``run_scenario`` on the configs of a perfbench workload (``online``,
``mpc-week``; 52 steps each) for each seed, and records per seed: the
thermostat fallbacks (``mpc-failure`` events), the status and IPM iterations
of every solver call by kind (``socp``: the MPC programs, ``lp``: the
separation LPs, ``phase1``: their phase-one programs, told apart by the
binding each is called through), ``energy``, the
experiment start times, each experiment's bounds ``e`` as the optimal
selector returned them, and the trace's temperatures and heater commands.
``--out`` writes the records as JSON, which ``--compare`` reads two of: it
prints fallbacks, stalled and non-optimal solves, total, mean and worst
iterations per solve kind on each side with refined Newton solves per solve
where a record carries them (older records do, from the solver's
refinement pass; n/a for a side without them), each seed's
most SOCP iterations in one solve on both sides with the seeds where that
grew, the largest relative ``energy`` difference and the seeds where it
exceeds 1e-6, the seeds whose experiment start times differ, max |de| over
the experiments both sides start at the same time (n/a for records written
before ``e`` was recorded), and max |dT| and |du| over the traces. Solver
changes report these figures; the script is not part of the test suite.
"""

from __future__ import annotations

import os

# single-threaded BLAS, as the CLI and the tests run; must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS, fallbacks  # noqa: E402
from thermobench import excitation, harness, mpc, solver  # noqa: E402

KINDS = {"socp": mpc, "lp": excitation, "phase1": solver}


def parse_seeds(text: str) -> list[int]:
    """'0-20,57' -> [0, 1, ..., 20, 57]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep_one(workload: str, seed: int) -> dict:
    """Run one seed of a workload, recording every solver call by kind."""
    solves = {kind: [] for kind in KINDS}
    bounds = []
    saved = {kind: owner.solve for kind, owner in KINDS.items()}
    select_optimal = harness.select_optimal

    def recording(kind, fn):
        def wrapped(*args, **kwargs):
            sol = fn(*args, **kwargs)
            solves[kind].append((sol.status, sol.iterations))
            return sol
        return wrapped

    def selecting(*args, **kwargs):
        result = select_optimal(*args, **kwargs)
        if result[0] is not None:
            bounds.append([result[0].start_time, result[0].e.tolist()])
        return result

    for kind, owner in KINDS.items():
        owner.solve = recording(kind, saved[kind])
    harness.select_optimal = selecting
    try:
        reports = [harness.run_scenario(cfg) for cfg in WORKLOADS[workload].build(seed, None)]
    finally:
        for kind, owner in KINDS.items():
            owner.solve = saved[kind]
        harness.select_optimal = select_optimal
    return {
        "fallbacks": sum(fallbacks(r) for r in reports),
        "solves": solves,
        "energy": [r.metrics.energy for r in reports],
        "experiments": [e.time for r in reports for e in r.events if e.kind == "experiment"],
        "e": bounds,
        "T": [[list(row.true_temps) for row in r.trace.rows] for r in reports],
        "u": [[list(row.u) for row in r.trace.rows] for r in reports],
    }


def sweep(workload: str, seeds: list[int], jobs: int) -> dict:
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {seed: pool.submit(sweep_one, workload, seed) for seed in seeds}
        return {"workload": workload,
                "seeds": {str(seed): f.result() for seed, f in futures.items()}}


def totals(record: dict) -> dict:
    """Counts over the seeds of one record."""
    out = {"fallbacks": 0, "stalled": 0, "not_optimal": 0}
    for kind in KINDS:
        out[kind] = {"solves": 0, "iterations": 0, "worst": 0, "refinements": 0}
    for run in record["seeds"].values():
        out["fallbacks"] += run["fallbacks"]
        for kind, calls in run["solves"].items():
            for status, iterations, *refinements in calls:
                out["stalled"] += status == "stalled"
                out["not_optimal"] += status != "optimal"
                out[kind]["solves"] += 1
                out[kind]["iterations"] += iterations
                out[kind]["worst"] = max(out[kind]["worst"], iterations)
                out[kind]["refinements"] += refinements[0] if refinements else np.nan
    return out


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def compare(path_a: Path, path_b: Path) -> None:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    if a["workload"] != b["workload"] or set(a["seeds"]) != set(b["seeds"]):
        raise SystemExit("the two records cover different workloads or seeds")
    ta, tb = totals(a), totals(b)
    print(f"workload {a['workload']}, {len(a['seeds'])} seeds")
    for key in ("fallbacks", "stalled", "not_optimal"):
        print(f"  {key:<12} {ta[key]:>7} -> {tb[key]}")
    for kind in KINDS:
        x, y = ta[kind], tb[kind]
        mean_x, mean_y = (t["iterations"] / max(t["solves"], 1) for t in (x, y))
        ref_x, ref_y = ("n/a" if np.isnan(t["refinements"]) or not t["solves"]
                        else f"{t['refinements'] / t['solves']:.2f}" for t in (x, y))
        print(f"  {kind:<6} solves {x['solves']:>5} -> {y['solves']:<5}"
              f" iterations {x['iterations']:>6} -> {y['iterations']:<6}"
              f" mean {mean_x:6.2f} -> {mean_y:<6.2f} worst {x['worst']:>3} -> {y['worst']:<3}"
              f" refinements per solve {ref_x} -> {ref_y}")
    most = {seed: tuple(max((call[1] for call in r["seeds"][seed]["solves"]["socp"]), default=0)
                        for r in (a, b)) for seed in a["seeds"]}
    print("  socp most iterations per seed: "
          + " ".join(f"{seed}:{x}->{y}" for seed, (x, y) in most.items()))
    grew = [seed for seed, (x, y) in most.items() if y > x]
    print(f"  seeds whose most socp iterations grew: {', '.join(grew) or 'none'}")
    energy_rel, dT, du, moved, apart = 0.0, 0.0, 0.0, [], []
    has_e = all("e" in r["seeds"][seed] for r in (a, b) for seed in a["seeds"])
    de = 0.0
    for seed, ra in a["seeds"].items():
        rb = b["seeds"][seed]
        rel = max(abs(eb - ea) / max(abs(ea), 1e-300) for ea, eb in zip(ra["energy"], rb["energy"]))
        energy_rel = max(energy_rel, rel)
        if rel > 1e-6:
            apart.append(f"{seed} ({rel:.2g})")
        if ra["experiments"] != rb["experiments"]:
            moved.append(seed)
        if has_e:
            eb = dict(rb["e"])
            de = max([de] + [_max_abs_diff(e, eb[t]) for t, e in ra["e"] if t in eb])
        dT = max(dT, _max_abs_diff(ra["T"], rb["T"]))
        du = max(du, _max_abs_diff(ra["u"], rb["u"]))
    print(f"  energy: largest relative difference {energy_rel:.3g};"
          f" above 1e-6 on seeds: {', '.join(apart) or 'none'}")
    print(f"  max |dT| {dT:.3g}, max |du| {du:.3g}")
    print(f"  max |de| over experiments at the same start time: {f'{de:.3g}' if has_e else 'n/a'}")
    print(f"  experiment start times differ on seeds: {moved or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("online", "mpc-week"))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload or not args.out:
        parser.error("--workload and --out are required without --compare")
    record = sweep(args.workload, parse_seeds(args.seeds), args.jobs)
    args.out.write_text(json.dumps(record))
    t = totals(record)
    print(json.dumps({k: t[k] for k in ("fallbacks", "stalled", "not_optimal")}
                     | {kind: t[kind] for kind in KINDS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
