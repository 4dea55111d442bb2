"""Benchmark of the thermobench closed loop.

    python3 perfbench/run.py --workload mpc-week --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each workload runs in fresh single-threaded processes, one at a time, with
BLAS and OpenMP pinned to one thread before numpy loads: four that only set
up, then one that sets up and runs. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass. The last line of output is one JSON object whose ``metrics`` are the
ones ``BENCHMARK.json`` declares for that mode. Every run is checked, and
the command exits non-zero when a check fails. The full record of each run,
with the machine and the source it ran, goes to ``perfbench/out/``.

End-to-end metrics:
  setup_s      median over the five processes of the time from before
               ``import thermobench`` through config construction and a
               two-step untimed warm-up run
  steps_per_s  closed-loop steps (15 simulated minutes each) completed per
               second over the timed passes, result files included
  step_ms_p50  median over a pass's steps of each step's mean wall time over
               the timed passes, which repeat the same steps on the same seed;
               a step is timed from one clock read per step boundary
  step_ms_p90  highest percentile up to p90 with ten samples beyond it, of the
               step times of all timed passes together
  failed_frac  failed steps / attempted steps; a step fails when it fell back
               to the thermostat (an ``mpc-failure`` event), was not run, or
               belongs to a run or workload that failed a check
  discomfort   mean over the first pass's runs of ``report.metrics.discomfort``
  energy       mean over the first pass's runs of ``report.metrics.energy``
  rc_rel_err   median over runs of max |p_hat - p| / p over the four RC
               products at the final step; only where the estimator runs
  peak_rss_mb  ``ru_maxrss`` of the process that ran the workload
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {
    "setup_s": "s", "steps_per_s": "steps/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
    "failed_frac": "ratio", "discomfort": "degF_rms", "energy": "heater-steps",
    "rc_rel_err": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def source_identity() -> dict:
    """The git commit when there is one, and always a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT / "tmp"))
    env.update({v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(OUT)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 steps: int | None, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if steps is not None:
        common += ["--steps", str(steps)]
    setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(common, deadline)
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    res["e2e"] = {"setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"],
                  "failed_frac": res["failed"] / res["attempted"],
                  "discomfort": res["discomfort"], "energy": res["energy"],
                  "rc_rel_err": res["rc_rel_err"]}
    if trace == 0:
        res["e2e"].update(steps_per_s=res.get("steps_per_s"),
                          step_ms_p50=res.get("step_ms_p50"), step_ms_p90=res.get("step_ms_tail"))
    return res


def describe(name: str, res: dict, trace: int) -> list[str]:
    e = res["e2e"]
    notes = {
        "setup_s": f"median of {len(res['setup_samples_s'])} fresh processes",
        "failed_frac": f"{res['failed']} of {res['attempted']} steps",
        "rc_rel_err": "" if e["rc_rel_err"] is not None else "n/a: estimator off",
    }
    if trace == 0:
        notes.update(
            steps_per_s=f"{res['steps']} steps in {res['wall_s']:.2f} s, {res['passes']} passes",
            step_ms_p50=f"{res.get('step_samples')} steps, each at its mean over the passes",
            step_ms_p90=f"p{res.get('tail_percentile')} of {res.get('tail_samples')} step samples",
        )
    lines = [f"workload {name}"]
    for metric, unit in E2E_UNITS.items():
        if metric in e:
            value = "n/a" if e[metric] is None else repr(e[metric])
            lines.append(f"  {metric:<14}{value:>24} {unit:<13}{notes.get(metric, '')}")
    for metric, value in sorted(res.get("layers", {}).items()):
        lines.append(f"  {metric:<40}{value!r}")
    lines += [f"  CHECK FAILED: {f}" for f in res["failures"]]
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="steps per scenario run instead of the workload's own (self-check)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thermobench" / "__init__.py").is_file():
        print(f"no thermobench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S * (len(names) if args.workload == "all" else 1)
    source = source_identity()
    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.steps, deadline)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 2
        print("\n".join(describe(name, res, args.trace)), flush=True)
        values = res["layers"] if args.trace else res["e2e"]
        missing = [m["name"] for m in declared if values.get(m["name"]) is None]
        if missing:
            print(f"declared metrics not measured: {missing}", file=sys.stderr)
            return 2
        results[name] = {
            "correct": not res["failures"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        }
        record = dict(res, workload=name, seed=args.seed, trace=args.trace, seconds=args.seconds,
                      machine=machine, source=source, units=E2E_UNITS)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
