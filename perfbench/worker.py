"""One workload in one fresh process: set up, run timed, check, print JSON.

``run.py`` starts this with BLAS and OpenMP pinned to one thread and
``src`` on ``PYTHONPATH``; see that file for the metric definitions.

    python3 perfbench/worker.py --workload acquire --seed 0 --seconds 30 --trace 0 --out DIR
    python3 perfbench/worker.py --workload acquire --seed 0 --seconds 30 --trace 0 --setup-only --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from run import THREAD_VARS

SETUP_START = time.perf_counter()   # before thermobench, numpy and scipy load

WARMUP_STEPS = 2
# the self times of all spans must add up to the traced wall time within this
# share; what is left is the benchmark's own per-run work (temp dirs)
COVERAGE_TOL = 0.05


def tail_percentile(n: int) -> int:
    """The highest percentile up to p90 with at least ten of n samples beyond
    it; p50 when there are too few samples for any tail."""
    if n < 20:
        return 50
    return min(90, int(100 - 1000 / n))


class Runner:
    """Runs scenario configs, keeping what the checks and metrics need."""

    def __init__(self, configs, work_dir: Path):
        self.configs = configs
        self.work_dir = work_dir
        self.reference: dict = {}   # config index -> manifest of its first run
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0

    def run_pass(self):
        from thermobench import harness
        from workloads import fallbacks

        reports = []
        for i, cfg in enumerate(self.configs):
            self.attempted += cfg.duration_steps
            with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
                try:
                    report = harness.run_scenario(cfg, Path(tmp))
                except Exception as exc:   # a raising run fails all its steps
                    self.failures.append(f"{cfg.name} seed {cfg.seed} raised {exc!r}")
                    self.failed += cfg.duration_steps
                    continue
            rows = len(report.trace.rows)
            self.completed += rows
            problems = []
            if report.status != "ok":
                problems.append(f"status {report.status!r}")
            if rows != cfg.duration_steps:
                problems.append(f"{rows} of {cfg.duration_steps} steps")
            if self.reference.setdefault(i, report.manifest) != report.manifest:
                problems.append("manifest differs from the same-seed first run")
            if problems:
                self.failures += [f"{cfg.name} seed {cfg.seed}: {p}" for p in problems]
                self.failed += cfg.duration_steps
            else:
                self.failed += fallbacks(report)
            reports.append(report)
        return reports


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def accuracy(reports) -> dict:
    import numpy as np

    errs = [
        float(np.max(np.abs(r.final_params[:4] - r.truth_params[:4]) / r.truth_params[:4]))
        for r in reports if r.final_params is not None
    ]
    return {
        "discomfort": float(np.mean([r.metrics.discomfort for r in reports])),
        "energy": float(np.mean([r.metrics.energy for r in reports])),
        "rc_rel_err": float(np.median(errs)) if errs else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None, help="steps per run (self-check)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        sys.exit(f"thread counts not pinned to 1: {unpinned}")

    from dataclasses import replace

    import numpy as np
    from thermobench import harness
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    configs = workload.build(args.seed, args.steps)
    work_dir = args.out / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        warm = replace(configs[0], duration_steps=min(WARMUP_STEPS, configs[0].duration_steps))
        harness.run_scenario(warm, Path(tmp))
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(configs, work_dir)
    gate = spans.Probe(timed=False)
    result = {"setup_s": setup_s, "env": environment()}
    # Only the first pass's reports are kept, so memory does not grow with the
    # number of passes a machine fits in the run. Every run needs a second
    # pass: it is the same-seed repeat that the manifests are checked on.
    start = time.perf_counter()
    if args.trace == 0:
        clock = spans.StepClock()
        step_s, pass_s = [], []     # per pass: each step's time, the pass's time
        first = None
        with spans.patched(gate.sites() + clock.sites()):
            while True:
                t_pass = time.perf_counter()
                reports = runner.run_pass()
                now = time.perf_counter()
                first = reports if first is None else first
                step_s.append(clock.take())
                pass_s.append(now - t_pass)
                # stop at the pass boundary nearest the run length
                if len(step_s) >= 2 and now - start + (now - t_pass) / 2 >= args.seconds:
                    break
        wall = time.perf_counter() - start
        result.update(steps=runner.completed, wall_s=wall, passes=len(step_s), pass_s=pass_s)
        n = min(len(p) for p in step_s)
        if any(len(p) != n for p in step_s):
            runner.failures.append(f"passes timed {sorted({len(p) for p in step_s})} steps")
        if n:
            # Every pass repeats the same steps on the same seed. The median
            # takes each step at its mean over the passes, which moves
            # smoothly with the host's load, where the median of all samples
            # can jump between clusters of fast and slow samples. The tail
            # pools the samples, so that enough of them lie beyond it.
            times = np.array([p[:n] for p in step_s])
            pct = tail_percentile(times.size)
            result.update(
                steps_per_s=runner.completed / wall,
                step_samples=n,
                tail_samples=times.size,
                step_ms_p50=float(np.median(times.mean(axis=0))) * 1e3,
                step_ms_tail=float(np.percentile(times, pct)) * 1e3,
                tail_percentile=pct,
            )
        calls = gate.calls
    else:
        # untraced and traced passes alternate, so drift in the machine's speed
        # hits both alike; the layer figures are per traced pass
        probe = spans.Probe(timed=True)

        def timed_pass(sites):
            t, done = time.perf_counter(), runner.completed
            with spans.patched(sites):
                reports = runner.run_pass()
            return reports, time.perf_counter() - t, runner.completed - done

        plain_s = traced_s = 0.0
        plain_steps = traced_steps = 0
        first = traced = None
        while True:
            t_pair = time.perf_counter()
            reports, secs, steps = timed_pass(gate.sites())
            plain_s, plain_steps = plain_s + secs, plain_steps + steps
            first = first or reports
            reports, secs, steps = timed_pass(probe.sites())
            traced_s, traced_steps = traced_s + secs, traced_steps + steps
            traced = traced or reports
            probe.passes += 1
            now = time.perf_counter()
            if now - start + (now - t_pair) / 2 >= args.seconds:
                break
        layers = probe.layer_metrics(traced)
        layers["trace.overhead_frac"] = 1.0 - (traced_steps / traced_s) / (plain_steps / plain_s)
        layers["trace.coverage_frac"] = probe.self_total() / traced_s
        if abs(1.0 - layers["trace.coverage_frac"]) > COVERAGE_TOL:
            runner.failures.append(
                f"span self times cover {layers['trace.coverage_frac']:.3f} of the traced wall time"
            )
        result.update(layers=layers, traced_wall_s=traced_s, spans=len(probe.spans))
        probe.write_csv(args.out / f"spans-{args.workload}-seed{args.seed}.csv")
        calls = gate.calls + probe.calls
    unexercised = workload.check(first, calls)
    runner.failures += unexercised
    result.update(
        accuracy(first),
        attempted=runner.attempted,
        # a workload that missed its layers measured nothing it was meant to
        failed=runner.attempted if unexercised else runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
