"""Where one interior-point iteration of the MPC solve spends its time.

    python3 scripts/iteration_split.py --workload mpc-week --seed 0 --repeats 5
    python3 scripts/iteration_split.py --workload online --seed 0 --tree /tmp/parent

Runs the configs of a perfbench workload (52 steps each) ``--repeats`` times
in one process and times, inside the MPC's ``solver.solve`` calls only, the
parts of each iteration through ``perf_counter`` wrappers installed from
outside the package: the Newton hook's build (of which the Cholesky), its
solves, its applications (the residual checks of refined Newton solves,
where a checkout's hook returns ``(solve, apply)``; 0 where it returns only
its solve), the products with the stacked constraint rows, and the
step-length searches.
"rest" is the solve time not inside any of them. It prints microseconds per
IPM iteration for each part, as the median over the repeats, with the
repeats' smallest total, and iterations per solve; then "setup", the
microseconds per solve spent in ``mpc.solve_mpc`` outside ``solver.solve``
(building or reusing the program, the warm start, the cost). ``--tree`` measures
another checkout, for example one extracted by ``git archive``; the script
knows the row layout before and after ``solver._stack`` went, and hooks that
return a solve or ``(solve, apply)``. Each wrapper
adds a clock read or two per call, under a microsecond, to the figures; the
script is not part of the test suite.
"""

from __future__ import annotations

import os

# single-threaded BLAS, as the CLI and the tests run; must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PARTS = ("hook_build", "cholesky", "hook_solves", "residual_checks", "row_products",
         "step_searches", "rest")


def install(timers, counts, inside):
    """Wrap the solver's parts; return the callables that undo it."""
    from thermobench import mpc, solver

    undo = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append(lambda: setattr(owner, attr, original))

    def timed(name, fn):
        def wrapped(*args, **kwargs):
            if not inside[0]:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += perf_counter() - start
                counts[name] += 1
        return wrapped

    def hook_factory(make_kkt):
        def factory(*args, **kwargs):
            kkt = make_kkt(*args, **kwargs)

            def built(*a, **k):
                out = timed("hook_build", kkt)(*a, **k)
                if callable(out):
                    return timed("hook_solves", out)
                solve, apply = out
                return timed("hook_solves", solve), timed("residual_checks", apply)
            return built
        return factory

    def solve_wrap(fn):
        def wrapped(*args, **kwargs):
            inside[0] = True
            start = perf_counter()
            try:
                sol = fn(*args, **kwargs)
            finally:
                timers["total"] += perf_counter() - start
                inside[0] = False
            counts["iterations"] += sol.iterations
            counts["solves"] += 1
            return sol
        return wrapped

    def solve_mpc_wrap(fn):
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers["solve_mpc"] += perf_counter() - start
        return wrapped

    patch(mpc, "solve", solve_wrap)
    patch(mpc, "solve_mpc", solve_mpc_wrap)
    patch(mpc, "_condensed_kkt", hook_factory)
    patch(solver, "cho_factor", lambda fn: timed("cholesky", fn))
    patch(solver._Cones, "max_step", lambda fn: timed("step_searches", fn))
    if hasattr(solver, "_stack"):
        # the layout with cone rows held apart: one stacked product is a
        # call of the functions ``_stack`` returns
        def stack_wrap(fn):
            def wrapped(*args, **kwargs):
                apply, apply_t = fn(*args, **kwargs)
                return timed("row_products", apply), timed("row_products", apply_t)
            return wrapped
        patch(solver, "_stack", stack_wrap)
    else:
        patch(mpc.HorizonRows, "__matmul__", lambda fn: timed("row_products", fn))
        patch(mpc.HorizonRows, "rmatvec", lambda fn: timed("row_products", fn))
    return undo


def one_pass(workload: str, seed: int) -> dict:
    from perfbench.workloads import WORKLOADS
    from thermobench import harness

    timers, counts, inside = defaultdict(float), defaultdict(int), [False]
    undo = install(timers, counts, inside)
    try:
        for cfg in WORKLOADS[workload].build(seed, None):
            harness.run_scenario(cfg)
    finally:
        for fn in reversed(undo):
            fn()
    its = counts["iterations"]
    inner = ("hook_build", "hook_solves", "residual_checks", "row_products", "step_searches")
    us = {name: 1e6 * timers[name] / its for name in inner + ("cholesky",)}
    us["rest"] = 1e6 * (timers["total"] - sum(timers[name] for name in inner)) / its
    us["total"] = 1e6 * timers["total"] / its
    per_it = {name: counts[name] / its for name in inner}
    setup = 1e6 * (timers["solve_mpc"] - timers["total"]) / counts["solves"]
    return {"us": us, "setup_us_per_solve": setup, "calls_per_iteration": per_it,
            "iterations_per_solve": its / counts["solves"], "solves": counts["solves"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("mpc-week", "online"), default="mpc-week")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.tree / "src"), str(args.tree)]

    runs = [one_pass(args.workload, args.seed) for _ in range(args.repeats)]
    first = runs[0]
    print(f"{args.workload} seed {args.seed}, {args.repeats} passes, {first['solves']} MPC solves, "
          f"{first['iterations_per_solve']:.2f} iterations per solve, tree {args.tree}")
    print(f"{'part':<16}{'us/iteration':>13}{'calls/iteration':>17}")
    for name in PARTS + ("total",):
        median = statistics.median(r["us"][name] for r in runs)
        calls = first["calls_per_iteration"].get(name)
        print(f"{name:<16}{median:>13.1f}{'' if calls is None else f'{calls:>17.2f}'}")
    print(f"{'min total':<16}{min(r['us']['total'] for r in runs):>13.1f}")
    setup = statistics.median(r["setup_us_per_solve"] for r in runs)
    print(f"{'setup':<16}{setup:>13.1f} us/solve, outside solver.solve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
