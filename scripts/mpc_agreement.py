"""Agreement of two MPC solvers on the same horizon problems.

    python3 scripts/mpc_agreement.py --record problems.npz [--seed 0]
    python3 scripts/mpc_agreement.py --solve problems.npz solved.npz
    python3 scripts/mpc_agreement.py --compare a.npz b.npz

``--record`` runs the table2-comparison preset and saves the arrays of every
``MpcProblem`` its MPC leg solves (672 at the default length, one per step of
the week), with the recording checkout's own solutions. ``--solve`` re-solves
the recorded problems in order with this checkout's ``solve_mpc``, each
starting from the solution before it as the closed loop does, and saves its
solutions. ``--compare`` reads two files that hold solutions (recorded or
solved) of the same problems and prints the largest |du| and |dcost|, the
largest |dcost| / (1 + |cost|), the status changes, and the total IPM
iterations of each. Numerical changes to the MPC report these figures; the
script is not part of the test suite.
"""

from __future__ import annotations

import os

# single-threaded BLAS, as the CLI and the tests run; must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from thermobench import mpc  # noqa: E402
from thermobench.mpc import MpcConfig, build_mpc_problem  # noqa: E402
from thermobench.network import DiscreteDynamics  # noqa: E402
from thermobench.presets import run_preset  # noqa: E402

CONFIG_FIELDS = ("horizon", "Q", "R", "Q_togo", "solver_tol", "max_iter")
MODEL_FIELDS = ("Phi", "Gamma_ext", "Gamma_ctrl")


def solution_arrays(solutions) -> dict:
    return {
        "u": np.array([s.u for s in solutions]),
        "cost": np.array([s.cost for s in solutions]),
        "status": np.array([s.status for s in solutions]),
        "iterations": np.array([s.iterations for s in solutions]),
    }


def record(path: Path, seed: int) -> None:
    """Run the table2 preset and save every MPC problem with its solution."""
    solved = []
    solve = mpc.solve_mpc

    def recording(problem, previous=None):
        solution = solve(problem, previous)
        solved.append((problem, solution))
        return solution

    mpc.solve_mpc = recording
    try:
        run_preset("table2-comparison", seed=seed)
    finally:
        mpc.solve_mpc = solve
    problems = [p for p, _ in solved]
    model = problems[0].model
    arrays = {
        name: np.array([getattr(p, name) for p in problems])
        for name in ("T0", "forecast", "r_min", "r_max")
    }
    arrays.update({name: np.array([getattr(p.model, name) for p in problems])
                   for name in MODEL_FIELDS})
    arrays["config"] = np.array([[getattr(p.config, f) for f in CONFIG_FIELDS]
                                 for p in problems], dtype=float)
    arrays["dt"] = np.array([p.model.dt for p in problems])
    for name in ("internal_ids", "external_ids", "heated_ids"):
        arrays[name] = np.array(getattr(model, name))
    arrays.update(solution_arrays([s for _, s in solved]))
    np.savez(path, **arrays)
    print(f"recorded {len(problems)} problems to {path}")


def load_problems(path: Path):
    """The recorded problems, one per step of the week from t = 0."""
    data = np.load(path)
    ids = {name: tuple(int(i) for i in data[name])
           for name in ("internal_ids", "external_ids", "heated_ids")}
    for k in range(len(data["T0"])):
        fields = dict(zip(CONFIG_FIELDS, data["config"][k]))
        fields["horizon"] = int(fields["horizon"])
        fields["max_iter"] = int(fields["max_iter"])
        model = DiscreteDynamics(
            **{name: data[name][k] for name in MODEL_FIELDS}, dt=float(data["dt"][k]), **ids,
        )
        yield build_mpc_problem(model, data["T0"][k], data["forecast"][k],
                                data["r_min"][k], data["r_max"][k], MpcConfig(**fields),
                                t=k * model.dt)


def solve_all(src: Path, dst: Path) -> None:
    start = time.perf_counter()
    solutions = []
    for problem in load_problems(src):
        solutions.append(mpc.solve_mpc(problem, solutions[-1] if solutions else None))
    elapsed = time.perf_counter() - start
    np.savez(dst, **solution_arrays(solutions))
    print(f"solved {len(solutions)} problems in {elapsed:.1f} s to {dst}")


def compare(path_a: Path, path_b: Path) -> None:
    a, b = np.load(path_a), np.load(path_b)
    if a["u"].shape != b["u"].shape:
        sys.exit(f"the files hold different problems: u {a['u'].shape} vs {b['u'].shape}")
    both = (a["status"] == "optimal") & (b["status"] == "optimal")
    du = np.abs(a["u"] - b["u"]).reshape(len(both), -1).max(axis=1)
    dcost = np.abs(a["cost"] - b["cost"])
    rel = dcost / (1.0 + np.abs(a["cost"]))
    print(f"problems: {len(both)}, optimal in both: {int(both.sum())}")
    if both.any():
        worst = int(np.argmax(np.where(both, du, -1.0)))
        print(f"max |du| over both-optimal: {du[both].max():.3e} (problem {worst})")
        worst = int(np.argmax(np.where(both, dcost, -1.0)))
        print(f"max |dcost| over both-optimal: {dcost[both].max():.3e} (problem {worst})")
        print(f"max |dcost| / (1 + |cost|) over both-optimal: {rel[both].max():.3e}")
    changes = Counter(
        (str(sa), str(sb)) for sa, sb in zip(a["status"], b["status"]) if sa != sb
    )
    print("status changes: " + (", ".join(f"{sa} -> {sb}: {k}" for (sa, sb), k in
                                         sorted(changes.items())) or "none"))
    print(f"total IPM iterations: {int(a['iterations'].sum())} -> {int(b['iterations'].sum())}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", type=Path, metavar="OUT")
    group.add_argument("--solve", type=Path, nargs=2, metavar=("PROBLEMS", "OUT"))
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.record:
        record(args.record, args.seed)
    elif args.solve:
        solve_all(*args.solve)
    else:
        compare(*args.compare)


if __name__ == "__main__":
    main()
