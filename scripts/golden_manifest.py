"""Golden manifest of every shipped preset and the selector path: file hashes plus digests.

    python3 scripts/golden_manifest.py --out golden_seed0.json
    python3 scripts/golden_manifest.py --check scripts/golden_seed0.json [--jobs 2]
    python3 scripts/golden_manifest.py --arrays before.npz [--jobs 2]
    python3 scripts/golden_manifest.py --delta before.npz after.npz

Runs all five presets at seed 0, and two runs that reach the optimal selector
under MPC (no preset does), each into a temporary directory, and records the
sha256 of every file they write. The CSVs carry nine significant digits, which
hides last-bit drift, so it also records a sha256 over the raw bytes
(``tobytes()``) of the in-memory trace, estimate, final-parameter and
observability arrays of every run. ``--check FILE`` reruns and exits 1 on any
difference. ``--arrays OUT.npz`` also saves those arrays, keyed
``case/run/group/name``, and ``--delta A.npz B.npz`` prints the largest
absolute difference of each array between two such files. BLAS builds may
differ in the last bits, so the reference is only meaningful on the numeric
stack it was written with (recorded under ``environment``); the check is kept
out of the tier-1 test suite.
"""

from __future__ import annotations

import os

# single-threaded BLAS, as the CLI and the tests run; must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import hashlib
import json
import multiprocessing
import platform
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from thermobench.excitation import SelectorState  # noqa: E402
from thermobench.harness import ScenarioConfig, run_scenario  # noqa: E402
from thermobench.network import two_zone_example  # noqa: E402
from thermobench.presets import PRESET_NAMES, acquisition_weather, run_preset  # noqa: E402

SEED = 0


def online_config(seed: int) -> ScenarioConfig:
    """Estimator, forced MPC and the optimal selector from the true model."""
    return ScenarioConfig(
        name="online", network=two_zone_example(), weather=acquisition_weather(),
        controller="mpc-with-excitation", estimator=True, duration_steps=52,
        seed=seed, start_at_truth=True, force_mpc=True,
    )


# non-preset runs: name -> config at a seed
SELECTOR_CASES = {
    # every selector call starts an experiment
    "online": online_config,
    # no selector call starts one, so each step's MPC solution is its baseline
    "online-no-experiment": lambda seed: replace(
        online_config(seed), name="online-no-experiment", duration_steps=4,
        selector=SelectorState(threshold=1e9, initial=1e9),
    ),
}
CASE_NAMES = PRESET_NAMES + tuple(SELECTOR_CASES)


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def report_arrays(report) -> dict:
    """Named in-memory arrays of one RunReport by digest group, in hashing order."""
    rows = report.trace.rows
    groups = {
        "trace": [("time", np.array([r.time for r in rows]))]
        + [(f, np.array([getattr(r, f) for r in rows], dtype=float).reshape(len(rows), -1))
           for f in ("true_temps", "measured_temps", "t_ext", "u", "r_min", "r_max")]
        + [("mode", np.array([r.mode for r in rows], dtype=str))],
    }
    if report.estimates:
        est = report.estimates
        groups["estimates"] = [
            ("time", np.array([e.time for e in est])),
            ("means", np.array([e.means for e in est])),
            ("variances", np.array([e.variances for e in est])),
            ("nees", np.array([e.nees for e in est])),
            ("converged", np.array([e.converged for e in est])),
            ("final_params", report.final_params),
            ("final_variances", report.final_variances),
        ]
    if report.observability:
        obs = report.observability
        groups["observability"] = (
            [("time_rank", np.array([(s.time, s.rank) for s in obs]))]
            + [("magnitudes", s.coordinate_magnitudes) for s in obs]
            + [("nullspace", s.nullspace_basis) for s in obs]
        )
    return groups


def report_digests(groups: dict, events) -> dict:
    """One digest per array group of a RunReport, plus one of its events."""
    out = {g: _array_digest([a for _, a in items]) for g, items in groups.items()}
    out["events"] = hashlib.sha256(
        "\n".join(f"{e.time!r} {e.kind} {e.detail}" for e in events).encode()
    ).hexdigest()
    return out


def case_manifest(name: str, seed: int) -> tuple[dict, dict]:
    """Run one case into a fresh temporary directory and digest what it made.

    Also returns the digested arrays, flattened: one per array name, with
    the per-snapshot observability arrays raveled and joined.
    """
    with tempfile.TemporaryDirectory(prefix=f"golden-{name}-") as tmp:
        root = Path(tmp)
        if name in SELECTOR_CASES:
            results = {"run": run_scenario(SELECTOR_CASES[name](seed), root / "run")}
        else:
            results = run_preset(name, seed=seed, out_dir=root)
        files = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
    digests, values = {}, {}
    for label, item in results.items():
        if hasattr(item, "trace"):
            groups = report_arrays(item)
            for group, digest in report_digests(groups, item.events).items():
                digests[f"{label}/{group}"] = digest
            for group, items in groups.items():
                parts = {}
                for key, a in items:
                    parts.setdefault(key, []).append(np.ravel(a))
                for key, raveled in parts.items():
                    values[f"{label}/{group}/{key}"] = np.concatenate(raveled)
        elif hasattr(item, "rows"):
            rows = np.array([r[1:] for r in item.rows])
            digests[f"{label}/rows"] = _array_digest([rows])
            values[f"{label}/rows"] = rows
    return {"files": files, "arrays": digests}, values


def build(seed: int, jobs: int) -> tuple[dict, dict]:
    """The manifest of every case, and every case's arrays keyed ``case/label/...``."""
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {n: pool.submit(case_manifest, n, seed) for n in CASE_NAMES}
        results = {n: f.result() for n, f in futures.items()}
    cases = {n: manifest for n, (manifest, _) in results.items()}
    arrays = {f"{n}/{key}": a for n, (_, values) in results.items() for key, a in values.items()}
    return {
        "seed": seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "cases": cases,
    }, arrays


def differences(reference: dict, current: dict) -> list[str]:
    """Every digest that is missing, new or changed, as printable lines."""
    lines = []
    ref_p, cur_p = reference["cases"], current["cases"]
    for name in sorted(set(ref_p) | set(cur_p)):
        for kind in ("files", "arrays"):
            ref = ref_p.get(name, {}).get(kind, {})
            cur = cur_p.get(name, {}).get(kind, {})
            for key in sorted(set(ref) | set(cur)):
                if ref.get(key) != cur.get(key):
                    lines.append(
                        f"{name} {kind} {key}: reference {ref.get(key)}, current {cur.get(key)}"
                    )
    return lines


def array_deltas(a: dict, b: dict) -> list[str]:
    """Max |b - a| per array, or how many entries differ where they are not numbers."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key in b else 'A'}")
        elif a[key].shape != b[key].shape:
            lines.append(f"{key}: shape {a[key].shape} vs {b[key].shape}")
        elif a[key].dtype.kind in "fiub":
            delta = np.abs(b[key].astype(float) - a[key].astype(float))
            lines.append(f"{key}: max |delta| {delta.max(initial=0.0):.3e}")
        else:
            lines.append(f"{key}: {int(np.sum(a[key] != b[key]))} of {a[key].size} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--out", help="write the manifest to this JSON file")
    group.add_argument("--check", help="compare against this manifest; exit 1 on any difference")
    group.add_argument("--delta", nargs=2, metavar=("A.npz", "B.npz"),
                       help="print max |B - A| per array of two --arrays files; runs nothing")
    parser.add_argument("--arrays", metavar="OUT.npz",
                        help="also save every digested array to this .npz file")
    parser.add_argument("--jobs", type=int, default=1, help="cases run in parallel")
    args = parser.parse_args(argv)
    if not (args.out or args.check or args.delta or args.arrays):
        parser.error("one of --out, --check, --delta or --arrays is required")

    if args.delta:
        with np.load(args.delta[0]) as a, np.load(args.delta[1]) as b:
            for line in array_deltas(dict(a), dict(b)):
                print(line)
        return 0
    current, arrays = build(SEED, max(1, args.jobs))
    if args.arrays:
        np.savez_compressed(args.arrays, **arrays)
        print(f"wrote {len(arrays)} arrays to {args.arrays}")
    if args.out:
        Path(args.out).write_text(json.dumps(current, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        n = sum(len(p["files"]) + len(p["arrays"]) for p in current["cases"].values())
        print(f"wrote {n} digests for {len(current['cases'])} cases to {args.out}")
        return 0
    if not args.check:
        return 0
    reference = json.loads(Path(args.check).read_text(encoding="utf-8"))
    if reference["environment"] != current["environment"]:
        print(f"note: reference environment {reference['environment']}, "
              f"current {current['environment']}")
    diff = differences(reference, current)
    for line in diff:
        print(line)
    n = sum(len(p["files"]) + len(p["arrays"]) for p in reference["cases"].values())
    print(f"{'FAIL' if diff else 'OK'}: {len(diff)} of {n} digests differ")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
