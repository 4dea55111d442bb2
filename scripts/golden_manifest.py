"""Golden manifest of every shipped preset: file hashes plus full-precision digests.

    python3 scripts/golden_manifest.py --out golden_seed0.json
    python3 scripts/golden_manifest.py --check scripts/golden_seed0.json [--jobs 2]

Runs all five presets at seed 0 into a temporary directory and records the
sha256 of every file they write. The CSVs carry nine significant digits, which
hides last-bit drift, so it also records a sha256 over the raw bytes
(``tobytes()``) of the in-memory trace, estimate, final-parameter and
observability arrays of every run. ``--check FILE`` reruns and exits 1 on any
difference. BLAS builds may differ in the last bits, so the reference is only
meaningful on the numeric stack it was written with (recorded under
``environment``); the check is kept out of the tier-1 test suite.
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from thermobench.presets import PRESET_NAMES, run_preset  # noqa: E402

SEED = 0


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def report_digests(report) -> dict:
    """Digests of one RunReport's in-memory arrays, one per group."""
    rows = report.trace.rows
    out = {
        "trace": _array_digest(
            [np.array([r.time for r in rows])]
            + [np.array([getattr(r, f) for r in rows], dtype=float).reshape(len(rows), -1)
               for f in ("true_temps", "measured_temps", "t_ext", "u", "r_min", "r_max")]
            + [np.array([r.mode for r in rows], dtype=str)]
        ),
        "events": hashlib.sha256(
            "\n".join(f"{e.time!r} {e.kind} {e.detail}" for e in report.events).encode()
        ).hexdigest(),
    }
    if report.estimates:
        est = report.estimates
        out["estimates"] = _array_digest([
            np.array([e.time for e in est]),
            np.array([e.means for e in est]),
            np.array([e.variances for e in est]),
            np.array([e.nees for e in est]),
            np.array([e.converged for e in est]),
            report.final_params,
            report.final_variances,
        ])
    if report.observability:
        obs = report.observability
        out["observability"] = _array_digest(
            [np.array([(s.time, s.rank) for s in obs])]
            + [s.coordinate_magnitudes for s in obs]
            + [s.nullspace_basis for s in obs]
        )
    return out


def preset_manifest(name: str, seed: int) -> dict:
    """Run one preset into a fresh temporary directory and digest what it made."""
    with tempfile.TemporaryDirectory(prefix=f"golden-{name}-") as tmp:
        root = Path(tmp)
        results = run_preset(name, seed=seed, out_dir=root)
        files = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
    arrays = {}
    for label, item in results.items():
        if hasattr(item, "trace"):
            for group, digest in report_digests(item).items():
                arrays[f"{label}/{group}"] = digest
        elif hasattr(item, "rows"):
            arrays[f"{label}/rows"] = _array_digest([np.array([r[1:] for r in item.rows])])
    return {"files": files, "arrays": arrays}


def build(seed: int, jobs: int) -> dict:
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {n: pool.submit(preset_manifest, n, seed) for n in PRESET_NAMES}
        presets = {n: f.result() for n, f in futures.items()}
    return {
        "seed": seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "presets": presets,
    }


def differences(reference: dict, current: dict) -> list[str]:
    """Every digest that is missing, new or changed, as printable lines."""
    lines = []
    ref_p, cur_p = reference["presets"], current["presets"]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the manifest to this JSON file")
    group.add_argument("--check", help="compare against this manifest; exit 1 on any difference")
    parser.add_argument("--jobs", type=int, default=1, help="presets run in parallel")
    args = parser.parse_args(argv)

    current = build(SEED, max(1, args.jobs))
    if args.out:
        Path(args.out).write_text(json.dumps(current, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        n = sum(len(p["files"]) + len(p["arrays"]) for p in current["presets"].values())
        print(f"wrote {n} digests for {len(current['presets'])} presets to {args.out}")
        return 0
    reference = json.loads(Path(args.check).read_text(encoding="utf-8"))
    if reference["environment"] != current["environment"]:
        print(f"note: reference environment {reference['environment']}, "
              f"current {current['environment']}")
    diff = differences(reference, current)
    for line in diff:
        print(line)
    n = sum(len(p["files"]) + len(p["arrays"]) for p in reference["presets"].values())
    print(f"{'FAIL' if diff else 'OK'}: {len(diff)} of {n} digests differ")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
