"""Summarize recorded runs from ``perfbench/out`` into one JSON file.

    python3 perfbench/summarize.py --seeds 31-40 --trace-seed 0 > perfbench/baseline.json

For each workload: the median and quartiles of every end-to-end metric over
the ``--trace 0`` records of the given seeds, and the per-layer table of the
``--trace 1`` record at ``--trace-seed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import E2E_UNITS, OUT, ROOT


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="first-last")
    ap.add_argument("--trace-seed", type=int, required=True)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [json.loads((OUT / f"{name}-seed{s}-trace0.json").read_text())
                for s in range(first, last + 1)]
        traced = json.loads((OUT / f"{name}-seed{args.trace_seed}-trace1.json").read_text())
        e2e = {}
        for metric, unit in E2E_UNITS.items():
            values = [r["e2e"][metric] for r in runs if r["e2e"][metric] is not None]
            if values:
                q1, median, q3 = statistics.quantiles(values, n=4)
                e2e[metric] = {"median": median, "q1": q1, "q3": q3, "unit": unit, "runs": len(values)}
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": traced["layers"],
            "all_correct": not any(r["failures"] for r in runs + [traced]),
        }
        summary.update(source=runs[0]["source"], machine=runs[0]["machine"], env=runs[0]["env"])
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
