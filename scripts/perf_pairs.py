"""Alternating before/after pairs of the benchmark between two git revisions.

    python3 scripts/perf_pairs.py d00916a HEAD --workloads acquire --seeds 91-100 --out pairs.json
    python3 scripts/perf_pairs.py d00916a HEAD --workloads acquire,mpc-week,online --seeds 91-100 \\
        --trace-seeds 0,91 --claim acquire:steps_per_s --out pairs.json

Extracts each revision with ``git archive`` into its own temporary directory
and compiles its ``src`` and ``perfbench`` to bytecode there, so that the
first pair's ``setup_s`` does not include compiling them. Then, for every
seed and workload, it runs ``perfbench/run.py --trace 0`` in both trees one
after the other: the parent first on even pairs, the change first on odd
ones, so that a drift in the machine's speed falls on both sides alike. For each end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the ratio of the medians, the median per-pair ratio, the pairs the
change wins and the pairs that tie; the quartiles are those of
``perfbench/summarize.py`` (``statistics.quantiles(n=4)``). ``--trace-seeds``
adds one ``--trace 1`` run per side and seed, and keeps its per-layer
metrics. ``--claim workload:metric`` states whether the change is better on
at least nine of ten pairs, its median lies beyond the parent's
interquartile range, and it fails no larger share of operations than the
parent. ``--out`` writes everything as JSON, rewritten after every run, in
the shape a ``BENCH_<n>.json`` quotes. Each run takes the benchmark's own
``run_seconds`` plus five setups; the script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'91-96,0' -> [91, 92, ..., 96, 0]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract(rev: str, into: Path) -> str:
    """Write the committed tree of ``rev`` into ``into``; return its commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    # compiled here, so that no run's setup_s includes compiling the sources
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=into, check=True)
    return sha


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, read back from its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1 is a failed check: the record still stands
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    out = {key: record.get(key) for key in ("attempted", "failed", "failures", "steps")}
    out["correct"] = not record["failures"]
    out["src_sha256"] = record["source"]["src_sha256"]
    out["host"] = dict(record["env"], nproc=record["machine"]["nproc"])
    out["e2e"] = record["e2e"]
    if trace:
        out["layers"] = record["layers"]
    return out


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def failed_share(pairs: list[dict], side: str) -> float:
    """Failed operations over attempted ones, summed over the pairs."""
    return sum(p[side]["failed"] for p in pairs) / sum(p[side]["attempted"] for p in pairs)


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per declared metric: both sides' quartiles, per-pair ratios and wins.

    ``verdict`` is "within bound" when the change's median is no worse than
    the parent's by more than the metric's bound, "regression" when it is,
    and "unresolved" when the parent's interquartile range, relative to its
    median, is wider than the bound and not every change run beats every
    parent run.
    """
    out = {"failed_share": {side: failed_share(pairs, side) for side in SIDES}}
    for m in metrics:
        name = m["name"]
        before = [p["parent"]["e2e"][name] for p in pairs]
        after = [p["change"]["e2e"][name] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        parent, change = quartiles(before), quartiles(after)
        ratios = [a / b for a, b in zip(after, before)]
        worse = -sign * (change["median"] - parent["median"]) / parent["median"]
        spread = (parent["q3"] - parent["q1"]) / abs(parent["median"])
        all_better = sign * (min(after) - max(before) if sign > 0 else max(after) - min(before)) > 0
        if spread > m["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "within bound" if worse <= m["bound"] else "regression"
        out[name] = {
            "parent": parent,
            "change": change,
            "ratio_of_medians": change["median"] / parent["median"],
            "pair_ratios": ratios,
            "median_pair_ratio": statistics.median(ratios),
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
            "ties": sum(a == b for a, b in zip(after, before)),
            "pairs": len(pairs),
            "median_diff": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "parent_relative_iqr": spread,
            "relative_worsening_of_median": worse,
            "bound": m["bound"],
            "verdict": verdict,
        }
    return out


def claim_verdict(summary: dict, workload: str, metric: str, better: str) -> dict:
    """Better on >= 9 of 10 pairs, the median moved by more than the parent's IQR,
    and no larger share of failed operations than the parent."""
    s = summary[metric]
    failed = summary["failed_share"]
    sign = 1.0 if better == "higher" else -1.0
    return {
        "workload": workload, "metric": metric, "better": better,
        "pairs": s["pairs"], "change_wins": s["change_wins"],
        "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
        "ratio": s["ratio_of_medians"], "parent_iqr": s["parent_iqr"], "median_diff": s["median_diff"],
        "failed_share": failed,
        "met": (s["change_wins"] >= 0.9 * s["pairs"] and sign * s["median_diff"] > s["parent_iqr"]
                and failed["change"] <= failed["parent"]),
    }


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: {'metric':<12}{'parent':>12}{'change':>12}{'ratio':>8}{'pair':>8}  wins ties  verdict")
    for name, s in summary.items():
        if name == "failed_share":
            continue
        print(f"{'':<{len(workload) + 2}}{name:<12}{s['parent']['median']:>12.5g}{s['change']['median']:>12.5g}"
              f"{s['ratio_of_medians']:>8.3f}{s['median_pair_ratio']:>8.3f}  {s['change_wins']:>2}/{s['pairs']:<2}{s['ties']:>3}  {s['verdict']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision measured as the parent")
    ap.add_argument("change", help="git revision measured as the change")
    ap.add_argument("--workloads", default="acquire", help=f"comma-separated, of {', '.join(names)}")
    ap.add_argument("--seeds", required=True, help="one pair per seed, e.g. 91-100")
    ap.add_argument("--trace-seeds", default="", help="seeds of one traced run per side, e.g. 0,91")
    ap.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    seeds = parse_seeds(args.seeds)
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []

    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        result = {side: extract(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        result.update(
            command="python3 perfbench/run.py --workload <w> --seed <n> --trace 0|1 in git archive "
                    "trees of both revisions, alternating which side runs first",
            seconds=spec["run_seconds"],
            workloads={w: {"pairs": []} for w in workloads},
            traced={w: {} for w in workloads if trace_seeds},
        )

        def save():
            if args.out:
                args.out.write_text(json.dumps(result, indent=1) + "\n")

        def run_pair(seed: int, first: str, workload: str, trace: int) -> dict:
            order = SIDES if first == "parent" else SIDES[::-1]
            runs = {side: bench(trees[side], workload, seed, trace) for side in order}
            for side in order:
                result[f"{side}_src_sha256"] = runs[side].pop("src_sha256")
                result["host"] = runs[side].pop("host")
                e = runs[side]["e2e"]
                print(f"  seed {seed} {workload} trace {trace} {side}: "
                      f"{e.get('steps_per_s') or 0:.4g} steps/s, energy {e['energy']!r}", file=sys.stderr)
            return runs

        for i, seed in enumerate(seeds):
            first = SIDES[i % 2]
            for w in workloads:
                runs = run_pair(seed, first, w, 0)
                result["workloads"][w]["pairs"].append(dict(pair=i, seed=seed, first=first, **runs))
                save()
        for i, seed in enumerate(trace_seeds):
            for w in workloads:
                runs = run_pair(seed, SIDES[i % 2], w, 1)
                for side in SIDES:
                    result["traced"][w][f"{side}_seed{seed}"] = runs[side]["layers"]
                save()

    for w in workloads:
        entry = result["workloads"][w]
        entry["summary"] = summarize(entry["pairs"], spec["end_to_end"])
        print_summary(w, entry["summary"])
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
        result["claim"] = claim_verdict(result["workloads"][workload]["summary"], workload, metric, better)
        print(f"claim {args.claim}: {result['claim']['change_wins']}/{result['claim']['pairs']} pairs won, "
              f"met: {result['claim']['met']}")
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
