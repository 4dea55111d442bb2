"""Fast self-check of the benchmark: each workload, run for a few steps, emits
every declared metric with its unit and passes its checks.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# steps per run that still reach each workload's checked layers: acquire's
# first experiment comes on the excite day, which starts at step 192
STEPS = {"mpc-week": 3, "acquire": 200, "online": 2}
ALL_E2E = ("setup_s", "steps_per_s", "step_ms_p50", "step_ms_p90", "failed_frac",
           "discomfort", "energy", "rc_rel_err", "peak_rss_mb")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--steps", str(STEPS[workload]))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        printed = {line.split()[0] for line in lines[:-1]}
        assert set(ALL_E2E) <= printed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "acquire", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_checks_flag_unexercised_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    assert len(WORKLOADS["acquire"].check([], Counter({"solver.solve": 3}))) == 2
    assert len(WORKLOADS["online"].check([], Counter())) == 2


def test_printed_units_match_the_declared_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from run import E2E_UNITS

    assert set(E2E_UNITS) == set(ALL_E2E)
    for m in SPEC["end_to_end"]:
        assert E2E_UNITS[m["name"]] == m["unit"]
