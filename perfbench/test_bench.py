"""Tests of the benchmark itself, on the smoke size of every workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts taken from the wrapped calls' arguments and return values
DETERMINISTIC = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")] + [
    "pipeline.ingest.accept_ratio",
    "selection.convergence_voting.carried_ratio",
    "selection.convergence_voting.lines_max",
    "selection.convergence_voting.tensor_mb_max",
    "solver.solve_quadratic_system.fail_ratio",
    "solver.solve_quadratic_system.candidates_mean",
    "solver.refine.lm_converged_ratio",
]


def bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    info = next(line for line in lines if line.startswith("# info "))
    return out, lines, info.rsplit("digest=", 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    out, lines, _ = result(bench(workload, trace=0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    # the readable report names every end-to-end metric of the issue, with a unit
    for name in ("calibrate_per_s", "calibrate_p50_ms", "calibrate_p90_ms", "peak_rss_mb",
                 "setup_s", "converged_frac", "rot_err_p50_deg", "trans_err_p50_mm",
                 "failed_frac"):
        assert any(line.split()[:1] == [name] and len(line.split()) == 3 for line in lines), name
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert {"nproc", "python", "numpy", "blas", "loadavg"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_and_digest_repeat(workload):
    # each run also fails unless its traced outputs match its untraced ones
    runs = [result(bench(workload, trace=1)) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out, _, _ in runs:
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    first, second = (out["metrics"] for out, _, _ in runs)
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    assert runs[0][2] == runs[1][2]
    # the traced pass wraps every layer the calibrate call goes through
    assert first["pipeline.ingest.calls"]["value"] > 0
    assert first["cli.main.calls"]["value"] == 2


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
