"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced through ``run.py --tiny`` and
checks the reporting contract, then feeds a perturbed estimate to a
workload check to show that it is counted as a failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    text, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        value = result["metrics"][name]["value"]
        assert value > 0 and math.isfinite(value)
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in text)
    assert any(line.startswith("failed_frac = 0 ratio") for line in text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(workload):
    _, result = bench(workload, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        tracing.layer_metric_units()
    assert result["failed"] == 0
    modules = sum(metrics[f"{mod}.self_s"] for mod in tracing.MODULES)
    assert modules > 0
    assert modules + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0
    assert all(metrics[f"{mod}.errors"] == 0 for mod in tracing.MODULES)


def test_perturbed_estimate_counts_as_failed(tmp_path):
    import worker
    import workloads

    _, jobs = workloads.setup_dense(3, tmp_path, tiny=True)
    job = jobs[0]
    good = job.run()
    bad = dict(good, choi=good["choi"] + 1e-6 * np.eye(len(good["choi"])))
    broken = dict(good)
    del broken["out"]
    cases = [workloads.Job(name, lambda res=res: res, job.check, job.digest)
             for name, res in (("good", good), ("perturbed", bad),
                               ("broken", broken))]
    raising = workloads.Job("raising", lambda: 1 / 0, job.check, job.digest)
    out = worker.run_jobs(cases + [raising])
    assert [f["job"] for f in out["failures"]] == ["perturbed", "broken", "raising"]
    assert any("reconstruct_choi" in why for why in out["failures"][0]["why"])
    assert len(out["latencies"]) == 4
