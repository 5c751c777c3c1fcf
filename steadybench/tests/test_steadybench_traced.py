"""A short traced compile_cold run: the plan layer's counts survive the
per-job plan-cache clears, and every layer call falls inside a job."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import argparse, json, sys
sys.path[:0] = [{root!r}, {bench!r}, {src!r}]
import run
from steadybench.calib import Calibrator
from steadybench.spans import layer_totals, partition_error

args = argparse.Namespace(workload="compile_cold", seed=3, seconds=0.4,
                          trace=1)
out = run.run_workload(args, Calibrator(), None)
traced = out["phases"][1]
totals = layer_totals(out["spans"])
print(json.dumps({{
    "jobs": traced.meter.jobs, "plan": out["plan"],
    "missing": out["missing_targets"],
    "partition": partition_error(out["spans"]),
    "calls": {{name: t["calls"] for name, t in totals.items()}},
}}))
"""


def test_traced_compile_cold_counts_plan_misses_per_job():
    code = SCRIPT.format(root=str(ROOT), bench=str(ROOT / "steadybench"),
                         src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    jobs = found["jobs"]
    assert jobs >= 1
    _hits, misses = found["plan"]
    # every job is a new program on an emptied plan layer
    assert misses / jobs >= 1
    assert found["missing"] == []
    roots, stray, worst = found["partition"]
    assert (roots, stray) == (jobs, 0)
    assert worst < 1e-6
    for layer in ("compose", "codegen", "plan", "execute"):
        assert found["calls"].get(layer, 0) >= jobs, layer
