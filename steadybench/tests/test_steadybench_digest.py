"""The simulated-statistics digest depends only on the code: not on the
seed, the run length, or whether the layer wrappers are installed."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, sys
sys.path[:0] = [{root!r}, {src!r}]
from steadybench import checks, loops, workloads
from steadybench.calib import Calibrator
from steadybench.spans import SpanRecorder, install

def prefix_digest(seed, extra, traced):
    workload = loops.CompileCold(seed)
    workload.setup()
    prefix = workloads.PREFIX_JOBS["compile_cold"]
    recorder = SpanRecorder() if traced else None
    uninstall = install(recorder)[0] if traced else None
    try:
        phase = loops.run_in_process(
            workload, 0.0, Calibrator(), recorder=recorder,
            min_jobs=prefix + extra)
    finally:
        if uninstall is not None:
            uninstall()
    return checks.digest(phase.pairs[:prefix])

print(json.dumps([prefix_digest(1, 0, False), prefix_digest(1, 6, False),
                  prefix_digest(2, 0, True)]))
"""


def test_digest_ignores_seed_run_length_and_tracing():
    code = SCRIPT.format(root=str(ROOT), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(set(digests)) == 1
    golden = json.loads((ROOT / "steadybench" / "golden.json").read_text())
    assert digests[0] == golden["compile_cold"]
