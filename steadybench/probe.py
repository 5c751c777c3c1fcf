"""Fresh-process set-up probe for an in-process workload.

``python3 steadybench/probe.py WORKLOAD`` imports the toolchain, builds
the workload's runner, warms its cache, prints ``ready`` and exits; the
caller times it from launch to that line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from steadybench.loops import IN_PROCESS  # noqa: E402

if __name__ == "__main__":
    IN_PROCESS[sys.argv[1]](0).setup()
    print("ready", flush=True)
