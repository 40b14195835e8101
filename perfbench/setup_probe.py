"""Set-up probe: a fresh process imports wnl and builds one workload's phases.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints "ready" once the workload is constructed (its phases built and
validated), which is where its first pass would start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), None)
print("ready", flush=True)
