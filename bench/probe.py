"""Set-up probe: a fresh interpreter imports preplay and preplay.cli, then
serves the workload's first request.

Usage: python3 bench/probe.py <workload> <seed>   (from the repository root,
with src on PYTHONPATH).  Prints one JSON line: the monotonic time at which
the request finished, and the failure found by checking it (null when none).
"""

import json
import sys
import time
from pathlib import Path

import preplay  # noqa: F401  (the import is part of what set-up measures)
import preplay.cli  # noqa: F401
import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name](Path.cwd())
    try:
        req = workload.setup_request(seed)
        out = workload.execute_inline(req)
        ready_ns = time.perf_counter_ns()
        failure = workload.check(req, out).failure
    finally:
        workload.close()
    print(json.dumps({"ready_ns": ready_ns, "failure": failure}))
