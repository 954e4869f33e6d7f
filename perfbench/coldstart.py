"""One cold set-up of a workload, timed from process start.

Run by ``run.py`` as ``coldstart.py <workload> <seed> <start>``, where
``<start>`` is CLOCK_MONOTONIC read by the parent just before it started
this process.  Imports psidemod, builds the workload's inputs, runs and
checks its first operation, and prints one JSON line with the times.
"""

import json
import os
import sys
import time
from pathlib import Path


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    name, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import workloads

    root = Path(__file__).resolve().parent.parent
    p = workloads.load_psidemod(root)
    imported = _now()
    workload = workloads.WORKLOADS[name](p, seed, root / "perfbench" / "results" / f"work-{os.getpid()}")
    try:
        built = _now()
        _, outcome = workloads.execute(workload, 0)
        done = _now()
    finally:
        workload.close()
    print(json.dumps({
        "setup_s": done - start,
        "import_s": imported - start,
        "inputs_s": built - imported,
        "first_op_s": done - built,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:3],
    }))


if __name__ == "__main__":
    main()
