"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/sweep.py --workloads spatial-1024 mc-spatial-256 \
        --seeds 1 2 3 4 5 --seconds 35 [--trace 1] [--out summary.json]

Runs are sequential, one process at a time.  For every workload and
metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median ("spread"), which is what the benchmark's bounds are checked
against.  With ``--trace 1`` it also lists every count that differs
between runs (counts must repeat exactly for the same seed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import DETERMINISTIC  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=BENCH.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            details, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        environment = {k: v for k, v in details["environment"].items() if k not in ("workload", "seed")}
        names = runs[0]["metrics"]
        entry = {
            "environment": environment,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"], **spread(values),
                                      "values": values}
        if args.trace:
            entry["counts_differing_between_runs"] = sorted(
                name for name in names
                if name.rsplit(".", 1)[-1] in DETERMINISTIC
                and len({r["metrics"][name]["value"] for r in runs}) > 1
            )
        summary[workload] = entry
    text = json.dumps({"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
                       "workloads": summary}, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
