"""Trace one CLI fig9 run and one Monte-Carlo call and print their layer counts.

Run from the repository root:

    python3 perfbench/observe.py [--out observations.json]

These are the counts behind known costs of the current code, recorded as
observations rather than checked: how often the CLI spatial path runs the
temporal demodulation and the FFTs, and how many validating constructor
copies each Monte-Carlo trial makes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    p = workloads.load_psidemod(BENCH.parent)
    import psidemod.cli

    tracer = spans.Tracer()
    out = BENCH / "results" / "observe-fig9"
    try:
        with tracer.op(0) as fig9:
            code = psidemod.cli.main(["demod", "--preset", "fig9", "--out", str(out)])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    mc = workloads.McSpatial256(p, 0, None)
    with tracer.op(1) as call:
        summary = mc.op(0)

    trials = summary.trials
    observations = {
        "cli_demod_fig9": {"exit_code": code, "calls": fig9.calls},
        "montecarlo_spatial_256": {
            "trials": trials,
            "calls": call.calls,
            "validate_calls_per_trial": call.calls["fields.validate"] / trials,
            "validate_bytes_per_trial": call.bytes["fields.validate"] / trials,
        },
    }
    text = json.dumps(observations, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
