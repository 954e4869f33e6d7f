"""Run the standard CLI command set and print one sha256 per output file.

Usage, from the repository root:

    python3 tools/output_digest.py                 # this checkout's src/
    python3 tools/output_digest.py --src OTHER/src  # another checkout

Each command runs as ``python -W error -m psidemod.cli`` in a fresh
temporary directory with relative paths, so the digests do not depend on
where the directory lives, and a stray numpy warning fails the command.  Two runs of one checkout must print identical lists
(replay determinism); diffing the lists of two checkouts shows which output
files a change altered:

    diff <(python3 tools/output_digest.py --src PARENT/src) <(python3 tools/output_digest.py)

Exits 1 when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the fig9 spatial demod shrunk to 128x128, with the line cut moved inside the grid
FIG9_128 = ["demod", "--preset", "fig9", "--width", "128", "--height", "128",
            "--line-cut-row", "64"]

# (output directory, CLI arguments); later commands may read earlier outputs
COMMANDS = (
    ("simulate-fig1", ["simulate", "--preset", "fig1"]),
    # the read side: a stack loaded from disk, its f32 frames included
    ("demod-from-file", ["demod", "--stack", "simulate-fig1/stack.json",
                         "--line-cut-row", "256", "--export-spectrum"]),
    ("demod-fig8", ["demod", "--preset", "fig8"]),
    ("demod-fig9", ["demod", "--preset", "fig9"]),
    ("demod-spatial-128", [*FIG9_128, "--compare-truth"]),
    ("demod-estimate-128", [*FIG9_128, "--demod-carrier", "estimate"]),
    ("demod-no-filter-128", [*FIG9_128, "--no-filter"]),
    # odd, non-square grid with an oblique carrier: both signs of kx and ky in the disc
    ("demod-oblique-127x96", ["demod", "--method", "spatial", "--width", "127",
                              "--height", "96", "--carrier", "0.5,-0.9", "--compare-truth",
                              "--line-cut-row", "40"]),
    # 30,000 pixels cross a contraction block, and 200 columns are three inverse
    # column blocks plus a remainder; the export transforms the full grid
    ("demod-blocks-200x150", ["demod", "--method", "spatial", "--width", "200",
                              "--height", "150", "--carrier", "pi/4", "--compare-truth",
                              "--export-spectrum", "--line-cut-row", "75"]),
    ("compare-tilt", ["compare", "--phase1", "demod-spatial-128/phase.json",
                      "--phase2", "demod-spatial-128/truth.json",
                      "--crop", "8", "--pgm", "--gain", "4"]),
    ("compare-no-tilt", ["compare", "--phase1", "demod-spatial-128/phase.json",
                         "--phase2", "demod-spatial-128/truth.json", "--no-tilt"]),
    ("montecarlo-spatial", ["montecarlo", "--method", "spatial", "--width", "64",
                            "--height", "64", "--carrier", "0.8,0.3", "--cutoff", "0.35",
                            "--border-crop", "6", "--trials", "20", "--seed", "3"]),
    # temporal: the reference includes the carrier; noise goes through the rotation too
    ("montecarlo-temporal-noise", ["montecarlo", "--method", "temporal", "--width", "64",
                                   "--height", "48", "--carrier", "0.8,0.3",
                                   "--noise-sigma", "0.5", "--trials", "12", "--seed", "5"]),
    # spatial noise keeps the rotation: odd, non-square grid, oblique carrier
    ("montecarlo-spatial-noise-65x48", ["montecarlo", "--method", "spatial", "--width", "65",
                                        "--height", "48", "--carrier", "0.8,-0.5",
                                        "--cutoff", "0.35", "--border-crop", "6",
                                        "--noise-sigma", "0.5", "--trials", "8", "--seed", "7"]),
    # gaussian schedules: every other run draws uniform ones
    ("montecarlo-spatial-gaussian-48x40", ["montecarlo", "--method", "spatial", "--width", "48",
                                           "--height", "40", "--carrier", "0.8,0.3",
                                           "--cutoff", "0.35", "--border-crop", "4",
                                           "--errors", "gaussian:0.2", "--trials", "10",
                                           "--seed", "11"]),
    # the benchmark's size, where each call's reused trial buffers cross the
    # allocator's thresholds: mc-spatial-256's configuration, and temporal at crop 0
    ("montecarlo-spatial-256", ["montecarlo", "--method", "spatial", "--width", "256",
                                "--height", "256", "--carrier", "pi/4", "--cutoff", "pi/8",
                                "--border-crop", "16", "--trials", "20", "--seed", "13"]),
    ("montecarlo-temporal-256", ["montecarlo", "--method", "temporal", "--width", "256",
                                 "--height", "256", "--crop", "0", "--trials", "20",
                                 "--seed", "17"]),
    ("ftf-fig2", ["ftf", "--preset", "fig2"]),
)


def digests(src: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        for out, args in COMMANDS:
            command = [sys.executable, "-W", "error", "-m", "psidemod.cli", *args, "--out", out]
            run = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"output_digest: '{' '.join(args)}' exited {run.returncode}: "
                         f"{run.stderr.strip()}")
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(tmp).as_posix()}"
                for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory whose psidemod runs (default: this checkout's)")
    args = parser.parse_args(argv)
    print("\n".join(digests(args.src.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
