"""psidemod benchmark: one workload, one process, metrics as JSON on stdout.

Usage, from the repository root:

    python3 perfbench/run.py --workload spatial-1024 --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
(see ``spans.py``).  The last stdout line is the result object; the line
before it holds the details (environment, sample counts, percentiles).  A
full record, with every span of a traced run, is written under
``perfbench/results/``.  psidemod is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# cap BLAS/OpenMP threads at nproc before numpy is imported here or in a child
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
# An idle OpenBLAS worker busy-waits about 2**28 cycles for its next call.
# With one BLAS call per op it spins through most of the op and holds a
# second CPU, so any other runnable task preempts the caller (runqueue waits
# of 60 ms on 150 ms CLI ops on a 2-vCPU VM).  2**4 cycles lets it sleep.
os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _lscpu_llc():
    """The largest cache level lscpu reports, e.g. '300 MiB (1 instance)'."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    caches = [line.split(":", 1) for line in text.splitlines() if line.startswith("L") and "cache" in line]
    return caches[-1][1].strip() if caches else None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
                              cwd=ROOT, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads():
    """Threads the loaded OpenBLAS reports through its own API, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": _blas_threads(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "openblas_thread_timeout": os.environ["OPENBLAS_THREAD_TIMEOUT"],
        "nproc": NPROC,
        "llc": _lscpu_llc(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it: (percentile, value)."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return 100, ordered[-1]
    return math.floor(100 * rank / len(ordered)), ordered[rank - 1]


def mpix_per_s(pixels_per_op, latencies):
    """Input megapixels per second of op time."""
    return pixels_per_op * len(latencies) / sum(latencies) / 1e6


def setup_probe(workload, seed, k):
    """Time a fresh process from start to the end of its first (checked) op."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "coldstart.py"), workload, str(seed), repr(start)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe {k} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pv_waves = []
        self.pv_ratio = []
        self.problems = []

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.pv_waves.extend(outcome.pv_waves)
        self.pv_ratio.extend(outcome.pv_ratio)
        self.problems.extend(outcome.problems[:3])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "psidemod" / "__init__.py").is_file():
        _fail(f"psidemod sources not found under {ROOT / 'src'}")

    p = workloads.load_psidemod(ROOT)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](p, args.seed, workdir)
    tally = Tally()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    try:
        _, first = workloads.execute(workload, 0)
        tally.add(first)
        latencies = {False: [], True: []}
        probes = []
        probes_wanted = 0 if args.trace else SETUP_PROBES
        index = 1
        start = time.perf_counter()
        paused = 0.0
        while True:
            timed = time.perf_counter() - start - paused
            # a traced run needs at least one traced and one untraced op
            if (timed >= args.seconds and len(probes) == probes_wanted and latencies[False]
                    and (tracer is None or latencies[True])):
                break
            if len(probes) < probes_wanted and timed >= len(probes) * args.seconds / probes_wanted:
                # Set-up probes are spread over the timed phase, so that they
                # meet the same host load as the ops.  The probe, and one
                # checked op after it that re-warms the caches, are left out
                # of the timed phase and of the latencies.
                pause = time.perf_counter()
                probes.append(setup_probe(args.workload, args.seed, len(probes)))
                _, outcome = workloads.execute(workload, index)
                tally.add(outcome)
                index += 1
                paused += time.perf_counter() - pause
                continue
            traced = tracer is not None and index % 2 == 0
            elapsed, outcome = workloads.execute(workload, index, tracer if traced else None)
            latencies[traced].append(elapsed)
            tally.add(outcome)
            index += 1
    finally:
        workload.close()

    env = environment(args.workload, args.seed)
    untraced = latencies[False]
    details = {
        "environment": env,
        "ops_timed": len(untraced) + len(latencies[True]),
        "units_per_op": workload.units,
        "pixels_per_op": workload.pixels,
        "residual_pv_waves_median": statistics.median(tally.pv_waves) if tally.pv_waves else None,
        "problems": tally.problems[:10],
    }
    for probe in probes:
        tally.attempted += probe["attempted"]
        tally.failed += probe["failed"]
    details["failed_frac"] = tally.failed / tally.attempted
    if args.trace:
        summary, varying = spans.summarize(tracer.records)
        summary["trace.overhead_frac"] = 1.0 - (mpix_per_s(workload.pixels, latencies[True])
                                                / mpix_per_s(workload.pixels, untraced))
        units = dict(spans.layer_metric_names())
        metrics = {name: {"value": value, "unit": units[name]} for name, value in summary.items()}
        details["traced_ops"] = len(tracer.records)
        details["counts_varying_between_ops"] = varying
        details["layers"] = {layer.name: {"moves": layer.moves, "workloads": layer.workloads}
                             for layer in spans.LAYERS}
    else:
        percentile, tail = tail_percentile(untraced)
        setups = [probe["setup_s"] for probe in probes]
        ok = (tally.attempted - tally.failed) / tally.attempted
        metrics = {
            "latency_p50_s": (statistics.median(untraced), "s"),
            "latency_tail_s": (tail, "s"),
            "mpix_per_s": (mpix_per_s(workload.pixels, untraced), "Mpx/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            # with no finite P-V at all, report the worst representable ratio
            "residual_pv_ratio": (statistics.median(tally.pv_ratio) if tally.pv_ratio
                                  else sys.float_info.max, "ratio"),
            "ok_frac": (ok, "ratio"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        details["latency_samples"] = len(untraced)
        details["latency_tail_percentile"] = percentile
        details["setup_probes"] = probes

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"details": details, "result": result,
              "latencies_s": {"untraced": untraced, "traced": latencies[True]}}
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record))
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
