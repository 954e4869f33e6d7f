"""Benchmark workloads: seeded inputs, one operation each, and its output check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked.  Inputs come only from
the workload seed; the library sees the generated inputs, never the seed
itself.  Operations call psidemod through module attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the paper's acceptance bound on a filtered residual, waves
PV_LIMIT = 0.01
# allowed gap between the CLI's temporal ripple and 2*arcsin(r), waves
ORACLE_TOL = 1e-4
MC_TRIALS = 20


def load_psidemod(root: Path):
    """Import psidemod from ``root/src``, refusing any other installed copy."""
    src = (root / "src").resolve()
    if not (src / "psidemod" / "__init__.py").is_file():
        raise RuntimeError(f"no psidemod sources under {src}")
    sys.path.insert(0, str(src))
    import psidemod

    if Path(psidemod.__file__).resolve().parent != src / "psidemod":
        raise RuntimeError(f"imported psidemod from {psidemod.__file__}, not from {src}")
    return psidemod


def derive_seed(seed: int, index: int) -> int:
    """Per-operation seed, a pure function of the workload seed and op index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """Check result of one operation; MC counts each trial as one unit."""

    attempted: int
    failed: int = 0
    pv_waves: list = field(default_factory=list)
    pv_ratio: list = field(default_factory=list)  # residual P-V over its reference
    problems: list = field(default_factory=list)


def _spatial_setup(p, size):
    truth = p.synthesize_wavefront("defocus", 3.0, (size, size))
    carrier = p.CarrierSpec(math.pi / 4, 0.0)
    mask = p.SpectralMask(math.pi / 8)
    return truth, carrier, mask


class Spatial1024:
    name = "spatial-1024"
    why = ("demodulate_spatial + compare on one 5x1024^2 stack: large-array latency in "
           "carrier, psa and metrics, with synthesis kept off the timed path")

    def __init__(self, p, seed, workdir):
        self.p = p
        self.truth, self.carrier, self.mask = _spatial_setup(p, 1024)
        schedule = p.make_error_schedule("uniform", 5, 0.3, nominal_step=math.pi / 2, seed=seed)
        self.stack = p.generate_stack(self.truth, 128.0, 100.0, math.pi / 2, 5,
                                      errors=schedule, carrier=self.carrier)
        self.spec = p.sh5_spec()
        self.reference = p.PhaseMap(p.wrap(self.truth.values), wrapped=True)
        self.pixels = self.stack.frames.size
        self.units = 1

    def op(self, index):
        p = self.p
        phase, _, _ = p.demodulate_spatial(self.stack, self.spec, carrier=self.carrier, mask=self.mask)
        _, report = p.remove_piston_tilt(p.wrapped_diff(phase, self.reference),
                                         crop=self.mask.border_crop)
        return phase, report

    def check(self, index, result, outcome):
        phase, report = result
        if not np.all(np.isfinite(phase.values)):
            outcome.problems.append("non-finite phase")
        _check_pv(report.pv, outcome)

    def close(self):
        pass


class McSpatial256:
    name = "mc-spatial-256"
    why = ("montecarlo_repeatability, spatial, 20 trials of 5x256^2 per call: many cache-resident "
           "arrays where per-call overhead (synthesis, wrap, copies) dominates")

    def __init__(self, p, seed, workdir):
        self.p = p
        self.seed = seed
        self.truth, self.carrier, self.mask = _spatial_setup(p, 256)
        self.spec = p.sh5_spec()
        self.pixels = MC_TRIALS * 5 * self.truth.values.size
        self.units = MC_TRIALS

    def op(self, index):
        return self.p.montecarlo_repeatability(
            self.truth, self.spec, method="spatial", carrier=self.carrier, mask=self.mask,
            error_kind="uniform", error_magnitude=0.3, trials=MC_TRIALS,
            seed=derive_seed(self.seed, index),
        )

    def check(self, index, summary, outcome):
        outcome.failed = summary.n_failed
        outcome.problems.extend(f"trial {i}: {reason}" for i, reason in summary.failures)
        for pv in summary.pv_waves:
            _check_pv(pv, outcome, count=True)

    def close(self):
        pass


class CliFig8_512:
    name = "cli-fig8-512"
    why = ("in-process CLI demod --preset fig8 (temporal, 5x512^2): the only workload through cli "
           "and formats; never enters carrier.py, so carrier or mask changes predict no change")

    def __init__(self, p, seed, workdir):
        import psidemod.cli

        self.p = p
        self.cli = psidemod.cli
        self.seed = seed
        self.workdir = workdir
        self.spec = p.sh5_spec()
        self.pixels = 5 * 512 * 512
        self.units = 1

    def _out(self, index):
        return self.workdir / f"op{index}"

    def op(self, index):
        argv = ["demod", "--preset", "fig8", "--errors", "uniform:0.3",
                "--error-seed", str(derive_seed(self.seed, index)), "--out", str(self._out(index))]
        return self.cli.main(argv)

    def check(self, index, code, outcome):
        out = self._out(index)
        try:
            if code != 0:
                outcome.problems.append(f"exit code {code}")
                return
            pv = json.loads((out / "report.json").read_text())["pv_waves"]
            phase = np.fromfile(out / "phase.f32", dtype="<f4")
            if phase.size != 512 * 512 or not np.all(np.isfinite(phase)):
                outcome.problems.append("phase.f32 has the wrong size or non-finite values")
            schedule = self.p.make_error_schedule("uniform", 5, 0.3, nominal_step=math.pi / 2,
                                                  seed=derive_seed(self.seed, index))
            r = self.p.conjugate_amplitudes(self.spec, schedule, 100.0).leak_ratio
            oracle = 2.0 * math.asin(r) / (2.0 * math.pi)
            if math.isfinite(pv):
                outcome.pv_waves.append(pv)
                outcome.pv_ratio.append(pv / oracle)
            if not (math.isfinite(pv) and abs(pv - oracle) <= ORACLE_TOL):
                outcome.problems.append(f"P-V {pv!r} waves vs oracle {oracle:.6f}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_pv(pv, outcome, count=False):
    """A residual P-V passes when finite and below the acceptance bound."""
    if math.isfinite(pv):
        outcome.pv_waves.append(pv)
        outcome.pv_ratio.append(pv / PV_LIMIT)
        if pv < PV_LIMIT:
            return
    outcome.problems.append(f"residual P-V {pv!r} waves")
    if count:
        outcome.failed += 1


WORKLOADS = {w.name: w for w in (Spatial1024, McSpatial256, CliFig8_512)}


def execute(workload, index, tracer=None):
    """Run one operation, time it, and check its output.

    Returns (seconds, Outcome).  An exception or any warning fails every
    unit of the operation; so does a non-finite value or a failed check,
    except that a Monte-Carlo check fails only the trials it rejects.
    """
    outcome = Outcome(attempted=workload.units)
    whole = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(index)
            else:
                with tracer.op(index):
                    result = workload.op(index)
        except Exception:
            elapsed = time.perf_counter() - start
            whole.append(traceback.format_exc(limit=3))
        else:
            elapsed = time.perf_counter() - start
            workload.check(index, result, outcome)
    whole.extend(f"{w.category.__name__}: {w.message}" for w in caught)
    outcome.problems.extend(whole)
    if whole or (outcome.problems and outcome.failed == 0):
        outcome.failed = outcome.attempted
    return elapsed, outcome
