"""Self-test of the benchmark's output checks: injected faults count as failed.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

p = workloads.load_psidemod(BENCH.parent)


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class SpatialCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.Spatial1024(p, 7, None)

    def test_clean_op_passes(self):
        _, outcome = workloads.execute(self.workload, 0)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 0), outcome.problems)

    def test_perturbed_phase_map_fails(self):
        original = p.demodulate_spatial

        def perturbed(*args, **kwargs):
            phase, field, diagnostics = original(*args, **kwargs)
            # a 0.4 rad P-V ripple, far above the 0.01-wave bound
            ripple = 0.2 * np.sin(np.arange(phase.width) / 5.0)
            return p.PhaseMap(p.wrap(phase.values + ripple), wrapped=True), field, diagnostics

        with patched(p, "demodulate_spatial", perturbed):
            _, outcome = workloads.execute(self.workload, 1)
        self.assertEqual(outcome.failed, 1)
        self.assertGreater(outcome.pv_ratio[0], 1.0)

    def test_warning_raising_op_fails(self):
        original = p.remove_piston_tilt

        def warns(*args, **kwargs):
            with np.errstate(divide="warn"):
                np.log(np.zeros(1))
            return original(*args, **kwargs)

        with patched(p, "remove_piston_tilt", warns):
            _, outcome = workloads.execute(self.workload, 2)
        self.assertEqual(outcome.failed, 1)
        self.assertIn("RuntimeWarning", " ".join(outcome.problems))


class OtherChecksTest(unittest.TestCase):
    def test_raising_op_fails_every_unit(self):
        workload = workloads.McSpatial256(p, 7, None)
        with patched(p, "montecarlo_repeatability", lambda *a, **k: 1 / 0):
            _, outcome = workloads.execute(workload, 0)
        self.assertEqual((outcome.attempted, outcome.failed), (workloads.MC_TRIALS,) * 2)

    def test_montecarlo_counts_each_rejected_trial(self):
        workload = workloads.McSpatial256(p, 7, None)
        summary = SimpleNamespace(n_failed=1, failures=((3, "refused"),),
                                  pv_waves=(0.002,) * 8 + (0.05,))
        outcome = workloads.Outcome(attempted=workloads.MC_TRIALS)
        workload.check(0, summary, outcome)
        self.assertEqual(outcome.failed, 2)

    def test_cli_report_off_the_oracle_fails(self):
        workdir = BENCH / "results" / "selftest"
        workload = workloads.CliFig8_512(p, 7, workdir)
        original_op = workload.op

        def tampered(index):
            code = original_op(index)
            report = workload._out(index) / "report.json"
            data = json.loads(report.read_text())
            data["pv_waves"] += 2 * workloads.ORACLE_TOL
            report.write_text(json.dumps(data))
            return code

        try:
            _, clean = workloads.execute(workload, 0)
            workload.op = tampered
            _, outcome = workloads.execute(workload, 1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(clean.failed, 0, clean.problems)
        self.assertEqual(outcome.failed, 1)


if __name__ == "__main__":
    unittest.main()
