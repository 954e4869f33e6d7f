"""The public surface: exported names, call signatures and dataclass fields.

A parameter or field added to or removed from the library shows up here as a
test diff, so every new setting is a reviewed decision.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import psidemod as p

from conftest import FIXED_SCHEDULE

SIGNATURES = {
    "conjugate_amplitudes": ["spec", "errors", "contrast"],
    "demodulate_spatial": ["stack", "spec", "carrier", "mask", "apply_filter"],
    "demodulate_temporal": ["stack", "spec"],
    "estimate_carrier": ["field"],
    "field_phase": ["field"],
    "ftf_eval": ["spec", "omega"],
    "ftf_sweep": ["spec", "samples"],
    "generate_stack": [
        "truth", "background", "contrast", "nominal_step", "n_frames",
        "errors", "carrier", "noise_sigma", "seed",
    ],
    "lowpass": ["field", "mask"],
    "make_error_schedule": ["kind", "n_frames", "magnitude", "nominal_step", "seed"],
    "measure_leak": ["field", "truth"],
    "montecarlo_repeatability": [
        "truth", "spec", "method", "carrier", "mask", "error_kind", "error_magnitude",
        "trials", "seed", "background", "contrast", "noise_sigma", "crop",
    ],
    "predicted_error_map": ["truth", "pair"],
    "pv_rms": ["phase_map", "crop"],
    "remove_carrier": ["field", "carrier"],
    "remove_piston_tilt": ["diff", "crop", "tilt"],
    "sh5_spec": [],
    "synthesize_wavefront": ["kind", "amplitude", "shape", "coefficients"],
    "taps_from_zeros": ["zeros", "nominal_step"],
    "wrap": ["values"],
    "wrapped_diff": ["first", "second"],
}

FIELDS = {
    "CarrierSpec": ["u0", "v0"],
    "ComplexField": ["values"],
    "ConjugatePair": ["a1", "a2"],
    "ErrorSchedule": ["deviations"],
    "InterferogramStack": ["frames", "nominal_step", "metadata"],
    "MonteCarloSummary": [
        "method", "trials", "seed", "error_kind", "error_magnitude",
        "pv_waves", "leak_ratios", "failures", "percentiles",
    ],
    "PhaseDiffReport": ["pv", "rms", "piston_removed", "tilt_removed", "crop"],
    "PhaseMap": ["values", "wrapped"],
    "PsaSpec": ["coefficients", "nominal_step"],
    "SpatialDiagnostics": [
        "carrier", "carrier_source", "mask", "filter_applied",
        "signal_bandwidth", "out_of_band_energy", "invalid_pixels",
    ],
    "SpectralMask": ["cutoff", "border_crop"],
    "StackMetadata": ["background", "contrast", "carrier", "errors", "noise_sigma", "seed"],
}

ERRORS = ["DegeneracyError", "RefusalError"]


def test_exported_names():
    assert sorted(p.__all__) == sorted([*SIGNATURES, *FIELDS, *ERRORS])


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_function_parameters(name):
    assert list(inspect.signature(getattr(p, name)).parameters) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields(name):
    assert [f.name for f in dataclasses.fields(getattr(p, name))] == FIELDS[name]


def test_measured_pair_predicts_the_closed_form_error_map(sh5):
    truth = p.synthesize_wavefront("defocus", 3.0, (128, 128))
    schedule = p.ErrorSchedule(FIXED_SCHEDULE)
    stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
    measured = p.measure_leak(p.demodulate_temporal(stack, sh5), truth)
    closed_form = p.conjugate_amplitudes(sh5, schedule, 100.0)
    from_measured = p.predicted_error_map(truth, measured)
    from_closed_form = p.predicted_error_map(truth, closed_form)
    assert np.abs(p.wrap(from_measured.values - from_closed_form.values)).max() < 1e-9
