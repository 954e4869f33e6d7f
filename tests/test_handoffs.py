"""Ownership at the array boundary.

Public constructors copy what they are given, so a caller's later writes
never reach the object, and refuse non-finite input.  Arrays the library
computes itself are handed over without a copy: each result is read-only
and shares no memory with the inputs it came from.  Every public entry takes
its numbers, counts and arrays through one gate in ``fields``, which refuses
what it cannot convert with ``ValueError``.
"""

import numpy as np
import pytest

import psidemod as p
from psidemod.errors import DegeneracyError
from psidemod.fields import _Owned


def test_caller_writes_after_construction_do_not_reach_the_object():
    phase = np.full((4, 5), 0.5)
    field = np.full((4, 5), 1.0 + 2.0j)
    frames = np.ones((3, 4, 5))
    objects = (p.PhaseMap(phase, wrapped=True), p.ComplexField(field),
               p.InterferogramStack(frames, np.pi / 2))
    phase[:] = 9.0
    field[:] = 0.0
    frames[:] = -1.0
    assert np.all(objects[0].values == 0.5)
    assert np.all(objects[1].values == 1.0 + 2.0j)
    assert np.all(objects[2].frames == 1.0)
    for obj, given in zip(objects, (phase, field, frames)):
        stored = obj.frames if isinstance(obj, p.InterferogramStack) else obj.values
        assert not stored.flags.writeable and not np.shares_memory(stored, given)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_constructors_refuse_non_finite_input(bad):
    phase = np.zeros((4, 4))
    phase[1, 2] = bad
    frames = np.zeros((3, 4, 4))
    frames[2, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        p.PhaseMap(phase)
    with pytest.raises(ValueError, match="non-finite"):
        p.ComplexField(phase.astype(complex))
    with pytest.raises(ValueError, match="non-finite"):
        p.InterferogramStack(frames, np.pi / 2)


def test_owned_arrays_keep_every_check():
    with pytest.raises(ValueError, match="2D"):
        p.PhaseMap(_Owned(np.zeros(4)))
    with pytest.raises(ValueError, match="outside"):
        p.PhaseMap(_Owned(np.full((4, 4), 3.5)), wrapped=True)
    with pytest.raises(DegeneracyError, match="non-finite"):
        p.ComplexField(_Owned(np.full((4, 4), np.inf, dtype=complex)))
    values = np.zeros((4, 4))
    owned = p.PhaseMap(_Owned(values))
    assert owned.values is values and not values.flags.writeable


def _assert_fresh(result, *inputs):
    stored = result.frames if isinstance(result, p.InterferogramStack) else result.values
    assert not stored.flags.writeable
    for given in inputs:
        assert not np.shares_memory(stored, given)


def test_library_results_are_read_only_and_share_no_memory(sh5):
    truth = p.synthesize_wavefront("defocus", 3.0, (64, 48))
    carrier = p.CarrierSpec(np.pi / 4, 0.2)
    stack = p.generate_stack(truth, 128.0, 100.0, sh5.nominal_step, 5, carrier=carrier,
                             errors=p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05]))
    _assert_fresh(stack, truth.values)
    temporal = p.demodulate_temporal(stack, sh5)
    _assert_fresh(temporal, stack.frames)
    centered = p.remove_carrier(temporal, carrier)
    _assert_fresh(centered, temporal.values)
    filtered = p.lowpass(centered, p.SpectralMask.for_carrier(carrier))
    _assert_fresh(filtered, centered.values)
    phase, _ = p.field_phase(filtered)
    _assert_fresh(phase, filtered.values)
    diff = p.wrapped_diff(phase, p.PhaseMap(p.wrap(truth.values), wrapped=True))
    _assert_fresh(diff, phase.values, truth.values)
    residual, _ = p.remove_piston_tilt(diff, crop=4)
    _assert_fresh(residual, diff.values)


# an int past the float range, which float() and numpy refuse with OverflowError
_BIG = 2**1100
_SH5 = p.sh5_spec()
_TRUTH = p.synthesize_wavefront("defocus", 1.0, (16, 16))
_MAP = p.PhaseMap(np.zeros((8, 8)))


def _montecarlo(**kwargs):
    return p.montecarlo_repeatability(_TRUTH, _SH5, **{"trials": 2, **kwargs})


def _is_int(value, expected):
    return type(value) is int and value == expected


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: p.CarrierSpec(_BIG), "past the float range", id="CarrierSpec"),
        pytest.param(lambda: p.SpectralMask(_BIG), "past the float range", id="SpectralMask"),
        pytest.param(lambda: p.PsaSpec([_BIG, 1, 1], 1.0), "past the float range", id="PsaSpec"),
        pytest.param(lambda: p.ErrorSchedule([_BIG, 0, 0]), "past the float range",
                     id="ErrorSchedule"),
        pytest.param(lambda: p.PhaseMap([[_BIG, 0], [0, 0]]), "past the float range",
                     id="PhaseMap"),
        pytest.param(lambda: p.InterferogramStack(np.zeros((3, 2, 2)), _BIG),
                     "past the float range", id="InterferogramStack-step"),
        pytest.param(lambda: p.taps_from_zeros([_BIG], 1.0), "past the float range",
                     id="taps_from_zeros"),
        pytest.param(lambda: p.wrap(_BIG), "past the float range", id="wrap"),
        pytest.param(lambda: p.ftf_eval(_SH5, _BIG), "past the float range", id="ftf_eval"),
        pytest.param(lambda: p.ConjugatePair(1.0, _BIG), "past the float range",
                     id="ConjugatePair"),
        pytest.param(lambda: p.conjugate_amplitudes(_SH5, p.ErrorSchedule(np.zeros(5)), _BIG),
                     "past the float range", id="conjugate_amplitudes"),
        pytest.param(lambda: p.synthesize_wavefront("defocus", _BIG, (8, 8)),
                     "past the float range", id="synthesize_wavefront-amplitude"),
        pytest.param(lambda: p.synthesize_wavefront("polynomial", 1.0, (8, 8),
                                                    coefficients=[[0.0, _BIG]]),
                     "past the float range", id="synthesize_wavefront-coefficients"),
        pytest.param(lambda: p.make_error_schedule("uniform", 5, magnitude=_BIG),
                     "past the float range", id="make_error_schedule-magnitude"),
        pytest.param(lambda: p.generate_stack(_TRUTH, _BIG, 100.0, np.pi / 2, 5),
                     "past the float range", id="generate_stack-background"),
        pytest.param(lambda: _montecarlo(error_magnitude=_BIG), "past the float range",
                     id="montecarlo-magnitude"),
        pytest.param(lambda: p.ftf_sweep(_SH5, np.inf), "must be finite", id="ftf_sweep-inf"),
        pytest.param(lambda: p.SpectralMask(0.3, np.inf), "must be finite",
                     id="SpectralMask-crop-inf"),
        pytest.param(lambda: p.pv_rms(_MAP, np.inf), "must be finite", id="pv_rms-inf"),
        pytest.param(lambda: _montecarlo(trials=np.inf), "must be finite", id="montecarlo-inf"),
        pytest.param(lambda: p.synthesize_wavefront("defocus", 1.0, (np.inf, 8)),
                     "must be finite", id="synthesize_wavefront-inf"),
        pytest.param(lambda: p.make_error_schedule("uniform", 5.9, magnitude=0.1, seed=1),
                     "schedule frame count must be a whole number, got 5.9",
                     id="make_error_schedule-5.9"),
        pytest.param(lambda: p.generate_stack(_TRUTH, 128.0, 100.0, np.pi / 2, 5.5),
                     "stack frame count must be a whole number, got 5.5",
                     id="generate_stack-5.5"),
        pytest.param(lambda: p.synthesize_wavefront("defocus", 1.0, (16.9, 16.2)),
                     "wavefront height must be a whole number, got 16.9",
                     id="synthesize_wavefront-16.9"),
        pytest.param(lambda: _montecarlo(trials=2.9), "trials must be a whole number, got 2.9",
                     id="montecarlo-2.9"),
        pytest.param(lambda: p.SpectralMask(0.3, 2.7),
                     "border crop must be a whole number, got 2.7", id="SpectralMask-2.7"),
        pytest.param(lambda: p.ftf_sweep(_SH5, 10.5),
                     "sweep sample count must be a whole number, got 10.5", id="ftf_sweep-10.5"),
        pytest.param(lambda: p.pv_rms(_MAP, 1.5), "crop must be a whole number, got 1.5",
                     id="pv_rms-1.5"),
        # an integral float is taken as its integer
        pytest.param(lambda: p.generate_stack(_TRUTH, 128.0, 100.0, np.pi / 2, 5.0).n_frames == 5,
                     None, id="generate_stack-5.0"),
        pytest.param(lambda: p.make_error_schedule("uniform", 5.0, 0.1, seed=1).n_frames == 5,
                     None, id="make_error_schedule-5.0"),
        pytest.param(lambda: p.synthesize_wavefront("defocus", 1.0, (16.0, 8.0)).shape == (16, 8),
                     None, id="synthesize_wavefront-16.0"),
        pytest.param(lambda: _is_int(p.SpectralMask(0.3, 2.0).border_crop, 2), None,
                     id="SpectralMask-2.0"),
        pytest.param(lambda: _is_int(p.remove_piston_tilt(_MAP, 2.0)[1].crop, 2), None,
                     id="remove_piston_tilt-2.0"),
        pytest.param(lambda: p.pv_rms(_MAP, 2.0) == p.pv_rms(_MAP, 2), None, id="pv_rms-2.0"),
        pytest.param(lambda: len(p.ftf_sweep(_SH5, 8.0)[0]) == 8, None, id="ftf_sweep-8.0"),
        pytest.param(lambda: _is_int(_montecarlo(trials=2.0).trials, 2), None,
                     id="montecarlo-2.0"),
    ],
)
def test_public_entries_take_only_what_they_can_convert(call, message):
    # a refusal is never OverflowError, which pytest.raises(ValueError) lets
    # through, and a count is never truncated to the integer below it
    if message is None:
        assert call()
    else:
        with pytest.raises(ValueError, match=message):
            call()
