"""Ownership at the array boundary.

Public constructors copy what they are given, so a caller's later writes
never reach the object, and refuse non-finite input.  Arrays the library
computes itself are handed over without a copy: each result is read-only
and shares no memory with the inputs it came from.
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
