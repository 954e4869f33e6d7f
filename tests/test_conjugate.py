"""Conjugate amplitudes, predicted artifact maps, and leak measurement."""

import cmath

import numpy as np
import pytest

import psidemod as p
from psidemod.errors import DegeneracyError, RefusalError

from conftest import FIXED_SCHEDULE, make_ramp


def test_ideal_schedule_gives_pure_signal(sh5):
    pair = p.conjugate_amplitudes(sh5, p.ErrorSchedule(np.zeros(5)), 1.0)
    assert pair.a1 == pytest.approx(4.0, abs=1e-12)
    assert abs(pair.a2) < 1e-12
    assert pair.well_posed


def test_fixed_schedule_against_independent_sum(sh5):
    schedule = p.ErrorSchedule(FIXED_SCHEDULE)
    pair = p.conjugate_amplitudes(sh5, schedule, 1.0)
    # independent scalar-arithmetic oracle for the two sums
    a1 = sum(
        c * cmath.exp(1j * e) for c, e in zip([1, 2, 2, 2, 1], FIXED_SCHEDULE)
    ) / 2
    a2 = sum(
        c * cmath.exp(-1j * (2 * n * np.pi / 2 + e))
        for n, (c, e) in enumerate(zip([1, 2, 2, 2, 1], FIXED_SCHEDULE))
    ) / 2
    assert pair.a1 == pytest.approx(a1, abs=1e-13)
    assert pair.a2 == pytest.approx(a2, abs=1e-13)
    assert abs(pair.a2) > 0


def test_amplitudes_scale_linearly_in_contrast(sh5):
    schedule = p.ErrorSchedule(FIXED_SCHEDULE)
    unit = p.conjugate_amplitudes(sh5, schedule, 1.0)
    scaled = p.conjugate_amplitudes(sh5, schedule, 100.0)
    assert scaled.a1 == pytest.approx(100.0 * unit.a1, rel=1e-14)
    assert scaled.a2 == pytest.approx(100.0 * unit.a2, rel=1e-14)
    assert scaled.leak_ratio == pytest.approx(unit.leak_ratio, rel=1e-13)


def test_a2_vanishes_when_ftf_zeroes_conjugate():
    # any spec whose FTF vanishes at +w0 has A2 = (b/2) H(+w0) = 0 for ideal steps
    spec = p.taps_from_zeros([0.0, np.pi / 2], np.pi / 2)
    pair = p.conjugate_amplitudes(spec, p.ErrorSchedule(np.zeros(spec.n_steps)), 1.0)
    assert abs(pair.a2) < 1e-12
    assert pair.a2 == pytest.approx(0.5 * p.ftf_eval(spec, np.pi / 2), abs=1e-13)


def test_schedule_length_mismatch_refused(sh5):
    with pytest.raises(RefusalError):
        p.conjugate_amplitudes(sh5, p.ErrorSchedule([0.0, 0.1, 0.2]), 1.0)


def test_zero_contrast_refused(sh5):
    with pytest.raises(ValueError, match="contrast must be finite and > 0, got 0.0"):
        p.conjugate_amplitudes(sh5, p.ErrorSchedule(np.zeros(5)), contrast=0.0)


def test_degenerate_pair_refuses_error_map():
    pair = p.ConjugatePair(0.0, 1.0)
    assert not pair.well_posed
    assert pair.leak_ratio == np.inf
    assert np.isnan(pair.relative_phase)
    truth = make_ramp(64)
    with pytest.raises(RefusalError):
        p.predicted_error_map(truth, pair)


@pytest.mark.parametrize("a1, a2", [(1.0, np.nan), (1.0, np.inf), (np.inf, 0.1), (1e-300, 1e300)])
def test_non_finite_pair_refuses_error_map_as_such(a1, a2):
    pair = p.ConjugatePair(a1, a2)
    assert not pair.well_posed
    with pytest.raises(RefusalError, match=r"leak ratio r = \S+: the error map needs A1 nonzero"):
        p.predicted_error_map(make_ramp(16), pair)


@pytest.mark.filterwarnings("error")
def test_overflowing_amplitudes_are_not_well_posed_without_a_warning(sh5):
    schedule = p.make_error_schedule("uniform", 5, 0.3, seed=1)
    pair = p.conjugate_amplitudes(sh5, schedule, 0.9e308)
    assert not pair.well_posed


@pytest.mark.parametrize(
    "a1, a2, ratio",
    [(1.5e308 + 1.5e308j, 0.0, 0.0), (1.0, 1.5e308 + 1.5e308j, np.inf)],
    ids=["a1", "a2"],
)
def test_finite_pair_whose_modulus_overflows_refuses(a1, a2, ratio):
    # Python's abs() of these finite components raises OverflowError
    pair = p.ConjugatePair(a1, a2)
    assert pair.leak_ratio == ratio
    assert not pair.well_posed
    with pytest.raises(RefusalError, match="the error map needs A1 nonzero and both finite"):
        p.predicted_error_map(make_ramp(16), pair)


def test_error_map_zero_without_conjugate():
    truth = make_ramp(256)
    error = p.predicted_error_map(truth, p.ConjugatePair(1.0, 0.0))
    assert np.abs(error.values).max() < 1e-12


def test_error_map_extreme_is_arcsin_r():
    truth = make_ramp(8192)
    error = p.predicted_error_map(truth, p.ConjugatePair(1.0, 0.1))
    assert abs(np.abs(error.values).max() - np.arcsin(0.1)) < 1e-6
    # bound holds for stronger leaks too
    for r in (0.3, 0.7, 0.97):
        emap = p.predicted_error_map(truth, p.ConjugatePair(1.0, r))
        assert np.abs(emap.values).max() <= np.arcsin(r) + 1e-12


def test_error_map_has_period_pi_in_phase():
    truth = make_ramp(1024, span=2 * np.pi)
    shifted = p.PhaseMap(truth.values + np.pi)
    pair = p.ConjugatePair(1.0, 0.1 * cmath.exp(0.7j))
    first = p.predicted_error_map(truth, pair)
    second = p.predicted_error_map(shifted, pair)
    assert np.abs(p.wrap(first.values - second.values)).max() < 1e-12


def test_error_map_rejects_dominant_conjugate():
    truth = make_ramp(128)
    with pytest.raises(RefusalError, match="r ="):
        p.predicted_error_map(truth, p.ConjugatePair(1.0, 1.0))


def test_error_map_double_frequency_signature():
    width, cycles = 1024, 8
    row = 2 * np.pi * cycles * np.arange(width) / width
    truth = p.PhaseMap(np.tile(row, (2, 1)))
    error = p.predicted_error_map(truth, p.ConjugatePair(1.0, 0.2))
    spectrum = np.abs(np.fft.rfft(error.values[0]))
    dominant = int(np.argmax(spectrum[1:])) + 1
    assert dominant == 2 * cycles


def test_measure_leak_exact_model():
    truth = make_ramp(512, height=4)
    phi = truth.values
    field = p.ComplexField(np.exp(1j * phi) + 0.1 * np.exp(-1j * phi))
    estimate = p.measure_leak(field, truth)
    assert abs(estimate.leak_ratio - 0.1) < 1e-10
    pure = p.ComplexField(np.exp(1j * phi))
    assert p.measure_leak(pure, truth).leak_ratio < 1e-12


def test_measure_leak_matches_prediction_end_to_end(sh5, defocus_truth):
    schedule = p.ErrorSchedule(FIXED_SCHEDULE)
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
    field = p.demodulate_temporal(stack, sh5)
    pair = p.conjugate_amplitudes(sh5, schedule, 100.0)
    estimate = p.measure_leak(field, defocus_truth)
    assert abs(estimate.leak_ratio - pair.leak_ratio) < 1e-9
    assert estimate.a1 == pytest.approx(pair.a1, rel=1e-9)
    assert p.wrap(estimate.relative_phase - pair.relative_phase) == pytest.approx(0.0, abs=1e-9)


def test_measure_leak_identity_over_random_schedules(sh5, defocus_truth):
    rng = np.random.default_rng(5)
    for _ in range(5):
        schedule = p.ErrorSchedule(rng.uniform(-0.3, 0.3, 5))
        stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
        field = p.demodulate_temporal(stack, sh5)
        pair = p.conjugate_amplitudes(sh5, schedule, 100.0)
        model = pair.a1 * np.exp(1j * defocus_truth.values) + pair.a2 * np.exp(
            -1j * defocus_truth.values
        )
        assert np.abs(field.values - model).max() < 1e-10 * abs(pair.a1)


def test_measure_leak_refuses_flat_truth():
    field = p.ComplexField(np.full((32, 32), 1.0 + 0.0j))
    flat = p.PhaseMap(np.zeros((32, 32)))
    with pytest.raises(DegeneracyError, match="collinear"):
        p.measure_leak(field, flat)
    narrow = p.PhaseMap(np.linspace(0, 1e-4, 1024).reshape(32, 32))
    with pytest.raises(DegeneracyError):
        p.measure_leak(field, narrow)


def test_measure_leak_shape_mismatch():
    field = p.ComplexField(np.ones((8, 8), dtype=complex))
    truth = make_ramp(16)
    with pytest.raises(ValueError):
        p.measure_leak(field, truth)
