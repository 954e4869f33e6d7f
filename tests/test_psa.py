"""Algorithm specs, frequency transfer functions, and temporal demodulation."""

import warnings

import numpy as np
import pytest

import psidemod as p
from psidemod.errors import DegeneracyError, RefusalError


def test_sh5_taps_and_step(sh5):
    assert np.array_equal(sh5.coefficients, [1.0, 2.0, 2.0, 2.0, 1.0])
    assert sh5.nominal_step == np.pi / 2
    combined = sh5.combined_taps()
    assert np.allclose(combined, [1, -2j, -2, 2j, 1], atol=1e-12)
    assert abs(combined.sum()) < 1e-12
    assert sh5.coefficients.sum() == 8.0
    assert sh5.rejects_background


def test_ftf_zeros_and_passband(sh5):
    assert abs(p.ftf_eval(sh5, 0.0)) < 1e-12
    assert abs(p.ftf_eval(sh5, np.pi)) < 1e-12
    assert abs(p.ftf_eval(sh5, np.pi / 2)) < 1e-12
    assert p.ftf_eval(sh5, -np.pi / 2) == pytest.approx(8.0, abs=1e-12)


def test_ftf_double_zero_flatness(sh5):
    gain = abs(p.ftf_eval(sh5, -np.pi / 2))
    for delta in (0.01, 0.05, 0.1):
        for sign in (1.0, -1.0):
            assert abs(p.ftf_eval(sh5, np.pi / 2 + sign * delta)) < 2 * delta**2 * gain


def test_ftf_eval_vectorized(sh5):
    omegas = np.array([0.0, np.pi / 2, -np.pi / 2])
    values = p.ftf_eval(sh5, omegas)
    assert values.shape == (3,)
    for omega, value in zip(omegas, values):
        assert abs(value - p.ftf_eval(sh5, float(omega))) < 1e-12


def test_ftf_sweep_grid(sh5):
    omegas, values = p.ftf_sweep(sh5)
    assert omegas.size == values.size == 1024
    assert omegas[0] == -np.pi
    # the default grid hits the three zeros and the passband exactly
    for target in (0.0, np.pi / 2, -np.pi / 2):
        index = int(np.argmin(np.abs(omegas - target)))
        assert omegas[index] == target
    assert abs(values[int(np.argmax(omegas == 0.0))]) < 1e-12
    assert abs(values[int(np.argmax(omegas == np.pi / 2))]) < 1e-12


def test_taps_from_zeros_reconstructs_sh5(sh5):
    spec = p.taps_from_zeros([0.0, np.pi / 2, np.pi / 2, np.pi], np.pi / 2)
    assert not np.iscomplexobj(spec.coefficients)
    scaled = spec.coefficients / spec.coefficients[0]
    assert np.allclose(scaled, sh5.coefficients, atol=1e-12)


def test_taps_from_zeros_single_zero():
    spec = p.taps_from_zeros([0.0], 1.0)
    assert spec.n_steps == 2
    assert spec.background_leak < 1e-12
    assert spec.rejects_background
    # generic nominal step needs complex base coefficients
    assert np.iscomplexobj(spec.coefficients)


def test_taps_from_zeros_pair():
    spec = p.taps_from_zeros([0.0, np.pi], np.pi / 2)
    assert spec.n_steps == 3
    assert abs(p.ftf_eval(spec, 0.0)) < 1e-12
    assert abs(p.ftf_eval(spec, np.pi)) < 1e-12


def test_taps_from_zeros_random_property():
    rng = np.random.default_rng(20240811)
    for _ in range(20):
        count = int(rng.integers(1, 7))
        step = float(rng.uniform(0.3, np.pi - 0.3))
        zeros = rng.uniform(-np.pi, np.pi, count)
        # keep the passband clear per the documented precondition
        zeros = zeros[np.abs(p.wrap(zeros + step)) > 1e-3]
        if zeros.size == 0:
            continue
        spec = p.taps_from_zeros(zeros, step)
        for z in zeros:
            assert abs(p.ftf_eval(spec, float(z))) < 1e-12


def test_taps_from_zeros_passband_refused():
    with pytest.raises(RefusalError, match="passband"):
        p.taps_from_zeros([-np.pi / 2], np.pi / 2)


def test_psa_spec_validation():
    with pytest.raises(ValueError):
        p.PsaSpec(np.array([1.0]), np.pi / 2)
    with pytest.raises(ValueError):
        p.PsaSpec(np.zeros(5), np.pi / 2)
    with pytest.raises(ValueError):
        p.PsaSpec(np.array([1.0, np.inf]), np.pi / 2)
    # negligible imaginary parts collapse to real storage
    spec = p.PsaSpec(np.array([1.0 + 1e-16j, 2.0, 1.0]), np.pi / 2)
    assert not np.iscomplexobj(spec.coefficients)


def test_demodulate_flat_gives_four(sh5):
    truth = p.synthesize_wavefront("flat", 0.0, (8, 8))
    stack = p.generate_stack(truth, 2.0, 1.0, np.pi / 2, 5)
    field = p.demodulate_temporal(stack, sh5)
    assert np.allclose(field.values, 4.0 + 0.0j, atol=1e-12)


def test_demodulate_exact_quadrature(sh5, defocus_truth):
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    field = p.demodulate_temporal(stack, sh5)
    error = p.wrap(np.angle(field.values) - defocus_truth.values)
    assert np.abs(error).max() < 1e-10


def test_demodulate_linearity(sh5, defocus_truth, bandlimited_truth):
    stack_a = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    stack_b = p.generate_stack(bandlimited_truth, 130.0, 90.0, np.pi / 2, 5)
    mixed = p.InterferogramStack(1.5 * stack_a.frames - 0.25 * stack_b.frames, np.pi / 2)
    field_a = p.demodulate_temporal(stack_a, sh5)
    field_b = p.demodulate_temporal(stack_b, sh5)
    field_mixed = p.demodulate_temporal(mixed, sh5)
    expected = 1.5 * field_a.values - 0.25 * field_b.values
    assert np.abs(field_mixed.values - expected).max() < 1e-9


def test_demodulate_mismatch_refusals(sh5, defocus_truth):
    four = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 4)
    with pytest.raises(RefusalError, match="frames"):
        p.demodulate_temporal(four, sh5)
    detuned = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 3, 5)
    with pytest.raises(RefusalError, match="step"):
        p.demodulate_temporal(detuned, sh5)


def test_tangent_form_equivalence(sh5, defocus_truth):
    schedule = p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05])
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
    field = p.demodulate_temporal(stack, sh5)
    n = np.arange(5)
    cos_sum = np.tensordot(sh5.coefficients * np.cos(n * np.pi / 2), stack.frames, axes=1)
    sin_sum = np.tensordot(sh5.coefficients * np.sin(n * np.pi / 2), stack.frames, axes=1)
    tangent_phase = np.arctan2(-sin_sum, cos_sum)
    difference = p.wrap(np.angle(field.values) - tangent_phase)
    modulus = np.abs(field.values)
    healthy = modulus > 1e-6 * modulus.max()
    assert np.abs(difference[healthy]).max() < 1e-12


def test_background_insensitivity(sh5, defocus_truth):
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    raised = p.InterferogramStack(stack.frames + 50.0, np.pi / 2)
    field = p.demodulate_temporal(stack, sh5)
    field_raised = p.demodulate_temporal(raised, sh5)
    budget = 1e-9 * 50.0 * np.abs(sh5.coefficients).sum()
    assert np.abs(field_raised.values - field.values).max() < budget


def test_phase_scale_invariance(sh5, defocus_truth):
    schedule = p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05])
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
    scaled = p.PsaSpec(sh5.coefficients * 3.7, np.pi / 2)
    phase_a = np.angle(p.demodulate_temporal(stack, sh5).values)
    phase_b = np.angle(p.demodulate_temporal(stack, scaled).values)
    assert np.abs(p.wrap(phase_a - phase_b)).max() < 1e-12


def test_field_phase_validity_mask():
    values = np.full((4, 4), 2.0 + 0.0j)
    values[1, 2] = 0.0
    phase, valid = p.field_phase(p.ComplexField(values))
    assert not valid[1, 2]
    assert phase.values[1, 2] == 0.0
    assert valid.sum() == 15
    assert np.allclose(phase.values[valid], 0.0, atol=1e-15)


def test_demodulate_temporal_matches_complex_contraction(defocus_truth):
    # zero-placed taps at a generic step are complex
    spec = p.taps_from_zeros([0.0, 0.3, np.pi / 2], np.pi / 3)
    assert np.iscomplexobj(spec.coefficients)
    schedule = p.ErrorSchedule([0.0, 0.1, -0.15, 0.2])
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 3, 4, errors=schedule)
    expected = np.tensordot(spec.combined_taps(), stack.frames.astype(complex), axes=1)
    got = p.demodulate_temporal(stack, spec).values
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_overflowing_contraction_is_degenerate_without_a_warning(sh5):
    # finite frames whose tap sums leave float64: sh5 adds 1e308 four times
    frames = np.full((5, 8, 8), 1e308)
    frames[2] *= -1.0
    stack = p.InterferogramStack(frames, np.pi / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match="overflowed to non-finite"):
            p.demodulate_temporal(stack, sh5)
