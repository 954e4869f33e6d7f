"""Algorithm specs, frequency transfer functions, and temporal demodulation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod import psa
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [np.nan, np.inf])
def test_taps_from_zeros_refuses_a_bad_nominal_step(step):
    # refused before the zeros are placed, where the step would warn or
    # leave non-finite taps
    with pytest.raises(ValueError, match=f"nominal step must be finite, got {step!r}"):
        p.taps_from_zeros([np.pi / 2], step)


def test_sweep_takes_two_samples():
    omegas, values = p.ftf_sweep(p.sh5_spec(), 2)
    assert np.array_equal(omegas, [-np.pi, 0.0])
    assert values.shape == (2,)


def test_zero_at_exactly_the_passband_tolerance_is_accepted():
    # wrap(5e-10 + 5e-10) is exactly the 1e-9 tolerance, which is not inside it
    spec = p.taps_from_zeros([5e-10], 5e-10)
    assert spec.n_steps == 2


@pytest.mark.parametrize("offset, refused", [(0.97e-9, True), (1.03e-9, False)])
def test_zero_near_the_passband_refuses_within_the_tolerance(offset, refused):
    # with step 0.5 the passband sits at omega = -0.5
    if refused:
        with pytest.raises(RefusalError, match="passband"):
            p.taps_from_zeros([-0.5 + offset], 0.5)
    else:
        assert p.taps_from_zeros([-0.5 + offset], 0.5).n_steps == 2


@pytest.mark.parametrize(
    "step, offset, refused",
    [
        # at pi/2 the relative tolerance rules: 1e-12 * pi/2 = 1.5708e-12
        (np.pi / 2, 1.52e-12, False),
        (np.pi / 2, 1.62e-12, True),
        # at 0.5 the absolute one does: 1e-12
        (0.5, 0.97e-12, False),
        (0.5, 1.03e-12, True),
    ],
)
def test_nominal_step_match_tolerance(step, offset, refused):
    spec = p.PsaSpec(np.array([1.0, 2.0, 2.0, 2.0, 1.0]), step)
    stack = p.InterferogramStack(np.ones((5, 8, 8)), step + offset)
    assert abs(stack.nominal_step - step - offset) < 1e-15
    if refused:
        with pytest.raises(RefusalError, match="does not match"):
            p.demodulate_temporal(stack, spec)
    else:
        assert p.demodulate_temporal(stack, spec).shape == (8, 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: p.ftf_sweep(p.sh5_spec(), 1), "sweep sample count must be at least 2, got 1"),
        (lambda: p.taps_from_zeros([], np.pi / 2),
         r"zero locations must be 1D with shape at least \(1,\), got shape \(0,\)"),
        (lambda: p.taps_from_zeros([0.0, np.inf], np.pi / 2),
         r"zero locations of shape \(2,\) contains non-finite values"),
    ],
    ids=["one-sample-sweep", "no-zeros", "non-finite-zero"],
)
def test_sweep_and_zero_design_refuse_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def _whole_matmul(frames, taps):
    """The contraction as one real matmul over every pixel."""
    return np.matmul(frames.reshape(frames.shape[0], -1).T,
                     np.stack([taps.real, taps.imag], axis=1))


def _as_bits(values):
    return values.view(np.float64).reshape(-1, 2).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(
    n_frames=st.integers(3, 13),
    height=st.integers(2, 24),
    width=st.integers(2, 24),
    block=st.sampled_from([1, 3, 7]),
    complex_taps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_contraction_is_bit_identical_to_one_matmul(n_frames, height, width, block,
                                                            complex_taps, seed):
    rng = np.random.default_rng(seed)
    frames = rng.normal(100.0, 50.0, size=(n_frames, height, width))
    taps = rng.normal(size=n_frames) + (1j * rng.normal(size=n_frames) if complex_taps else 0j)
    with pytest.MonkeyPatch.context() as patch:
        # small blocks cross many block edges and leave a remainder
        patch.setattr(psa, "_CONTRACT_BLOCK", block)
        got = psa._contract(frames, taps)
    assert np.array_equal(_as_bits(got), _whole_matmul(frames, taps).view(np.int64))


@pytest.mark.parametrize("complex_taps", [False, True])
def test_contraction_over_more_than_one_block_is_bit_identical_to_one_matmul(complex_taps):
    # 130 x 130 = 16,900 pixels: one full block of the real size and a remainder
    assert 130 * 130 > psa._CONTRACT_BLOCK
    rng = np.random.default_rng(24)
    frames = rng.normal(100.0, 50.0, size=(5, 130, 130))
    taps = p.sh5_spec().combined_taps() if complex_taps else rng.normal(size=5) + 0j
    got = psa._contract(frames, taps)
    assert np.array_equal(_as_bits(got), _whole_matmul(frames, taps).view(np.int64))
