"""Field types, wavefront synthesis, error schedules, and stack generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod.errors import DegeneracyError, RefusalError
from psidemod.fields import _max_slope_along


def test_wrap_range_and_periodicity():
    values = np.linspace(-20.0, 20.0, 4001)
    wrapped = p.wrap(values)
    assert wrapped.min() >= -np.pi
    assert wrapped.max() < np.pi
    assert np.allclose(p.wrap(values + 2 * np.pi), wrapped, atol=1e-12)
    # the boundary lands on -pi, never +pi
    assert p.wrap(np.pi) == -np.pi
    assert p.wrap(-np.pi) == -np.pi


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(2.0**20, 1e300), st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=8),
       st.lists(st.floats(-2.0**20, 2.0**20, exclude_min=True, exclude_max=True), max_size=8))
def test_wrap_brings_large_values_into_range(draws, small):
    # the two values first seen outside [-pi, pi), and one the old arithmetic
    # put at 0.0, come along in every draw
    large = np.array([2.342e21, 1.686e19, 5e16] + [sign * magnitude for magnitude, sign in draws])
    values = np.concatenate([large, small])
    wrapped = p.wrap(values)
    assert np.all((wrapped >= -np.pi) & (wrapped < np.pi))
    # from 2**20 on, the value congruent mod 2 pi: the angle of e^{ix}
    gap = np.abs(wrapped[:large.size] - np.arctan2(np.sin(large), np.cos(large)))
    assert np.all(np.minimum(gap, 2 * np.pi - gap) <= 1e-12), gap
    # below it, one rounded multiple of 2 pi and one fold, bit for bit
    product = values - np.floor((values + np.pi) / (2 * np.pi)) * (2 * np.pi)
    product[product < -np.pi] += 2 * np.pi
    product[product >= np.pi] -= 2 * np.pi
    assert np.array_equal(wrapped[large.size:].view(np.int64), product[large.size:].view(np.int64))


def test_phase_map_validation():
    with pytest.raises(ValueError):
        p.PhaseMap(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        p.PhaseMap(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        p.PhaseMap(np.full((4, 4), 3.5), wrapped=True)
    pm = p.PhaseMap(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        pm.values[0, 0] = 1.0


def test_complex_field_validation():
    with pytest.raises(ValueError):
        p.ComplexField(np.full((4, 4), np.inf, dtype=complex))
    field = p.ComplexField(np.ones((3, 5), dtype=complex))
    assert field.width == 5 and field.height == 3


def test_error_schedule_validation():
    with pytest.raises(ValueError):
        p.ErrorSchedule([])
    with pytest.raises(ValueError):
        p.ErrorSchedule([0.0, np.nan])
    sched = p.ErrorSchedule([0.0, 0.1, -0.1])
    assert sched.n_frames == 3


def test_carrier_spec_validation():
    with pytest.raises(ValueError):
        p.CarrierSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        p.CarrierSpec(np.pi, 0.0)
    with pytest.raises(ValueError):
        p.CarrierSpec(np.nan)
    carrier = p.CarrierSpec(np.pi / 4, np.pi / 8)
    assert carrier.magnitude == pytest.approx(np.hypot(np.pi / 4, np.pi / 8))
    field = carrier.phase_field((3, 4))
    x, y = 2, 1
    assert field[y, x] == pytest.approx(np.pi / 4 * x + np.pi / 8 * y, abs=1e-15)


def test_synthesize_flat_is_zero():
    pm = p.synthesize_wavefront("flat", 0.0, (64, 64))
    assert pm.shape == (64, 64)
    assert not pm.values.any()


def test_synthesize_flat_rejects_amplitude():
    with pytest.raises(ValueError):
        p.synthesize_wavefront("flat", 1.0, (64, 64))


def test_synthesize_defocus_pv_exact():
    pm = p.synthesize_wavefront("defocus", 3.0, (512, 512))
    assert abs((pm.values.max() - pm.values.min()) - 3.0) < 1e-9


def test_synthesize_defocus_slope_under_quarter_pi():
    pm = p.synthesize_wavefront("defocus", 3.0, (512, 512))
    gy, gx = np.gradient(pm.values)
    assert np.abs(gx).max() < np.pi / 4
    assert np.abs(gy).max() < np.pi / 4


def test_synthesize_tilt_linear():
    pm = p.synthesize_wavefront("tilt", 2.0, (8, 16))
    assert abs((pm.values.max() - pm.values.min()) - 2.0) < 1e-12
    # constant along y, linear along x
    assert np.allclose(pm.values, pm.values[0][None, :], atol=1e-15)
    steps = np.diff(pm.values[0])
    assert np.allclose(steps, steps[0], atol=1e-12)


def test_synthesize_astigmatism_and_polynomial():
    astig = p.synthesize_wavefront("astigmatism", 1.5, (128, 96))
    assert abs((astig.values.max() - astig.values.min()) - 1.5) < 1e-9
    poly = p.synthesize_wavefront("polynomial", 2.0, (64, 64), coefficients=[[0, 0], [0, 1]])
    assert abs((poly.values.max() - poly.values.min()) - 2.0) < 1e-9
    raw = p.synthesize_wavefront("polynomial", None, (64, 64), coefficients=[[1.0]])
    assert np.allclose(raw.values, 1.0)


def test_synthesize_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown wavefront kind 'vortex'"):
        p.synthesize_wavefront("vortex", 1.0, (64, 64))
    with pytest.raises(ValueError):
        p.synthesize_wavefront("defocus", np.inf, (64, 64))
    with pytest.raises(ValueError, match="polynomial wavefront requires a coefficient table"):
        p.synthesize_wavefront("polynomial", 1.0, (64, 64))
    with pytest.raises(ValueError, match="at least 2x2, got 1x5"):
        p.synthesize_wavefront("defocus", 1.0, (1, 5))
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        p.synthesize_wavefront("polynomial", 1.0, (8, 8), coefficients=[[0.0, np.nan]])


def test_constant_profile_scales_only_to_zero():
    # the four pixels of a 2x2 grid lie at one distance from its centre
    with pytest.raises(ValueError, match="defocus profile is constant on this grid"):
        p.synthesize_wavefront("defocus", 1.0, (2, 2))
    flat = p.synthesize_wavefront("defocus", 0.0, (2, 2))
    assert np.array_equal(flat.values, np.zeros((2, 2)))


def test_error_schedule_zero_kind():
    sched = p.make_error_schedule("zero", 5)
    assert np.array_equal(sched.deviations, np.zeros(5))


def test_error_schedule_quadratic_pzt_values():
    sched = p.make_error_schedule("quadratic-pzt", 5, magnitude=0.02, nominal_step=np.pi / 2)
    expected = 0.02 * (np.arange(5) * np.pi / 2) ** 2
    assert np.allclose(sched.deviations, expected, atol=1e-15)
    frozen = [0.0, 0.04934802200544679, 0.19739208802178716, 0.4441321980490211, 0.7895683520871486]
    assert np.allclose(sched.deviations, frozen, atol=1e-12)


def test_error_schedule_uniform_deterministic_and_bounded():
    first = p.make_error_schedule("uniform", 5, magnitude=0.3, seed=7)
    second = p.make_error_schedule("uniform", 5, magnitude=0.3, seed=7)
    assert np.array_equal(first.deviations, second.deviations)
    assert np.abs(first.deviations).max() <= 0.3
    other = p.make_error_schedule("uniform", 5, magnitude=0.3, seed=8)
    assert not np.array_equal(first.deviations, other.deviations)


def test_error_schedule_gaussian_seeded():
    first = p.make_error_schedule("gaussian", 7, magnitude=0.1, seed=3)
    second = p.make_error_schedule("gaussian", 7, magnitude=0.1, seed=3)
    assert np.array_equal(first.deviations, second.deviations)


def test_error_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        p.make_error_schedule("zero", 2)
    with pytest.raises(ValueError):
        p.make_error_schedule("sinusoidal", 5)
    with pytest.raises(ValueError):
        p.make_error_schedule("quadratic-pzt", 5, magnitude=0.02)
    with pytest.raises(ValueError, match="schedule magnitude must be finite"):
        p.make_error_schedule("uniform", 5, magnitude=np.inf)


def test_generate_stack_flat_constants():
    truth = p.synthesize_wavefront("flat", 0.0, (4, 4))
    stack = p.generate_stack(truth, 2.0, 1.0, np.pi / 2, 4)
    for frame, expected in zip(stack.frames, (3.0, 2.0, 1.0, 2.0)):
        assert np.allclose(frame, expected, atol=1e-12)


def test_generate_stack_matches_closed_form():
    truth = p.synthesize_wavefront("defocus", 3.0, (64, 64))
    schedule = p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05])
    carrier = p.CarrierSpec(np.pi / 4)
    stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule, carrier=carrier)
    x = np.arange(64, dtype=float)[None, :]
    for n in range(5):
        expected = 128.0 + 100.0 * np.cos(
            truth.values + np.pi / 4 * x + n * np.pi / 2 + schedule.deviations[n]
        )
        assert np.abs(stack.frames[n] - expected).max() < 1e-12


def test_generate_stack_frame_bounds(defocus_truth):
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    assert stack.frames.min() >= 28.0
    assert stack.frames.max() <= 228.0


def test_generate_stack_carrier_additivity(bandlimited_truth):
    carrier = p.CarrierSpec(np.pi / 4)
    with_carrier = p.generate_stack(bandlimited_truth, 128.0, 100.0, np.pi / 2, 5, carrier=carrier)
    shifted = p.PhaseMap(bandlimited_truth.values + carrier.phase_field(bandlimited_truth.shape))
    without = p.generate_stack(shifted, 128.0, 100.0, np.pi / 2, 5)
    assert np.array_equal(with_carrier.frames, without.frames)


def test_generate_stack_noise_determinism(defocus_truth):
    first = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, noise_sigma=1.0, seed=11)
    second = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, noise_sigma=1.0, seed=11)
    assert np.array_equal(first.frames, second.frames)
    third = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, noise_sigma=1.0, seed=12)
    assert not np.array_equal(first.frames, third.frames)


def test_generate_stack_schedule_mismatch(defocus_truth):
    schedule = p.ErrorSchedule([0.0, 0.1, 0.2])
    with pytest.raises(RefusalError):
        p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)


def test_generate_stack_carrier_slope_guard():
    steep = p.synthesize_wavefront("tilt", 100.0, (64, 64))
    with pytest.raises(RefusalError, match="slope"):
        p.generate_stack(steep, 128.0, 100.0, np.pi / 2, 5, carrier=p.CarrierSpec(0.5))


# neighbours 3.4e308 apart: rows alternate, or rows and columns both do
_ROWS = np.array([[1.7e308] * 4, [-1.7e308] * 4] * 2)
_CHECKERBOARD = _ROWS * np.array([1.0, -1.0, 1.0, -1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values, carrier",
    [(_ROWS, (0.3, 0.4)), (_CHECKERBOARD, (0.4, 0.0)), (_CHECKERBOARD, (0.0, 0.4))],
    ids=["rows-oblique", "checkerboard-x", "checkerboard-y"],
)
def test_non_finite_slope_refused_without_a_warning(sh5, values, carrier):
    truth = p.PhaseMap(values)
    carrier = p.CarrierSpec(*carrier)
    with pytest.raises(RefusalError,
                       match="slope along the carrier direction is (inf|nan)") as refused:
        p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, carrier=carrier)
    with pytest.raises(RefusalError) as montecarlo:
        p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=carrier,
                                   mask=p.SpectralMask(0.1, border_crop=0), trials=2)
    assert str(montecarlo.value) == str(refused.value)


@pytest.mark.filterwarnings("error")
def test_overflowing_frames_are_degenerate_without_a_warning():
    truth = p.synthesize_wavefront("defocus", 3.0, (16, 16))
    with pytest.raises(DegeneracyError, match=r"stack frames of shape \(5, 16, 16\) computed "
                                              "from finite input overflowed"):
        p.generate_stack(truth, 0.9e308, 0.9e308, np.pi / 2, 5)


_COMPONENT = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(
    height=st.integers(2, 40),
    width=st.integers(2, 40),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    carrier=st.tuples(_COMPONENT, _COMPONENT).filter(lambda c: 0.0 < np.hypot(*c) < np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_slope_equals_the_two_axis_formula(height, width, scale, carrier, seed):
    # axis-aligned carriers, either sign and a signed zero, differentiate one axis only
    truth = p.PhaseMap(scale * np.random.default_rng(seed).standard_normal((height, width)))
    spec = p.CarrierSpec(*carrier)
    gy, gx = np.gradient(truth.values)
    expected = float(np.abs((gx * spec.u0 + gy * spec.v0) / spec.magnitude).max())
    assert _max_slope_along(truth, spec) == expected


def test_generate_stack_intensity_validation(defocus_truth):
    with pytest.raises(ValueError):
        p.generate_stack(defocus_truth, 128.0, 0.0, np.pi / 2, 5)
    with pytest.raises(ValueError):
        p.generate_stack(defocus_truth, 50.0, 100.0, np.pi / 2, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
def test_generate_stack_refuses_a_bad_nominal_step_before_synthesis(step):
    # refused before synthesis: a non-finite step must not reach the trig of
    # the frames, where it warns and overflows
    truth = p.synthesize_wavefront("defocus", 1.0, (16, 16))
    with pytest.raises(ValueError, match="nominal step must be finite and nonzero"):
        p.generate_stack(truth, 128.0, 100.0, step, 5)


def test_stack_validation(defocus_truth):
    with pytest.raises(ValueError):
        p.InterferogramStack(np.zeros((2, 8, 8)), np.pi / 2)
    with pytest.raises(ValueError):
        p.InterferogramStack(np.full((4, 8, 8), np.nan), np.pi / 2)
    with pytest.raises(ValueError):
        p.InterferogramStack(np.zeros((4, 8, 8)), 0.0)
