"""Property tests for the phase-wrapping primitives: wrap, field_phase, wrapped_diff.

Each is checked against the reference definition (x + pi) % 2pi - pi on
finite float64 inputs, including the period boundaries, signed zeros,
multiples of 2pi, magnitudes up to 1e6, negative-real complex values and
read-only arrays.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import psidemod as p

TWO_PI = 2 * np.pi
SPECIALS = [np.pi, -np.pi, 0.0, -0.0, TWO_PI, -TWO_PI, 3 * np.pi, -3 * np.pi,
            np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, -4.0), 1e6, -1e6,
            TWO_PI * 159154.0, -TWO_PI * 12345.0]

reals = st.one_of(st.sampled_from(SPECIALS), st.floats(-1e6, 1e6, allow_nan=False))
in_range = st.one_of(st.sampled_from([-np.pi, 0.0, -0.0, np.nextafter(np.pi, 0.0)]),
                     st.floats(-np.pi, np.pi, allow_nan=False, exclude_max=True))
map_shapes = array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6)
# the values of [-pi, pi) whose v + pi rounds up to 2 pi, so that wrap's
# floor((v + pi) / 2 pi) counts one period too many and its fold takes it back
ROUNDS_UP = [v for v in np.nextafter(np.pi, 0.0) - np.spacing(np.pi) * np.arange(8)
             if v + np.pi == TWO_PI]


def reference_wrap(values):
    return (np.asarray(values, dtype=np.float64) + np.pi) % TWO_PI - np.pi


def assert_wrapped_like_reference(out, reference, scale):
    """out lies in [-pi, pi) and equals reference modulo 2pi within 1e-9 * (1 + scale)."""
    out = np.asarray(out)
    assert np.all(out >= -np.pi) and np.all(out < np.pi)
    gap = np.abs(out - reference)
    gap = np.minimum(gap, np.abs(gap - TWO_PI))
    assert np.all(gap <= 1e-9 * (1.0 + np.abs(scale)))


def read_only(values):
    values = np.array(values)
    values.setflags(write=False)
    return values


@settings(deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5), elements=reals))
def test_wrap_matches_reference(values):
    before = values.copy()
    out = p.wrap(values)
    assert isinstance(out, np.ndarray) and out.shape == values.shape
    assert_wrapped_like_reference(out, reference_wrap(before), before)
    assert np.array_equal(values, before) and np.array_equal(np.signbit(values), np.signbit(before))


@settings(deadline=None, max_examples=300)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=8),
              elements=st.one_of(in_range, st.sampled_from(ROUNDS_UP))))
@example(np.array([-np.pi, -0.0, 0.0, np.nextafter(-np.pi, 0.0), *ROUNDS_UP]))
def test_wrap_is_the_identity_on_its_range(values):
    # remove_piston_tilt skips the wrap of a residual already in [-pi, pi),
    # which keeps its bits only because wrap itself does, -0.0 included
    assert ROUNDS_UP
    out = p.wrap(values)
    assert np.array_equal(out.view(np.int64), values.view(np.int64))


@settings(deadline=None)
@given(arrays(np.float64, map_shapes, elements=reals))
def test_wrap_accepts_read_only_and_scalars(values):
    frozen = read_only(values)
    assert_wrapped_like_reference(p.wrap(frozen), reference_wrap(values), values)
    scalar = float(values.flat[0])
    out = p.wrap(scalar)
    assert isinstance(out, np.ndarray) and out.ndim == 0
    assert_wrapped_like_reference(out, reference_wrap(scalar), scalar)


@settings(deadline=None)
@given(st.data())
def test_field_phase_matches_reference(data):
    shape = data.draw(map_shapes)
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -1e6]),
                      st.floats(-1e6, 1e6, allow_nan=False))
    re = data.draw(arrays(np.float64, shape, elements=parts))
    im = data.draw(arrays(np.float64, shape, elements=parts))
    # force some negative-real pixels, on both sides of the branch cut
    re.flat[0], im.flat[0] = -2.0, 0.0
    im.flat[-1] = -0.0
    re.flat[-1] = -abs(re.flat[-1]) - 1.0
    values = read_only(re + 1j * im)
    values_before = values.copy()
    field = p.ComplexField(values)
    phase, valid = p.field_phase(field)

    angle = np.angle(values_before)
    assert_wrapped_like_reference(phase.values[valid], reference_wrap(angle)[valid], np.pi)
    assert np.all(phase.values[~valid] == 0.0)
    assert np.array_equal(field.values, values_before)
    assert np.array_equal(values, values_before)


@settings(deadline=None)
@given(st.data())
def test_wrapped_diff_matches_reference(data):
    shape = data.draw(map_shapes)
    first_wrapped, second_wrapped = data.draw(st.booleans()), data.draw(st.booleans())
    first = data.draw(arrays(np.float64, shape, elements=in_range if first_wrapped else reals))
    second = data.draw(arrays(np.float64, shape, elements=in_range if second_wrapped else reals))
    a = p.PhaseMap(read_only(first), wrapped=first_wrapped)
    b = p.PhaseMap(read_only(second), wrapped=second_wrapped)
    out = p.wrapped_diff(a, b)
    assert out.wrapped
    assert_wrapped_like_reference(out.values, reference_wrap(first - second),
                                  np.abs(first) + np.abs(second))
    assert np.array_equal(a.values, first) and np.array_equal(b.values, second)


def test_wrapped_diff_of_reimported_maps_with_float32_slack():
    # wrapped maps read back from .f32 files may sit up to ~1e-6 beyond pi
    top = np.float64(np.float32(np.pi))
    assert top > np.pi
    first = p.PhaseMap(np.array([[top, -np.pi], [top, 0.0]]), wrapped=True)
    second = p.PhaseMap(np.array([[-np.pi, top], [-top, -0.0]]), wrapped=True)
    out = p.wrapped_diff(first, second)
    assert_wrapped_like_reference(out.values, reference_wrap(first.values - second.values), 8.0)
