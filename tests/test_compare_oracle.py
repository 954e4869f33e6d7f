"""The one-pass ``remove_piston_tilt`` against the two-pass reference it replaced.

``reference_remove_piston_tilt`` is the earlier implementation, kept verbatim
as the oracle: two circular means (two sin/cos passes over the interior),
three wraps and full-size tilt products.  The one-pass version sums in
another order, so results may differ in the last digits.  The bound is
1e-12, widened only where the circular mean itself is ill-conditioned (see
``assert_matches_reference``), and refusals must be the same exception with
the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod.errors import RefusalError
from psidemod.metrics import _WRAP_SPAN_LIMIT, PhaseDiffReport, _interior

TWO_PI = 2 * np.pi
TOL = 1e-12


def _circular_mean(values):
    return float(np.arctan2(np.sin(values).sum(), np.cos(values).sum()))


def reference_remove_piston_tilt(diff, crop=0, tilt=True):
    rows, cols = _interior(diff.shape, crop)
    piston1 = _circular_mean(diff.values[rows, cols])
    leveled = p.wrap(diff.values - piston1)

    interior = leveled[rows, cols]
    span = float(interior.max() - interior.min())
    if span >= _WRAP_SPAN_LIMIT:
        raise RefusalError(
            f"piston-removed difference spans {span:.4f} rad, within rounding of a full "
            "cycle: the difference still wraps, so piston/tilt removal is ill-defined"
        )

    alpha = beta = 0.0
    if tilt:
        height, width = diff.shape
        x = np.arange(width, dtype=np.float64) - np.mean(np.arange(width)[cols])
        y = np.arange(height, dtype=np.float64) - np.mean(np.arange(height)[rows])
        x_in = x[cols]
        y_in = y[rows]
        alpha = float(np.sum(interior * x_in[None, :]) / (np.sum(x_in**2) * interior.shape[0]))
        beta = float(np.sum(interior * y_in[:, None]) / (np.sum(y_in**2) * interior.shape[1]))
        leveled = leveled - alpha * x[None, :] - beta * y[:, None]

    piston2 = _circular_mean(leveled[rows, cols])
    residual = p.wrap(leveled - piston2)
    piston = float(p.wrap(piston1 + piston2))

    res_in = residual[rows, cols]
    report = PhaseDiffReport(
        pv=float((res_in.max() - res_in.min()) / TWO_PI),
        rms=float(res_in.std() / TWO_PI),
        piston_removed=piston,
        tilt_removed=(alpha, beta),
        crop=int(crop),
    )
    return p.PhaseMap(residual, wrapped=True), report


def _circular_gap(a, b):
    """Largest |a - b| modulo 2 pi."""
    return float(np.abs(p.wrap(np.asarray(a) - np.asarray(b))).max())


def _outcome(function, diff, crop, tilt):
    try:
        return function(diff, crop=crop, tilt=tilt), None
    except ValueError as exc:  # RefusalError included
        return None, (type(exc), str(exc))


def assert_matches_reference(diff, crop, tilt):
    expected, expected_error = _outcome(reference_remove_piston_tilt, diff, crop, tilt)
    got, error = _outcome(p.remove_piston_tilt, diff, crop, tilt)
    assert error == expected_error
    if expected_error is not None:
        return expected_error
    (residual, report), (ref_residual, ref_report) = got, expected
    rows, cols = _interior(diff.shape, crop)
    ref_in, res_in = ref_residual.values[rows, cols], residual.values[rows, cols]
    # a circular mean over n pixels whose unit phasors sum to R carries a
    # rounding error of order eps * n / R in either implementation; R is
    # near n unless the map still wraps under the span limit
    resultant = min(abs(np.exp(1j * v).sum()) for v in (diff.values[rows, cols], ref_in))
    tol = TOL * max(1.0, ref_in.size / resultant)
    assert residual.wrapped and residual.shape == ref_residual.shape
    assert np.all(residual.values >= -np.pi) and np.all(residual.values < np.pi)
    assert _circular_gap(residual.values, ref_residual.values) <= tol
    assert _circular_gap(report.piston_removed, ref_report.piston_removed) <= tol
    assert -np.pi <= report.piston_removed < np.pi
    assert np.allclose(report.tilt_removed, ref_report.tilt_removed, rtol=0.0, atol=TOL)
    # pv and rms jump when a residual pixel within rounding of +-pi lands on
    # the other side of the cut; compare them on the reference residual with
    # such pixels taken from the side this implementation chose
    at_cut = np.abs(np.abs(ref_in) - np.pi) < 1e-9
    ref_in = np.where(at_cut, res_in, ref_in)
    assert abs(report.pv - (ref_in.max() - ref_in.min()) / TWO_PI) <= tol
    assert abs(report.rms - ref_in.std() / TWO_PI) <= tol
    if not at_cut.any():
        assert abs(report.pv - ref_report.pv) <= tol
        assert abs(report.rms - ref_report.rms) <= tol
    assert report.crop == ref_report.crop
    return None


pistons = st.one_of(
    st.floats(-1e-3, 1e-3).map(lambda d: np.pi - abs(d)),
    st.floats(-1e-3, 1e-3).map(lambda d: -np.pi + d),
    st.floats(-np.pi, np.pi, exclude_max=True),
)


@settings(deadline=None, max_examples=300)
@given(
    height=st.integers(2, 33),
    width=st.integers(2, 33),
    crop=st.integers(0, 5),
    tilt=st.booleans(),
    wrapped=st.booleans(),
    piston=pistons,
    slopes=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
    noise=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_matches_two_pass_reference(height, width, crop, tilt, wrapped, piston,
                                             slopes, noise, seed):
    rng = np.random.default_rng(seed)
    y, x = np.indices((height, width), dtype=np.float64)
    values = piston + slopes[0] * x + slopes[1] * y + noise * rng.uniform(-1, 1, (height, width))
    if wrapped:
        diff = p.PhaseMap(p.wrap(values), wrapped=True)
    else:
        # unwrapped input may sit whole cycles away from the wrapped one
        diff = p.PhaseMap(values + TWO_PI * rng.integers(-3, 4, (height, width)))
    assert_matches_reference(diff, crop, tilt)


@pytest.mark.parametrize("side", [np.pi - 1e-4, -np.pi + 1e-4])
@pytest.mark.parametrize("wrapped", [True, False])
def test_piston_at_the_wrap_cut_matches_reference(side, wrapped):
    # half the pixels land just below +pi, half just above -pi
    rng = np.random.default_rng(3)
    values = side + 2e-3 * rng.standard_normal((31, 24))
    diff = p.PhaseMap(p.wrap(values), wrapped=True) if wrapped else p.PhaseMap(values)
    if wrapped:
        assert diff.values.max() > 3.1 and diff.values.min() < -3.1
    assert assert_matches_reference(diff, crop=3, tilt=True) is None


def test_reference_refusals_are_reproduced():
    ramp = p.PhaseMap(p.wrap(np.linspace(0.0, 4 * np.pi, 4096).reshape(64, 64)), wrapped=True)
    assert assert_matches_reference(ramp, 0, True)[0] is RefusalError
    small = p.PhaseMap(np.zeros((6, 9)))
    assert assert_matches_reference(small, 3, False)[0] is ValueError
    assert assert_matches_reference(small, -1, True)[0] is ValueError


def test_one_trig_pass_and_one_full_size_wrap(monkeypatch):
    # at most one: a residual already in [-pi, pi) is not wrapped at all
    from psidemod import metrics

    calls = {"sin": [], "cos": [], "wrap": []}

    def counting(name, original):
        def wrapper(values, *args, **kwargs):
            calls[name].append(np.array(values, copy=True))
            return original(values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics.np, "sin", counting("sin", np.sin))
    monkeypatch.setattr(metrics.np, "cos", counting("cos", np.cos))
    monkeypatch.setattr(metrics, "wrap", counting("wrap", metrics.wrap))
    rng = np.random.default_rng(5)
    steady = 2.0 + 0.1 * rng.standard_normal((40, 30))
    # the same map levelled to a gentle ramp about 0, with a border column
    # outside the crop at 3.1 rad, which the removed plane lifts past pi
    leaving = steady + 0.01 * np.arange(30) - 2.145
    leaving[:, 0] = 3.1
    for wraps, values in ((0, steady), (1, leaving)):
        for found in calls.values():
            found.clear()
        residual, _ = p.remove_piston_tilt(p.PhaseMap(p.wrap(values), wrapped=True), crop=4)
        assert [v.shape for v in calls["sin"]] == [v.shape for v in calls["cos"]] == [(32, 22)]
        full = [v for v in calls["wrap"] if v.shape == (40, 30)]
        assert len(full) == wraps
        assert residual.values.min() >= -np.pi and residual.values.max() < np.pi
    # the one wrap is of the levelled residual, which had left [-pi, pi)
    assert full[0].max() >= np.pi
    assert np.array_equal(residual.values.view(np.int64), p.wrap(full[0]).view(np.int64))
