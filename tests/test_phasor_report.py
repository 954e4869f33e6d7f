"""Monte-Carlo's reference-frame compare against the public compare chain.

Each Monte-Carlo trial hands ``_trial_residual`` the residual phasor
``z = F e^{-i reference}`` of its demodulated field F and gets back the
interior residual, the unwrapped piston and the tilt that
``remove_piston_tilt(wrapped_diff(field_phase(F), reference), crop)``
removes; its P-V is the one number a trial records.  The two routes round
differently (angle of a rotated phasor against a difference of angles,
z/|z| against cos and sin), so pv, rms, tilt and the wrapped piston must
agree to 1e-12, widened as in ``test_compare_oracle.py`` only where the
circular mean itself is ill-conditioned.  Refusals must be the same
exception with the same message.  The property skips inputs whose levelled
difference has a pixel within rounding of +-pi (``_levelled_on_cut``):
which side of the cut it lands on, and with it the span refusal and the
tilt, rests on rounding alone.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod import metrics
from psidemod.metrics import _interior, _trial_residual, _Workspace

TOL = 1e-12


def _circular_gap(a, b):
    """Largest |a - b| modulo 2 pi."""
    return float(np.abs(p.wrap(np.asarray(a) - np.asarray(b))).max())


def _outcome(function, *args):
    try:
        return function(*args), None
    except ValueError as exc:  # RefusalError included
        return None, (type(exc), str(exc))


def _public_diff(field, reference):
    phase, _ = p.field_phase(p.ComplexField(field))
    return p.wrapped_diff(phase, p.PhaseMap(reference, wrapped=True))


def _levelled_on_cut(field, reference, crop):
    """Whether a pixel of the public difference's interior, levelled by its
    circular mean, lies within rounding of +-pi.  The side it lands on, and
    with it the span refusal and the tilt, then rests on rounding that the
    two routes do differently."""
    try:
        rows, cols = _interior(field.shape, crop)
    except ValueError:
        return False  # both routes refuse the crop before levelling
    values = _public_diff(field, reference).values[rows, cols]
    piston = np.arctan2(np.sin(values).sum(), np.cos(values).sum())
    return bool((np.abs(np.abs(p.wrap(values - piston)) - np.pi) < 1e-9).any())


def _own_report(z, reference, crop):
    """``_trial_residual`` into a workspace of its own, whose interior refuses
    a bad crop as the public compare does, and the pv and rms of the residual
    it returns, its piston wrapped and its tilt, in a report's field names."""
    residual, piston, tilt = _trial_residual(z, reference, _Workspace(z.shape, crop))
    return SimpleNamespace(pv=float((residual.max() - residual.min()) / (2 * np.pi)),
                           rms=float(residual.std() / (2 * np.pi)),
                           piston_removed=float(p.wrap(piston)), tilt_removed=tilt)


def assert_phasor_report_matches(field, reference, crop):
    diff = _public_diff(field, reference)
    expected, expected_error = _outcome(p.remove_piston_tilt, diff, crop)
    report, error = _outcome(_own_report, field * np.exp(-1j * reference), reference, crop)
    assert error == expected_error
    if error is not None:
        return error
    ref_residual, ref_report = expected
    rows, cols = _interior(field.shape, crop)
    res_in = ref_residual.values[rows, cols]
    # the rounding of a circular mean over n pixels whose unit phasors sum to
    # R grows as n / R (see test_compare_oracle.py)
    resultant = min(abs(np.exp(1j * v).sum()) for v in (diff.values[rows, cols], res_in))
    tol = TOL * max(1.0, res_in.size / resultant)
    assert _circular_gap(report.piston_removed, ref_report.piston_removed) <= tol
    assert -np.pi <= report.piston_removed < np.pi
    assert np.allclose(report.tilt_removed, ref_report.tilt_removed, rtol=0.0, atol=TOL)
    assert ref_report.crop == crop
    # a residual pixel within rounding of +-pi may land on either side of the
    # cut, which moves pv and rms by whole fractions of a wave
    if not (np.abs(np.abs(res_in) - np.pi) < 1e-9).any():
        assert abs(report.pv - ref_report.pv) <= tol
        assert abs(report.rms - ref_report.rms) <= tol
    return None


@settings(deadline=None, max_examples=300)
@given(
    height=st.integers(8, 64),
    width=st.integers(8, 64),
    crop=st.integers(0, 5),
    piston=st.floats(-np.pi, np.pi),
    slopes=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    spread=st.floats(0.0, 3.0),
    reference_scale=st.sampled_from([0.0, 1.0, 40.0]),
    at_pi=st.floats(0.0, 0.3),
    dim=st.floats(0.0, 0.3),
    dim_factor=st.sampled_from([0.0, 1e-12, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_phasor_report_matches_public_compare(height, width, crop, piston, slopes, spread,
                                              reference_scale, at_pi, dim, dim_factor, seed):
    # spread up to 3 rad of noise: angles that vary widely, often refused as
    # spanning the cycle; dim pixels on either side of the 1e-9 validity floor
    rng = np.random.default_rng(seed)
    y, x = np.indices((height, width), dtype=np.float64)
    residual = piston + slopes[0] * x + slopes[1] * y + spread * rng.uniform(-1, 1, (height, width))
    reference = p.wrap(reference_scale * rng.standard_normal((height, width)))
    field = (1.0 + rng.random((height, width))) * np.exp(1j * (residual + reference))
    # pixels exactly at angle pi against a zero reference: z lies on the cut
    on_cut = rng.random((height, width)) < at_pi
    field[on_cut] = -np.abs(field[on_cut]) + 0j
    reference[on_cut] = 0.0
    field[rng.random((height, width)) < dim] *= dim_factor
    assume(not _levelled_on_cut(field, reference, crop))
    assert_phasor_report_matches(field, reference, crop)


@pytest.mark.parametrize("reference_scale", [0.0, 0.3, 3.0])
def test_all_zero_field_matches_public_compare(reference_scale):
    # no valid pixel: the difference is -reference everywhere
    rng = np.random.default_rng(4)
    y, x = np.indices((21, 34), dtype=np.float64)
    reference = p.wrap(reference_scale * (0.05 * x - 0.03 * y + rng.uniform(-1, 1, x.shape)))
    error = assert_phasor_report_matches(np.zeros(x.shape, complex), reference, 2)
    # a reference spread over the whole cycle is refused by both routes alike
    assert (error is None) == (reference_scale < 1.0)


def test_validity_is_relative_to_the_full_grid_peak():
    # a bright border outside the crop makes the whole interior invalid
    rng = np.random.default_rng(6)
    field = np.exp(1j * (0.7 + 0.1 * rng.standard_normal((20, 27))))
    field[:3] *= 1e10
    reference = p.wrap(0.5 + 0.2 * rng.standard_normal(field.shape))
    _, valid = p.field_phase(p.ComplexField(field))
    assert not valid[3:-3, 3:-3].any()
    assert assert_phasor_report_matches(field, reference, 3) is None


def test_field_at_pi_everywhere_takes_the_negative_side():
    # every z = -1 + 0j: angle +pi maps to -pi as in field_phase
    field = np.full((9, 12), -1.0 + 0j)
    assert assert_phasor_report_matches(field, np.zeros(field.shape), 1) is None


def test_refusals_are_reproduced():
    y, x = np.indices((64, 64), dtype=np.float64)
    ramp = np.exp(1j * 0.4 * x)  # two full cycles across the grid
    error = assert_phasor_report_matches(ramp, np.zeros(ramp.shape), 0)
    assert error[0] is p.RefusalError and "spans" in error[1]
    small = np.ones((6, 9), complex)
    assert assert_phasor_report_matches(small, np.zeros(small.shape), 3)[0] is ValueError
    assert assert_phasor_report_matches(small, np.zeros(small.shape), -1)[0] is ValueError


@pytest.mark.parametrize("method", ["temporal", "spatial"])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
def test_montecarlo_trials_run_no_trig_and_no_public_compare(monkeypatch, method, noise_sigma):
    # per trial: no np.cos / np.sin, no field_phase, wrapped_diff or
    # remove_piston_tilt; per call, the same count at any number of trials
    from psidemod import psa

    truth = p.synthesize_wavefront("defocus", 3.0, (48, 40))
    carrier = p.CarrierSpec(0.8, 0.3)
    mask = p.SpectralMask(0.35, border_crop=4) if method == "spatial" else None
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((np, "cos"), (np, "sin"), (psa, "field_phase"), (p, "field_phase"),
                         (metrics, "field_phase"), (metrics, "wrapped_diff"),
                         (metrics, "remove_piston_tilt")):
        if hasattr(module, name):
            counting(module, name)

    def run(trials):
        calls.clear()
        summary = p.montecarlo_repeatability(truth, p.sh5_spec(), method=method, carrier=carrier,
                                             mask=mask, trials=trials, seed=1,
                                             noise_sigma=noise_sigma)
        assert summary.n_failed == 0 and len(summary.pv_waves) == trials
        return dict(calls)

    counts = [run(2)]
    metrics._drop_basis()  # this count too includes one basis build
    counts.append(run(7))
    assert counts[0] == counts[1]
    for name in ("field_phase", "wrapped_diff", "remove_piston_tilt"):
        assert counts[1].get(name, 0) == 0
    assert run(7) == {}  # on the cached basis: no cos or sin at all
