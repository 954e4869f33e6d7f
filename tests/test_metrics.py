"""Residual reporting and Monte-Carlo repeatability."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod import metrics, psa
from psidemod.errors import DegeneracyError, RefusalError

from conftest import make_bandlimited, make_ramp


# --- wrapped difference ---


def test_wrapped_diff_trivial_cases():
    truth = make_ramp(64)
    same = p.wrapped_diff(truth, truth)
    assert np.abs(same.values).max() == 0.0
    shifted = p.PhaseMap(truth.values + 2 * np.pi)
    assert np.abs(p.wrapped_diff(shifted, truth).values).max() < 1e-12
    offset = p.PhaseMap(truth.values + 0.3)
    assert p.wrapped_diff(truth, offset).values == pytest.approx(-0.3, abs=1e-12)


def test_wrapped_diff_antisymmetric():
    rng = np.random.default_rng(7)
    a = p.PhaseMap(rng.uniform(-np.pi, np.pi, (16, 16)))
    b = p.PhaseMap(rng.uniform(-np.pi, np.pi, (16, 16)))
    forward = p.wrapped_diff(a, b).values
    backward = p.wrapped_diff(b, a).values
    assert np.abs(p.wrap(forward + backward)).max() < 1e-12


def test_wrapped_diff_shape_mismatch():
    with pytest.raises(ValueError):
        p.wrapped_diff(make_ramp(8), make_ramp(16))
    # numpy refuses (3, 3) - (3, 4) too, so only the message shows whose refusal it is
    with pytest.raises(ValueError, match="differ in shape"):
        p.wrapped_diff(p.PhaseMap(np.zeros((3, 3))), p.PhaseMap(np.zeros((3, 4))))


# --- piston/tilt removal ---


def test_constant_offset_removed_exactly():
    diff = p.PhaseMap(np.full((32, 32), 0.7))
    residual, report = p.remove_piston_tilt(diff)
    assert np.abs(residual.values).max() < 1e-12
    assert report.piston_removed == pytest.approx(0.7, abs=1e-12)
    assert report.pv == pytest.approx(0.0, abs=1e-12)


def test_plane_removed_exactly():
    y, x = np.indices((64, 64), dtype=np.float64)
    alpha, beta = 0.003, -0.002
    diff = p.PhaseMap(0.1 + alpha * x + beta * y)
    residual, report = p.remove_piston_tilt(diff)
    assert np.abs(residual.values).max() < 1e-10
    assert report.tilt_removed[0] == pytest.approx(alpha, abs=1e-9)
    assert report.tilt_removed[1] == pytest.approx(beta, abs=1e-9)


def test_tilt_removal_preserves_ripple_amplitude():
    # the fit is orthogonal to the ripple when the truth is even-symmetric,
    # so piston/tilt removal must leave the peak-to-valley untouched
    truth = p.synthesize_wavefront("defocus", 6.0, (256, 256))
    error = p.predicted_error_map(truth, p.ConjugatePair(1.0, 0.1))
    raw_pv = error.values.max() - error.values.min()
    _, report = p.remove_piston_tilt(error)
    assert report.pv * 2 * np.pi == pytest.approx(raw_pv, rel=1e-9)
    assert abs(report.tilt_removed[0]) < 1e-12
    assert abs(report.tilt_removed[1]) < 1e-12


def test_piston_tilt_idempotent():
    rng = np.random.default_rng(9)
    diff = p.PhaseMap(0.4 + 0.002 * rng.normal(size=(48, 48)))
    once, _ = p.remove_piston_tilt(diff, crop=4)
    twice, again = p.remove_piston_tilt(once, crop=4)
    assert np.abs(twice.values - once.values).max() < 1e-12
    assert abs(again.piston_removed) < 1e-12


def test_wraparound_residual_refused():
    # a dense multi-cycle ramp keeps wrapping after piston removal
    ramp = np.linspace(0.0, 4 * np.pi, 4096).reshape(64, 64)
    diff = p.PhaseMap(p.wrap(ramp), wrapped=True)
    with pytest.raises(RefusalError, match="span"):
        p.remove_piston_tilt(diff)


def test_crop_validation():
    diff = p.PhaseMap(np.zeros((16, 16)))
    p.remove_piston_tilt(diff, crop=6)
    with pytest.raises(ValueError):
        p.remove_piston_tilt(diff, crop=8)
    with pytest.raises(ValueError):
        p.remove_piston_tilt(diff, crop=-1)


def test_crop_may_leave_exactly_two_interior_rows():
    # 6x9 at crop 2 keeps rows 2 and 3, the fewest the crop rule accepts
    diff = p.PhaseMap(np.zeros((6, 9)))
    _, report = p.remove_piston_tilt(diff, crop=2)
    assert report.crop == 2 and report.pv == 0.0
    assert metrics._interior(diff.shape, 2) == (slice(2, 4), slice(2, 7))
    with pytest.raises(ValueError, match="under 2 interior pixels"):
        p.remove_piston_tilt(diff, crop=3)


def test_span_limit_refuses_a_span_of_exactly_the_limit():
    # sin is odd, so the circular mean of this map is exactly 0 and its
    # levelled span is exactly the limit; one ulp less is accepted, and with
    # tilt off that span is the P-V
    limit = metrics._WRAP_SPAN_LIMIT
    half = limit / 2

    def corners(top):
        return p.PhaseMap(np.array([[-half, 0.0, 0.0], [0.0, 0.0, top]]), wrapped=True)

    with pytest.raises(RefusalError, match=f"spans {limit:.4f} rad"):
        p.remove_piston_tilt(corners(half), tilt=False)
    _, report = p.remove_piston_tilt(corners(np.nextafter(half, 0.0)), tilt=False)
    assert report.pv == pytest.approx(limit / (2 * np.pi), rel=1e-15)
    assert round(report.pv, 3) == 0.992


def test_report_serializes():
    diff = p.PhaseMap(np.full((16, 16), 0.25))
    _, report = p.remove_piston_tilt(diff, crop=2)
    d = report.to_dict()
    assert set(d) >= {
        "pv_waves",
        "rms_waves",
        "piston_removed_rad",
        "tilt_removed_rad_per_px",
        "crop",
    }
    assert d["crop"] == 2


# --- scalar summaries ---


def test_pv_rms_basics():
    pv, rms = p.pv_rms(p.PhaseMap(np.zeros((8, 8))))
    assert pv == 0.0 and rms == 0.0
    values = np.array([[0.0, 2 * np.pi], [0.0, 2 * np.pi]])
    pv, rms = p.pv_rms(p.PhaseMap(values))
    assert pv == pytest.approx(1.0, rel=1e-15)
    assert rms == pytest.approx(0.5, rel=1e-15)


def test_pv_rms_honors_crop():
    values = np.zeros((16, 16))
    values[0, 0] = 1.0
    assert p.pv_rms(p.PhaseMap(values))[0] > 0.0
    assert p.pv_rms(p.PhaseMap(values), crop=2)[0] == 0.0


def test_pv_of_known_leak_ratio():
    # r = sin(0.1*pi): artifact P-V = 2*arcsin(r)/(2*pi) = 0.1 waves exactly
    r = np.sin(0.1 * np.pi)
    truth = make_ramp(8192, height=2)
    error = p.predicted_error_map(truth, p.ConjugatePair(1.0, r))
    pv, _ = p.pv_rms(error)
    assert abs(pv - 0.1) < 1e-3


# --- Monte-Carlo ---


def test_montecarlo_zero_errors_zero_spread(sh5):
    truth = make_bandlimited((64, 64), pv=1.0, cycles=(2, 1))
    summary = p.montecarlo_repeatability(
        truth, sh5, error_kind="zero", trials=4, seed=1
    )
    assert summary.n_failed == 0
    assert max(summary.pv_waves) < 1e-6
    assert max(summary.leak_ratios) < 1e-12


def test_montecarlo_temporal_median_matches_model(sh5, defocus_truth):
    summary = p.montecarlo_repeatability(
        defocus_truth,
        sh5,
        error_kind="uniform",
        error_magnitude=0.3,
        trials=40,
        seed=42,
    )
    assert summary.n_failed == 0
    # each trial's P-V should track its own measured leak ratio
    for ratio, pv in zip(summary.leak_ratios, summary.pv_waves):
        oracle = 2 * np.arcsin(ratio) / (2 * np.pi)
        assert pv == pytest.approx(oracle, rel=0.05, abs=1e-4)
    assert summary.percentiles["p50"] > 0.005


def test_montecarlo_spatial_stays_flat(sh5):
    truth = make_bandlimited((128, 128), pv=2.0, cycles=(2, 2))
    summary = p.montecarlo_repeatability(
        truth,
        sh5,
        method="spatial",
        carrier=p.CarrierSpec(np.pi / 4, 0.0),
        error_kind="uniform",
        error_magnitude=0.3,
        trials=20,
        seed=7,
    )
    assert summary.n_failed == 0
    assert summary.percentiles["p99"] < 0.01


def test_montecarlo_deterministic(sh5):
    truth = make_bandlimited((64, 64), pv=1.0, cycles=(2, 1))
    kwargs = dict(error_kind="uniform", error_magnitude=0.2, trials=6, seed=99)
    first = p.montecarlo_repeatability(truth, sh5, **kwargs)
    second = p.montecarlo_repeatability(truth, sh5, **kwargs)
    assert first.pv_waves == second.pv_waves
    assert first.leak_ratios == second.leak_ratios
    assert first.to_dict() == second.to_dict()


def test_montecarlo_records_failures_without_aborting(sh5):
    # +-pi step errors occasionally push the leak past r = 1; those trials
    # flip the sign of the recovered phase and must be reported, not raised
    truth = p.synthesize_wavefront("defocus", 3.5, (64, 64))
    summary = p.montecarlo_repeatability(
        truth,
        sh5,
        error_kind="uniform",
        error_magnitude=np.pi,
        trials=30,
        seed=3,
    )
    assert 0 < summary.n_failed < summary.trials
    assert len(summary.pv_waves) + summary.n_failed == summary.trials
    for index, message in summary.failures:
        assert 0 <= index < summary.trials
        assert isinstance(message, str) and message


def _pipeline_trials(truth, spec, method, carrier, mask, crop, noise_sigma, trials, seed,
                     error_kind="uniform", magnitude=0.3):
    """Every trial the slow way, one generate_stack and demodulate_* call each.

    Returns the demodulated field of each trial that got that far, the P-V of
    each trial that passed, and the (index, reason) of each that refused.
    """
    reference = _mc_reference(truth, method, carrier)
    fields, pvs, failures = [], [], []
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        schedule_seed, noise_seed = child.spawn(2)
        schedule = p.make_error_schedule(error_kind, spec.n_steps, magnitude=magnitude,
                                         nominal_step=spec.nominal_step, seed=schedule_seed)
        try:
            stack = p.generate_stack(truth, 128.0, 100.0, spec.nominal_step, spec.n_steps,
                                     errors=schedule, carrier=carrier, noise_sigma=noise_sigma,
                                     seed=noise_seed)
            if method == "spatial":
                _, field, _ = p.demodulate_spatial(stack, spec, carrier=carrier, mask=mask)
            else:
                field = p.demodulate_temporal(stack, spec)
            fields.append(field)
            phase, _ = p.field_phase(field)
            _, report = p.remove_piston_tilt(p.wrapped_diff(phase, reference), crop=crop)
        except (RefusalError, DegeneracyError) as exc:
            failures.append((index, str(exc)))
            continue
        pvs.append(report.pv)
    return fields, pvs, failures


def _mc_reference(truth, method, carrier):
    """The wrapped phase Monte-Carlo compares against: the truth, plus the
    carrier for a temporal run with one."""
    reference = truth.values
    if method == "temporal" and carrier is not None:
        reference = reference + carrier.phase_field(truth.shape)
    return p.PhaseMap(p.wrap(reference), wrapped=True)


def _montecarlo_fields(truth, spec, **kwargs):
    """montecarlo_repeatability, and the residual phasor z = F e^{-i reference}
    of each trial's demodulated field F, as handed to the compare: copied,
    since every trial of a call writes its z into the same buffer."""
    fields = []
    original = metrics._phasor_report

    def spy(z, *args):
        fields.append(z.copy())
        return original(z, *args)

    with mock.patch.object(metrics, "_phasor_report", spy):
        summary = p.montecarlo_repeatability(truth, spec, **kwargs)
    return summary, fields


def test_montecarlo_reuses_one_workspace_per_call(sh5):
    truth = p.synthesize_wavefront("defocus", 3.0, (40, 48))
    calls = []
    original = metrics._phasor_report

    def spy(z, *args):
        calls[-1].append(z)
        return original(z, *args)

    with mock.patch.object(metrics, "_phasor_report", spy):
        for _ in range(2):
            calls.append([])
            p.montecarlo_repeatability(truth, sh5, trials=4, seed=2)
    first, second = calls
    assert len(first) == len(second) == 4
    assert all(np.shares_memory(z, first[0]) for z in first)
    assert all(np.shares_memory(z, second[0]) for z in second)
    assert not any(np.shares_memory(a, b) for a in first for b in second)


@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_montecarlo_fallback_trial_leaves_no_stale_buffers(sh5, method):
    # the first trial's phasor gets one invalid interior pixel, so its compare
    # takes the _valid fallback into the buffers that the later, all-valid
    # trials reuse; each must still give the bits of a compare on fresh arrays
    truth = p.synthesize_wavefront("defocus", 3.0, (48, 40))
    carrier = p.CarrierSpec(0.8, 0.3)
    mask = p.SpectralMask(0.35, border_crop=4) if method == "spatial" else None
    crop, trials = 4, 5
    seen = []
    original = metrics._phasor_report

    def spy(z, reference, *args):
        if not seen:
            z[crop + 1, crop + 2] = 0.0
        seen.append((z.copy(), reference))
        return original(z, reference, *args)

    with mock.patch.object(metrics, "_phasor_report", spy):
        summary = p.montecarlo_repeatability(truth, sh5, method=method, carrier=carrier,
                                             mask=mask, trials=trials, seed=4, crop=crop)
    assert summary.n_failed == 0
    rows, cols = metrics._interior(truth.shape, crop)
    assert [psa._valid(np.abs(z))[rows, cols].all() for z, _ in seen] == [False] + [True] * 4
    fresh = [original(z, reference, crop).pv for z, reference in seen]
    assert [pv.hex() for pv in summary.pv_waves] == [pv.hex() for pv in fresh]
    # and the untouched trials match the per-trial pipeline
    _, pvs, _ = _pipeline_trials(truth, sh5, method, carrier, mask, crop, 0.0, trials, 4)
    assert np.abs(np.array(summary.pv_waves[1:]) - pvs[1:]).max() <= 1e-12


@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_montecarlo_basis_reuse_matches_per_trial_synthesis(sh5, method):
    truth = p.synthesize_wavefront("defocus", 3.0, (64, 64))
    carrier = p.CarrierSpec(np.pi / 4)
    mask = p.SpectralMask(np.pi / 8, border_crop=8)
    crop = 8 if method == "spatial" else 0
    summary = p.montecarlo_repeatability(
        truth, sh5, method=method, carrier=carrier, mask=mask, error_kind="uniform",
        error_magnitude=0.3, trials=6, seed=17, noise_sigma=0.5, crop=crop,
    )
    assert summary.n_failed == 0
    _, expected, _ = _pipeline_trials(truth, sh5, method, carrier, mask, crop, 0.5, 6, 17)
    assert np.abs(np.array(summary.pv_waves) - expected).max() <= 1e-12


@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_montecarlo_superposition_matches_pipeline_on_criterion_6(sh5, method):
    # criterion 6's configuration, every trial through both paths
    truth = p.synthesize_wavefront("defocus", 3.0, (256, 256))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    mask = p.SpectralMask(np.pi / 8) if method == "spatial" else None
    crop = mask.border_crop if mask else 0
    summary, fields = _montecarlo_fields(
        truth, sh5, method=method, carrier=carrier, mask=mask, error_kind="uniform",
        error_magnitude=0.3, trials=200, seed=20260815,
    )
    expected, pvs, failures = _pipeline_trials(truth, sh5, method, carrier, mask, crop, 0.0,
                                               200, 20260815)
    assert summary.failures == tuple(failures)
    assert len(fields) == len(expected) == 200
    rotation = np.exp(-1j * _mc_reference(truth, method, carrier).values)
    worst = 0.0
    for z, reference in zip(fields, expected):
        phase, valid = p.field_phase(p.ComplexField(z))
        slow, slow_valid = p.field_phase(p.ComplexField(reference.values * rotation))
        both = valid & slow_valid
        worst = max(worst, np.abs(p.wrapped_diff(phase, slow).values[both]).max())
    assert worst <= 1e-12
    assert np.abs(np.array(summary.pv_waves) - pvs).max() <= 1e-12


# an FTF-zero design that leaves the background in: H(0) != 0 on 4 taps
LEAKY = p.taps_from_zeros([np.pi / 2, np.pi / 2, 2.0], np.pi / 2)


@settings(deadline=None, max_examples=60)
@given(
    height=st.integers(24, 64),
    width=st.integers(24, 64),
    angle=st.floats(0.0, 2 * np.pi),
    speed=st.floats(0.9, 1.4),
    amplitude=st.floats(0.5, 16.0),
    spec=st.sampled_from([p.sh5_spec(), LEAKY]),
    method=st.sampled_from(["temporal", "spatial"]),
    with_carrier=st.booleans(),
    magnitude=st.sampled_from([0.3, np.pi]),
    noise_sigma=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_montecarlo_superposition_matches_pipeline(height, width, angle, speed, amplitude, spec,
                                                   method, with_carrier, magnitude, noise_sigma,
                                                   seed):
    # any grid and carrier direction, +-pi schedules (r >= 1 occurs), taps that
    # pass the background, noise on and off: same fields, P-V and refusals
    truth = p.synthesize_wavefront("defocus", amplitude, (height, width))
    carrier = p.CarrierSpec(speed * np.cos(angle), speed * np.sin(angle))
    if method == "temporal" and not with_carrier:
        carrier = None
    mask = p.SpectralMask(speed / 2, border_crop=2) if method == "spatial" else None
    expected, pvs, failures = _pipeline_trials(truth, spec, method, carrier, mask, 2, noise_sigma,
                                               3, seed, magnitude=magnitude)
    try:
        summary, fields = _montecarlo_fields(
            truth, spec, method=method, carrier=carrier, mask=mask, error_kind="uniform",
            error_magnitude=magnitude, trials=3, seed=seed, noise_sigma=noise_sigma, crop=2,
        )
    except RefusalError as exc:
        # a carrier at or below the truth's slope refuses the whole call with
        # the refusal generate_stack gives every trial
        assert failures == [(index, str(exc)) for index in range(3)]
        return
    assert summary.failures == tuple(failures)
    assert len(fields) == len(expected)
    # |e^{-i reference}| = 1, so the rotation keeps the bound as strict
    rotation = np.exp(-1j * _mc_reference(truth, method, carrier).values)
    for z, reference in zip(fields, expected):
        scale = np.abs(reference.values).max()
        assert np.abs(z - reference.values * rotation).max() <= 1e-12 * scale
    assert np.allclose(summary.pv_waves, pvs, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(method="spatial", crop=40), "crop 40 px leaves under 2 interior pixels"),
        # the default mask of a 0.2 rad/px carrier crops ceil(2 pi / 0.1) = 63 px
        (dict(method="spatial", carrier=p.CarrierSpec(0.2)),
         "crop 63 px leaves under 2 interior pixels"),
        (dict(method="temporal", crop=32), "crop 32 px leaves under 2 interior pixels"),
        (dict(method="spatial", mask=p.SpectralMask(np.pi / 4)),
         "mask cutoff 0.785398 rad/px must stay below the carrier magnitude 0.785398 rad/px"),
        (dict(method="spatial", error_kind="bogus"), "unknown error-schedule kind 'bogus'"),
    ],
    ids=["spatial-40", "spatial-None", "temporal-32", "cutoff-at-carrier", "bogus-errors"],
)
def test_montecarlo_refuses_before_the_basis(sh5, kwargs, message):
    # what no trial can change refuses before the basis is built, not once per trial
    truth = p.synthesize_wavefront("defocus", 1.0, (64, 64))
    kwargs = {"carrier": p.CarrierSpec(np.pi / 4), **kwargs}
    # _trial_basis runs on every call, cached basis or not
    with mock.patch.object(metrics, "_trial_basis", side_effect=AssertionError) as build:
        with pytest.raises(ValueError, match=re.escape(message)):
            p.montecarlo_repeatability(truth, sh5, trials=2, **kwargs)
    assert build.call_count == 0


@pytest.mark.parametrize(
    "background, contrast, noise_sigma, n_taps, u0",
    [
        (np.inf, 100.0, 0.0, 5, None),
        (128.0, 0.0, 0.0, 5, None),
        (128.0, -1.0, 0.0, 5, None),
        (50.0, 100.0, 0.0, 5, None),
        (128.0, 100.0, -0.1, 5, None),
        (128.0, 100.0, np.nan, 5, None),
        (128.0, 100.0, 0.0, 2, None),
        # a tilt of exactly 0.5 rad/px: the carrier sits below or at the slope
        (128.0, 100.0, 0.0, 5, 0.25),
        (128.0, 100.0, 0.0, 5, 0.5),
    ],
    ids=["background-inf", "contrast-0", "contrast-negative", "background-below-contrast",
         "noise-negative", "noise-nan", "two-frames", "slope-0.25", "slope-0.5"],
)
def test_montecarlo_refuses_as_generate_stack(sh5, defocus_truth, background, contrast,
                                              noise_sigma, n_taps, u0):
    spec = sh5 if n_taps == 5 else p.PsaSpec([1.0, -1.0], sh5.nominal_step)
    truth, carrier, method = defocus_truth, None, "temporal"
    if u0 is not None:
        truth = p.synthesize_wavefront("tilt", 31.5, (64, 64))
        carrier, method = p.CarrierSpec(u0), "spatial"
    with pytest.raises(ValueError) as synthesized:
        p.generate_stack(truth, background, contrast, spec.nominal_step, spec.n_steps,
                         carrier=carrier, noise_sigma=noise_sigma)
    with pytest.raises(ValueError) as montecarlo:
        p.montecarlo_repeatability(truth, spec, method=method, carrier=carrier,
                                   background=background, contrast=contrast,
                                   noise_sigma=noise_sigma, trials=2, crop=0)
    assert type(montecarlo.value) is type(synthesized.value)
    assert str(montecarlo.value) == str(synthesized.value)


@pytest.mark.parametrize("noise_sigma", [0.0, 1.0])
@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_montecarlo_overflow_fails_every_trial_without_a_warning(sh5, method, noise_sigma):
    # a contrast near the float limit overflows the amplitudes and the
    # superposed sums; each trial then fails as an overflow, and any numpy
    # warning on the way would fail the suite
    truth = p.synthesize_wavefront("defocus", 3.0, (64, 64))
    summary = p.montecarlo_repeatability(
        truth, sh5, method=method, carrier=p.CarrierSpec(0.8, 0.3),
        mask=p.SpectralMask(0.35, border_crop=6), background=0.9e308, contrast=0.9e308,
        noise_sigma=noise_sigma, trials=3, seed=4,
    )
    assert summary.pv_waves == () and summary.n_failed == 3
    for _, reason in summary.failures:
        assert "computed from finite input overflowed to non-finite values" in reason


@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_montecarlo_noise_overflow_fails_its_own_trials_without_a_warning(sh5, method):
    # noise frames near the float limit overflow in each trial's noise leg;
    # that fails the trial, not the call, and raises no numpy warning
    summary = p.montecarlo_repeatability(
        p.synthesize_wavefront("defocus", 2.0, (48, 40)), sh5, method=method,
        carrier=p.CarrierSpec(0.8, 0.3), trials=3, noise_sigma=1e308,
    )
    assert summary.pv_waves == () and summary.n_failed == 3
    for _, reason in summary.failures:
        assert "computed from finite input overflowed to non-finite values" in reason


def test_montecarlo_validation(sh5, defocus_truth):
    with pytest.raises(ValueError):
        p.montecarlo_repeatability(defocus_truth, sh5, trials=1)
    with pytest.raises(ValueError):
        p.montecarlo_repeatability(defocus_truth, sh5, method="spatial")
    with pytest.raises(ValueError):
        p.montecarlo_repeatability(defocus_truth, sh5, method="fourier")
    with pytest.raises(ValueError):
        p.montecarlo_repeatability(defocus_truth, sh5, error_kind="fixed")


def test_montecarlo_summary_serializes(sh5):
    truth = make_bandlimited((64, 64), pv=1.0, cycles=(2, 1))
    summary = p.montecarlo_repeatability(
        truth, sh5, error_kind="gaussian", error_magnitude=0.1, trials=3, seed=5
    )
    d = summary.to_dict()
    assert d["method"] == "temporal"
    assert d["trials"] == 3
    assert d["error_kind"] == "gaussian"
    assert len(d["pv_waves"]) == 3
    assert set(d["percentiles"]) == {"p50", "p90", "p95", "p99"}
