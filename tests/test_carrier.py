"""Spatial-carrier helpers: removal, filtering, estimation, demodulation."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest

import psidemod as p
from psidemod import carrier as carrier_module
from psidemod.carrier import spatial_from_temporal
from psidemod.errors import DegeneracyError, RefusalError

from conftest import FIXED_SCHEDULE, make_bandlimited

TWO_PI = 2 * np.pi


def tone_field(shape, u0, v0=0.0):
    y, x = np.indices(shape, dtype=np.float64)
    return p.ComplexField(np.exp(1j * (u0 * x + v0 * y)))


# --- carrier removal ---


def test_remove_carrier_flattens_pure_tone():
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    field = tone_field((64, 64), np.pi / 4)
    flat = p.remove_carrier(field, carrier)
    assert np.abs(flat.values - 1.0).max() < 1e-12


def test_remove_carrier_inverse_pair():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    field = p.ComplexField(values)
    carrier = p.CarrierSpec(0.9, -0.3)
    back = p.remove_carrier(
        p.remove_carrier(field, carrier), p.CarrierSpec(-0.9, 0.3)
    )
    assert np.abs(back.values - values).max() < 1e-12


def test_remove_carrier_matches_two_dimensional_exponential():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(48, 40)) + 1j * rng.normal(size=(48, 40))
    carrier = p.CarrierSpec(0.7, -0.4)
    expected = values * np.exp(-1j * carrier.phase_field(values.shape))
    got = p.remove_carrier(p.ComplexField(values), carrier).values
    assert np.abs(got - expected).max() < 1e-12


def test_frequency_radius_cached_read_only():
    from psidemod.carrier import _disc

    # an unbounded disc holds every bin, its radii in row-major order
    disc = _disc((6, 8), np.inf)
    again = _disc((6, 8), np.inf)
    assert all(a is b for a, b in zip(again, disc))
    assert not any(array.flags.writeable for array in disc)
    rows, cols, inside, radii = disc
    assert rows.tolist() == list(range(6)) and cols.tolist() == list(range(8))
    assert inside.all() and radii.shape == (48,)
    rho = radii.reshape(6, 8)
    assert rho[0, 0] == 0.0 and rho[3, 0] == pytest.approx(np.pi)


def test_disc_block_holds_only_the_rows_and_columns_it_reaches():
    from psidemod.carrier import _disc

    # 0.8 rad/px on a 9x12 grid reaches bins 0, +-1 of 9 and 0, +-1 of 12, not the corners
    rows, cols, inside, radii = _disc((9, 12), 0.8)
    assert rows.tolist() == [0, 1, 8] and cols.tolist() == [0, 1, 11]
    assert inside.tolist() == [[True, True, True], [True, False, False], [True, False, False]]
    assert radii[0] == 0.0 and radii.size == 5


# --- low-pass filter ---


def test_lowpass_transparent_to_inband_signal():
    # exact-bin tones strictly inside the disc must pass untouched
    y, x = np.indices((128, 128), dtype=np.float64)
    field = p.ComplexField(
        1.0
        + 0.5 * np.exp(2j * np.pi * (3 * x + 2 * y) / 128)
        + 0.25j * np.exp(2j * np.pi * (5 * x - 4 * y) / 128)
    )
    out = p.lowpass(field, p.SpectralMask(np.pi / 8))
    assert np.abs(out.values - field.values).max() < 1e-12


def test_lowpass_rejects_out_of_band_tone():
    # double-frequency ghost sits at 2*u0 = pi/2, far outside a pi/8 cutoff
    ghost = tone_field((256, 256), np.pi / 2)
    out = p.lowpass(ghost, p.SpectralMask(np.pi / 8))
    assert np.abs(out.values).max() < 1e-10


def test_lowpass_idempotent():
    rng = np.random.default_rng(11)
    field = p.ComplexField(
        rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    )
    mask = p.SpectralMask(np.pi / 6)
    once = p.lowpass(field, mask)
    twice = p.lowpass(once, mask)
    assert np.abs(twice.values - once.values).max() < 1e-12


def test_lowpass_never_adds_energy():
    rng = np.random.default_rng(12)
    field = p.ComplexField(
        rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    )
    out = p.lowpass(field, p.SpectralMask(np.pi / 3))
    assert np.sum(np.abs(out.values) ** 2) <= np.sum(np.abs(field.values) ** 2) + 1e-9


def test_lowpass_warns_when_only_dc_survives():
    field = p.ComplexField(np.ones((8, 8), dtype=complex))
    with pytest.warns(UserWarning, match="DC"):
        p.lowpass(field, p.SpectralMask(0.1))


def test_spatial_warns_when_only_dc_survives():
    truth = p.PhaseMap(np.zeros((32, 32)))
    carrier = p.CarrierSpec(2 * np.pi * 4 / 32, 0.0)
    stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, carrier=carrier)
    with pytest.warns(UserWarning, match="DC"):
        phase, _, _ = p.demodulate_spatial(stack, p.sh5_spec(), mask=p.SpectralMask(0.1))
    assert np.ptp(phase.values) == 0.0


def test_mask_defaults_and_validation():
    mask = p.SpectralMask(np.pi / 8)
    assert mask.border_crop == 16
    assert p.SpectralMask(np.pi / 8, border_crop=4).border_crop == 4
    derived = p.SpectralMask.for_carrier(p.CarrierSpec(np.pi / 4, 0.0))
    assert derived.cutoff == pytest.approx(np.pi / 8)
    with pytest.raises(ValueError):
        p.SpectralMask(0.0)
    with pytest.raises(ValueError):
        p.SpectralMask(3.5)
    with pytest.raises(ValueError):
        p.SpectralMask(np.pi / 8, border_crop=-1)


# --- carrier estimation ---


def test_estimate_carrier_exact_bin_is_exact():
    field = tone_field((256, 256), np.pi / 4)
    carrier = p.estimate_carrier(field)
    assert carrier.u0 == np.pi / 4
    assert carrier.v0 == 0.0


def test_estimate_carrier_off_bin_within_one_bin():
    shape = (256, 256)
    field = tone_field(shape, 0.8, 0.3)
    carrier = p.estimate_carrier(field)
    bin_width = 2 * np.pi / shape[1]
    assert abs(carrier.u0 - 0.8) < bin_width
    assert abs(carrier.v0 - 0.3) < bin_width


def test_estimate_carrier_refuses_baseband_field():
    flat = p.ComplexField(np.full((64, 64), 2.0 + 0.0j))
    with pytest.raises(RefusalError, match="carrier"):
        p.estimate_carrier(flat)
    truth = make_bandlimited((64, 64), pv=1.0, cycles=(1, 1))
    baseband = p.ComplexField(np.exp(1j * truth.values))
    with pytest.raises(RefusalError):
        p.estimate_carrier(baseband)


@pytest.mark.parametrize("u, v", [(1.0, 0.0), (1.0, 1.0), (0.975, 0.0)])
def test_estimate_carrier_refuses_lobe_at_nyquist(u, v):
    # at the Nyquist bin +pi and -pi alias, and the parabolic refinement
    # wraps across it: the lobe's sign cannot be told
    field = tone_field((16, 16), u * np.pi, v * np.pi)
    with pytest.raises(RefusalError, match="Nyquist"):
        p.estimate_carrier(field)


def test_estimate_carrier_ambiguous_on_real_cosine():
    # a real cosine has two mirror lobes of identical height
    y, x = np.indices((128, 128), dtype=np.float64)
    field = p.ComplexField(np.cos(np.pi / 4 * x).astype(complex))
    with pytest.raises(DegeneracyError, match="ambiguous"):
        p.estimate_carrier(field)


# the thresholds of estimate_carrier's refusals, met exactly: on an 8x8 grid
# the FFT of integer and signed-constant fields is exact, so equal lobes are equal


def test_estimate_carrier_refuses_lobes_of_equal_height_inside_and_outside():
    # DC (inside the excluded disc) and the x Nyquist bin (outside) are both 64
    _, x = np.indices((8, 8))
    with pytest.raises(RefusalError, match=r"\(peak inside 64 vs outside 64\)"):
        p.estimate_carrier(p.ComplexField(1.0 + (-1.0) ** x))


def test_estimate_carrier_ambiguity_threshold_is_inclusive():
    # a rival lobe at exactly 0.99 of the winner: 0.99 * 64 on both sides
    y, x = np.indices((8, 8))
    with pytest.raises(DegeneracyError, match="ambiguous carrier"):
        p.estimate_carrier(p.ComplexField((-1.0) ** x + 0.99 * (-1.0) ** y))


def test_estimate_carrier_keeps_a_lobe_five_percent_above_its_rival():
    y, x = np.indices((64, 64), dtype=np.float64)
    field = p.ComplexField(np.exp(1j * (0.8 * x + 0.3 * y))
                           + 0.95 * np.exp(1j * (-0.5 * x + 0.6 * y)))
    carrier = p.estimate_carrier(field)
    assert abs(carrier.u0 - 0.8) < TWO_PI / 64 and abs(carrier.v0 - 0.3) < TWO_PI / 64


# --- spatial demodulation ---


def spatial_stack(truth, carrier, errors=None, noise_sigma=0.0, seed=None):
    return p.generate_stack(
        truth,
        128.0,
        100.0,
        np.pi / 2,
        5,
        errors=errors,
        carrier=carrier,
        noise_sigma=noise_sigma,
        seed=seed,
    )


def test_spatial_recovers_bandlimited_truth_without_errors(sh5):
    truth = make_bandlimited((256, 256), pv=2.0, cycles=(3, 2))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(truth, carrier)
    phase, _, diag = p.demodulate_spatial(stack, sh5)
    crop = diag.mask.border_crop
    piston = np.angle(np.mean(np.exp(1j * (phase.values - truth.values))))
    residual = p.wrap(phase.values - truth.values - piston)[crop:-crop, crop:-crop]
    assert np.abs(residual).max() < 1e-3


def test_spatial_result_independent_of_step_errors(sh5):
    truth = make_bandlimited((256, 256), pv=2.0, cycles=(3, 2))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    first = spatial_stack(truth, carrier, errors=p.ErrorSchedule(FIXED_SCHEDULE))
    second = spatial_stack(
        truth, carrier, errors=p.ErrorSchedule([-0.2, 0.05, 0.12, -0.3, 0.18])
    )
    phase_a, _, diag = p.demodulate_spatial(first, sh5)
    phase_b, _, _ = p.demodulate_spatial(second, sh5)
    crop = diag.mask.border_crop
    diff = p.wrapped_diff(phase_a, phase_b)
    _, report = p.remove_piston_tilt(diff, crop=crop, tilt=False)
    assert report.pv * 2 * np.pi < 1e-6


def test_spatial_beats_temporal_under_step_errors(sh5, defocus_truth):
    # alternating schedule concentrates the leak; temporal shows the ripple,
    # spatial does not
    schedule = p.ErrorSchedule([0.3, -0.3, 0.3, -0.3, 0.3])
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(defocus_truth, carrier, errors=schedule)

    temporal = p.demodulate_temporal(stack, sh5)
    phase_t, _ = p.field_phase(
        p.remove_carrier(temporal, carrier)
    )
    pair = p.conjugate_amplitudes(sh5, schedule, 100.0)
    diff_t = p.wrapped_diff(phase_t, defocus_truth)
    _, report_t = p.remove_piston_tilt(diff_t, crop=16)
    oracle = 2 * np.arcsin(pair.leak_ratio) / (2 * np.pi)
    assert report_t.pv == pytest.approx(oracle, rel=0.05)

    phase_s, _, diag = p.demodulate_spatial(stack, sh5)
    diff_s = p.wrapped_diff(phase_s, defocus_truth)
    _, report_s = p.remove_piston_tilt(diff_s, crop=diag.mask.border_crop)
    assert report_s.pv < 0.005


def test_unfiltered_residual_sits_at_double_frequency(sh5, defocus_truth):
    schedule = p.ErrorSchedule([0.3, -0.3, 0.3, -0.3, 0.3])
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(defocus_truth, carrier, errors=schedule)
    phase_u, _, _ = p.demodulate_spatial(stack, sh5, apply_filter=False)
    diff = p.wrapped_diff(phase_u, defocus_truth)
    residual, _ = p.remove_piston_tilt(diff, crop=16)
    row = residual.values[residual.values.shape[0] // 2]
    spectrum = np.abs(np.fft.rfft(row - row.mean()))
    dominant_bin = int(np.argmax(spectrum[1:])) + 1
    dominant_freq = 2 * np.pi * dominant_bin / row.size
    assert abs(dominant_freq - 2 * (np.pi / 4)) / (np.pi / 2) < 0.10


def test_spatial_flat_truth_piston_is_arg_a1(sh5):
    flat = p.PhaseMap(np.zeros((128, 128)))
    schedule = p.ErrorSchedule(FIXED_SCHEDULE)
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(flat, carrier, errors=schedule)
    phase, _, diag = p.demodulate_spatial(stack, sh5)
    pair = p.conjugate_amplitudes(sh5, schedule, 100.0)
    crop = diag.mask.border_crop
    interior = phase.values[crop:-crop, crop:-crop]
    assert np.abs(p.wrap(interior - np.angle(pair.a1))).max() < 1e-9


def test_out_of_band_energy_monotone_in_cutoff(sh5, defocus_truth):
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(
        defocus_truth, carrier, errors=p.ErrorSchedule(FIXED_SCHEDULE)
    )
    fractions = []
    for cutoff in (np.pi / 8, np.pi / 12, np.pi / 16):
        _, _, diag = p.demodulate_spatial(
            stack, sh5, mask=p.SpectralMask(cutoff)
        )
        fractions.append(diag.out_of_band_energy)
    assert fractions[0] >= fractions[1] >= fractions[2]


def test_spatial_refuses_cutoff_at_or_above_carrier(sh5, defocus_truth):
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(defocus_truth, carrier)
    with pytest.raises(RefusalError, match="cutoff"):
        p.demodulate_spatial(stack, sh5, mask=p.SpectralMask(np.pi / 4))
    with pytest.raises(RefusalError):
        p.demodulate_spatial(stack, sh5, mask=p.SpectralMask(np.pi / 3))


def test_bandwidth_refusal_comes_before_a_dc_only_cutoff_warning():
    # the cutoff admits only the DC bin, so the inverse would warn; the
    # bandwidth guard must refuse first, with no warning on the way
    truth = p.synthesize_wavefront("defocus", 4.0, (32, 32))
    carrier = p.CarrierSpec(2 * np.pi * 2 / 32)
    field = p.ComplexField(np.exp(1j * (truth.values + carrier.phase_field((32, 32)))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RefusalError, match="estimated signal bandwidth"):
            spatial_from_temporal(field, carrier=carrier, mask=p.SpectralMask(0.1))
    assert [str(warning.message) for warning in caught] == []


def test_spatial_refuses_cutoff_before_any_transform():
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    field = tone_field((32, 32), np.pi / 4)
    with mock.patch.object(carrier_module, "_spectral_chain", side_effect=AssertionError) as chain:
        with pytest.raises(RefusalError, match="mask cutoff 0.785398 rad/px must stay below"):
            spatial_from_temporal(field, carrier=carrier, mask=p.SpectralMask(np.pi / 4))
    assert chain.call_count == 0


@pytest.mark.filterwarnings("error")
def test_overflowing_spectrum_is_degenerate_without_a_warning():
    # finite samples whose transform leaves float64: 64^2 bins of 1e305 sum past it
    carrier = p.CarrierSpec(0.8, 0.3)
    field = p.ComplexField(tone_field((64, 64), 0.8, 0.3).values * 1e305)
    with pytest.raises(DegeneracyError, match=r"spectrum of shape \(64, 64\) computed from "
                                              "finite input overflowed to non-finite values"):
        spatial_from_temporal(field, carrier=carrier, mask=p.SpectralMask(0.35))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [512, 530, -500, -540])
def test_out_of_band_energy_survives_an_overflowing_parseval_total(exponent):
    # the bins stay finite, but a sum leaves float64's normal range: N * sum
    # |S|^2 overflows at 2**512 and 2**530, the admitted sum underflows at
    # 2**-500, and both sums at 2**-540; scaling the field by a power of two
    # is exact, so the fraction must keep its bits
    carrier, mask = p.CarrierSpec(0.8, 0.3), p.SpectralMask(0.35)
    tone = tone_field((64, 64), 0.8, 0.3)
    _, _, unscaled = spatial_from_temporal(tone, carrier=carrier, mask=mask)
    field = p.ComplexField(tone.values * 2.0**exponent)
    _, _, scaled = spatial_from_temporal(field, carrier=carrier, mask=mask)
    assert 0.0 < unscaled.out_of_band_energy < 1e-30
    assert scaled.out_of_band_energy == unscaled.out_of_band_energy


def test_spatial_refuses_when_signal_band_reaches_carrier(sh5):
    # steep defocus: generate_stack itself refuses, so build frames by hand
    truth = p.synthesize_wavefront("defocus", 60.0, (256, 256))
    carrier = p.CarrierSpec(np.pi / 8, 0.0)
    y, x = np.indices((256, 256), dtype=np.float64)
    frames = np.stack(
        [
            128.0
            + 100.0
            * np.cos(truth.values + np.pi / 8 * x + n * np.pi / 2)
            for n in range(5)
        ]
    )
    stack = p.InterferogramStack(frames, np.pi / 2)
    with pytest.raises(RefusalError, match="bandwidth"):
        p.demodulate_spatial(stack, p.sh5_spec(), carrier=carrier)


def test_bandwidth_refusal_is_inclusive_at_the_margin():
    # a tone on the bin of radius r, with a carrier of r / 0.95 that gives
    # 0.95 |c| == r exactly: the band reaches the margin, which refuses
    width = 64
    radius = TWO_PI * np.fft.fftfreq(width)[3]
    carrier = p.CarrierSpec(radius / 0.95)
    assert 0.95 * carrier.magnitude == radius
    _, x = np.indices((width, width), dtype=np.float64)
    field = p.ComplexField(np.exp(1j * carrier.u0 * x) * (1 + 0.5 * np.exp(1j * radius * x)))
    with pytest.raises(RefusalError, match=f"bandwidth {radius:.6g} rad/px reaches the carrier"):
        spatial_from_temporal(field, carrier)


def test_spatial_refuses_an_empty_spectrum():
    stack = p.InterferogramStack(np.zeros((5, 32, 32)), np.pi / 2)
    with pytest.raises(DegeneracyError, match="demodulated field has an empty spectrum"):
        p.demodulate_spatial(stack, p.sh5_spec(), carrier=p.CarrierSpec(np.pi / 4))


def test_carrier_resolution_priority(sh5):
    truth = make_bandlimited((256, 256), pv=1.0, cycles=(2, 2))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    stack = spatial_stack(truth, carrier)

    _, _, diag = p.demodulate_spatial(stack, sh5, carrier=carrier)
    assert diag.carrier_source == "given"

    _, _, diag = p.demodulate_spatial(stack, sh5)
    assert diag.carrier_source == "metadata"
    assert diag.carrier.u0 == pytest.approx(np.pi / 4)

    stripped = dataclasses.replace(stack, metadata=p.StackMetadata())
    _, _, diag = p.demodulate_spatial(stripped, sh5)
    assert diag.carrier_source == "estimated"
    assert abs(diag.carrier.u0 - np.pi / 4) < 2 * np.pi / 256


def test_spatial_refuses_carrier_free_stack(sh5, defocus_truth):
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    with pytest.raises(RefusalError):
        p.demodulate_spatial(stack, sh5)


def test_diagnostics_serialize(sh5):
    truth = make_bandlimited((128, 128), pv=1.0, cycles=(2, 2))
    stack = spatial_stack(truth, p.CarrierSpec(np.pi / 4, 0.0))
    _, _, diag = p.demodulate_spatial(stack, sh5)
    d = diag.to_dict()
    # diagnostics.json carries exactly these keys
    assert {key: sorted(value) if isinstance(value, dict) else None
            for key, value in d.items()} == {
        "carrier": ["u0", "v0"],
        "carrier_source": None,
        "mask": ["border_crop", "cutoff", "shape"],
        "filter_applied": None,
        "signal_bandwidth": None,
        "out_of_band_energy": None,
        "invalid_pixels": None,
    }
    assert d["mask"]["shape"] == "ideal-disc"
    assert d["carrier"] == {"u0": np.pi / 4, "v0": 0.0}
    assert d["carrier_source"] == "metadata"
    assert d["filter_applied"] is True
    assert d["mask"]["cutoff"] == pytest.approx(np.pi / 8)
    assert 0.0 <= d["out_of_band_energy"] <= 1.0
    assert isinstance(d["invalid_pixels"], int)
