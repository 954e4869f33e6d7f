"""Public entry points on finite input that overflows: each either returns
finite values or refuses with ``RefusalError`` or ``DegeneracyError``, and
none of them lets a numpy warning through.  ``wrap`` refuses a non-finite
entry as bad input, with ``ValueError``, and so does a raw-grid writer given
a value its file's dtype cannot hold; a refused writer leaves no file."""

import cmath
import tempfile
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod.carrier import spatial_from_temporal
from psidemod.errors import DegeneracyError, RefusalError
from psidemod.formats import export_spectrum, load_spectrum, save_complex_field, write_f32

TWO_PI = 2 * np.pi
OVERFLOWED = "computed from finite input overflowed to non-finite values"


def _one_huge_pixel():
    values = np.full((4, 4), 1 + 1j)
    values[0, 0] = 1.5e308 * (1 + 1j)
    return p.ComplexField(values)


def _tone(scale):
    y, x = np.indices((64, 64), dtype=np.float64)
    return p.ComplexField(scale * np.exp(1j * (0.8 * x + 0.3 * y)))


def _writes_nothing(write):
    """Call ``write(directory)`` on an empty temporary directory, and check
    that it is still empty afterwards, whatever the call raised."""
    with tempfile.TemporaryDirectory() as directory:
        try:
            return write(Path(directory))
        finally:
            assert not any(Path(directory).iterdir())


def _exported(field):
    """The log magnitude that export_spectrum writes for ``field``, as read back."""
    with tempfile.TemporaryDirectory() as directory:
        return load_spectrum(export_spectrum(Path(directory) / "spectrum", field)[0])[0]


HUGE = p.ComplexField(np.full((8, 8), 1.5e308 * (1 + 1j)))
DEFOCUS = p.synthesize_wavefront("defocus", 6.0, (16, 16))

OVERFLOW_CASES = {
    "remove_carrier": (lambda: p.remove_carrier(HUGE, p.CarrierSpec(np.pi / 4)),
                       DegeneracyError, r"complex field of shape \(8, 8\) " + OVERFLOWED),
    "lowpass": (lambda: p.lowpass(HUGE, p.SpectralMask(np.pi / 4)),
                DegeneracyError, r"complex field of shape \(8, 8\) " + OVERFLOWED),
    "field_phase": (lambda: p.field_phase(_one_huge_pixel()),
                    DegeneracyError, r"complex field of shape \(4, 4\) " + OVERFLOWED),
    "estimate_carrier": (lambda: p.estimate_carrier(_tone(1e307)),
                         DegeneracyError, r"field spectrum of shape \(64, 64\) " + OVERFLOWED),
    "measure_leak": (lambda: p.measure_leak(p.ComplexField(np.full((16, 16), 1e308 * (1 + 1j))),
                                            DEFOCUS),
                     DegeneracyError, r"leak fit of shape \(16, 16\) " + OVERFLOWED),
    "wrapped_diff": (lambda: p.wrapped_diff(p.PhaseMap(np.full((4, 4), 1.5e308)),
                                            p.PhaseMap(np.full((4, 4), -1.5e308))),
                     DegeneracyError, r"phase map of shape \(4, 4\) " + OVERFLOWED),
    "wrap-inf": (lambda: p.wrap(np.inf), ValueError, r"shape \(\) contain non-finite"),
    "wrap-minus-inf": (lambda: p.wrap([1.0, -np.inf]),
                       ValueError, r"shape \(2,\) contain non-finite"),
    "wrap-nan": (lambda: p.wrap(np.nan), ValueError, r"shape \(\) contain non-finite"),
    "export_spectrum": (lambda: _writes_nothing(lambda d: export_spectrum(d / "spectrum", HUGE)),
                        DegeneracyError, r"field spectrum of shape \(8, 8\) " + OVERFLOWED),
    "pv_rms": (lambda: p.pv_rms(p.PhaseMap([[1.5e308, -1.5e308], [0, 0]])),
               DegeneracyError, r"phase map statistics of shape \(2, 2\) " + OVERFLOWED),
    "synthesize_wavefront": (lambda: p.synthesize_wavefront("polynomial", None, (4, 4),
                                                            [[1e308, 1e308]]),
                             DegeneracyError, r"phase map of shape \(4, 4\) " + OVERFLOWED),
    "synthesize_wavefront-span": (lambda: p.synthesize_wavefront("polynomial", 1.0, (4, 4),
                                                                 [[0.0, 1e308]]),
                                  DegeneracyError,
                                  r"polynomial profile of shape \(4, 4\) " + OVERFLOWED),
    "synthesize_wavefront-scaled": (lambda: p.synthesize_wavefront("polynomial", 1e10, (5, 5),
                                                                   [[0.0, 1e-320]]),
                                    DegeneracyError, r"phase map of shape \(5, 5\) " + OVERFLOWED),
    "write_f32": (lambda: _writes_nothing(lambda d: write_f32(d / "x.f32", [[1.0, 1e40]])),
                  ValueError, r"x\.f32: a value overflows float32"),
    "save_complex_field": (lambda: _writes_nothing(lambda d: save_complex_field(
                               d / "field", p.ComplexField(np.full((2, 2), 1j * 1e40)))),
                           ValueError, r"field\.c64: a value overflows complex64"),
    # A1 factored out, the map is finite, and the same as at |A1| = 1
    "predicted_error_map": (lambda: p.predicted_error_map(DEFOCUS, p.ConjugatePair(1e308, 0.9e308)),
                            None, None),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflow_refuses_without_a_warning(case):
    call, error, message = OVERFLOW_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert np.all(np.isfinite(call().values))
            return
        with pytest.raises(error, match=message):
            call()


def test_predicted_error_map_depends_on_a1_only_through_its_phase():
    # scaling by a power of two is exact, so the maps agree bit for bit
    unit = p.predicted_error_map(DEFOCUS, p.ConjugatePair(1.0, 0.9 * 1j)).values
    huge = p.predicted_error_map(DEFOCUS, p.ConjugatePair(2.0**1023, 0.9j * 2.0**1023)).values
    assert np.array_equal(huge, unit)
    # a rotated A1 shifts the map by its phase, up to rounding
    rotated = p.predicted_error_map(DEFOCUS, p.ConjugatePair(1j, -0.9)).values
    assert np.allclose(p.wrap(rotated + np.pi / 2 - unit), 0.0, atol=1e-12)


def test_estimate_carrier_keeps_its_bits_up_to_the_float_limit():
    # the tone's peak bin is about 3928; scaled by 2**1012 it is 1.7e308, so
    # twice it, in the parabolic fit, would overflow; a power of two is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p.estimate_carrier(_tone(2.0**1012)) == p.estimate_carrier(_tone(1.0))


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(2, 33),
    width=st.integers(2, 33),
    exponent=st.integers(0, 1023),
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(-np.pi, np.pi),
    magnitude=st.floats(0.05, 3.0),
    cutoff_share=st.floats(0.0, 1.0),
)
def test_finite_input_gives_finite_output_or_a_refusal(height, width, exponent, seed, angle,
                                                       magnitude, cutoff_share):
    rng = np.random.default_rng(seed)
    shape = (height, width)
    field = p.ComplexField((rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
                           * 2.0**exponent)
    truth = p.PhaseMap(rng.uniform(-4.0, 4.0, shape))
    carrier = p.CarrierSpec(magnitude * np.cos(angle), magnitude * np.sin(angle))
    # the nearest bins besides DC sit at 2 pi / max(height, width), so the
    # disc admits more than the DC bin and no warning is expected
    lowest = min(np.pi, 1.001 * TWO_PI / max(shape))
    mask = p.SpectralMask(min(np.pi, lowest + cutoff_share * (np.pi - lowest)))

    def spatial():
        phase, filtered, diagnostics = spatial_from_temporal(field, carrier, mask=mask)
        return [*phase.values.ravel(), *filtered.values.ravel(),
                diagnostics.signal_bandwidth, diagnostics.out_of_band_energy]

    calls = {
        "remove_carrier": lambda: p.remove_carrier(field, carrier).values,
        "lowpass": lambda: p.lowpass(field, mask).values,
        "field_phase": lambda: p.field_phase(field)[0].values,
        "estimate_carrier": lambda: astuple(p.estimate_carrier(field)),
        "measure_leak": lambda: astuple(p.measure_leak(field, truth)),
        "spatial_from_temporal": spatial,
        "export_spectrum": lambda: _exported(field),
        "pv_rms": lambda: p.pv_rms(p.PhaseMap(field.values.real)),
        "predicted_error_map": lambda: p.predicted_error_map(
            truth, p.ConjugatePair(*field.values[0, :2])).values,
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except (RefusalError, DegeneracyError):
                continue
        assert all(cmath.isfinite(value) for value in np.ravel(result)), name
