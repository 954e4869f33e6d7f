"""The one carrier-removed spectral chain shared by the spatial demodulation
and the Monte-Carlo superposition.

``reference_out_of_band`` is the earlier full-spectrum formula, kept as the
oracle: it builds |S| over the whole grid and divides the admitted energy
beyond the signal band by the sum of every bin.  The chain reads the
numerator from the in-band bins and the denominator by Parseval, so the two
may differ in the last digits; the bound is 1e-12 relative, and refusals
must be the same exception with the same message.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod.carrier import _guard_band, spatial_from_temporal

TOL = 1e-12
TWO_PI = 2 * np.pi


def reference_out_of_band(temporal, carrier, mask, apply_filter):
    centered = p.remove_carrier(temporal, carrier)
    spectrum = np.fft.fft2(centered.values)
    height, width = spectrum.shape
    ky = TWO_PI * np.fft.fftfreq(height)
    kx = TWO_PI * np.fft.fftfreq(width)
    rho = np.hypot(kx[None, :], ky[:, None])
    in_band = rho <= carrier.magnitude
    bandwidth = _guard_band(spectrum[in_band], spectrum.shape, carrier, mask, apply_filter)

    magnitude = np.abs(spectrum)
    total_energy = float(np.sum(magnitude**2))
    out_band = (rho <= mask.cutoff) & (rho > bandwidth)
    return float(np.sum(magnitude[out_band] ** 2) / total_energy)


def _outcome(function):
    try:
        return function(), None
    except ValueError as exc:  # RefusalError and DegeneracyError included
        return None, (type(exc), str(exc))


def _chain_out_of_band(temporal, carrier, mask, apply_filter):
    with warnings.catch_warnings():
        # a tiny cutoff on a small grid admits only the DC bin; not under test here
        warnings.simplefilter("ignore", UserWarning)
        _, _, diag = spatial_from_temporal(temporal, carrier=carrier, mask=mask,
                                           apply_filter=apply_filter)
    return diag.out_of_band_energy


# a background tone or conjugate lobe above 1% of the signal peak reads as
# bandwidth, so each is absent in about half the examples
_WEAK = st.just(0.0) | st.floats(0.0, 0.2)


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(9, 48),
    width=st.integers(9, 48),
    direction=st.floats(0.0, 2 * np.pi),
    magnitude=st.floats(0.4, 2.8),
    cutoff_ratio=st.floats(0.1, 1.1),
    cycles=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    amplitude=st.floats(0.0, 2.0),
    leak=_WEAK,
    background=_WEAK,
    apply_filter=st.booleans(),
)
def test_out_of_band_energy_matches_full_spectrum_formula(
    height, width, direction, magnitude, cutoff_ratio, cycles, amplitude, leak, background,
    apply_filter,
):
    carrier = p.CarrierSpec(magnitude * np.cos(direction), magnitude * np.sin(direction))
    mask = p.SpectralMask(cutoff_ratio * magnitude)
    # signal and conjugate lobes of a grid-periodic wavefront, plus the background
    y, x = np.indices((height, width), dtype=np.float64)
    psi = amplitude * (np.cos(TWO_PI * cycles[0] * x / width)
                       + np.cos(TWO_PI * cycles[1] * y / height))
    psi += carrier.phase_field((height, width))
    temporal = p.ComplexField(np.exp(1j * psi) + leak * np.exp(-1j * psi) + background)

    got, got_refusal = _outcome(lambda: _chain_out_of_band(temporal, carrier, mask, apply_filter))
    want, want_refusal = _outcome(
        lambda: reference_out_of_band(temporal, carrier, mask, apply_filter))
    assert got_refusal == want_refusal
    if want_refusal is None:
        assert math.isclose(got, want, rel_tol=TOL, abs_tol=0.0), (got, want)


def _count_transforms(monkeypatch):
    calls = {"fft2": 0, "ifft2": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def test_spatial_demod_runs_one_forward_and_one_inverse_transform(sh5, monkeypatch):
    carrier = p.CarrierSpec(np.pi / 4, 0.1)
    truth = p.synthesize_wavefront("defocus", 2.0, (64, 48))
    stack = p.generate_stack(truth, 128.0, 100.0, sh5.nominal_step, 5, carrier=carrier)
    calls = _count_transforms(monkeypatch)
    p.demodulate_spatial(stack, sh5, carrier=carrier)
    assert calls == {"fft2": 1, "ifft2": 1}


@pytest.mark.parametrize("trials", [2, 7])
def test_spatial_montecarlo_transforms_each_basis_field_once(sh5, monkeypatch, trials):
    truth = p.synthesize_wavefront("defocus", 2.0, (48, 40))
    calls = _count_transforms(monkeypatch)
    summary = p.montecarlo_repeatability(truth, sh5, method="spatial",
                                         carrier=p.CarrierSpec(0.8, 0.3), trials=trials)
    assert summary.trials == trials
    assert calls == {"fft2": 3, "ifft2": 3}
