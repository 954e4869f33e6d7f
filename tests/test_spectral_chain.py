"""The one carrier-removed spectral chain shared by the spatial demodulation
and the Monte-Carlo superposition.

Two oracles are kept.  ``reference_out_of_band`` is the earlier
full-spectrum formula: it builds |S| over the whole grid and divides the
admitted energy beyond the signal band by the sum of every bin.  The chain
reads the numerator from the in-band bins and the denominator by Parseval,
so the two may differ in the last digits; the bound is 1e-12 relative.
``reference_chain`` is the full-grid chain the band-limited one replaced:
``remove_carrier``, ``fft2``, a full-grid disc mask and ``ifft2``.  The
band-limited chain applies the same 1-D transforms in the same axis order,
so against it every output must be bit-identical.  Both oracles refuse through
``reference_guard``, which shares no code with the library's guard, and
refusals must be the same exception with the same message.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod import carrier as carrier_module
from psidemod import metrics
from psidemod.carrier import (_disc, _forward, _guard_band, _spectral_chain,
                              spatial_from_temporal)
from psidemod.formats import export_spectrum

TOL = 1e-12
TWO_PI = 2 * np.pi
# the inverse column pass's block: the real one, or small enough that a grid
# of 9-64 px crosses many block edges and leaves a remainder
_COLUMN_BLOCKS = st.sampled_from([None, 1, 5])


def _column_block(patch, block):
    if block is not None:
        patch.setattr(carrier_module, "_COLUMN_BLOCK", block)


def _full_grid_radii(shape):
    height, width = shape
    return np.hypot(TWO_PI * np.fft.fftfreq(width)[None, :],
                    TWO_PI * np.fft.fftfreq(height)[:, None])


def reference_guard(spectrum, rho, carrier, mask, apply_filter):
    """The spatial refusals read off the full-grid spectrum, independently of
    the library, and the bandwidth: the largest radius inside the carrier disc
    holding 1% of the peak.  The conjugate-lobe refusal that the library drops,
    as implied by the cutoff and bandwidth refusals, is kept here, so a
    refusal it alone made would show as a mismatch."""
    if mask.cutoff >= carrier.magnitude:
        raise p.RefusalError(
            f"mask cutoff {mask.cutoff:.6g} rad/px must stay below the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px"
        )
    in_band = rho <= carrier.magnitude
    magnitude = np.abs(spectrum)
    peak = magnitude[in_band].max()
    if not np.isfinite(peak):
        raise p.DegeneracyError(
            f"carrier-removed spectrum of shape {spectrum.shape} computed from finite input "
            "overflowed to non-finite values"
        )
    if peak == 0.0:
        raise p.DegeneracyError("demodulated field has an empty spectrum")
    bandwidth = float(rho[in_band & (magnitude >= 0.01 * peak)].max())
    if bandwidth >= 0.95 * carrier.magnitude:
        raise p.RefusalError(
            f"estimated signal bandwidth {bandwidth:.6g} rad/px reaches the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px: the carrier does not exceed "
            "the wavefront slope, so the signal and conjugate lobes overlap"
        )
    if apply_filter and 2.0 * carrier.magnitude - bandwidth <= mask.cutoff:
        raise p.RefusalError("conjugate lobe reaches the mask cutoff")
    return bandwidth


def reference_out_of_band(temporal, carrier, mask, apply_filter):
    centered = p.remove_carrier(temporal, carrier)
    spectrum = np.fft.fft2(centered.values)
    rho = _full_grid_radii(spectrum.shape)
    bandwidth = reference_guard(spectrum, rho, carrier, mask, apply_filter)

    magnitude = np.abs(spectrum)
    total_energy = float(np.sum(magnitude**2))
    out_band = (rho <= mask.cutoff) & (rho > bandwidth)
    return float(np.sum(magnitude[out_band] ** 2) / total_energy)


def reference_chain(temporal, carrier, mask, apply_filter):
    """In-band bins, bandwidth, out-of-band energy and field of the full-grid
    chain: one ``fft2``, boolean masks over the whole grid, one ``ifft2``."""
    centered = p.remove_carrier(temporal, carrier)
    spectrum = np.fft.fft2(centered.values)
    rho = _full_grid_radii(spectrum.shape)
    in_band = rho <= carrier.magnitude
    band = spectrum[in_band]
    bandwidth = reference_guard(spectrum, rho, carrier, mask, apply_filter)
    radii = rho[in_band]
    admitted = band[(radii <= mask.cutoff) & (radii > bandwidth)]
    total_energy = temporal.values.size * np.vdot(temporal.values, temporal.values).real
    out_of_band = float(np.sum(np.abs(admitted) ** 2) / total_energy)
    if not apply_filter:
        return band, bandwidth, out_of_band, centered.values
    spectrum[rho > mask.cutoff] = 0.0
    return band, bandwidth, out_of_band, np.fft.ifft2(spectrum)


def reference_lowpass(field, mask):
    spectrum = np.fft.fft2(field.values)
    spectrum[_full_grid_radii(spectrum.shape) > mask.cutoff] = 0.0
    return np.fft.ifft2(spectrum)


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


def _test_field(height, width, carrier, cycles, amplitude, leak, background, noise, seed):
    """Signal and conjugate lobes of a grid-periodic wavefront, the
    background, and complex noise in every bin."""
    y, x = np.indices((height, width), dtype=np.float64)
    psi = amplitude * (np.cos(TWO_PI * cycles[0] * x / width)
                       + np.cos(TWO_PI * cycles[1] * y / height))
    psi += carrier.phase_field((height, width))
    rng = np.random.default_rng(seed)
    values = np.exp(1j * psi) + leak * np.exp(-1j * psi) + background
    values += noise * (rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape))
    return p.ComplexField(values)


def _chain(temporal, carrier, mask, apply_filter):
    with warnings.catch_warnings():
        # a tiny cutoff on a small grid admits only the DC bin; not under test here
        warnings.simplefilter("ignore", UserWarning)
        # spatial_from_temporal refuses a cutoff at or above the carrier, which
        # the chain takes as its precondition, so it runs first
        _, field, diag = spatial_from_temporal(temporal, carrier=carrier, mask=mask,
                                               apply_filter=apply_filter)
        band, _ = _spectral_chain(temporal.values, carrier, apply_filter)
        bandwidth = _guard_band(band, temporal.shape, carrier)
    assert diag.signal_bandwidth == bandwidth
    return band, bandwidth, diag.out_of_band_energy, field.values


def _reference(temporal, carrier, mask, apply_filter):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return reference_chain(temporal, carrier, mask, apply_filter)


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(9, 64),
    width=st.integers(9, 64),
    direction=st.floats(0.0, 2 * np.pi),
    magnitude=st.floats(0.4, 2.8),
    cutoff_ratio=st.floats(0.1, 1.1),
    cycles=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    amplitude=st.floats(0.0, 2.0),
    leak=_WEAK,
    background=_WEAK,
    noise=st.just(0.0) | st.floats(1e-6, 1e-3),
    seed=st.integers(0, 2**32 - 1),
    apply_filter=st.booleans(),
    column_block=_COLUMN_BLOCKS,
)
def test_band_limited_chain_is_bit_identical_to_the_full_grid_chain(
    height, width, direction, magnitude, cutoff_ratio, cycles, amplitude, leak, background,
    noise, seed, apply_filter, column_block,
):
    carrier = p.CarrierSpec(magnitude * np.cos(direction), magnitude * np.sin(direction))
    mask = p.SpectralMask(cutoff_ratio * magnitude)
    temporal = _test_field(height, width, carrier, cycles, amplitude, leak, background, noise,
                           seed)
    # the cached radii follow the full-grid mask's row-major order
    rho = _full_grid_radii((height, width))
    assert np.array_equal(_disc((height, width), magnitude)[3], rho[rho <= magnitude])

    with pytest.MonkeyPatch.context() as patch:
        _column_block(patch, column_block)
        got, got_refusal = _outcome(lambda: _chain(temporal, carrier, mask, apply_filter))
    want, want_refusal = _outcome(lambda: _reference(temporal, carrier, mask, apply_filter))
    assert got_refusal == want_refusal
    if want_refusal is None:
        for name, g, w in zip(("band", "bandwidth", "out_of_band_energy", "field"), got, want):
            assert np.array_equal(g, w), name


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(9, 64),
    width=st.integers(9, 64),
    cutoff=st.floats(0.05, np.pi),
    seed=st.integers(0, 2**32 - 1),
    column_block=_COLUMN_BLOCKS,
)
# a disc narrower than one column bin, whose columns are one run, and one
# whose columns are two, each across block edges; then a grid wider than the real block
@example(height=40, width=61, cutoff=0.05, seed=1, column_block=5)
@example(height=40, width=61, cutoff=0.9, seed=2, column_block=5)
@example(height=33, width=47, cutoff=0.9, seed=3, column_block=1)
@example(height=150, width=200, cutoff=np.pi / 8, seed=4, column_block=None)
def test_lowpass_is_bit_identical_to_fft2_mask_ifft2(height, width, cutoff, seed, column_block):
    rng = np.random.default_rng(seed)
    field = p.ComplexField(rng.normal(size=(height, width))
                           + 1j * rng.normal(size=(height, width)))
    mask = p.SpectralMask(cutoff)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("ignore", UserWarning)
        _column_block(patch, column_block)
        got = p.lowpass(field, mask).values
    assert np.array_equal(got, reference_lowpass(field, mask))


@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(2, 33),
    width=st.integers(2, 33),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_grid_forward_is_bit_identical_to_fft2(height, width, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(height, width)) + 1j * rng.normal(size=(height, width))
    values.setflags(write=False)  # as a field's values, which stay unchanged
    assert np.array_equal(_forward(values, None), np.fft.fft2(values))


def _count_lines(monkeypatch):
    """Count the 1-D lines that ``np.fft.fft`` and ``np.fft.ifft`` transform;
    the full-grid transforms must not run at all."""
    lines = {"fft": 0, "ifft": 0}
    for name in lines:
        original = getattr(np.fft, name)

        def counting(a, *args, _name=name, _original=original, axis=-1, **kwargs):
            lines[_name] += a.size // a.shape[axis]
            return _original(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)

    def refused(*args, **kwargs):
        raise AssertionError("full-grid transform called")

    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refused)
    return lines


def _band_lines(shape, carrier, cutoff):
    """Lines of one band-limited forward and inverse: every row plus the
    columns of the carrier disc, the rows of the cutoff disc plus every
    column."""
    height, width = shape
    n_c = int(np.sum(np.abs(TWO_PI * np.fft.fftfreq(width)) <= carrier.magnitude))
    n_r = int(np.sum(np.abs(TWO_PI * np.fft.fftfreq(height)) <= cutoff))
    assert n_c < width and n_r < height
    return {"fft": height + n_c, "ifft": n_r + width}


def test_spatial_demod_runs_one_forward_and_one_inverse_transform(sh5, monkeypatch):
    carrier = p.CarrierSpec(np.pi / 4, 0.1)
    truth = p.synthesize_wavefront("defocus", 2.0, (64, 48))
    stack = p.generate_stack(truth, 128.0, 100.0, sh5.nominal_step, 5, carrier=carrier)
    lines = _count_lines(monkeypatch)
    p.demodulate_spatial(stack, sh5, carrier=carrier)
    assert lines == _band_lines((64, 48), carrier, carrier.magnitude / 2)


@pytest.mark.parametrize("trials", [2, 7])
def test_spatial_montecarlo_transforms_each_basis_field_once(sh5, monkeypatch, trials):
    carrier = p.CarrierSpec(0.8, 0.3)
    truth = p.synthesize_wavefront("defocus", 2.0, (48, 40))
    lines = _count_lines(monkeypatch)
    metrics._drop_basis()  # count the build, not a basis cached by an earlier call
    summary = p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=carrier,
                                         trials=trials)
    assert summary.trials == trials
    once = _band_lines((48, 40), carrier, carrier.magnitude / 2)
    assert lines == {name: 3 * count for name, count in once.items()}


def test_carrier_search_and_spectrum_export_transform_the_full_grid_once(tmp_path, monkeypatch):
    y, x = np.indices((24, 40), dtype=np.float64)
    field = p.ComplexField(np.exp(1j * (0.8 * x + 0.3 * y)))
    lines = _count_lines(monkeypatch)
    p.estimate_carrier(field)
    assert lines == {"fft": 24 + 40, "ifft": 0}
    export_spectrum(tmp_path / "spectrum", field)
    assert lines == {"fft": 2 * (24 + 40), "ifft": 0}


def test_spatial_montecarlo_on_the_cached_basis_transforms_nothing(sh5, monkeypatch):
    carrier = p.CarrierSpec(0.8, 0.3)
    truth = p.synthesize_wavefront("defocus", 2.0, (48, 40))
    p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=carrier, trials=2)
    lines = _count_lines(monkeypatch)
    summary = p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=carrier, trials=7)
    assert summary.n_failed == 0
    assert lines == {"fft": 0, "ifft": 0}


def test_filtered_spatial_demod_peak_allocation_stays_within_twice_the_field():
    carrier = p.CarrierSpec(np.pi / 4, 0.1)
    # at 1024 rows the inverse column pass's scratch holds a full block
    for shape in ((192, 256), (1024, 256)):
        truth = p.synthesize_wavefront("defocus", 2.0, shape)
        psi = truth.values + carrier.phase_field(truth.shape)
        temporal = p.ComplexField(np.exp(1j * psi) + 0.1 * np.exp(-1j * psi))
        spatial_from_temporal(temporal, carrier=carrier)  # fills the disc cache
        tracemalloc.start()
        try:
            spatial_from_temporal(temporal, carrier=carrier)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * temporal.values.nbytes, (shape, peak / temporal.values.nbytes)


def _montecarlo_peak(truth, spec, **kwargs):
    """Traced peak of one Monte-Carlo call, and its summary."""
    tracemalloc.start()
    try:
        summary = p.montecarlo_repeatability(truth, spec, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, summary


def test_spatial_montecarlo_peak_allocation_holds_the_basis_once(sh5):
    # the (3, H, W) basis, one trial's sum and its compare come to about 6.5
    # fields; a second copy of the basis would not fit under 8
    carrier = p.CarrierSpec(np.pi / 4, 0.1)
    truth = p.synthesize_wavefront("defocus", 2.0, (192, 256))
    field_bytes = np.dtype(np.complex128).itemsize * truth.values.size
    kwargs = dict(method="spatial", carrier=carrier, trials=4, seed=3)
    p.montecarlo_repeatability(truth, sh5, **kwargs)  # fills the disc cache
    metrics._drop_basis()  # measure a build, not the cached basis
    peak, summary = _montecarlo_peak(truth, sh5, **kwargs)
    assert summary.n_failed == 0
    assert peak <= 8 * field_bytes, peak / field_bytes


def test_spatial_montecarlo_on_the_cached_basis_peaks_no_higher_than_a_build(sh5):
    carrier = p.CarrierSpec(np.pi / 4, 0.1)
    truth = p.synthesize_wavefront("defocus", 2.0, (192, 256))
    kwargs = dict(method="spatial", carrier=carrier, trials=4, seed=3)
    p.montecarlo_repeatability(truth, sh5, **kwargs)  # fills the disc cache
    metrics._drop_basis()
    built, _ = _montecarlo_peak(truth, sh5, **kwargs)
    reused, summary = _montecarlo_peak(truth, sh5, **kwargs)
    assert summary.n_failed == 0
    assert reused <= built, (reused, built)
