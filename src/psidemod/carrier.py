"""Spatial-carrier translation, spectral low-pass filtering, and the combined
temporal-spatial demodulation pipeline.

Adding a linear carrier u0*x + v0*y to the wavefront moves the signal lobe
A1 e^{i(phi + carrier)} away from the conjugate lobe A2 e^{-i(phi + carrier)}
in the spatial spectrum.  After multiplying the demodulated field by
e^{-i carrier}, the signal sits at the origin and the conjugate at twice the
carrier frequency; an ideal low-pass filter then removes the conjugate (and
any residual background) without ever estimating the step errors that
created them.  Spectral coordinates are radians per pixel: FFT bin k of an
L-pixel axis sits at 2 pi k / L, negative frequencies in the upper half.

Every transform in the package is :func:`_forward` or :func:`_keep_disc`, in
``fft2``/``ifft2``'s axis order, so every bin is bit-identical to theirs.  The
carrier search and the spectrum export take the full grid.  Spatial demodulation
and the Monte-Carlo superposition share :func:`_spectral_chain`, which, like
:func:`lowpass`, transforms only the columns of a disc from :func:`_disc`'s cache.
The column passes work on basic slices in place (forward) and in blocks of
``_COLUMN_BLOCK`` columns through a small scratch (inverse); each column is
the same 1-D transform whatever the block, so blocking changes no bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegeneracyError, RefusalError
from .fields import TWO_PI, CarrierSpec, ComplexField, InterferogramStack, _Owned, _peak
from .psa import PsaSpec, demodulate_temporal, field_phase

# spectral magnitude at this fraction of the signal peak still counts as
# signal when estimating the occupied bandwidth
_BANDWIDTH_REL_FLOOR = 1e-2
# refuse when the estimated bandwidth reaches this fraction of the carrier
_SLOPE_MARGIN = 0.95
# estimate_carrier ignores the FFT bins within this radius of the origin
_EXCLUSION_RADIUS = 2.0
# below this, a sum of squares may have lost bits to terms that underflowed
_UNDERFLOW_FREE = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# columns per block of the inverse column pass: a 1024-row block is 1 MiB
_COLUMN_BLOCK = 64


@functools.lru_cache(maxsize=8)
def _disc(shape, radius):
    """FFT bins within ``radius`` rad/px of the origin: the rows and the
    columns that hold any of them, the disc as a mask over that rows x
    columns block, and the bins' radial frequencies in row-major order (the
    order of a full-grid mask); cached per shape and radius, read-only."""
    height, width = shape
    ky = TWO_PI * np.fft.fftfreq(height)
    kx = TWO_PI * np.fft.fftfreq(width)
    rows = np.flatnonzero(np.abs(ky) <= radius)
    cols = np.flatnonzero(np.abs(kx) <= radius)
    rho = np.hypot(kx[cols][None, :], ky[rows][:, None])
    inside = rho <= radius
    radii = rho[inside]
    for array in (rows, cols, inside, radii):
        array.setflags(write=False)
    return rows, cols, inside, radii


def _forward(values: np.ndarray, radius: float | None, out=None) -> np.ndarray:
    """Transform every row of ``values`` into ``out`` (``values`` itself to
    work in place), then, in place, only the columns that hold bins of the
    ``radius`` disc.  In ``fftfreq`` order those columns are two runs, the
    non-negative and the negative frequencies, so each run is transformed as
    a basic slice, with no gather or scatter.  Those bins equal ``fft2``'s;
    the other columns stay row spectra.  With ``radius`` None every column is
    transformed: ``fft2`` bit for bit."""
    width = values.shape[1]
    if radius is None:
        runs = (slice(None),)
    else:
        cols = _disc(values.shape, radius)[1]
        positive = int(np.count_nonzero(cols < (width + 1) // 2))
        runs = (slice(0, positive), slice(width - (cols.size - positive), width))
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fft(values, axis=1, out=out)
        for run in runs:
            block = spectrum[:, run]
            np.fft.fft(block, axis=0, out=block)
    return spectrum


def _keep_disc(spectrum: np.ndarray, cutoff: float) -> np.ndarray:
    """Transform back only the bins of a :func:`_forward` spectrum inside
    the cutoff disc, reusing its buffer: invert the disc's rows, then every
    column, ``_COLUMN_BLOCK`` columns at a time through one scratch that is
    zeroed and given the disc rows for each block.  Each column is the same
    1-D inverse of the same values as ``ifft2``'s, whatever the block, so the
    bits do not change; a block stays in cache, and the full buffer is never
    zero-filled.  Warns when the disc admits only the DC bin, since the
    filtered phase is then constant."""
    rows, cols, inside, radii = _disc(spectrum.shape, cutoff)
    height, width = spectrum.shape
    if radii.size <= 1:
        warnings.warn(
            f"cutoff {cutoff:.6g} rad/px admits only the DC bin on a "
            f"{height}x{width} grid; the filtered phase is constant",
            stacklevel=3,
        )
    kept = np.zeros((rows.size, width), dtype=np.complex128)
    kept[:, cols] = np.where(inside, spectrum[np.ix_(rows, cols)], 0.0)
    # one spare column keeps the scratch's rows a non-power-of-two apart
    scratch = np.empty((height, _COLUMN_BLOCK + 1), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.ifft(kept, axis=1, out=kept)
        for start in range(0, width, _COLUMN_BLOCK):
            columns = slice(start, start + _COLUMN_BLOCK)
            block = scratch[:, :min(_COLUMN_BLOCK, width - start)]
            block.fill(0.0)
            block[rows] = kept[:, columns]
            spectrum[:, columns] = np.fft.ifft(block, axis=0, out=block)
    return spectrum


@dataclass(frozen=True)
class SpectralMask:
    """Ideal low-pass disc of radius ``cutoff`` rad/px plus a border crop.

    ``border_crop`` is the number of edge pixels to exclude from later
    statistics; the default ceil(2 pi / cutoff) spans one impulse-response
    ring of the ideal filter.
    """

    cutoff: float
    border_crop: int | None = None

    def __post_init__(self):
        cutoff = float(self.cutoff)
        if not np.isfinite(cutoff) or not 0.0 < cutoff <= np.pi:
            raise ValueError(f"cutoff must lie in (0, pi], got {cutoff!r}")
        crop = self.border_crop
        if crop is None:
            crop = math.ceil(TWO_PI / cutoff)
        crop = int(crop)
        if crop < 0:
            raise ValueError(f"border crop must be >= 0, got {crop}")
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "border_crop", crop)

    @classmethod
    def for_carrier(cls, carrier: CarrierSpec) -> "SpectralMask":
        """Default mask: cutoff at half the carrier magnitude."""
        return cls(cutoff=carrier.magnitude / 2.0)


def _mask_for(carrier: CarrierSpec, mask: SpectralMask | None) -> SpectralMask:
    """The mask a spatial run on ``carrier`` uses: ``mask``, or the default
    :meth:`SpectralMask.for_carrier`; refuses a cutoff that reaches the
    carrier magnitude, which needs no data."""
    if mask is None:
        mask = SpectralMask.for_carrier(carrier)
    if mask.cutoff >= carrier.magnitude:
        raise RefusalError(
            f"mask cutoff {mask.cutoff:.6g} rad/px must stay below the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px"
        )
    return mask


def remove_carrier(field: ComplexField, carrier: CarrierSpec) -> ComplexField:
    """Translate the spectrum by multiplying with e^{-i(u0 x + v0 y)}."""
    return ComplexField(_Owned(_centered(field.values, carrier)))


def _centered(values: np.ndarray, carrier: CarrierSpec) -> np.ndarray:
    """``values`` times e^{-i(u0 x + v0 y)} in a fresh writable array; the
    factor is separable, so only two 1-D exponentials are evaluated."""
    height, width = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centered = values * np.exp(-1j * carrier.u0 * np.arange(width, dtype=np.float64))
        centered *= np.exp(-1j * carrier.v0 * np.arange(height, dtype=np.float64))[:, None]
    return centered


def lowpass(field: ComplexField, mask: SpectralMask) -> ComplexField:
    """Zero every FFT bin outside the mask disc and transform back.

    Idempotent: applying the same mask twice changes nothing beyond
    round-off.  Warns when the disc admits only the DC bin, since the
    filtered phase is then constant.
    """
    return ComplexField(_Owned(_keep_disc(_forward(field.values, mask.cutoff), mask.cutoff)))


def estimate_carrier(field: ComplexField) -> CarrierSpec:
    """Locate the dominant off-axis spectral lobe of a complex field.

    The peak magnitude bin outside a 2-bin disc around the origin is
    refined to sub-bin accuracy by a separable parabolic fit over its 3x3
    neighborhood (exact-bin carriers come back exact).

    Refuses when the spectrum is dominated by the excluded low-frequency
    region, i.e. there is no off-axis carrier lobe: for such data a spatial
    carrier exceeding the maximum wavefront slope would first have to be
    introduced when recording, and when the refined lobe reaches the Nyquist
    radius pi, where +pi and -pi alias.  Degenerate when a second lobe
    outside the winner's neighborhood comes within 1% of its magnitude
    (ambiguous carrier, e.g. a near-real field with mirrored lobes), and
    when the spectrum of the finite field overflows.
    """
    height, width = field.shape
    magnitude = np.abs(_forward(field.values, None))
    _peak(magnitude, "field spectrum", field.shape)

    bins_y = np.fft.fftfreq(height) * height
    bins_x = np.fft.fftfreq(width) * width
    excluded = np.hypot(bins_x[None, :], bins_y[:, None]) <= _EXCLUSION_RADIUS

    outside = np.where(excluded, 0.0, magnitude)
    peak_out = float(outside.max())
    peak_in = float(np.where(excluded, magnitude, 0.0).max())
    if peak_out <= peak_in:
        raise RefusalError(
            "no off-axis carrier lobe: the spectrum is dominated by the excluded "
            f"low-frequency disc (peak inside {peak_in:.6g} vs outside {peak_out:.6g}); "
            "a spatial carrier exceeding the maximum wavefront slope is required"
        )

    iy, ix = np.unravel_index(int(outside.argmax()), outside.shape)

    # ambiguity check: a rival lobe outside the winner's 3x3 neighborhood
    rivals = outside.copy()
    rivals[(iy + np.array([-1, 0, 1]))[:, None] % height, (ix + np.array([-1, 0, 1]))[None, :] % width] = 0.0
    if rivals.max() >= 0.99 * peak_out:
        ry, rx = np.unravel_index(int(rivals.argmax()), rivals.shape)
        raise DegeneracyError(
            "ambiguous carrier: two spectral lobes within 1% magnitude, at bins "
            f"({bins_x[ix]:.0f}, {bins_y[iy]:.0f}) and ({bins_x[rx]:.0f}, {bins_y[ry]:.0f})"
        )

    def refine(minus, center, plus):
        # near the float limit, halving keeps the vertex and 2 * center finite
        if center > np.finfo(np.float64).max / 2:
            minus, center, plus = minus / 2, center / 2, plus / 2
        denom = minus - 2.0 * center + plus
        return 0.0 if denom == 0.0 else 0.5 * (minus - plus) / denom

    # parabolic vertex through the peak and its two neighbors along each axis
    u0 = TWO_PI * (bins_x[ix] + refine(*magnitude[iy, [ix - 1, ix, (ix + 1) % width]])) / width
    v0 = TWO_PI * (bins_y[iy] + refine(*magnitude[[iy - 1, iy, (iy + 1) % height], ix])) / height
    if math.hypot(u0, v0) >= np.pi:
        raise RefusalError(
            f"carrier lobe at ({u0:.6g}, {v0:.6g}) rad/px sits at or beyond the Nyquist "
            "limit, where +pi and -pi alias: the sign of the lobe is ambiguous"
        )
    return CarrierSpec(u0, v0)


@dataclass(frozen=True)
class SpatialDiagnostics:
    """What the spatial pipeline actually did, for reporting and manifests."""

    carrier: CarrierSpec
    carrier_source: str  # "given" | "metadata" | "estimated"
    mask: SpectralMask
    filter_applied: bool
    signal_bandwidth: float  # estimated occupied bandwidth of the signal lobe, rad/px
    out_of_band_energy: float  # fraction of spectral energy admitted beyond that band
    invalid_pixels: int

    def to_dict(self) -> dict:
        record = asdict(self)
        record["mask"]["shape"] = "ideal-disc"
        return record


def _spectral_chain(values: np.ndarray, carrier: CarrierSpec, apply_filter=True):
    """Forward half of the linear chain of :func:`spatial_from_temporal`:
    remove the carrier into a fresh buffer, transform its rows and the
    columns of the carrier disc (in that buffer only when ``apply_filter``;
    otherwise it keeps the carrier-removed field), and return the bins inside
    that disc and the buffer.  Callers guard the bins (:func:`_guard_band`)
    before the inverse :func:`_keep_disc`; each step holds its own overflow scope."""
    buffer = _centered(values, carrier)
    spectrum = _forward(buffer, carrier.magnitude, out=buffer if apply_filter else None)
    rows, cols, inside, _ = _disc(spectrum.shape, carrier.magnitude)
    return spectrum[np.ix_(rows, cols)][inside], buffer


def _guard_band(in_band: np.ndarray, shape, carrier: CarrierSpec) -> float:
    """The data refusals of :func:`spatial_from_temporal` on the carrier-removed
    bins inside the carrier disc; returns the occupied signal bandwidth B in rad/px."""
    magnitude = np.abs(in_band)
    peak = _peak(magnitude, "carrier-removed spectrum", shape)
    if peak == 0.0:
        raise DegeneracyError("demodulated field has an empty spectrum")
    radii = _disc(shape, carrier.magnitude)[3]
    bandwidth = float(radii[magnitude >= _BANDWIDTH_REL_FLOOR * peak].max())
    # B < 0.95|c| puts the conjugate lobe's inner edge 2|c| - B above 1.05|c| > cutoff
    if bandwidth >= _SLOPE_MARGIN * carrier.magnitude:
        raise RefusalError(
            f"estimated signal bandwidth {bandwidth:.6g} rad/px reaches the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px: the carrier does not exceed "
            "the wavefront slope, so the signal and conjugate lobes overlap"
        )
    return bandwidth


def _energy_fraction(admitted: np.ndarray, values: np.ndarray) -> float:
    """sum |admitted|^2 over the Parseval total N * sum |values|^2.  When a
    sum overflows, or lies where its terms may have underflowed while some
    are not zero, both are taken again on values scaled by one power of two,
    which is exact, so the fraction keeps the bits it would have."""
    with np.errstate(over="ignore"):
        kept = np.sum(np.abs(admitted) ** 2)
    total = values.size * np.vdot(values, values).real
    # the guard refuses an all-zero field, so a total below this underflowed too
    if not (np.isfinite(kept) and _UNDERFLOW_FREE <= total < np.inf
            and (kept >= _UNDERFLOW_FREE or not admitted.any())):
        peak = max(np.abs(values.real).max(), np.abs(values.imag).max())
        scale = 2.0 ** -int(np.frexp(peak)[1])
        admitted, values = admitted * scale, values * scale
        kept = np.sum(np.abs(admitted) ** 2)
        total = values.size * np.vdot(values, values).real
    return float(kept / total)


def demodulate_spatial(
    stack: InterferogramStack,
    spec: PsaSpec,
    carrier: CarrierSpec | None = None,
    mask: SpectralMask | None = None,
    apply_filter: bool = True,
):
    """Temporal demodulation, carrier removal, and spectral low-pass in one pass.

    The carrier is resolved in priority order: the ``carrier`` argument,
    then the stack metadata, then :func:`estimate_carrier` on the temporal
    field.  ``mask`` defaults to an ideal disc at half the carrier
    magnitude.  The recovered phase is independent of the per-frame step
    errors up to a piston (and spectral truncation of the wavefront).

    Everything after the temporal step is :func:`spatial_from_temporal`,
    which documents the guards and the returned triple.
    """
    return spatial_from_temporal(
        demodulate_temporal(stack, spec),
        carrier=carrier,
        metadata_carrier=stack.metadata.carrier,
        mask=mask,
        apply_filter=apply_filter,
    )


def spatial_from_temporal(
    temporal: ComplexField,
    carrier: CarrierSpec | None = None,
    metadata_carrier: CarrierSpec | None = None,
    mask: SpectralMask | None = None,
    apply_filter: bool = True,
):
    """Carrier removal and spectral low-pass of an already demodulated field.

    The carrier is ``carrier`` when given, else ``metadata_carrier`` (the
    stack's recorded carrier), else estimated from ``temporal``.

    Guards, both refusals with diagnostics:

    * the mask cutoff must stay below the carrier magnitude;
    * the occupied signal bandwidth B (largest radius holding spectral
      magnitude above 1% of the signal peak after carrier removal) must
      stay below 0.95x the carrier magnitude, the sampled analog of
      requiring the carrier to exceed the maximum wavefront slope.  Then
      the conjugate lobe, centered at 2x the carrier and spread by B, stays
      off the mask: ``2*carrier - B > 1.05*carrier > cutoff``.

    Returns
    -------
    (PhaseMap, ComplexField, SpatialDiagnostics)
        Wrapped phase, the filtered complex field (unfiltered when
        ``apply_filter`` is False), and diagnostics including the estimated
        bandwidth and the energy fraction the mask admits beyond it.
    """
    if carrier is not None:
        source = "given"
    elif metadata_carrier is not None:
        carrier, source = metadata_carrier, "metadata"
    else:
        carrier, source = estimate_carrier(temporal), "estimated"

    mask = _mask_for(carrier, mask)
    # guarded before the inverse, which would warn on a DC-only cutoff
    band, buffer = _spectral_chain(temporal.values, carrier, apply_filter)
    bandwidth = _guard_band(band, temporal.shape, carrier)
    filtered = ComplexField(_Owned(_keep_disc(buffer, mask.cutoff) if apply_filter else buffer))
    # the guarded cutoff disc lies inside the carrier disc, and carrier removal
    # keeps the modulus, so the total spectral energy is N * sum |temporal|^2
    radii = _disc(temporal.shape, carrier.magnitude)[3]
    admitted = band[(radii <= mask.cutoff) & (radii > bandwidth)]
    out_of_band = _energy_fraction(admitted, temporal.values)

    phase, valid = field_phase(filtered)
    diagnostics = SpatialDiagnostics(
        carrier=carrier,
        carrier_source=source,
        mask=mask,
        filter_applied=bool(apply_filter),
        signal_bandwidth=bandwidth,
        out_of_band_energy=out_of_band,
        invalid_pixels=int(valid.size - valid.sum()),
    )
    return phase, filtered, diagnostics
