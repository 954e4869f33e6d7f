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

Spatial demodulation and the Monte-Carlo superposition share that chain,
:func:`_spectral_chain`, and take every disc from one cache, :func:`_disc`.
Both it and :func:`lowpass` transform only the columns of the disc they read
and invert only the rows of the cutoff disc, in ``fft2``/``ifft2``'s own axis
order, so every bin and field is bit-identical to the full-grid transforms.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RefusalError
from .fields import TWO_PI, CarrierSpec, ComplexField, InterferogramStack, PhaseMap, _Owned
from .psa import PsaSpec, demodulate_temporal, field_phase

# spectral magnitude at this fraction of the signal peak still counts as
# signal when estimating the occupied bandwidth
_BANDWIDTH_REL_FLOOR = 1e-2
# refuse when the estimated bandwidth reaches this fraction of the carrier
_SLOPE_MARGIN = 0.95
# estimate_carrier ignores the FFT bins within this radius of the origin
_EXCLUSION_RADIUS = 2.0


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


def _forward(values: np.ndarray, radius: float, out=None) -> np.ndarray:
    """Transform every row of ``values`` into ``out`` (``values`` itself to
    work in place), then only the columns that hold bins of the ``radius``
    disc.  Those bins equal ``fft2``'s; the other columns stay row spectra."""
    spectrum = np.fft.fft(values, axis=1, out=out)
    _, cols, _, _ = _disc(spectrum.shape, radius)
    block = spectrum[:, cols]
    spectrum[:, cols] = np.fft.fft(block, axis=0, out=block)
    return spectrum


def _keep_disc(spectrum: np.ndarray, cutoff: float) -> ComplexField:
    """Transform back only the bins of a :func:`_forward` spectrum inside
    the cutoff disc, reusing its buffer: zero it, write the inverse row
    transforms of the disc's rows, then invert every column.  Warns when
    the disc admits only the DC bin, since the filtered phase is then
    constant."""
    rows, cols, inside, radii = _disc(spectrum.shape, cutoff)
    if radii.size <= 1:
        warnings.warn(
            f"cutoff {cutoff:.6g} rad/px admits only the DC bin on a "
            f"{spectrum.shape[0]}x{spectrum.shape[1]} grid; the filtered phase is constant",
            stacklevel=3,
        )
    kept = np.zeros((rows.size, spectrum.shape[1]), dtype=np.complex128)
    kept[:, cols] = np.where(inside, spectrum[np.ix_(rows, cols)], 0.0)
    spectrum.fill(0.0)
    spectrum[rows] = np.fft.ifft(kept, axis=1, out=kept)
    return ComplexField(_Owned(np.fft.ifft(spectrum, axis=0, out=spectrum)))


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


def remove_carrier(field: ComplexField, carrier: CarrierSpec) -> ComplexField:
    """Translate the spectrum by multiplying with e^{-i(u0 x + v0 y)}."""
    return ComplexField(_Owned(_centered(field.values, carrier)))


def _centered(values: np.ndarray, carrier: CarrierSpec) -> np.ndarray:
    """``values`` times e^{-i(u0 x + v0 y)} in a fresh writable array; the
    factor is separable, so only two 1-D exponentials are evaluated."""
    height, width = values.shape
    centered = values * np.exp(-1j * carrier.u0 * np.arange(width, dtype=np.float64))
    centered *= np.exp(-1j * carrier.v0 * np.arange(height, dtype=np.float64))[:, None]
    return centered


def lowpass(field: ComplexField, mask: SpectralMask) -> ComplexField:
    """Zero every FFT bin outside the mask disc and transform back.

    Idempotent: applying the same mask twice changes nothing beyond
    round-off.  Warns when the disc admits only the DC bin, since the
    filtered phase is then constant.
    """
    return _keep_disc(_forward(field.values, mask.cutoff), mask.cutoff)


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
    (ambiguous carrier, e.g. a near-real field with mirrored lobes).
    """
    height, width = field.shape
    spectrum = np.fft.fft2(field.values)
    magnitude = np.abs(spectrum)

    bins_y = np.fft.fftfreq(height) * height
    bins_x = np.fft.fftfreq(width) * width
    excluded = np.hypot(bins_x[None, :], bins_y[:, None]) <= _EXCLUSION_RADIUS

    outside = np.where(excluded, 0.0, magnitude)
    peak_out = float(outside.max())
    peak_in = float(np.where(excluded, magnitude, 0.0).max())
    if peak_out == 0.0 or peak_out <= peak_in:
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
        return {
            "carrier": {"u0": self.carrier.u0, "v0": self.carrier.v0},
            "carrier_source": self.carrier_source,
            "mask": {
                "shape": "ideal-disc",
                "cutoff": self.mask.cutoff,
                "border_crop": self.mask.border_crop,
            },
            "filter_applied": self.filter_applied,
            "signal_bandwidth": self.signal_bandwidth,
            "out_of_band_energy": self.out_of_band_energy,
            "invalid_pixels": self.invalid_pixels,
        }


def _spectral_chain(field, carrier, mask, apply_filter=True, guard=False):
    """The linear part of :func:`spatial_from_temporal` on one ComplexField:
    remove the carrier into a fresh buffer, transform its rows and the
    columns of the carrier (or larger cutoff) disc, take the bins inside the
    carrier disc, then invert the mask disc in that buffer, or keep the
    carrier-removed field when not ``apply_filter``.  With ``guard``,
    :func:`_guard_band` refuses on the in-band bins before the inverse could
    warn.  Returns in-band bins, bandwidth (None unguarded) and field."""
    centered = _centered(field.values, carrier)
    spectrum = _forward(centered, max(carrier.magnitude, mask.cutoff),
                        out=centered if apply_filter else None)
    rows, cols, inside, _ = _disc(spectrum.shape, carrier.magnitude)
    band = spectrum[np.ix_(rows, cols)][inside]
    bandwidth = _guard_band(band, spectrum.shape, carrier, mask, apply_filter) if guard else None
    if not apply_filter:
        return band, bandwidth, ComplexField(_Owned(centered))
    return band, bandwidth, _keep_disc(spectrum, mask.cutoff)


def _cutoff_below(carrier: CarrierSpec, mask: SpectralMask) -> None:
    """Refuse a mask whose cutoff reaches the carrier magnitude; needs no data."""
    if mask.cutoff >= carrier.magnitude:
        raise RefusalError(
            f"mask cutoff {mask.cutoff:.6g} rad/px must stay below the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px"
        )


def _guard_band(in_band: np.ndarray, shape, carrier: CarrierSpec, mask: SpectralMask,
                apply_filter: bool = True) -> float:
    """Apply the refusals of :func:`spatial_from_temporal` to a carrier-removed
    spectrum, given its bins inside the carrier disc, and return the occupied
    signal bandwidth in rad/px."""
    _cutoff_below(carrier, mask)
    magnitude = np.abs(in_band)
    peak = float(magnitude.max())
    if peak == 0.0:
        raise DegeneracyError("demodulated field has an empty spectrum")
    radii = _disc(shape, carrier.magnitude)[3]
    bandwidth = float(radii[magnitude >= _BANDWIDTH_REL_FLOOR * peak].max())
    if bandwidth >= _SLOPE_MARGIN * carrier.magnitude:
        raise RefusalError(
            f"estimated signal bandwidth {bandwidth:.6g} rad/px reaches the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px: the carrier does not exceed "
            "the wavefront slope, so the signal and conjugate lobes overlap"
        )
    if apply_filter and 2.0 * carrier.magnitude - bandwidth <= mask.cutoff:
        raise RefusalError(
            f"conjugate lobe at 2x the carrier ({2.0 * carrier.magnitude:.6g} rad/px) "
            f"spread by the signal bandwidth {bandwidth:.6g} rad/px reaches the mask "
            f"cutoff {mask.cutoff:.6g} rad/px; shrink the cutoff or raise the carrier"
        )
    return bandwidth


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

    Guards, all refusals with diagnostics:

    * the mask cutoff must stay below the carrier magnitude;
    * the occupied signal bandwidth B (largest radius holding spectral
      magnitude above 1% of the signal peak after carrier removal) must
      stay below 0.95x the carrier magnitude, the sampled analog of
      requiring the carrier to exceed the maximum wavefront slope;
    * the conjugate lobe centered at 2x the carrier, spread by B, must not
      reach the cutoff (``2*carrier - B > cutoff``), checked only when the
      filter is applied.

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

    if mask is None:
        mask = SpectralMask.for_carrier(carrier)

    band, bandwidth, filtered = _spectral_chain(temporal, carrier, mask, apply_filter, guard=True)
    # the guarded cutoff disc lies inside the carrier disc, and carrier removal
    # keeps the modulus, so the total spectral energy is N * sum |temporal|^2
    radii = _disc(temporal.shape, carrier.magnitude)[3]
    admitted = band[(radii <= mask.cutoff) & (radii > bandwidth)]
    total_energy = temporal.values.size * np.vdot(temporal.values, temporal.values).real
    out_of_band = float(np.sum(np.abs(admitted) ** 2) / total_energy)

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
