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
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RefusalError
from .fields import TWO_PI, CarrierSpec, ComplexField, InterferogramStack, PhaseMap
from .psa import PsaSpec, demodulate_temporal, field_phase

# spectral magnitude at this fraction of the signal peak still counts as
# signal when estimating the occupied bandwidth
_BANDWIDTH_REL_FLOOR = 1e-2
# refuse when the estimated bandwidth reaches this fraction of the carrier
_SLOPE_MARGIN = 0.95


@functools.lru_cache(maxsize=4)
def _freq_radius(shape):
    """Radial frequency of every FFT bin, rad/px; cached per shape, read-only."""
    height, width = shape
    ky = TWO_PI * np.fft.fftfreq(height)
    kx = TWO_PI * np.fft.fftfreq(width)
    rho = np.hypot(kx[None, :], ky[:, None])
    rho.setflags(write=False)
    return rho


@functools.lru_cache(maxsize=8)
def _disc(shape, radius):
    """FFT bins with radial frequency <= ``radius`` rad/px, and how many there
    are; cached per shape and radius, read-only."""
    inside = _freq_radius(shape) <= radius
    inside.setflags(write=False)
    return inside, int(inside.sum())


def _keep_disc(spectrum: np.ndarray, cutoff: float) -> ComplexField:
    """Zero the bins of ``spectrum`` outside the cutoff disc, in place, and
    transform back.  Warns when the disc admits only the DC bin, since the
    filtered phase is then constant."""
    inside, count = _disc(spectrum.shape, cutoff)
    if count <= 1:
        warnings.warn(
            f"cutoff {cutoff:.6g} rad/px admits only the DC bin on a "
            f"{spectrum.shape[0]}x{spectrum.shape[1]} grid; the filtered phase is constant",
            stacklevel=3,
        )
    spectrum[~inside] = 0.0
    return ComplexField(np.fft.ifft2(spectrum))


@dataclass(frozen=True)
class SpectralMask:
    """Ideal low-pass disc of radius ``cutoff`` rad/px plus a border crop.

    ``border_crop`` is the number of edge pixels to exclude from later
    statistics; the default ceil(2 pi / cutoff) spans one impulse-response
    ring of the ideal filter.
    """

    cutoff: float
    border_crop: int | None = None
    shape: str = "ideal-disc"

    def __post_init__(self):
        cutoff = float(self.cutoff)
        if not np.isfinite(cutoff) or not 0.0 < cutoff <= np.pi:
            raise ValueError(f"cutoff must lie in (0, pi], got {cutoff!r}")
        if self.shape != "ideal-disc":
            raise ValueError(f"unsupported mask shape {self.shape!r}")
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
    """Translate the spectrum by multiplying with e^{-i(u0 x + v0 y)}.

    The carrier factor is separable, e^{-i u0 x} e^{-i v0 y}, so only two
    1-D exponentials are evaluated.
    """
    height, width = field.shape
    values = field.values * np.exp(-1j * carrier.u0 * np.arange(width, dtype=np.float64))
    values *= np.exp(-1j * carrier.v0 * np.arange(height, dtype=np.float64))[:, None]
    return ComplexField(values)


def lowpass(field: ComplexField, mask: SpectralMask) -> ComplexField:
    """Zero every FFT bin outside the mask disc and transform back.

    Idempotent: applying the same mask twice changes nothing beyond
    round-off.  Warns when the disc admits only the DC bin, since the
    filtered phase is then constant.
    """
    return _keep_disc(np.fft.fft2(field.values), mask.cutoff)


def estimate_carrier(field: ComplexField, exclusion_radius: float = 2.0) -> CarrierSpec:
    """Locate the dominant off-axis spectral lobe of a complex field.

    The peak magnitude bin outside an ``exclusion_radius``-bin disc around
    the origin is refined to sub-bin accuracy by a separable parabolic fit
    over its 3x3 neighborhood (exact-bin carriers come back exact).

    Refuses when the spectrum is dominated by the excluded low-frequency
    region, i.e. there is no off-axis carrier lobe: for such data a spatial
    carrier exceeding the maximum wavefront slope would first have to be
    introduced when recording.  Degenerate when a second lobe outside the
    winner's neighborhood comes within 1% of its magnitude (ambiguous
    carrier, e.g. a near-real field with mirrored lobes).
    """
    exclusion_radius = float(exclusion_radius)
    if not np.isfinite(exclusion_radius) or exclusion_radius < 1.0:
        raise ValueError(f"exclusion radius must be >= 1 bin, got {exclusion_radius!r}")
    height, width = field.shape
    spectrum = np.fft.fft2(field.values)
    magnitude = np.abs(spectrum)

    bins_y = np.fft.fftfreq(height) * height
    bins_x = np.fft.fftfreq(width) * width
    bin_radius = np.hypot(bins_x[None, :], bins_y[:, None])
    excluded = bin_radius <= exclusion_radius

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
    rival_peak = float(rivals.max())
    if rival_peak >= 0.99 * peak_out:
        ry, rx = np.unravel_index(int(rivals.argmax()), rivals.shape)
        raise DegeneracyError(
            "ambiguous carrier: two spectral lobes within 1% magnitude, at bins "
            f"({bins_x[ix]:.0f}, {bins_y[iy]:.0f}) and ({bins_x[rx]:.0f}, {bins_y[ry]:.0f})"
        )

    def refine(center, minus, plus):
        denom = minus - 2.0 * center + plus
        if denom == 0.0:
            return 0.0
        return 0.5 * (minus - plus) / denom

    shift_x = refine(
        magnitude[iy, ix], magnitude[iy, (ix - 1) % width], magnitude[iy, (ix + 1) % width]
    )
    shift_y = refine(
        magnitude[iy, ix], magnitude[(iy - 1) % height, ix], magnitude[(iy + 1) % height, ix]
    )
    u0 = TWO_PI * (bins_x[ix] + shift_x) / width
    v0 = TWO_PI * (bins_y[iy] + shift_y) / height
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
    validity: np.ndarray
    invalid_pixels: int

    def to_dict(self) -> dict:
        return {
            "carrier": {"u0": self.carrier.u0, "v0": self.carrier.v0},
            "carrier_source": self.carrier_source,
            "mask": {
                "shape": self.mask.shape,
                "cutoff": self.mask.cutoff,
                "border_crop": self.mask.border_crop,
            },
            "filter_applied": self.filter_applied,
            "signal_bandwidth": self.signal_bandwidth,
            "out_of_band_energy": self.out_of_band_energy,
            "invalid_pixels": self.invalid_pixels,
        }


def demodulate_spatial(
    stack: InterferogramStack,
    spec: PsaSpec,
    carrier: CarrierSpec | None = None,
    mask: SpectralMask | None = None,
    apply_filter: bool = True,
    min_modulus_ratio: float = 1e-9,
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
        min_modulus_ratio=min_modulus_ratio,
    )


def spatial_from_temporal(
    temporal: ComplexField,
    carrier: CarrierSpec | None = None,
    metadata_carrier: CarrierSpec | None = None,
    mask: SpectralMask | None = None,
    apply_filter: bool = True,
    min_modulus_ratio: float = 1e-9,
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
    if mask.cutoff >= carrier.magnitude:
        raise RefusalError(
            f"mask cutoff {mask.cutoff:.6g} rad/px must stay below the carrier "
            f"magnitude {carrier.magnitude:.6g} rad/px"
        )

    centered = remove_carrier(temporal, carrier)
    spectrum = np.fft.fft2(centered.values)
    magnitude = np.abs(spectrum)
    rho = _freq_radius(centered.shape)

    in_band, _ = _disc(centered.shape, carrier.magnitude)
    peak = float(magnitude[in_band].max())
    if peak == 0.0:
        raise DegeneracyError("demodulated field has an empty spectrum")
    occupied = in_band & (magnitude >= _BANDWIDTH_REL_FLOOR * peak)
    bandwidth = float(rho[occupied].max())

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

    admitted, _ = _disc(centered.shape, mask.cutoff)
    total_energy = float(np.sum(magnitude**2))
    out_band = admitted & (rho > bandwidth)
    out_of_band = float(np.sum(magnitude[out_band] ** 2) / total_energy)

    filtered = _keep_disc(spectrum, mask.cutoff) if apply_filter else centered

    phase, valid = field_phase(filtered, min_modulus_ratio)
    diagnostics = SpatialDiagnostics(
        carrier=carrier,
        carrier_source=source,
        mask=mask,
        filter_applied=bool(apply_filter),
        signal_bandwidth=bandwidth,
        out_of_band_energy=out_of_band,
        validity=valid,
        invalid_pixels=int(valid.size - valid.sum()),
    )
    return phase, filtered, diagnostics
