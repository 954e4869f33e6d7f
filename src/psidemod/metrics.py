"""Phase-difference metrics in waves, and Monte-Carlo repeatability studies."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .carrier import SpectralMask, _guard_band, _spectral_chain
from .errors import DegeneracyError, RefusalError
from .fields import (
    TWO_PI,
    CarrierSpec,
    ComplexField,
    PhaseMap,
    _Owned,
    _synthesis_inputs,
    fold,
    make_error_schedule,
    wrap,
)
from .conjugate import conjugate_amplitudes
from .psa import PsaSpec, _contract, _valid

# a piston-removed residual spanning nearly the full cycle means the
# difference still contains wraps, which piston/tilt fitting cannot see past
_WRAP_SPAN_LIMIT = TWO_PI - 0.05


@dataclass(frozen=True)
class PhaseDiffReport:
    """Summary of a residual phase difference.  pv and rms are in waves."""

    pv: float
    rms: float
    piston_removed: float
    tilt_removed: tuple[float, float]
    crop: int

    def to_dict(self) -> dict:
        return {
            "pv_waves": self.pv,
            "rms_waves": self.rms,
            "piston_removed_rad": self.piston_removed,
            "tilt_removed_rad_per_px": list(self.tilt_removed),
            "crop": self.crop,
        }


def wrapped_diff(first: PhaseMap, second: PhaseMap) -> PhaseMap:
    """Pointwise wrapped difference first - second in [-pi, pi)."""
    if first.shape != second.shape:
        raise ValueError(f"phase maps differ in shape: {first.shape} vs {second.shape}")
    diff = first.values - second.values
    # two wrapped maps differ by less than one period beyond [-pi, pi)
    diff = fold(diff) if first.wrapped and second.wrapped else wrap(diff)
    return PhaseMap(_Owned(diff), wrapped=True)


def _interior(shape, crop):
    crop = int(crop)
    if crop < 0:
        raise ValueError(f"crop must be >= 0, got {crop}")
    height, width = shape
    if 2 * crop > min(height, width) - 2:
        raise ValueError(f"crop {crop} px leaves under 2 interior pixels on a {height}x{width} map")
    return slice(crop, height - crop), slice(crop, width - crop)


def remove_piston_tilt(diff: PhaseMap, crop: int = 0, tilt: bool = True):
    """Remove the best-fit piston (and optionally tilt) from a phase difference.

    Piston is the circular mean, immune to wrap position; tilt is a plane
    fit by least squares on coordinates centered over the cropped interior,
    so the piston and tilt estimates decouple exactly and reapplying the
    function is the identity up to rounding.  All fitting and statistics
    use the interior only; the returned residual covers the full grid.

    One trig pass: cos and sin of the interior give the first piston, and
    the second piston, taken after the plane, is the separable sum
    ``e^{-i p1} sum_y e^{-i beta y} sum_x (cos + i sin) e^{-i alpha x}``
    of the same two arrays.  The plane comes from row and column sums, and
    plane and second piston are subtracted before the one final wrap.

    Refuses when the piston-removed interior still spans nearly the full
    cycle: the difference then contains genuine wraps and a piston/tilt
    model cannot describe it.

    Returns
    -------
    (PhaseMap, PhaseDiffReport)
        Wrapped residual and the removed-term report with interior pv/rms.
    """
    rows, cols = _interior(diff.shape, crop)
    interior = diff.values[rows, cols]
    # cos and sin go straight into the core, which frees them before its wrap
    residual, report = _piston_tilt(diff.values, diff.wrapped, np.cos(interior), np.sin(interior),
                                    (rows, cols), crop, tilt)
    return PhaseMap(_Owned(residual), wrapped=True), report


def _piston_tilt(values, wrapped, cos, sin, interior, crop, tilt):
    """:func:`remove_piston_tilt` from the first piston on, given cos and sin of
    ``values`` over the (rows, cols) ``interior``; returns residual and report."""
    rows, cols = interior
    piston1 = float(np.arctan2(sin.sum(), cos.sum()))
    leveled = values - piston1
    # a wrapped map and its circular mean both lie in [-pi, pi]
    leveled = fold(leveled) if wrapped else wrap(leveled)

    interior = leveled[rows, cols]
    span = float(interior.max() - interior.min())
    if span >= _WRAP_SPAN_LIMIT:
        raise RefusalError(
            f"piston-removed difference spans {span:.4f} rad, within rounding of a full "
            "cycle: the difference still wraps, so piston/tilt removal is ill-defined"
        )

    height, width = values.shape
    x = np.arange(width, dtype=np.float64) - np.mean(np.arange(width)[cols])
    y = np.arange(height, dtype=np.float64) - np.mean(np.arange(height)[rows])
    x_in, y_in = x[cols], y[rows]
    alpha = beta = 0.0
    if tilt:
        alpha = float(interior.sum(axis=0) @ x_in / (np.sum(x_in**2) * interior.shape[0]))
        beta = float(interior.sum(axis=1) @ y_in / (np.sum(y_in**2) * interior.shape[1]))

    # rows of (cos + i sin) e^{-i alpha x} by real matrix-vector products
    # (a matrix-matrix product would touch BLAS packing buffers, raising RSS)
    ex = np.exp(-1j * alpha * x_in)
    row_sums = (cos @ ex.real - sin @ ex.imag) + 1j * (cos @ ex.imag + sin @ ex.real)
    total = np.exp(-1j * piston1) * (np.exp(-1j * beta * y_in) @ row_sums)
    piston2 = float(np.angle(total))
    # free the interior-sized arrays before the full-size wrap and std
    del cos, sin

    leveled -= alpha * x[None, :]
    leveled -= (beta * y + piston2)[:, None]
    residual = wrap(leveled)
    piston = float(wrap(piston1 + piston2))

    pv, rms = _pv_rms(residual[rows, cols])
    report = PhaseDiffReport(pv=pv, rms=rms, piston_removed=piston, tilt_removed=(alpha, beta),
                             crop=int(crop))
    return residual, report


def _phasor_report(z, reference, crop):
    """``remove_piston_tilt(wrapped_diff(field_phase(F), reference), crop)``'s
    report from ``z = F e^{-i reference}``: on the interior, angle(z) is the
    difference and z/|z| its cos and sin, with trig only if a pixel is invalid."""
    rows, cols = _interior(z.shape, crop)
    modulus = np.abs(z)
    valid = _valid(modulus, float(modulus.max()))[rows, cols]
    z, modulus = z[rows, cols], modulus[rows, cols]
    diff = np.angle(z)
    diff[diff == np.pi] = -np.pi
    if valid.all():
        cos, sin = z.real / modulus, z.imag / modulus
    else:
        diff[~valid] = fold(-reference[rows, cols][~valid])
        cos, sin = np.cos(diff), np.sin(diff)
    return _piston_tilt(diff, True, cos, sin, (slice(None),) * 2, crop, True)[1]


def _pv_rms(interior):
    """Peak-to-valley and RMS of ``interior`` in waves."""
    return float((interior.max() - interior.min()) / TWO_PI), float(interior.std() / TWO_PI)


def pv_rms(phase_map: PhaseMap, crop: int = 0):
    """Peak-to-valley and RMS of a phase map in waves, over the cropped interior."""
    rows, cols = _interior(phase_map.shape, crop)
    return _pv_rms(phase_map.values[rows, cols])


def _reference(truth: PhaseMap, method, carrier: CarrierSpec | None):
    """The wrapped phase a demodulated field is compared against: the truth,
    plus the synthesis carrier for a temporal phase, which still carries it."""
    reference = truth.values
    if method == "temporal" and carrier is not None:
        reference = reference + carrier.phase_field(truth.shape)
    return wrap(reference)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-trial residual peak-to-valley statistics for one demodulation method."""

    method: str
    trials: int
    seed: int
    error_kind: str
    error_magnitude: float
    pv_waves: tuple
    leak_ratios: tuple
    failures: tuple
    percentiles: dict

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return asdict(self)


def montecarlo_repeatability(
    truth: PhaseMap,
    spec: PsaSpec,
    method: str = "temporal",
    carrier: CarrierSpec | None = None,
    mask: SpectralMask | None = None,
    error_kind: str = "uniform",
    error_magnitude: float = 0.3,
    trials: int = 50,
    seed: int = 0,
    background: float = 128.0,
    contrast: float = 100.0,
    noise_sigma: float = 0.0,
    crop: int | None = None,
) -> MonteCarloSummary:
    """Repeat demodulate-compare over freshly drawn error schedules.

    Each trial draws its own step-error schedule (and noise when requested)
    from an independent child of ``seed``, demodulates with the chosen
    method, removes piston and tilt from the wrapped difference against the
    truth (plus the carrier, for a temporal phase), and records the interior
    peak-to-valley in waves together with the closed-form leak ratio of that
    trial's schedule.  Trials whose synthesis, demodulation or comparison
    refuses are counted and reported, not silently dropped.  Identical seeds
    reproduce identical statistics.  Each trial matches :func:`generate_stack`
    plus demodulation and compare to round-off; README.md explains the
    superposition that gets it there without synthesizing frames.

    ``method`` is ``temporal`` (phase of the temporal field, artifact
    included) or ``spatial`` (carrier removal plus low-pass; requires a
    carrier).  ``crop`` defaults to the mask border crop for spatial runs
    and 0 for temporal ones.
    """
    if method not in ("temporal", "spatial"):
        raise ValueError(f"unknown method {method!r}, expected 'temporal' or 'spatial'")
    trials = int(trials)
    if trials < 2:
        raise ValueError(f"need at least 2 trials for repeatability, got {trials}")

    if method == "spatial":
        if carrier is None:
            raise ValueError("spatial method requires a carrier")
        if mask is None:
            mask = SpectralMask.for_carrier(carrier)
        if crop is None:
            crop = mask.border_crop
    elif crop is None:
        crop = 0
    reference = _reference(truth, method, carrier)

    # truth and carrier are fixed, so every trial shares one base phase;
    # a slope refusal fails each trial as generate_stack would
    try:
        background, _, noise_sigma, cos, sin = _synthesis_inputs(
            truth, background, contrast, spec.n_steps, carrier, noise_sigma
        )
        refusal = None
    except RefusalError as exc:
        refusal = str(exc)
    else:
        taps = spec.combined_taps()
        background_gain = background * complex(np.sum(taps))

        def chain(field):
            """In-band spectrum bins (none for temporal) and demodulated field."""
            if method == "spatial":
                band, _, filtered = _spectral_chain(ComplexField(_Owned(field)), carrier, mask)
                return band, filtered.values
            return np.zeros(0, dtype=np.complex128), field

        # e^{i psi}, e^{-i psi} and the background, each once through the chain
        unit = (cos + 1j * sin, cos - 1j * sin, np.ones(truth.shape))
        bands, fields = map(np.stack, zip(*map(chain, unit)))
        del unit, cos, sin
        # into the reference frame: each trial's sum is then its residual phasor
        rotation = np.exp(-1j * reference)
        fields *= rotation

    children = np.random.SeedSequence(seed).spawn(trials)
    pvs, ratios, failures = [], [], []
    for index, child in enumerate(children):
        schedule_seed, noise_seed = child.spawn(2)
        schedule = make_error_schedule(
            error_kind,
            spec.n_steps,
            magnitude=error_magnitude,
            nominal_step=spec.nominal_step,
            seed=schedule_seed,
        )
        pair = conjugate_amplitudes(spec, schedule, contrast)
        if refusal is not None:
            failures.append((index, refusal))
            continue
        weights = np.array([pair.a1, pair.a2, background_gain])
        band, z = weights @ bands, np.tensordot(weights, fields, 1)
        if noise_sigma > 0.0:
            # the noise frames generate_stack adds for this seed, contracted
            rng = np.random.default_rng(noise_seed)
            noise = rng.normal(0.0, noise_sigma, size=(spec.n_steps,) + truth.shape)
            noise_band, noise_field = chain(_contract(noise, taps))
            band += noise_band
            z += noise_field * rotation
        try:
            if method == "spatial":
                _guard_band(band, truth.shape, carrier, mask)
            ComplexField(_Owned(z))  # refuses an overflowed field
            report = _phasor_report(z, reference, crop)
        except (RefusalError, DegeneracyError) as exc:
            failures.append((index, str(exc)))
            continue
        pvs.append(report.pv)
        ratios.append(pair.leak_ratio)

    if pvs:
        levels = (50, 90, 95, 99)
        values = np.percentile(pvs, levels)
        percentiles = {f"p{level}": float(v) for level, v in zip(levels, values)}
    else:
        percentiles = {}

    return MonteCarloSummary(
        method=method,
        trials=trials,
        seed=int(seed),
        error_kind=error_kind,
        error_magnitude=float(error_magnitude),
        pv_waves=tuple(pvs),
        leak_ratios=tuple(ratios),
        failures=tuple(failures),
        percentiles=percentiles,
    )
