"""Phase-difference metrics in waves, and Monte-Carlo repeatability studies."""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass

import numpy as np

from .carrier import SpectralMask, _guard_band, _keep_disc, _mask_for, _spectral_chain
from .errors import DegeneracyError, RefusalError
from .fields import (
    TWO_PI,
    CarrierSpec,
    PhaseMap,
    _freeze,
    _overflowed,
    _Owned,
    _synthesis_scalars,
    _synthesis_trig,
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
    with np.errstate(over="ignore"):
        diff = first.values - second.values
    # two wrapped maps differ by less than one period beyond [-pi, pi); other
    # maps can differ past the float range, which an owned map refuses first
    diff = fold(diff) if first.wrapped and second.wrapped else wrap(PhaseMap(_Owned(diff)).values)
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
    plane and second piston are subtracted.  The residual is wrapped only
    when it leaves [-pi, pi), where wrap is the identity bit for bit.

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
    residual, report = _piston_tilt(diff.values, diff.wrapped, [np.cos(interior), np.sin(interior)],
                                    (rows, cols), crop, tilt)
    return PhaseMap(_Owned(residual), wrapped=True), report


def _piston_tilt(values, wrapped, trig, interior, crop, tilt, out=None):
    """:func:`remove_piston_tilt` from the first piston on, given ``trig``, the list
    [cos, sin] of ``values`` over the (rows, cols) ``interior``, which it empties so
    the two free early; levels into ``out`` (may be ``values``); returns residual, report."""
    cos, sin = trig
    trig.clear()
    rows, cols = interior
    piston1 = float(np.arctan2(sin.sum(), cos.sum()))
    leveled = np.subtract(values, piston1, out=out)
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
    # free the interior-sized arrays before a full-size wrap and the std
    del cos, sin

    leveled -= alpha * x[None, :]
    leveled -= (beta * y + piston2)[:, None]
    # wrap is the identity bit for bit on [-pi, pi), so only a residual
    # that left it is wrapped; an unwrapped whole-grid interior keeps its span
    low, high = leveled.min(), leveled.max()
    in_range = -np.pi <= low and high < np.pi
    residual = leveled if in_range else wrap(leveled)
    span = high - low if in_range and residual[rows, cols].size == residual.size else None
    piston = float(wrap(piston1 + piston2))

    pv, rms = _pv_rms(residual[rows, cols], span)
    report = PhaseDiffReport(pv=pv, rms=rms, piston_removed=piston, tilt_removed=(alpha, beta),
                             crop=int(crop))
    return residual, report


class _Workspace:
    """What every trial of one Monte-Carlo call writes into: the phasor ``z`` and
    its modulus over the grid, and the ``interior``'s angle, cos, sin and a mask."""

    def __init__(self, shape, crop):
        self.interior = _interior(shape, crop)
        self.z, self.modulus = np.empty(shape, np.complex128), np.empty(shape)
        inner = self.modulus[self.interior].shape
        self.angle, self.cos, self.sin = (np.empty(inner) for _ in range(3))
        self.mask = np.empty(inner, bool)


def _phasor_report(z, reference, crop, work=None):
    """``remove_piston_tilt(wrapped_diff(field_phase(F), reference), crop)``'s
    report from ``z = F e^{-i reference}``: on the interior, angle(z) is the
    difference and z/|z| its cos and sin, with trig only if a pixel is invalid;
    all its arrays go into ``work``, a fresh :class:`_Workspace` when None."""
    work = work or _Workspace(z.shape, crop)
    rows, cols = work.interior
    np.abs(z, out=work.modulus)
    z, modulus = z[rows, cols], work.modulus[rows, cols]
    # np.angle's own formula, in [-pi, pi]; +pi maps to -pi as in field_phase
    diff = np.arctan2(z.imag, z.real, out=work.angle)
    np.copyto(diff, -np.pi, where=np.equal(diff, np.pi, out=work.mask))
    valid = _valid(work.modulus, (rows, cols), out=work.mask)
    if valid.all():
        trig = [np.divide(z.real, modulus, out=work.cos), np.divide(z.imag, modulus, out=work.sin)]
    else:
        diff[~valid] = fold(-reference[rows, cols][~valid])
        trig = [np.cos(diff, out=work.cos), np.sin(diff, out=work.sin)]
    return _piston_tilt(diff, True, trig, (slice(None),) * 2, crop, True, out=diff)[1]


def _pv_rms(interior, span=None):
    """Peak-to-valley and RMS of ``interior`` in waves, given its max - min if known."""
    span = interior.max() - interior.min() if span is None else span
    return float(span / TWO_PI), float(interior.std() / TWO_PI)


def pv_rms(phase_map: PhaseMap, crop: int = 0):
    """Peak-to-valley and RMS of a phase map in waves, over the cropped
    interior; a map whose span or squares overflow raises ``DegeneracyError``."""
    rows, cols = _interior(phase_map.shape, crop)
    with np.errstate(over="ignore", invalid="ignore"):
        pv, rms = _pv_rms(phase_map.values[rows, cols])
    if not (np.isfinite(pv) and np.isfinite(rms)):
        raise _overflowed("phase map statistics", phase_map.shape)
    return pv, rms


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


class _TrialBasis:
    """What every Monte-Carlo trial on one truth shares.  Building it refuses
    a carrier at or below the truth's slope as :func:`generate_stack` does;
    nothing else about the truth can refuse, so a built basis holds none.

    The (3, H, W) ``fields`` are the filtered (temporal: unfiltered) fields
    of e^{i psi}, e^{-i psi} and the background, rotated by e^{-i reference}
    into the reference frame, and ``bands`` their in-band bins.  A trial
    with amplitudes A1, A2 is the weighted sum (A1, A2, background gain) of
    both.  ``rotation`` is kept only for noise, which goes through the chain
    per trial.  Every array is read-only, so a cached basis cannot change.
    """

    def __init__(self, truth: PhaseMap, taps, method, carrier, mask, background, noisy):
        cos, sin = _synthesis_trig(truth, carrier)
        self.method, self.carrier, self.mask = method, carrier, mask
        _freeze(self, "taps", taps)
        _freeze(self, "reference", _reference(truth, method, carrier))
        self.background_gain = background * complex(np.sum(taps))
        # e^{i psi}, e^{-i psi} and the background in one basis array; each slot
        # goes once through the chain and takes back its filtered (temporal: own) field
        fields = np.empty((3,) + truth.shape, dtype=np.complex128)
        np.add(cos, 1j * sin, out=fields[0])
        np.subtract(cos, 1j * sin, out=fields[1])
        del cos, sin
        fields[2] = 1.0
        bands = [None] * 3
        for slot in range(3):
            bands[slot], fields[slot] = self._chain(fields[slot])
        _freeze(self, "bands", np.stack(bands))
        # into the reference frame: each trial's sum is then its residual phasor
        rotation = np.exp(-1j * self.reference)
        fields *= rotation
        _freeze(self, "fields", fields)
        self.rotation = None
        if noisy:
            _freeze(self, "rotation", rotation)

    def _chain(self, field):
        """In-band spectrum bins (none for temporal) and demodulated field;
        of the mask only the cutoff is read."""
        if self.method == "spatial":
            band, spectrum = _spectral_chain(field, self.carrier)
            return band, _keep_disc(spectrum, self.mask.cutoff)
        return np.zeros(0, dtype=np.complex128), field

    def trial(self, pair, noise_sigma, noise_seed, z):
        """In-band bins, and residual phasor written into ``z``, of the trial
        whose conjugate pair is ``pair``, with the noise :func:`generate_stack`
        adds for ``noise_seed`` when ``noise_sigma > 0``."""
        weights = np.array([pair.a1, pair.a2, self.background_gain])
        # amplitudes or noise near the float limit overflow; the caller refuses the trial
        with np.errstate(over="ignore", invalid="ignore"):
            band = weights @ self.bands
            np.matmul(weights, self.fields.reshape(3, -1), out=z.reshape(-1))
            if noise_sigma > 0.0:
                # the noise frames generate_stack adds for this seed, contracted
                rng = np.random.default_rng(noise_seed)
                noise = rng.normal(0.0, noise_sigma, size=(self.taps.size,) + z.shape)
                noise_band, noise_field = self._chain(_contract(noise, self.taps))
                band += noise_band
                z += noise_field * self.rotation
        return band, z


# the last trial basis built, as (key, read-only copy of its truth's values,
# basis, finalizer of its truth), or None
_cached_basis = None


def _drop_basis():
    """Forget the cached trial basis, when its truth is collected or a new
    basis replaces it."""
    global _cached_basis
    entry, _cached_basis = _cached_basis, None
    if entry is not None:
        entry[3].detach()


def _trial_basis(truth: PhaseMap, taps, method, carrier, mask, background, noisy):
    """The :class:`_TrialBasis` of these inputs.  The last one built is reused
    while the truth's values match a copy held with it bit for bit (its
    identity is not enough, since an owned array can be made writable again)
    and the taps, method, carrier, cutoff, background and noise on/off match.
    A miss drops it before building; it goes when its truth is collected."""
    global _cached_basis
    # repr, unlike ==, tells a -0.0 carrier component from +0.0
    key = (taps.tobytes(), method, repr(carrier), mask.cutoff if method == "spatial" else None,
           background, noisy)
    entry = _cached_basis
    # int64 views compare bits, so -0.0 differs from +0.0 as it does in the trig
    if (entry is not None and entry[0] == key
            and np.array_equal(entry[1].view(np.int64), truth.values.view(np.int64))):
        return entry[2]
    _drop_basis()
    held = truth.values.copy()
    held.setflags(write=False)
    basis = _TrialBasis(truth, taps, method, carrier, mask, background, noisy)
    _cached_basis = (key, held, basis, weakref.finalize(truth, _drop_basis))
    return basis


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
    trial's schedule.  Identical seeds reproduce identical statistics.  Each
    trial matches :func:`generate_stack` plus demodulation and compare to
    round-off; README.md explains the superposition that gets it there
    without synthesizing frames.

    What no trial can change raises before the basis is built: the
    parameters, the error family as the schedules are drawn, and, building
    it, a carrier at or below the truth's slope.  The bandwidth guard, an
    overflow and the span check fail single trials, reported, not dropped.

    The trial basis that superposition sums is built once per truth and
    reused by later calls while that truth lives and the taps, method,
    carrier, cutoff, background and noise on/off stay the same: a (3, H, W)
    complex array plus the reference and a copy of the truth (the rotation
    too when noise is on), about 4 MiB at 256x256 and 64 MiB at 1024x1024.
    Each call also holds one workspace that every trial writes into, freed
    on return: the phasor and its modulus over the grid, and the interior's
    angle, cos, sin and a mask, about 2.7 MiB at 256x256 with crop 16 and
    48 MiB at 1024x1024.

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
        mask = _mask_for(carrier, mask)
        if crop is None:
            crop = mask.border_crop
    elif crop is None:
        crop = 0
    _interior(truth.shape, crop)
    background, contrast, noise_sigma = _synthesis_scalars(background, contrast, spec.n_steps,
                                                           noise_sigma)
    draws = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        schedule_seed, noise_seed = child.spawn(2)
        schedule = make_error_schedule(error_kind, spec.n_steps, magnitude=error_magnitude,
                                       nominal_step=spec.nominal_step, seed=schedule_seed)
        draws.append((conjugate_amplitudes(spec, schedule, contrast), noise_seed))
    basis = _trial_basis(truth, spec.combined_taps(), method, carrier, mask, background,
                         noise_sigma > 0.0)

    work = _Workspace(truth.shape, crop)
    pvs, ratios, failures = [], [], []
    for index, (pair, noise_seed) in enumerate(draws):
        band, z = basis.trial(pair, noise_sigma, noise_seed, work.z)
        try:
            if method == "spatial":
                _guard_band(band, truth.shape, carrier)
            report = _phasor_report(z, basis.reference, crop, work)
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
