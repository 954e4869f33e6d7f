"""Core field types and synthetic interferogram generation.

The temporal fringe model is

    I(n) = a + b * cos(phi + u0*x + v0*y + n*w0 + eps_n),   n = 0 .. N-1

with scalar background ``a``, scalar contrast ``b``, nominal temporal step
``w0`` and one space-independent step deviation ``eps_n`` per frame.  Pixel
coordinates are integers, ``x`` the column index and ``y`` the row index,
origin at pixel (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, RefusalError

TWO_PI = 2.0 * np.pi
# wrap's multiple of 2 pi misses by about 1e-16 |x|: 1e-10 rad here, periods past 1e16
_FAR = 2.0**20

WAVEFRONT_KINDS = ("flat", "tilt", "defocus", "astigmatism", "polynomial")
ERROR_KINDS = ("zero", "uniform", "gaussian", "quadratic-pzt")


def wrap(values):
    """Wrap phase values (radians) to the interval [-pi, pi).

    Always returns a new ndarray (0-d for scalar input); the input is only read.
    Refuses an entry past the float range with ``ValueError``, and a NaN or
    infinite one, read off the same min and max that pick the path for large entries.
    """
    v = _converted(np.asarray, values, "phase values", dtype=np.float64)
    low, high = (float(v.min()), float(v.max())) if v.size else (0.0, 0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError(f"phase values of shape {v.shape} contain non-finite values")
    w = np.add(v, np.pi, out=np.empty(v.shape))
    w /= TWO_PI
    np.floor(w, out=w)
    w *= TWO_PI
    np.subtract(v, w, out=w)
    fold(w)
    # entries from _FAR on take the angle of e^{iv}, whose sin and cos
    # reduce v accurately at any magnitude
    if not (-_FAR < low and high < _FAR):
        far = np.abs(v) >= _FAR
        w[far] = fold(np.arctan2(np.sin(v[far]), np.cos(v[far])))
    return w


def fold(w):
    """Fold values lying within one period of [-pi, pi) into it, in place.

    Enough for the difference of two wrapped values, and for the last
    rounding step of :func:`wrap`.  Returns ``w``.
    """
    w[w < -np.pi] += TWO_PI
    # the add can round up to exactly pi, so the upper fix-up comes second
    w[w >= np.pi] -= TWO_PI
    return w


def _freeze(obj, name, array):
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


class _Owned:
    """An array the library just computed and hands over with no other
    reference kept: constructors check and freeze it instead of copying it."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _converted(convert, value, what, **options):
    """``convert(value, **options)``, the one conversion of every public input; a value
    past the float range, ``OverflowError`` to Python and numpy, raises ``ValueError``."""
    try:
        return convert(value, **options)
    except OverflowError:
        raise ValueError(f"{what} holds a value past the float range") from None


def _real(value, what) -> float:
    """``value`` as a finite float; refuses NaN, an infinity and a value past the
    float range.  ``float`` rather than an array keeps it cheap per call."""
    number = _converted(float, value, what)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number!r}")
    return number


def _count(value, what, least) -> int:
    """``value`` as an int of at least ``least``: an int or an integral float
    such as 5.0, exact up to 2**53; refuses 2.5 as well as what :func:`_real` does."""
    number = _real(value, what)
    if not number.is_integer():
        raise ValueError(f"{what} must be a whole number, got {number!r}")
    if number < least:
        raise ValueError(f"{what} must be at least {least}, got {int(number)}")
    return int(number)


def _validated(values, dtype, what, min_shape) -> np.ndarray:
    """A private copy of ``values`` (or the array of an :class:`_Owned`) with
    one axis per entry of ``min_shape``, each at least that long, and only
    finite entries; an owned non-finite array is an overflow, so degenerate."""
    owned = isinstance(values, _Owned)
    v = (np.asarray(values.array, dtype=dtype) if owned
         else _converted(np.array, values, what, dtype=dtype, copy=True))
    if v.ndim != len(min_shape) or any(n < m for n, m in zip(v.shape, min_shape)):
        raise ValueError(
            f"{what} must be {len(min_shape)}D with shape at least {min_shape}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        if owned:
            raise _overflowed(what, v.shape)
        raise ValueError(f"{what} of shape {v.shape} contains non-finite values")
    return v


def _overflowed(what, shape) -> DegeneracyError:
    return DegeneracyError(
        f"{what} of shape {shape} computed from finite input overflowed to non-finite values"
    )


def _peak(modulus, what, shape) -> float:
    """max(``modulus``) of ``what`` computed from finite input; refuses an overflow."""
    peak = float(modulus.max())
    if not np.isfinite(peak):
        raise _overflowed(what, shape)
    return peak


def _nominal_step(value) -> float:
    step = _real(value, "nominal step")
    if step == 0.0:
        raise ValueError(f"nominal step must be nonzero, got {step!r}")
    return step


class _Grid:
    """Row-major grid properties of a (height, width) ``shape``, by default
    that of a 2D ``values`` array."""

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class PhaseMap(_Grid):
    """A 2D phase field in radians, row-major, at least 2x2.

    ``wrapped=True`` constrains every value to [-pi, pi); unwrapped maps
    (synthetic truths) are unconstrained but must be finite.
    """

    values: np.ndarray
    wrapped: bool = False

    def __post_init__(self):
        v = _validated(self.values, np.float64, "phase map", (2, 2))
        # slack of a few float32 ULP so re-imported .f32 maps stay valid
        if self.wrapped and (v.min() < -np.pi - 1e-6 or v.max() >= np.pi + 1e-6):
            raise ValueError("wrapped phase map has values outside [-pi, pi)")
        _freeze(self, "values", v)


@dataclass(frozen=True)
class ComplexField(_Grid):
    """A 2D complex-valued field, same grid conventions as PhaseMap."""

    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", _validated(self.values, np.complex128, "complex field", (2, 2)))


@dataclass(frozen=True)
class ErrorSchedule:
    """Per-frame nonlinear step deviations eps_n, radians."""

    deviations: np.ndarray

    def __post_init__(self):
        d = _validated(np.atleast_1d(self.deviations), np.float64, "error schedule", (1,))
        _freeze(self, "deviations", d)

    @property
    def n_frames(self) -> int:
        return self.deviations.size


@dataclass(frozen=True)
class CarrierSpec:
    """Spatial carrier frequency (u0, v0) in radians per pixel.

    The magnitude must sit strictly inside (0, pi) so the carrier is both
    present and below the Nyquist limit of the pixel grid.
    """

    u0: float
    v0: float = 0.0

    def __post_init__(self):
        u0, v0 = _real(self.u0, "carrier frequency u0"), _real(self.v0, "carrier frequency v0")
        mag = float(np.hypot(u0, v0))
        if not 0.0 < mag < np.pi:
            raise ValueError(
                f"carrier magnitude {mag:.6g} rad/px must lie strictly inside (0, pi)"
            )
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)

    @property
    def magnitude(self) -> float:
        return float(np.hypot(self.u0, self.v0))

    def phase_field(self, shape) -> np.ndarray:
        """Carrier phase u0*x + v0*y on an (height, width) grid."""
        height, width = shape
        x = np.arange(width, dtype=np.float64)
        y = np.arange(height, dtype=np.float64)
        return self.u0 * x[None, :] + self.v0 * y[:, None]


@dataclass(frozen=True)
class StackMetadata:
    """Generation parameters carried by a stack; None where unknown."""

    background: float | None = None
    contrast: float | None = None
    carrier: CarrierSpec | None = None
    errors: ErrorSchedule | None = None
    noise_sigma: float | None = None
    seed: int | None = None


@dataclass(frozen=True)
class InterferogramStack(_Grid):
    """N temporally phase-shifted frames on a common pixel grid.

    ``frames`` has shape (n, height, width); ``nominal_step`` is the intended
    per-frame phase increment w0 in radians.
    """

    frames: np.ndarray
    nominal_step: float
    metadata: StackMetadata = field(default_factory=StackMetadata)

    def __post_init__(self):
        _freeze(self, "frames", _validated(self.frames, np.float64, "stack frames", (3, 2, 2)))
        object.__setattr__(self, "nominal_step", _nominal_step(self.nominal_step))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self):
        return self.frames.shape[1:]


def synthesize_wavefront(kind, amplitude, shape, coefficients=None) -> PhaseMap:
    """Generate a smooth test wavefront with a prescribed peak-to-valley.

    Parameters
    ----------
    kind : str
        One of ``flat``, ``tilt`` (linear along +x), ``defocus``
        (centered paraboloid), ``astigmatism`` (centered saddle) or
        ``polynomial`` (2D polynomial in normalized centered coordinates).
    amplitude : float
        Requested peak-to-valley in radians, >= 0.  Must be 0 for ``flat``.
        For ``polynomial`` pass None to keep the raw coefficient scaling.
    shape : tuple of int
        (height, width) of the pixel grid.
    coefficients : array_like, optional
        2D coefficient table C[i, j] multiplying x_hat**i * y_hat**j, only
        for ``polynomial``; x_hat, y_hat span [-1, 1] across the grid.

    Returns
    -------
    PhaseMap
        Unwrapped phase whose max - min equals ``amplitude`` up to rounding.
    """
    if kind not in WAVEFRONT_KINDS:
        raise ValueError(f"unknown wavefront kind {kind!r}, expected one of {WAVEFRONT_KINDS}")
    height, width = _count(shape[0], "wavefront height", 2), _count(shape[1], "wavefront width", 2)

    if kind == "flat":
        if amplitude not in (None, 0, 0.0):
            raise ValueError("flat wavefront requires amplitude 0")
        return PhaseMap(np.zeros((height, width)))

    if kind != "polynomial" or amplitude is not None:
        amplitude = _real(amplitude, "amplitude")
        if amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude!r}")

    x = np.arange(width, dtype=np.float64)
    y = np.arange(height, dtype=np.float64)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0

    if kind == "tilt":
        raw = np.broadcast_to(x[None, :], (height, width)).copy()
    elif kind == "defocus":
        raw = (x[None, :] - cx) ** 2 + (y[:, None] - cy) ** 2
    elif kind == "astigmatism":
        raw = (x[None, :] - cx) ** 2 - (y[:, None] - cy) ** 2
    else:
        if coefficients is None:
            raise ValueError("polynomial wavefront requires a coefficient table")
        coeffs = _validated(np.atleast_2d(coefficients), np.float64, "polynomial coefficients",
                            (1, 1))
        x_hat = (x - cx) / cx
        y_hat = (y - cy) / cy
        # an overflowed profile is refused by the owned check or the span's
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.polynomial.polynomial.polyval2d(
                np.broadcast_to(x_hat[None, :], (height, width)),
                np.broadcast_to(y_hat[:, None], (height, width)),
                coeffs,
            )
        if amplitude is None:
            return PhaseMap(_Owned(raw))

    with np.errstate(over="ignore", invalid="ignore"):
        span = float(raw.max() - raw.min())
    if not np.isfinite(span):
        raise _overflowed(f"{kind} profile", (height, width))
    if span == 0.0:
        if amplitude == 0.0:
            return PhaseMap(np.zeros((height, width)))
        raise ValueError(f"{kind} profile is constant on this grid, cannot scale to P-V {amplitude}")
    with np.errstate(over="ignore", invalid="ignore"):
        return PhaseMap(_Owned(raw * (amplitude / span)))


def make_error_schedule(kind, n_frames, magnitude=0.0, nominal_step=None, seed=None) -> ErrorSchedule:
    """Draw or construct a per-frame step-deviation schedule.

    ``magnitude`` is the half-range for ``uniform`` (eps_n in [-m, m]),
    the standard deviation for ``gaussian``, and the curvature kappa for
    ``quadratic-pzt`` where eps_n = kappa * (n * w0)**2 (a detuning ramp
    typical of an uncalibrated piezo); ``zero`` ignores it.
    """
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error-schedule kind {kind!r}, expected one of {ERROR_KINDS}")
    n_frames = _count(n_frames, "schedule frame count", 3)
    magnitude = _real(magnitude, "schedule magnitude")

    if kind == "zero":
        return ErrorSchedule(np.zeros(n_frames))
    if kind == "quadratic-pzt":
        if nominal_step is None:
            raise ValueError("quadratic-pzt schedule requires the nominal step")
        n = np.arange(n_frames, dtype=np.float64)
        return ErrorSchedule(magnitude * (n * _real(nominal_step, "nominal step")) ** 2)

    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return ErrorSchedule(rng.uniform(-magnitude, magnitude, n_frames))
    return ErrorSchedule(rng.normal(0.0, abs(magnitude), n_frames))


def _max_slope_along(truth: PhaseMap, carrier: CarrierSpec) -> float:
    # an axis the carrier has no component on adds a signed zero to each
    # finite term, which changes nothing, so it is not differentiated;
    # neighbours a float range apart overflow, which the caller refuses
    u0, v0, mag = carrier.u0, carrier.v0, carrier.magnitude
    with np.errstate(over="ignore", invalid="ignore"):
        if v0 == 0.0:
            directional = np.gradient(truth.values, axis=1) * u0 / mag
        elif u0 == 0.0:
            directional = np.gradient(truth.values, axis=0) * v0 / mag
        else:
            gy, gx = np.gradient(truth.values)
            directional = (gx * u0 + gy * v0) / mag
    return float(np.abs(directional).max())


def _synthesis_scalars(background, contrast, n_frames, noise_sigma):
    """:func:`generate_stack`'s checks of its scalar parameters; returns the
    validated background, contrast, frame count and noise sigma."""
    background, contrast = _real(background, "background"), _real(contrast, "contrast")
    if contrast <= 0.0:
        raise ValueError(f"contrast must be > 0, got {contrast!r}")
    if background < contrast:
        raise ValueError(f"background {background} < contrast {contrast} gives negative intensities")
    n_frames = _count(n_frames, "stack frame count", 3)
    noise_sigma = _real(noise_sigma, "noise sigma")
    if noise_sigma < 0.0:
        raise ValueError(f"noise sigma must be >= 0, got {noise_sigma!r}")
    return background, contrast, n_frames, noise_sigma


def _synthesis_trig(truth: PhaseMap, carrier):
    """:func:`generate_stack`'s slope refusal, then cos and sin of the base
    phase ``truth + carrier``; neither depends on the schedule."""
    base = truth.values
    if carrier is not None:
        slope = _max_slope_along(truth, carrier)
        if not np.isfinite(slope):
            raise RefusalError(
                f"wavefront slope along the carrier direction is {slope}: neighbouring "
                "truth values differ by more than the float range"
            )
        if carrier.magnitude <= slope:
            raise RefusalError(
                f"carrier magnitude {carrier.magnitude:.6g} rad/px must exceed the maximum "
                f"wavefront slope {slope:.6g} rad/px along the carrier direction"
            )
        base = truth.values + carrier.phase_field(truth.shape)
    return np.cos(base), np.sin(base)


def generate_stack(
    truth: PhaseMap,
    background,
    contrast,
    nominal_step,
    n_frames,
    errors: ErrorSchedule | None = None,
    carrier: CarrierSpec | None = None,
    noise_sigma=0.0,
    seed=None,
) -> InterferogramStack:
    """Synthesize an N-frame stack from a truth wavefront.

    Frames follow the fringe model in the module docstring.  A requested
    spatial carrier must exceed the maximum wavefront slope along the
    carrier direction (finite-difference estimate), otherwise the carrier
    cannot separate the signal from its conjugate and the call refuses.
    Noise, when ``noise_sigma > 0``, is additive white Gaussian drawn from
    a generator seeded with ``seed``; generation is bit-reproducible.
    """
    background, contrast, n_frames, noise_sigma = _synthesis_scalars(background, contrast,
                                                                     n_frames, noise_sigma)
    cos, sin = _synthesis_trig(truth, carrier)
    nominal_step = _nominal_step(nominal_step)
    if errors is None:
        errors = ErrorSchedule(np.zeros(n_frames))
    if errors.n_frames != n_frames:
        raise RefusalError(
            f"error schedule has {errors.n_frames} entries for a {n_frames}-frame stack"
        )

    # frame n is a + b*(C*cos(s_n) - S*sin(s_n)) = a + b*cos(base + s_n),
    # with C, S the cos/sin of the base phase and s_n = n*w0 + eps_n
    rng = np.random.default_rng(seed) if noise_sigma > 0.0 else None
    frames = np.empty((n_frames,) + cos.shape)
    scratch = np.empty(cos.shape)
    # an overflowed frame is refused by the stack's own finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_frames):
            shift = n * nominal_step + errors.deviations[n]
            frame = frames[n]
            np.multiply(cos, contrast * np.cos(shift), out=frame)
            np.multiply(sin, contrast * np.sin(shift), out=scratch)
            frame -= scratch
            frame += background
            if rng is not None:
                frame += rng.normal(0.0, noise_sigma, size=frame.shape)

    meta = StackMetadata(
        background=background,
        contrast=contrast,
        carrier=carrier,
        errors=errors,
        noise_sigma=noise_sigma,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
    )
    return InterferogramStack(_Owned(frames), nominal_step, meta)
