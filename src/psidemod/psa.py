"""Phase-shifting algorithms, their frequency response, and temporal demodulation.

An N-step algorithm is a tap vector c_n applied at the nominal step w0.  This
toolkit demodulates with the analytic-signal convention

    S(x, y) = sum_n c_n * exp(-i n w0) * I(n; x, y)

so that for ideal steps the signal term carries exp(+i phi).  The frequency
transfer function is evaluated on the same convention,

    H(omega) = sum_n c_n * exp(-i n (w0 + omega)),

hence H(-w0) = sum_n c_n is the signal passband gain, H(0) the background
response, and H(+w0) the conjugate response.  |H| is the omega -> -omega
mirror of the convention that applies exp(+i n w0) taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusalError
from .fields import (TWO_PI, ComplexField, InterferogramStack, PhaseMap, _converted, _count,
                     _nominal_step, _Owned, _peak, _validated, wrap)

# a coefficient vector counts as real when its imaginary part is at this
# relative level; as background-rejecting when |H(0)| is
_REAL_TOL = 1e-12
_BACKGROUND_TOL = 1e-12
# a pixel's phase counts as valid when its modulus reaches this fraction
# of the field's peak modulus
_MIN_MODULUS_RATIO = 1e-9
# pixels per matmul of the temporal contraction: 640 KiB of five float64
# frames, which stays in L2
_CONTRACT_BLOCK = 2**14


@dataclass(frozen=True)
class PsaSpec:
    """Tap coefficients c_n of an N-step algorithm at nominal step w0.

    Coefficients may be complex (zero-placement designs at a generic w0
    produce complex taps); vectors whose imaginary part is negligible are
    stored as real.  Background rejection, H(0) = 0, is a queryable
    property rather than a construction requirement.
    """

    coefficients: np.ndarray
    nominal_step: float

    def __post_init__(self):
        c = np.atleast_1d(self.coefficients)
        c = _validated(c, np.complex128 if np.iscomplexobj(c) else np.float64,
                       "tap coefficients", (2,))
        if np.iscomplexobj(c) and np.abs(c.imag).max() <= _REAL_TOL * np.abs(c).max():
            c = c.real.copy()
        if not np.any(c != 0):
            raise ValueError("tap coefficients are all zero")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "nominal_step", _nominal_step(self.nominal_step))

    @property
    def n_steps(self) -> int:
        return self.coefficients.size

    def combined_taps(self) -> np.ndarray:
        """The effective complex taps c_n * exp(-i n w0) applied to the frames."""
        n = np.arange(self.n_steps)
        return self.coefficients * np.exp(-1j * n * self.nominal_step)

    @property
    def background_leak(self) -> float:
        """|H(0)|, the residual response to the constant background."""
        return float(abs(np.sum(self.combined_taps())))

    @property
    def rejects_background(self) -> bool:
        scale = max(1.0, float(np.abs(self.coefficients).sum()))
        return self.background_leak < _BACKGROUND_TOL * scale


def sh5_spec() -> PsaSpec:
    """The five-step Schwider-Hariharan algorithm, taps {1, 2, 2, 2, 1} at w0 = pi/2.

    Its combined taps are {1, -2i, -2, 2i, 1}, i.e. S = I0 - 2i I1 - 2 I2
    + 2i I3 + I4.  The FTF has a simple zero at omega = 0 (background), a
    double zero at omega = +pi/2 (conjugate, first-order detuning-robust)
    and passband gain H(-pi/2) = 8.
    """
    return PsaSpec(np.array([1.0, 2.0, 2.0, 2.0, 1.0]), np.pi / 2)


def ftf_eval(spec: PsaSpec, omega):
    """Evaluate H(omega) = sum_n c_n exp(-i n (w0 + omega)).

    ``omega`` is the detuning from the nominal step; scalar in, scalar out.
    """
    om = _converted(np.asarray, omega, "detuning omega", dtype=np.float64)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    n = np.arange(spec.n_steps)
    values = np.exp(-1j * (spec.nominal_step + om)[..., None] * n) @ spec.coefficients.astype(
        np.complex128
    )
    return complex(values[0]) if scalar else values


def ftf_sweep(spec: PsaSpec, samples: int = 1024):
    """Uniformly sample H over [-pi, pi); returns (omegas, values).

    The default 1024-point grid contains 0, +-pi/2 and -pi exactly.
    """
    samples = _count(samples, "sweep sample count", 2)
    omegas = -np.pi + TWO_PI * np.arange(samples) / samples
    return omegas, ftf_eval(spec, omegas)


def taps_from_zeros(zeros, nominal_step) -> PsaSpec:
    """Design an algorithm by placing FTF zeros.

    Expands H(omega) = prod_k (1 - exp(i z_k) t) with t = exp(-i(w0+omega))
    by repeated convolution, then lifts the combined taps back to base
    coefficients c_n.  Repeated zeros are allowed (they flatten the
    response).  Placing a zero at the passband -w0 would null the signal
    itself and is refused.

    The taps are unnormalized; rescale by the passband gain sum(c_n) when a
    unit-gain design is wanted.
    """
    zs = _validated(np.atleast_1d(zeros), np.float64, "zero locations", (1,))
    step = _nominal_step(nominal_step)
    for z in zs:
        if abs(float(wrap(z + step))) < 1e-9:
            raise RefusalError(
                f"requested zero at omega = {z:.6g} coincides with the passband -w0; "
                "the design would reject the signal it is meant to pass"
            )
    poly = np.array([1.0 + 0.0j])
    for z in zs:
        poly = np.convolve(poly, np.array([1.0, -np.exp(1j * z)]))
    n = np.arange(poly.size)
    return PsaSpec(poly * np.exp(1j * step * n), step)


def demodulate_temporal(stack: InterferogramStack, spec: PsaSpec) -> ComplexField:
    """Apply the algorithm taps across the frame axis.

    Returns the complex analytic field S = sum_n c_n exp(-i n w0) I(n).
    For the error-free model, S = A1 exp(i phi) with A1 = (b/2) sum c_n
    whenever the algorithm rejects background; with step errors eps_n a
    conjugate term A2 exp(-i phi) appears alongside.  Finite frames whose
    contraction overflows raise ``DegeneracyError``.
    """
    if spec.n_steps != stack.n_frames:
        raise RefusalError(
            f"algorithm has {spec.n_steps} taps but the stack has {stack.n_frames} frames"
        )
    if not math.isclose(spec.nominal_step, stack.nominal_step, rel_tol=1e-12, abs_tol=1e-12):
        raise RefusalError(
            f"algorithm nominal step {spec.nominal_step!r} does not match "
            f"stack nominal step {stack.nominal_step!r}"
        )
    return ComplexField(_Owned(_contract(stack.frames, spec.combined_taps())))


def _contract(frames: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """sum_n taps[n] * frames[n] over real frames of shape (N, height, width),
    one block of ``_CONTRACT_BLOCK`` pixels at a time.  Each output element is
    the same N-term dot product whatever the block, so the bits do not depend
    on it; a block's frames stay in cache, and OpenBLAS neither packs the whole
    stack nor splits so small a product over threads."""
    # the frames are real, so one real matmul (HW x N) @ (N x 2) gives the
    # interleaved real and imaginary parts of S directly in complex layout;
    # an overflow leaves inf or nan behind, which the constructor refuses
    flat = frames.reshape(frames.shape[0], -1)
    weights = np.stack([taps.real, taps.imag], axis=1)
    values = np.empty(frames.shape[1:], dtype=np.complex128)
    out = values.view(np.float64).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.shape[1], _CONTRACT_BLOCK):
            block = slice(start, start + _CONTRACT_BLOCK)
            np.matmul(flat[:, block].T, weights, out=out[block])
    return values


def _valid(modulus, region=..., out=None):
    """Pixels of ``modulus[region]`` at ``_MIN_MODULUS_RATIO`` of the whole peak or
    more (none at peak 0), into ``out`` if given; refuses an overflow."""
    peak = _peak(modulus, "complex field", modulus.shape)
    floor = _MIN_MODULUS_RATIO * peak if peak > 0.0 else np.inf
    return np.greater_equal(modulus[region], floor, out=out)


def _angle(values, out=None):
    """np.angle(values), i.e. arctan2(imag, real), into ``out`` if given; +pi maps to -pi."""
    phase = np.arctan2(values.imag, values.real, out=out)
    phase[phase == np.pi] = -np.pi
    return phase


def field_phase(field: ComplexField):
    """Extract wrapped phase from a complex field.

    Pixels whose modulus falls below 1e-9 times the peak modulus have
    meaningless phase; they are set to 0 and flagged False in the returned
    validity mask.  A modulus that overflows raises ``DegeneracyError``.

    Returns
    -------
    (PhaseMap, ndarray of bool)
        Wrapped phase in [-pi, pi) and the per-pixel validity mask.
    """
    modulus = np.abs(field.values)
    valid = _valid(modulus)
    del modulus  # released before the phase array is allocated
    phase = _angle(field.values)
    phase[~valid] = 0.0
    return PhaseMap(_Owned(phase), wrapped=True), valid
