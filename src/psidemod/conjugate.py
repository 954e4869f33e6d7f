"""Conjugate-amplitude analysis of nonlinear step errors.

With space-independent step deviations eps_n, the demodulated field is
exactly S = A1 exp(i phi) + A2 exp(-i phi) for any background-rejecting
algorithm, with

    A1 = (b/2) sum_n c_n exp(+i eps_n)
    A2 = (b/2) sum_n c_n exp(-i (2 n w0 + eps_n)).

The conjugate term drags the recovered phase by a double-frequency ripple:
for r = |A2/A1| < 1 the pointwise error is

    error(phi) = -arg(1 + r exp(i(delta - 2 phi))) - arg A1,  delta = arg(A2/A1),

with extreme magnitude arcsin(r) about the piston arg A1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RefusalError
from .fields import (TWO_PI, ComplexField, ErrorSchedule, PhaseMap, _converted, _overflowed, _real,
                     wrap)
from .psa import PsaSpec

# measure_leak refuses a fit whose Gram condition number exceeds this
_COND_LIMIT = 1e6


@dataclass(frozen=True)
class ConjugatePair:
    """Signal and conjugate amplitudes (A1, A2) of a demodulated field, in
    closed form (:func:`conjugate_amplitudes`) or fitted (:func:`measure_leak`)."""

    a1: complex
    a2: complex

    def __post_init__(self):
        object.__setattr__(self, "a1", _converted(complex, self.a1, "A1"))
        object.__setattr__(self, "a2", _converted(complex, self.a2, "A2"))

    @property
    def leak_ratio(self) -> float:
        """r = |A2| / |A1|; inf when A1 vanishes."""
        if self.a1 == 0:
            return math.inf
        return _modulus(self.a2) / _modulus(self.a1)

    @property
    def relative_phase(self) -> float:
        """delta = arg(A2 / A1); nan when A1 vanishes."""
        if self.a1 == 0:
            return math.nan
        return float(np.angle(self.a2 / self.a1))

    @property
    def well_posed(self) -> bool:
        """|A1| and the leak ratio finite; the ratio is inf when A1 = 0."""
        return math.isfinite(_modulus(self.a1)) and math.isfinite(self.leak_ratio)


def _modulus(z: complex) -> float:
    """|z|, inf where Python's ``abs`` of a finite complex overflows and raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def conjugate_amplitudes(spec: PsaSpec, errors: ErrorSchedule, contrast=1.0) -> ConjugatePair:
    """Closed-form (A1, A2) for an algorithm under a step-error schedule."""
    contrast = _real(contrast, "contrast")
    if contrast <= 0.0:
        raise ValueError(f"contrast must be > 0, got {contrast!r}")
    if errors.n_frames != spec.n_steps:
        raise RefusalError(
            f"error schedule has {errors.n_frames} entries for a {spec.n_steps}-step algorithm"
        )
    eps = errors.deviations
    n = np.arange(spec.n_steps)
    # a contrast near the float limit overflows to a pair that is not well_posed
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = 0.5 * contrast * np.sum(spec.coefficients * np.exp(1j * eps))
        a2 = 0.5 * contrast * np.sum(spec.coefficients
                                     * np.exp(-1j * (2.0 * n * spec.nominal_step + eps)))
    return ConjugatePair(a1, a2)


def predicted_error_map(truth: PhaseMap, pair: ConjugatePair) -> PhaseMap:
    """Pointwise phase error committed by demodulating A1 e^{i phi} + A2 e^{-i phi}.

    Returns wrap(phi - arg(A1 e^{i phi} + A2 e^{-i phi})), the error map a
    temporal-only demodulation of the given truth would show, including the
    arg A1 piston.  Refuses unless the pair is well posed, and when the leak
    ratio reaches 1, where the recovered phase no longer tracks phi at all.
    """
    if not pair.well_posed:
        raise RefusalError(
            f"conjugate pair has A1 = {pair.a1:.6g} and leak ratio r = {pair.leak_ratio:.6g}: "
            "the error map needs A1 nonzero and both finite"
        )
    r = pair.leak_ratio
    if r >= 1.0:
        raise RefusalError(
            f"leak ratio r = {r:.6g} >= 1: the conjugate dominates and the error map "
            "no longer describes a perturbation of the true phase"
        )
    phi = truth.values
    # A1 factored out: |A2/A1| < 1 keeps z finite, and A1 = 1 leaves every bit
    z = np.exp(1j * phi) + (pair.a2 / pair.a1) * np.exp(-1j * phi)
    return PhaseMap(wrap(phi - np.angle(z) - cmath.phase(pair.a1)), wrapped=True)


def measure_leak(field: ComplexField, truth: PhaseMap) -> ConjugatePair:
    """Fit S ~ alpha e^{i phi} + beta e^{-i phi} over the whole grid.

    Solves the 2x2 normal equations of the global least-squares problem and
    returns the fitted (alpha, beta) as the pair (A1, A2).  The two basis
    fields become collinear as the truth flattens; the fit is refused when
    the Gram condition number exceeds 1e6 (a truth spanning well under half
    a fringe).  Sums or a fit that overflow raise ``DegeneracyError``.
    """
    if field.shape != truth.shape:
        raise ValueError(f"field shape {field.shape} does not match truth shape {truth.shape}")
    phi = truth.values
    s = field.values
    n_pix = float(phi.size)
    gram = complex(np.sum(np.exp(-2j * phi)))
    denom = n_pix - abs(gram)
    condition = math.inf if denom <= 0.0 else (n_pix + abs(gram)) / denom
    if condition > _COND_LIMIT:
        span = float(phi.max() - phi.min())
        raise DegeneracyError(
            f"e^(i phi) and e^(-i phi) are nearly collinear (condition {condition:.3g} > "
            f"{_COND_LIMIT:.3g}): the truth spans {span / TWO_PI:.3g} fringes; at least "
            "several tenths of a fringe are needed to separate the two terms"
        )
    u = np.exp(1j * phi)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs1 = complex(np.vdot(u, s))
        rhs2 = complex(np.sum(u * s))
    det = n_pix * n_pix - (gram * gram.conjugate()).real
    # a non-finite right-hand side leaves alpha or beta non-finite too
    alpha = (n_pix * rhs1 - gram * rhs2) / det
    beta = (n_pix * rhs2 - gram.conjugate() * rhs1) / det
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise _overflowed("leak fit", field.shape)
    return ConjugatePair(alpha, beta)
