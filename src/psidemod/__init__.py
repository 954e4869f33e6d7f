"""Phase-shifting interferometry demodulation toolkit.

Synthesizes temporally phase-shifted fringe stacks, demodulates them with
N-step algorithms, predicts and measures the conjugate (double-frequency)
artifact that nonlinear phase-step errors leave behind, and removes it by
spatial-carrier translation plus spectral low-pass filtering, without ever
estimating the step errors themselves.
"""

from .carrier import (
    SpatialDiagnostics,
    SpectralMask,
    demodulate_spatial,
    estimate_carrier,
    lowpass,
    remove_carrier,
)
from .conjugate import (
    ConjugatePair,
    conjugate_amplitudes,
    measure_leak,
    predicted_error_map,
)
from .errors import DegeneracyError, RefusalError
from .fields import (
    CarrierSpec,
    ComplexField,
    ErrorSchedule,
    InterferogramStack,
    PhaseMap,
    StackMetadata,
    generate_stack,
    make_error_schedule,
    synthesize_wavefront,
    wrap,
)
from .metrics import (
    MonteCarloSummary,
    PhaseDiffReport,
    montecarlo_repeatability,
    pv_rms,
    remove_piston_tilt,
    wrapped_diff,
)
from .psa import (
    PsaSpec,
    demodulate_temporal,
    field_phase,
    ftf_eval,
    ftf_sweep,
    sh5_spec,
    taps_from_zeros,
)

__all__ = [
    "CarrierSpec",
    "ComplexField",
    "ConjugatePair",
    "DegeneracyError",
    "ErrorSchedule",
    "InterferogramStack",
    "MonteCarloSummary",
    "PhaseDiffReport",
    "PhaseMap",
    "PsaSpec",
    "RefusalError",
    "SpatialDiagnostics",
    "SpectralMask",
    "StackMetadata",
    "conjugate_amplitudes",
    "demodulate_spatial",
    "demodulate_temporal",
    "estimate_carrier",
    "field_phase",
    "ftf_eval",
    "ftf_sweep",
    "generate_stack",
    "lowpass",
    "make_error_schedule",
    "measure_leak",
    "montecarlo_repeatability",
    "predicted_error_map",
    "pv_rms",
    "remove_carrier",
    "remove_piston_tilt",
    "sh5_spec",
    "synthesize_wavefront",
    "taps_from_zeros",
    "wrap",
    "wrapped_diff",
]

__version__ = "0.1.0"
