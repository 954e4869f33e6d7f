"""Shared fixtures and small builders for the test suite."""

import numpy as np
import pytest

import psidemod as p
from psidemod import metrics

# the detuned schedule used across the pipeline tests
FIXED_SCHEDULE = (0.0, 0.1, -0.15, 0.2, -0.05)


def make_bandlimited(shape=(256, 256), pv=3.0, cycles=(3, 2)):
    """Periodic truth whose spectrum stays far inside the default cutoff.

    Grid-periodic cosines avoid spectral leakage, so filtering effects can
    be separated from step-error effects down to rounding level.
    """
    height, width = shape
    x = np.arange(width)
    y = np.arange(height)
    raw = np.cos(2 * np.pi * cycles[0] * x[None, :] / width) + np.cos(
        2 * np.pi * cycles[1] * y[:, None] / height
    )
    return p.PhaseMap(raw * (pv / (raw.max() - raw.min())))


def make_ramp(width=4096, height=2, span=2 * np.pi):
    """Linear ramp covering [0, span) along x, constant along y."""
    row = span * np.arange(width) / width
    return p.PhaseMap(np.tile(row, (height, 1)))


@pytest.fixture(autouse=True)
def _no_cached_basis():
    """Start every test without a cached Monte-Carlo trial basis."""
    metrics._drop_basis()


@pytest.fixture
def sh5():
    return p.sh5_spec()


@pytest.fixture
def defocus_truth():
    return p.synthesize_wavefront("defocus", 3.0, (256, 256))


@pytest.fixture
def bandlimited_truth():
    return make_bandlimited()
