"""The Monte-Carlo trial basis cache: what a reused basis means.

``montecarlo_repeatability`` keeps the last trial basis it built and reuses
it while the truth's shape and bytes, the method, the carrier and the
cutoff match.  A call on the cached basis must report exactly what a fresh
build reports, a build that refuses must leave nothing cached, any change
to those inputs must rebuild, a change to the taps, background or noise
must not, the parameter checks must still run, the cached arrays must be
read-only, and the entry must go with the truth it was built for.
"""

import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psidemod as p
from psidemod import metrics

CARRIER = p.CarrierSpec(0.8, 0.3)
MASK = p.SpectralMask(0.35, border_crop=4)


def _truth():
    return p.synthesize_wavefront("defocus", 3.0, (48, 40))


def _cached():
    """The cached basis, or None."""
    entry = metrics._cached_basis
    return None if entry is None else entry[1]


CASES = {
    "temporal": dict(method="temporal", carrier=CARRIER),
    "spatial": dict(method="spatial", carrier=CARRIER, mask=MASK),
    "noise": dict(method="spatial", carrier=CARRIER, mask=MASK, noise_sigma=0.5),
    "slope-refused": dict(method="spatial", carrier=p.CarrierSpec(0.25), crop=0),
}


@pytest.mark.parametrize("case", CASES)
def test_cached_basis_reports_what_a_fresh_build_reports(sh5, case):
    if case == "slope-refused":
        # a carrier below the truth's slope refuses while building, so no
        # basis, refused or not, is ever cached
        truth = p.synthesize_wavefront("tilt", 31.5, (64, 64))
        p.montecarlo_repeatability(_truth(), sh5, trials=2)
        for _ in range(2):
            with pytest.raises(p.RefusalError, match="must exceed the maximum wavefront slope"):
                p.montecarlo_repeatability(truth, sh5, trials=2, **CASES[case])
            assert metrics._cached_basis is None
        return
    truth = _truth()
    kwargs = CASES[case]
    p.montecarlo_repeatability(truth, sh5, trials=2, seed=1, **kwargs)
    basis = _cached()
    # none of these is part of the key: seed, trials, schedule, contrast, crop, sigma
    call = dict(kwargs, trials=5, seed=9, error_kind="gaussian", error_magnitude=0.4,
                contrast=90.0)
    if case == "noise":
        call.update(noise_sigma=1.5, crop=6)
    reused = p.montecarlo_repeatability(truth, sh5, **call).to_dict()
    assert _cached() is basis
    metrics._drop_basis()
    fresh = p.montecarlo_repeatability(truth, sh5, **call).to_dict()
    assert _cached() is not basis
    assert reused == fresh
    assert not fresh["failures"]


def _one_pixel(truth, kwargs):
    values = truth.values.copy()
    values[20, 17] += 1e-9
    return p.PhaseMap(values), kwargs


def _in_place(truth, kwargs):
    # a PhaseMap owns its values, so they can be made writable again
    truth.values.setflags(write=True)
    truth.values[20, 17] += 1e-9
    truth.values.setflags(write=False)
    return truth, kwargs


CHANGES = {
    "pixel": _one_pixel,
    "pixel-in-place": _in_place,
    "method": lambda truth, kwargs: (truth, dict(kwargs, method="temporal")),
    "carrier": lambda truth, kwargs: (truth, dict(kwargs, carrier=p.CarrierSpec(0.8, -0.3))),
    "cutoff": lambda truth, kwargs: (truth, dict(kwargs, mask=p.SpectralMask(0.3, border_crop=4))),
}


@pytest.mark.parametrize("change", CHANGES)
def test_each_key_change_rebuilds(sh5, change):
    truth = _truth()
    kwargs = dict(spec=sh5, method="spatial", carrier=CARRIER, mask=MASK, trials=3, seed=4)
    p.montecarlo_repeatability(truth, **kwargs)
    basis = _cached()
    truth, kwargs = CHANGES[change](truth, kwargs)
    changed = p.montecarlo_repeatability(truth, **kwargs).to_dict()
    assert _cached() is not basis
    metrics._drop_basis()
    assert changed == p.montecarlo_repeatability(truth, **kwargs).to_dict()


# what the basis does not depend on: each trial sums it with the call's own
# taps and background gain, and adds the call's own noise
CALL_CHANGES = {
    "spec": dict(spec=p.PsaSpec([1.0, 1.0, 1.0, 1.0], np.pi / 2)),
    "background": dict(background=140.0),
    "noise-on": dict(noise_sigma=0.5),
}


@pytest.mark.parametrize("change", CALL_CHANGES)
def test_each_call_change_reuses_the_basis(sh5, change):
    truth = _truth()
    kwargs = dict(spec=sh5, method="spatial", carrier=CARRIER, mask=MASK, trials=3, seed=4)
    p.montecarlo_repeatability(truth, **kwargs)
    basis = _cached()
    kwargs.update(CALL_CHANGES[change])
    changed = p.montecarlo_repeatability(truth, **kwargs).to_dict()
    assert _cached() is basis
    metrics._drop_basis()
    assert changed == p.montecarlo_repeatability(truth, **kwargs).to_dict()


# one setting of each call-only input, then another: a second PSA, a second
# background, noise off then on
SETTINGS = {
    "psa": (dict(spec=p.sh5_spec()),
            dict(spec=p.taps_from_zeros([0.0, np.pi / 2, np.pi / 2, np.pi], np.pi / 2))),
    "background": (dict(background=128.0), dict(background=140.0)),
    "noise": (dict(noise_sigma=0.0), dict(noise_sigma=0.5)),
}


# below about 14 px a cutoff of half the carrier admits only the DC bin; the
# warning says so on every call alike, which is not under test here
@pytest.mark.filterwarnings("ignore:cutoff .* admits only the DC bin:UserWarning")
@settings(max_examples=40, deadline=None)
@given(
    height=st.integers(9, 40),
    width=st.integers(9, 40),
    method=st.sampled_from(["temporal", "spatial"]),
    angle=st.floats(0.2, np.pi / 2 - 0.2) | st.floats(np.pi / 2 + 0.2, np.pi - 0.2),
    speed=st.floats(0.9, 1.4),
    setting=st.sampled_from(sorted(SETTINGS)),
    seed=st.integers(0, 2**32 - 1),
)
@example(height=9, width=9, method="spatial", angle=0.3, speed=1.1, setting="noise", seed=1)
@example(height=37, width=22, method="spatial", angle=2.5, speed=1.3, setting="psa", seed=2)
def test_a_basis_built_under_one_setting_serves_the_other(height, width, method, angle, speed,
                                                          setting, seed):
    # odd and non-square grids, oblique carriers: the reusing call returns the
    # bits of the same call on a fresh basis, and only the first call builds
    metrics._drop_basis()  # an earlier example may have cached this basis
    truth = p.synthesize_wavefront("defocus", 1.0, (height, width))
    carrier = p.CarrierSpec(speed * np.cos(angle), speed * np.sin(angle))
    mask = p.SpectralMask(speed / 2) if method == "spatial" else None
    kwargs = dict(spec=p.sh5_spec(), method=method, carrier=carrier, mask=mask, trials=3,
                  seed=seed, crop=2)
    first, second = (dict(kwargs, **one) for one in SETTINGS[setting])
    with mock.patch.object(metrics, "_TrialBasis", wraps=metrics._TrialBasis) as built:
        p.montecarlo_repeatability(truth, **first)
        reused = p.montecarlo_repeatability(truth, **second).to_dict()
    assert built.call_count == 1
    metrics._drop_basis()
    assert reused == p.montecarlo_repeatability(truth, **second).to_dict()


def test_signed_zero_carrier_component_rebuilds(sh5):
    truth = _truth()
    p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=p.CarrierSpec(0.8, 0.0),
                               trials=2)
    basis = _cached()
    p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=p.CarrierSpec(0.8, -0.0),
                               trials=2)
    assert _cached() is not basis


def test_signed_zero_truth_pixel_rebuilds(sh5):
    values = _truth().values.copy()
    values[20, 17] = 0.0
    kwargs = dict(method="spatial", carrier=CARRIER, mask=MASK, trials=2)
    truth = p.PhaseMap(values)
    p.montecarlo_repeatability(truth, sh5, **kwargs)
    basis = _cached()
    values[20, 17] = -0.0
    p.montecarlo_repeatability(p.PhaseMap(values), sh5, **kwargs)
    assert _cached() is not basis


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(contrast=-1.0), "contrast must be > 0, got -1.0"),
        (dict(background=np.inf), "background must be finite, got inf"),
        (dict(noise_sigma=np.nan), "noise sigma"),
        (dict(crop=20), "crop 20 px leaves under 2 interior pixels"),
    ],
    ids=["contrast", "background", "sigma", "crop"],
)
def test_checks_run_on_a_call_that_would_reuse_the_basis(sh5, bad, message):
    truth = _truth()
    kwargs = dict(method="spatial", carrier=CARRIER, mask=MASK, trials=2)
    p.montecarlo_repeatability(truth, sh5, **kwargs)
    basis = _cached()
    with pytest.raises(ValueError, match=message):
        p.montecarlo_repeatability(truth, sh5, **kwargs, **bad)
    assert _cached() is basis


@pytest.mark.parametrize("method", ["temporal", "spatial"])
def test_cached_arrays_are_read_only(sh5, method):
    truth = _truth()
    p.montecarlo_repeatability(truth, sh5, method=method, carrier=CARRIER, mask=MASK, trials=2,
                               noise_sigma=0.5)
    basis = _cached()
    arrays = {name: value for name, value in vars(basis).items()
              if isinstance(value, np.ndarray)}
    assert set(arrays) == {"reference", "bands", "fields"}
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array.flat[0] = 0
    assert basis.fields.shape == (3,) + truth.shape


def test_entry_goes_with_its_truth(sh5):
    truth = _truth()
    p.montecarlo_repeatability(truth, sh5, method="spatial", carrier=CARRIER, trials=2)
    assert _cached() is not None
    del truth
    gc.collect()
    assert metrics._cached_basis is None


def test_a_replaced_entry_outlives_the_truth_it_replaced(sh5):
    first, second = _truth(), p.synthesize_wavefront("defocus", 2.0, (48, 40))
    p.montecarlo_repeatability(first, sh5, trials=2)
    p.montecarlo_repeatability(second, sh5, trials=2)
    basis = _cached()
    del first
    gc.collect()
    assert _cached() is basis
