"""Acceptance gate: one test per shipped guarantee.

Each test prints one ``ACCEPTANCE <n> <PASS|FAIL>: <measurements>`` line
before asserting, so a plain ``pytest -v`` run shows the full scoreboard
with the measured values next to their bounds.
"""

import contextlib
import io
import time

import numpy as np

import psidemod as p
from psidemod import cli
from psidemod.formats import (
    load_complex_field,
    load_phase_map,
    load_spectrum,
    load_stack,
    save_complex_field,
    save_phase_map,
    save_stack,
    write_f32,
    export_spectrum,
)

from conftest import make_ramp

SH = p.sh5_spec()


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_exact_quadrature_baseline():
    start = time.perf_counter()
    truth = p.synthesize_wavefront("defocus", 3.0, (256, 256))
    stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5)
    phase, _ = p.field_phase(p.demodulate_temporal(stack, SH))
    residual, _ = p.remove_piston_tilt(p.wrapped_diff(phase, truth), tilt=False)
    worst = float(np.abs(residual.values).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"ideal 5-step run on 256x256: max |phase error| after piston removal "
        f"{worst:.3e} rad (< 1e-10), {elapsed:.2f} s (< 1 s)",
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_closed_form_field_identity():
    truth = p.synthesize_wavefront("defocus", 3.0, (256, 256))
    rng = np.random.default_rng(20260815)
    worst_field = 0.0
    worst_leak = 0.0
    for _ in range(50):
        schedule = p.ErrorSchedule(rng.uniform(-0.3, 0.3, 5))
        stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule)
        field = p.demodulate_temporal(stack, SH)
        pair = p.conjugate_amplitudes(SH, schedule, 100.0)
        model = pair.a1 * np.exp(1j * truth.values) + pair.a2 * np.exp(-1j * truth.values)
        worst_field = max(
            worst_field, float(np.abs(field.values - model).max()) / abs(pair.a1)
        )
        worst_leak = max(
            worst_leak, abs(p.measure_leak(field, truth).leak_ratio - pair.leak_ratio)
        )
    passed = worst_field <= 1e-10 and worst_leak < 1e-9
    report(
        2,
        passed,
        f"50 random schedules: max field deviation {worst_field:.3e} x |A1| "
        f"(<= 1e-10), max leak-ratio error {worst_leak:.3e} (< 1e-9)",
    )
    assert worst_field <= 1e-10
    assert worst_leak < 1e-9


def test_criterion_3_artifact_map_signature():
    pair = p.ConjugatePair(1.0, 0.1)

    ramp = make_ramp(8192, height=2)
    peak = float(np.abs(p.predicted_error_map(ramp, pair).values).max())
    peak_gap = abs(peak - float(np.arcsin(0.1)))
    peak_ok = peak_gap < 1e-6

    base = make_ramp(1024, height=2)
    shifted = p.PhaseMap(base.values + np.pi)
    period_gap = float(
        np.abs(
            p.wrap(
                p.predicted_error_map(base, pair).values
                - p.predicted_error_map(shifted, pair).values
            )
        ).max()
    )
    period_ok = period_gap < 1e-12

    cycles = 8
    row = 2 * np.pi * cycles * np.arange(1024) / 1024
    fringes = p.PhaseMap(np.tile(row, (2, 1)))
    spectrum = np.abs(np.fft.rfft(p.predicted_error_map(fringes, pair).values[0]))
    dominant = int(np.argmax(spectrum[1:])) + 1
    fft_ok = dominant == 2 * cycles

    passed = peak_ok and period_ok and fft_ok
    report(
        3,
        passed,
        f"10% leak: max |error| {peak:.9f} rad vs arcsin(0.1) (gap {peak_gap:.1e} < 1e-6), "
        f"half-period invariance gap {period_gap:.1e} (< 1e-12), "
        f"ripple at {dominant} cycles on {cycles}-cycle fringes (= 2x)",
    )
    assert peak_ok
    assert period_ok
    assert fft_ok


def test_criterion_4_transfer_function_zeros():
    h0 = abs(p.ftf_eval(SH, 0.0))
    hpi = abs(p.ftf_eval(SH, np.pi))
    gain = abs(p.ftf_eval(SH, -np.pi / 2))
    zeros_ok = h0 < 1e-12 and hpi < 1e-12
    flatness = {
        delta: abs(p.ftf_eval(SH, np.pi / 2 + delta)) for delta in (0.01, 0.05, 0.1)
    }
    flat_ok = all(value < 2 * delta**2 * gain for delta, value in flatness.items())
    rebuilt = p.taps_from_zeros([0.0, np.pi / 2, np.pi / 2, np.pi], np.pi / 2)
    scaled = np.asarray(rebuilt.coefficients) / rebuilt.coefficients[0]
    taps_gap = float(np.abs(scaled - np.array([1.0, 2.0, 2.0, 2.0, 1.0])).max())
    taps_ok = taps_gap < 1e-12

    passed = zeros_ok and flat_ok and taps_ok
    report(
        4,
        passed,
        f"|H(0)| {h0:.1e}, |H(pi)| {hpi:.1e} (< 1e-12); "
        f"|H(pi/2+d)| {['%.2e' % flatness[d] for d in (0.01, 0.05, 0.1)]} vs 2d^2*{gain:.0f}; "
        f"zero-placed taps match 1,2,2,2,1 within {taps_gap:.1e} (< 1e-12)",
    )
    assert zeros_ok
    assert flat_ok
    assert taps_ok


def test_criterion_5_filtering_is_error_independent():
    start = time.perf_counter()
    truth = p.synthesize_wavefront("defocus", 3.0, (512, 512))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    mask = p.SpectralMask(np.pi / 8)
    rng = np.random.default_rng(20260815)
    schedules = [rng.uniform(-0.3, 0.3, 5) for _ in range(19)]
    schedules.append(np.array([0.3, -0.3, 0.3, -0.3, 0.3]))  # leak r = 0.309

    worst_rel = 0.0
    worst_spatial = 0.0
    max_ratio = 0.0
    for deviations in schedules:
        schedule = p.ErrorSchedule(deviations)
        stack = p.generate_stack(
            truth, 128.0, 100.0, np.pi / 2, 5, errors=schedule, carrier=carrier
        )
        ratio = p.conjugate_amplitudes(SH, schedule, 100.0).leak_ratio
        max_ratio = max(max_ratio, ratio)
        oracle = 2 * np.arcsin(ratio) / (2 * np.pi)

        temporal = p.demodulate_temporal(stack, SH)
        phase_t, _ = p.field_phase(p.remove_carrier(temporal, carrier))
        _, rep_t = p.remove_piston_tilt(p.wrapped_diff(phase_t, truth), crop=16)
        worst_rel = max(worst_rel, abs(rep_t.pv - oracle) / oracle)

        phase_s, _, _ = p.demodulate_spatial(stack, SH, carrier=carrier, mask=mask)
        _, rep_s = p.remove_piston_tilt(p.wrapped_diff(phase_s, truth), crop=16)
        worst_spatial = max(worst_spatial, rep_s.pv)

    elapsed = time.perf_counter() - start
    temporal_ok = worst_rel <= 0.05
    spatial_ok = worst_spatial < 0.005
    time_ok = elapsed < 30.0
    passed = temporal_ok and spatial_ok and time_ok
    report(
        5,
        passed,
        f"20 schedules (leak up to r = {max_ratio:.3f}) on 512x512: temporal P-V off "
        f"the 2*arcsin(r) oracle by at most {100 * worst_rel:.2f}% (<= 5%), spatial P-V "
        f"at most {worst_spatial:.5f} waves (< 0.005), {elapsed:.1f} s (< 30 s)",
    )
    assert temporal_ok
    assert spatial_ok
    assert time_ok


def test_criterion_6_montecarlo_contrast():
    truth = p.synthesize_wavefront("defocus", 3.0, (256, 256))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    mask = p.SpectralMask(np.pi / 8)
    kwargs = dict(error_kind="uniform", error_magnitude=0.3, trials=200, seed=20260815)
    temporal = p.montecarlo_repeatability(
        truth, SH, method="temporal", carrier=carrier, **kwargs
    )
    spatial = p.montecarlo_repeatability(
        truth, SH, method="spatial", carrier=carrier, mask=mask, **kwargs
    )
    again = p.montecarlo_repeatability(
        truth, SH, method="temporal", carrier=carrier, **kwargs
    )

    median = float(np.median(temporal.pv_waves))
    p99 = spatial.percentiles["p99"]
    median_ok = median >= 0.05
    p99_ok = p99 < 0.01
    deterministic = temporal.to_dict() == again.to_dict()
    passed = median_ok and p99_ok and deterministic
    report(
        6,
        passed,
        f"200 uniform +-0.3 trials, shared seeds: temporal median P-V {median:.4f} "
        f"waves (>= 0.05 required), spatial p99 {p99:.4f} waves (< 0.01), "
        f"seed reuse deterministic: {deterministic}",
    )
    assert p99_ok
    assert deterministic
    # Stated bound, asserted literally.  Uniform +-0.3 rad step errors give
    # the 5-step algorithm a median leak ratio near 0.057, i.e. a median
    # ripple near 0.018 waves; no seed reaches a 0.05-wave median, so this
    # clause documents a requirement the modeled physics cannot meet.
    assert median_ok, (
        f"temporal median P-V {median:.4f} waves < 0.05: uniform +-0.3 step errors "
        "yield a median leak ratio near 0.057 and therefore a median ripple near "
        "2*arcsin(0.057)/(2*pi) = 0.0182 waves; a 0.05-wave median would need a "
        "median leak ratio of sin(0.05*pi) = 0.156, about 3x the modeled errors"
    )


def test_criterion_7_noise_robustness():
    truth = p.synthesize_wavefront("defocus", 3.0, (512, 512))
    carrier = p.CarrierSpec(np.pi / 4, 0.0)
    mask = p.SpectralMask(np.pi / 8)
    schedule = p.ErrorSchedule([0.3, -0.3, 0.3, -0.3, 0.3])

    def spatial_pv(noise_sigma, seed):
        stack = p.generate_stack(
            truth,
            128.0,
            100.0,
            np.pi / 2,
            5,
            errors=schedule,
            carrier=carrier,
            noise_sigma=noise_sigma,
            seed=seed,
        )
        phase, _, _ = p.demodulate_spatial(stack, SH, carrier=carrier, mask=mask)
        _, rep = p.remove_piston_tilt(p.wrapped_diff(phase, truth), crop=16)
        return rep.pv

    clean = spatial_pv(0.0, 0)
    noisy = spatial_pv(1.0, 20260815)  # sigma = 1% of b = 100
    degradation = abs(noisy - clean)
    passed = degradation < 0.005
    report(
        7,
        passed,
        f"1% intensity noise: spatial P-V {noisy:.5f} vs noiseless {clean:.5f} waves, "
        f"degradation {degradation:.5f} (< 0.005)",
    )
    assert passed


def test_criterion_8_round_trips_and_replay(tmp_path):
    truth = p.synthesize_wavefront("astigmatism", 2.0, (48, 64))
    stack = p.generate_stack(
        truth,
        128.0,
        100.0,
        np.pi / 2,
        5,
        errors=p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05]),
        carrier=p.CarrierSpec(np.pi / 4, 0.0),
        noise_sigma=0.5,
        seed=3,
    )
    field = p.demodulate_temporal(stack, SH)

    def same_bytes(first, second):
        return [path.read_bytes() for path in first] == [
            path.read_bytes() for path in second
        ]

    checks = {}
    a = save_phase_map(tmp_path / "m1", truth)
    b = save_phase_map(tmp_path / "m2", load_phase_map(tmp_path / "m1.json"))
    checks["phase"] = same_bytes(a, b)

    a = save_complex_field(tmp_path / "f1", field)
    b = save_complex_field(tmp_path / "f2", load_complex_field(tmp_path / "f1.json"))
    checks["field"] = same_bytes(a, b)

    a = save_stack(tmp_path / "s1", stack)
    b = save_stack(tmp_path / "s2", load_stack(tmp_path / "s1" / "stack.json"))
    checks["stack"] = same_bytes(a, b)

    export_spectrum(tmp_path / "sp", field)
    values, _ = load_spectrum(tmp_path / "sp.json")
    write_f32(tmp_path / "sp2.f32", values)
    checks["spectrum"] = (
        (tmp_path / "sp.f32").read_bytes() == (tmp_path / "sp2.f32").read_bytes()
    )

    def run_cli(*args):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in args])

    def dir_bytes(root):
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    out1, out2 = tmp_path / "run", tmp_path / "replayed"
    code1 = run_cli(
        "demod", "--out", out1,
        "--width", 128, "--height", 128, "--amplitude", 1.0,
        "--carrier", "pi/4", "--errors", "fixed:0,0.1,-0.15,0.2,-0.05",
        "--method", "spatial", "--cutoff", "pi/8",
        "--export-spectrum", "--line-cut-row", 64, "--compare-truth",
    )
    code2 = run_cli("replay", out1 / "manifest.json", "--out", out2)
    replay_ok = code1 == 0 and code2 == 0 and dir_bytes(out1) == dir_bytes(out2)

    roundtrip_ok = all(checks.values())
    passed = roundtrip_ok and replay_ok
    report(
        8,
        passed,
        f"byte-identical re-import: {checks}; manifest replay byte-identical "
        f"({len(dir_bytes(out1))} files): {replay_ok}",
    )
    assert roundtrip_ok, checks
    assert replay_ok
