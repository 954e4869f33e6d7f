"""Round trips and byte-level determinism of the on-disk formats."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import psidemod as p
from psidemod.formats import (
    dump_json,
    export_spectrum,
    load_complex_field,
    load_json,
    load_phase_map,
    load_spectrum,
    load_stack,
    read_f32,
    read_pgm,
    save_complex_field,
    save_phase_map,
    save_stack,
    write_f32,
    write_ftf_csv,
    write_line_cut_csv,
    write_montecarlo_csv,
    write_pgm,
)

from conftest import make_bandlimited


def read_all(paths):
    return {path.name: path.read_bytes() for path in paths}


def test_phase_map_round_trip_is_byte_stable(tmp_path):
    truth = make_bandlimited((32, 48), pv=2.0, cycles=(2, 3))
    first = save_phase_map(tmp_path / "phase", truth)
    loaded = load_phase_map(tmp_path / "phase.json")
    assert loaded.shape == truth.shape
    assert loaded.wrapped == truth.wrapped
    second = save_phase_map(tmp_path / "again", loaded)
    assert read_all(first).values() is not None
    assert list(read_all(first).values()) == list(read_all(second).values())


def test_wrapped_phase_map_survives_float32(tmp_path):
    values = p.wrap(np.linspace(-np.pi, np.pi, 64 * 64).reshape(64, 64))
    phase = p.PhaseMap(values, wrapped=True)
    save_phase_map(tmp_path / "wrapped", phase)
    loaded = load_phase_map(tmp_path / "wrapped.json")
    assert loaded.wrapped


def test_complex_field_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    field = p.ComplexField(
        rng.normal(size=(16, 24)) + 1j * rng.normal(size=(16, 24))
    )
    first = save_complex_field(tmp_path / "field", field)
    loaded = load_complex_field(tmp_path / "field.json")
    second = save_complex_field(tmp_path / "copy", loaded)
    assert list(read_all(first).values()) == list(read_all(second).values())
    assert np.abs(loaded.values - field.values).max() < 1e-6


def test_kind_tag_is_checked(tmp_path):
    truth = make_bandlimited((8, 8), pv=1.0, cycles=(1, 1))
    save_phase_map(tmp_path / "phase", truth)
    with pytest.raises(ValueError, match="complex field"):
        load_complex_field(tmp_path / "phase.json")


def test_stack_round_trip(tmp_path, defocus_truth, sh5):
    stack = p.generate_stack(
        defocus_truth,
        128.0,
        100.0,
        np.pi / 2,
        5,
        errors=p.ErrorSchedule([0.0, 0.1, -0.15, 0.2, -0.05]),
        carrier=p.CarrierSpec(np.pi / 4, 0.0),
        noise_sigma=0.5,
        seed=7,
    )
    first = save_stack(tmp_path / "run", stack)
    loaded = load_stack(tmp_path / "run" / "stack.json")
    assert loaded.n_frames == 5
    assert np.abs(loaded.frames - stack.frames).max() < 1e-4
    meta = loaded.metadata
    assert meta.background == 128.0
    assert meta.carrier.u0 == pytest.approx(np.pi / 4)
    assert meta.errors.deviations[3] == pytest.approx(0.2)
    assert meta.seed == 7
    second = save_stack(tmp_path / "copy", loaded)
    assert list(read_all(first).values()) == list(read_all(second).values())


def test_stack_sidecar_requires_geometry(tmp_path):
    dump_json(
        tmp_path / "bad.json",
        {"width": 8, "height": 8, "N": 3, "omega0": None},
    )
    with pytest.raises(ValueError, match="omega0"):
        load_stack(tmp_path / "bad.json")


def test_stack_missing_frame(tmp_path):
    dump_json(
        tmp_path / "gone.json",
        {"width": 4, "height": 4, "N": 3, "omega0": 1.5},
    )
    with pytest.raises(FileNotFoundError):
        load_stack(tmp_path / "gone.json")


@pytest.mark.parametrize("frame_bytes, error", [(None, FileNotFoundError), (4, ValueError)],
                         ids=["missing", "short"])
def test_stack_frames_are_checked_before_the_stack_is_allocated(tmp_path, frame_bytes, error):
    # the stack the sidecar describes would take 96 MiB
    dump_json(tmp_path / "big.json", {"width": 2048, "height": 2048, "N": 3, "omega0": 1.5})
    if frame_bytes is not None:
        for index in range(3):
            (tmp_path / f"big_{index:03d}.f32").write_bytes(bytes(frame_bytes))
    tracemalloc.start()
    try:
        with pytest.raises(error):
            load_stack(tmp_path / "big.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stack_loads_pgm_frames(tmp_path):
    rng = np.random.default_rng(4)
    frames = rng.integers(0, 256, size=(3, 6, 5)).astype(np.uint8)
    for index in range(3):
        write_pgm(tmp_path / f"cam_{index:03d}.pgm", frames[index])
    dump_json(
        tmp_path / "cam.json",
        {"width": 5, "height": 6, "N": 3, "omega0": np.pi / 2},
    )
    stack = load_stack(tmp_path / "cam.json")
    assert np.array_equal(stack.frames, frames.astype(np.float64))
    assert stack.metadata.background is None


def test_stack_pgm_dimension_mismatch(tmp_path):
    write_pgm(tmp_path / "cam_000.pgm", np.zeros((4, 4), dtype=np.uint8))
    dump_json(
        tmp_path / "cam.json",
        {"width": 5, "height": 6, "N": 1, "omega0": np.pi / 2},
    )
    with pytest.raises(ValueError, match="sidecar"):
        load_stack(tmp_path / "cam.json")


def test_pgm_8bit_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    image = rng.integers(0, 256, size=(7, 9)).astype(np.uint8)
    path = write_pgm(tmp_path / "img.pgm", image)
    assert np.array_equal(read_pgm(path), image)


def test_pgm_16bit_round_trip_big_endian(tmp_path):
    image = np.array([[0, 1], [258, 65535]], dtype=np.uint16)
    path = write_pgm(tmp_path / "deep.pgm", image)
    raw = path.read_bytes()
    header_end = raw.index(b"65535\n") + len(b"65535\n")
    # 258 = 0x0102 must serialize high byte first
    assert raw[header_end:] == bytes([0, 0, 0, 1, 1, 2, 255, 255])
    assert np.array_equal(read_pgm(path), image)


def test_pgm_header_comments_are_skipped(tmp_path):
    payload = bytes(range(6))
    (tmp_path / "c.pgm").write_bytes(b"P5\n# camera dump\n3 2\n# more\n255\n" + payload)
    image = read_pgm(tmp_path / "c.pgm")
    assert image.shape == (2, 3)
    assert image.ravel().tolist() == list(range(6))


def test_pgm_rejects_bad_inputs(tmp_path):
    (tmp_path / "ascii.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="binary"):
        read_pgm(tmp_path / "ascii.pgm")
    (tmp_path / "short.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="pixels"):
        read_pgm(tmp_path / "short.pgm")
    with pytest.raises(ValueError, match="uint8 or uint16"):
        write_pgm(tmp_path / "f.pgm", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2D"):
        write_pgm(tmp_path / "v.pgm", np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P5\n4 4\n", "truncated PGM header"),
        (b"P5\n1 1\n0\n\x00", "unsupported maxval 0"),
        (b"P5\n1 1\n65536\n\x00\x00", "unsupported maxval 65536"),
    ],
    ids=["truncated", "maxval-0", "maxval-65536"],
)
def test_read_pgm_refuses_a_bad_header(tmp_path, header, message):
    (tmp_path / "bad.pgm").write_bytes(header)
    with pytest.raises(ValueError, match=message):
        read_pgm(tmp_path / "bad.pgm")


def test_spectrum_export_round_trip(tmp_path):
    truth = make_bandlimited((32, 32), pv=1.5, cycles=(2, 1))
    field = p.ComplexField(np.exp(1j * truth.values))
    paths = export_spectrum(tmp_path / "spec", field)
    assert {path.suffix for path in paths} == {".f32", ".json", ".pgm"}
    values, meta = load_spectrum(tmp_path / "spec.json")
    assert values.shape == (32, 32)
    assert meta["layout"] == "centered"


def test_spectrum_dc_is_centered(tmp_path):
    field = p.ComplexField(np.full((16, 16), 3.0 + 0.0j))
    export_spectrum(tmp_path / "dc", field)
    values, _ = load_spectrum(tmp_path / "dc.json")
    peak = np.unravel_index(np.argmax(values), values.shape)
    assert peak == (8, 8)


def test_spectrum_of_a_subnormal_field_is_finite(tmp_path):
    # the floor 12 decades below a subnormal peak underflows to 0, and log10(0) warns
    field = p.ComplexField(np.full((4, 4), 5e-324 + 0j))
    export_spectrum(tmp_path / "tiny", field)
    values, _ = load_spectrum(tmp_path / "tiny.json")
    assert np.all(np.isfinite(values))
    assert values.max() == np.float32(np.log10(16 * 5e-324))


def test_ftf_csv_layout(tmp_path):
    omegas = np.array([-np.pi / 2, 0.0, np.pi / 2])
    values = np.array([8.0 + 0.0j, 0.0 + 0.0j, 0.0 + 1e-17j])
    path = write_ftf_csv(tmp_path / "ftf.csv", omegas, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_over_pi,re,im,abs"
    first = lines[1].split(",")
    assert float(first[0]) == -0.5
    assert float(first[1]) == 8.0
    assert float(first[3]) == 8.0
    assert len(lines) == 4
    assert path.read_text().endswith("\n")


def test_line_cut_csv(tmp_path):
    path = write_line_cut_csv(
        tmp_path / "cut.csv", {"truth": [0.0, 0.5], "phase": [0.1, 0.4]}
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "x,truth,phase"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[2]) == 0.4
    with pytest.raises(ValueError, match="length"):
        write_line_cut_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]})


def test_montecarlo_csv(tmp_path, sh5):
    truth = make_bandlimited((64, 64), pv=1.0, cycles=(2, 1))
    summary = p.montecarlo_repeatability(
        truth, sh5, error_kind="uniform", error_magnitude=0.2, trials=3, seed=1
    )
    path = write_montecarlo_csv(tmp_path / "mc.csv", summary)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,leak_ratio,pv_waves"
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]


def test_json_is_canonical(tmp_path):
    path = dump_json(tmp_path / "c.json", {"b": 1, "a": [1.5, 2]})
    text = path.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'
    assert load_json(path) == {"a": [1.5, 2], "b": 1}


def test_read_f32_size_check(tmp_path):
    write_f32(tmp_path / "v.f32", np.zeros(6))
    assert read_f32(tmp_path / "v.f32", (2, 3)).shape == (2, 3)
    with pytest.raises(ValueError, match="expected"):
        read_f32(tmp_path / "v.f32", (4, 4))


def test_montecarlo_csv_labels_rows_with_trial_index(tmp_path, sh5):
    # the +-pi case of test_montecarlo_records_failures_without_aborting
    truth = p.synthesize_wavefront("defocus", 3.5, (64, 64))
    summary = p.montecarlo_repeatability(
        truth, sh5, error_kind="uniform", error_magnitude=np.pi, trials=30, seed=3
    )
    failed = {index for index, _ in summary.failures}
    assert 0 < len(failed) < 30
    lines = write_montecarlo_csv(tmp_path / "mc.csv", summary).read_text().splitlines()
    labels = [int(row.split(",")[0]) for row in lines[1:]]
    assert labels == [i for i in range(30) if i not in failed]
    assert [float(row.split(",")[2]) for row in lines[1:]] == pytest.approx(summary.pv_waves)


# inside float32's range, so the float32 rounding stays finite
_FINITE = st.floats(-1e30, 1e30, allow_nan=False)
_SHAPES = st.tuples(st.integers(2, 33), st.integers(2, 33))
_SHAPE_KINDS = ("phase", "wrapped-phase", "complex", "spectrum", "zero-spectrum",
                "f32-stack", "pgm8-stack", "pgm16-stack")


def _same_bytes(first, second):
    return [path.read_bytes() for path in first] == [path.read_bytes() for path in second]


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(_SHAPE_KINDS), shape=_SHAPES, data=st.data())
def test_every_on_disk_shape_round_trips(kind, shape, data):
    """Save, load and save again writes the same bytes, and the loaded values
    are the float32 (complex64) rounding of the saved ones."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind in ("phase", "wrapped-phase"):
            wrapped = kind == "wrapped-phase"
            elements = st.floats(-np.pi, np.pi, exclude_max=True) if wrapped else _FINITE
            phase = p.PhaseMap(data.draw(arrays(np.float64, shape, elements=elements)),
                               wrapped=wrapped)
            first = save_phase_map(tmp / "phase", phase)
            loaded = load_phase_map(tmp / "phase.json")
            assert loaded.wrapped == wrapped
            assert np.array_equal(loaded.values, phase.values.astype(np.float32))
            assert _same_bytes(first, save_phase_map(tmp / "again", loaded))
        elif kind == "complex":
            elements = st.complex_numbers(max_magnitude=1e30, allow_nan=False, allow_infinity=False)
            field = p.ComplexField(data.draw(arrays(np.complex128, shape, elements=elements)))
            first = save_complex_field(tmp / "field", field)
            loaded = load_complex_field(tmp / "field.c64")
            assert np.array_equal(loaded.values, field.values.astype(np.complex64))
            assert _same_bytes(first, save_complex_field(tmp / "again", loaded))
        elif kind in ("spectrum", "zero-spectrum"):
            values = np.zeros(shape, dtype=np.complex128)
            if kind == "spectrum":
                elements = st.complex_numbers(max_magnitude=1e6, allow_nan=False)
                values = data.draw(arrays(np.complex128, shape, elements=elements))
            magnitude = np.abs(np.fft.fftshift(np.fft.fft2(values)))
            peak = magnitude.max()
            floor = max(peak * 1e-12, np.finfo(np.float64).smallest_subnormal)
            expected = np.zeros(shape) if peak == 0.0 else np.log10(np.maximum(magnitude, floor))
            field = p.ComplexField(values)
            first = export_spectrum(tmp / "spec", field)
            loaded, meta = load_spectrum(tmp / "spec.f32")
            assert np.array_equal(loaded, expected.astype(np.float32))
            again = [write_f32(tmp / "again.f32", loaded), dump_json(tmp / "again.json", meta)]
            assert _same_bytes(first[:2], again)
            assert _same_bytes(first, export_spectrum(tmp / "twice", field))
        elif kind == "f32-stack":
            n_frames = data.draw(st.integers(3, 6))
            frames = data.draw(arrays(np.float64, (n_frames, *shape), elements=_FINITE))
            errors = data.draw(st.none() | st.lists(_FINITE, min_size=n_frames, max_size=n_frames))
            metadata = p.StackMetadata(
                background=data.draw(st.none() | _FINITE),
                carrier=data.draw(st.none() | st.builds(p.CarrierSpec, st.floats(0.01, 2.0),
                                                        st.floats(-2.0, 2.0))),
                errors=None if errors is None else p.ErrorSchedule(errors),
                seed=data.draw(st.none() | st.integers(0, 2**63)),
            )
            stack = p.InterferogramStack(frames, np.pi / 2, metadata)
            first = save_stack(tmp / "one", stack)
            loaded = load_stack(tmp / "one" / "stack.json")
            assert np.array_equal(loaded.frames, frames.astype(np.float32))
            assert _same_bytes(first, save_stack(tmp / "two", loaded))
        else:
            dtype = np.uint8 if kind == "pgm8-stack" else np.uint16
            n_frames = data.draw(st.integers(3, 6))
            frames = data.draw(arrays(dtype, (n_frames, *shape)))
            first = [write_pgm(tmp / f"cam_{i:03d}.pgm", frame) for i, frame in enumerate(frames)]
            dump_json(tmp / "cam.json", {"width": shape[1], "height": shape[0], "N": n_frames,
                                         "omega0": np.pi / 2})
            loaded = load_stack(tmp / "cam.json")
            assert np.array_equal(loaded.frames, frames)
            again = [write_pgm(tmp / f"again_{i:03d}.pgm", frame.astype(dtype))
                     for i, frame in enumerate(loaded.frames)]
            assert _same_bytes(first, again)
