"""File formats: raw float arrays with JSON sidecars, PGM images, CSV tables.

Every writer is deterministic: the same data produces the same bytes.  Raw
arrays are little-endian float32 (``.f32``) or interleaved re/im complex64
(``.c64``), row-major, with grid dimensions recorded in the JSON sidecar,
never in the raw file.  Stack frames live one file per frame next to their
sidecar, ``<stem>_NNN.f32`` (or ``.pgm`` for camera data).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import (
    CarrierSpec,
    ComplexField,
    ErrorSchedule,
    InterferogramStack,
    PhaseMap,
    StackMetadata,
)


def dump_json(path, payload) -> Path:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def load_json(path) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} holds a JSON {type(payload).__name__}, not an object")
    return payload


def write_f32(path, values) -> Path:
    path = Path(path)
    np.asarray(values, dtype="<f4").tofile(path)
    return path


def read_f32(path, shape) -> np.ndarray:
    return _read_raw(path, shape, np.dtype("<f4"))


def _read_raw(path, shape, dtype: np.dtype) -> np.ndarray:
    path = Path(path)
    expected = int(np.prod(shape))
    data = np.fromfile(path, dtype=dtype)
    if data.size != expected:
        raise ValueError(f"{path} holds {data.size} {dtype.name} values, expected {expected}")
    return data.reshape(shape)


def _dump_sidecar(stem: Path, kind: str, grid, **extra) -> Path:
    """Write ``stem.json`` describing a raw grid file of the given kind."""
    payload = {"kind": kind, "width": grid.width, "height": grid.height, **extra}
    return dump_json(stem.with_suffix(".json"), payload)


def _sizes(sidecar: Path, meta: dict, keys) -> tuple:
    """The positive integers a sidecar records under ``keys``."""
    sizes = tuple(meta.get(key) for key in keys)
    for key, size in zip(keys, sizes):
        if type(size) is not int or size < 1:
            raise ValueError(f"{sidecar} field {key!r} must be a positive integer, got {size!r}")
    return sizes


def _load_sidecar(path, kind: str, what: str):
    """The sidecar path, its contents and the (height, width) it records,
    for ``path`` (sidecar or raw file)."""
    path = Path(path)
    sidecar = path if path.suffix == ".json" else path.with_suffix(".json")
    meta = load_json(sidecar)
    if meta.get("kind") != kind:
        raise ValueError(f"{sidecar} does not describe {what}")
    return sidecar, meta, _sizes(sidecar, meta, ("height", "width"))


def save_phase_map(stem, phase_map: PhaseMap) -> list[Path]:
    stem = Path(stem)
    raw = write_f32(stem.with_suffix(".f32"), phase_map.values)
    return [raw, _dump_sidecar(stem, "phase_map", phase_map, wrapped=phase_map.wrapped)]


def load_phase_map(path) -> PhaseMap:
    sidecar, meta, shape = _load_sidecar(path, "phase_map", "a phase map")
    values = read_f32(sidecar.with_suffix(".f32"), shape)
    return PhaseMap(values.astype(np.float64), wrapped=bool(meta["wrapped"]))


def save_complex_field(stem, field: ComplexField) -> list[Path]:
    stem = Path(stem)
    raw = stem.with_suffix(".c64")
    np.asarray(field.values, dtype="<c8").tofile(raw)
    return [raw, _dump_sidecar(stem, "complex_field", field)]


def load_complex_field(path) -> ComplexField:
    sidecar, _, shape = _load_sidecar(path, "complex_field", "a complex field")
    data = _read_raw(sidecar.with_suffix(".c64"), shape, np.dtype("<c8"))
    return ComplexField(data.astype(np.complex128))


def save_stack(directory, stack: InterferogramStack, stem: str = "stack") -> list[Path]:
    """Write one .f32 file per frame plus the generation sidecar.

    Sidecar fields unknown for imported data are null: width, height, N,
    omega0, a, b, carrier, errors, noise_sigma, seed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = stack.metadata
    paths = []
    for index in range(stack.n_frames):
        paths.append(write_f32(directory / f"{stem}_{index:03d}.f32", stack.frames[index]))
    carrier = meta.carrier
    errors = meta.errors
    sidecar = dump_json(
        directory / f"{stem}.json",
        {
            "width": stack.width,
            "height": stack.height,
            "N": stack.n_frames,
            "omega0": stack.nominal_step,
            "a": meta.background,
            "b": meta.contrast,
            "carrier": None if carrier is None else {"u0": carrier.u0, "v0": carrier.v0},
            "errors": None if errors is None else [float(e) for e in errors.deviations],
            "noise_sigma": meta.noise_sigma,
            "seed": meta.seed,
        },
    )
    paths.append(sidecar)
    return paths


def load_stack(sidecar_path) -> InterferogramStack:
    """Rebuild a stack from its sidecar, frames from .f32 or .pgm files."""
    sidecar = Path(sidecar_path)
    meta = load_json(sidecar)
    width, height, n_frames = _sizes(sidecar, meta, ("width", "height", "N"))
    if meta.get("omega0") is None:
        raise ValueError(f"stack sidecar {sidecar} lacks required field 'omega0'")
    stem = sidecar.stem
    frames = np.empty((n_frames, height, width))
    for index in range(n_frames):
        raw = sidecar.parent / f"{stem}_{index:03d}.f32"
        pgm = sidecar.parent / f"{stem}_{index:03d}.pgm"
        if raw.exists():
            frames[index] = read_f32(raw, (height, width))
        elif pgm.exists():
            image = read_pgm(pgm)
            if image.shape != (height, width):
                raise ValueError(f"{pgm} is {image.shape[1]}x{image.shape[0]}, sidecar says {width}x{height}")
            frames[index] = image
        else:
            raise FileNotFoundError(f"frame {index} of {sidecar} not found ({raw.name} or {pgm.name})")

    carrier = meta.get("carrier")
    if carrier is not None and not (isinstance(carrier, dict) and {"u0", "v0"} <= carrier.keys()):
        raise ValueError(f"stack sidecar {sidecar} carrier needs 'u0' and 'v0', got {carrier!r}")
    errors = meta.get("errors")
    metadata = StackMetadata(
        background=None if meta.get("a") is None else float(meta["a"]),
        contrast=None if meta.get("b") is None else float(meta["b"]),
        carrier=None if carrier is None else CarrierSpec(float(carrier["u0"]), float(carrier["v0"])),
        errors=None if errors is None else ErrorSchedule(np.asarray(errors, dtype=np.float64)),
        noise_sigma=None if meta.get("noise_sigma") is None else float(meta["noise_sigma"]),
        seed=None if meta.get("seed") is None else int(meta["seed"]),
    )
    return InterferogramStack(frames, float(meta["omega0"]), metadata)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM, 8-bit or big-endian 16-bit."""
    data = Path(path).read_bytes()
    tokens = []
    position = 0
    while len(tokens) < 4:
        while position < len(data) and data[position : position + 1].isspace():
            position += 1
        if position < len(data) and data[position : position + 1] == b"#":
            while position < len(data) and data[position] != 0x0A:
                position += 1
            continue
        start = position
        while position < len(data) and not data[position : position + 1].isspace():
            position += 1
        if start == position:
            raise ValueError(f"{path} has a truncated PGM header")
        tokens.append(data[start:position])
    position += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval < 65536:
        raise ValueError(f"{path} has unsupported maxval {maxval}")
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    expected = width * height
    available = (len(data) - position) // dtype.itemsize
    if available < expected:
        raise ValueError(f"{path} holds {available} pixels, header says {expected}")
    pixels = np.frombuffer(data, dtype=dtype, count=expected, offset=position)
    return pixels.reshape(height, width).copy()


def write_pgm(path, image) -> Path:
    """Write a binary (P5) PGM with the full range of the image dtype as
    maxval: 255 for uint8, 65535 for uint16 (written big-endian)."""
    path = Path(path)
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM image must be 2D, got shape {image.shape}")
    if image.dtype not in (np.uint8, np.uint16):
        raise ValueError(f"PGM image must be uint8 or uint16, got {image.dtype}")
    maxval = np.iinfo(image.dtype).max
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + image.astype(image.dtype.newbyteorder(">")).tobytes())
    return path


def export_spectrum(stem, field: ComplexField) -> list[Path]:
    """Write the centered log10-magnitude spectrum of a field.

    Produces ``stem.f32`` (float32 log magnitude, DC at the grid center),
    ``stem.json`` and an 8-bit ``stem.pgm`` normalized for display.
    """
    stem = Path(stem)
    spectrum = np.fft.fftshift(np.fft.fft2(field.values))
    magnitude = np.abs(spectrum)
    peak = float(magnitude.max())
    if peak == 0.0:
        log_magnitude = np.zeros(field.shape)
    else:
        log_magnitude = np.log10(np.maximum(magnitude, peak * 1e-12))
    paths = [write_f32(stem.with_suffix(".f32"), log_magnitude)]
    paths.append(_dump_sidecar(stem, "spectrum_log10", field, layout="centered"))
    span = float(log_magnitude.max() - log_magnitude.min())
    if span == 0.0:
        display = np.zeros(field.shape, dtype=np.uint8)
    else:
        display = np.round((log_magnitude - log_magnitude.min()) / span * 255).astype(np.uint8)
    paths.append(write_pgm(stem.with_suffix(".pgm"), display))
    return paths


def load_spectrum(path):
    """Read back an exported spectrum; returns (log-magnitude array, sidecar dict)."""
    sidecar, meta, shape = _load_sidecar(path, "spectrum_log10", "a spectrum export")
    values = read_f32(sidecar.with_suffix(".f32"), shape)
    return values, meta


def _fmt(value) -> str:
    return repr(float(value))


def write_ftf_csv(path, omegas, values) -> Path:
    """Frequency-response table: omega_over_pi, re, im, abs."""
    path = Path(path)
    lines = ["omega_over_pi,re,im,abs"]
    for omega, value in zip(np.asarray(omegas), np.asarray(values)):
        lines.append(
            f"{_fmt(omega / np.pi)},{_fmt(value.real)},{_fmt(value.imag)},{_fmt(abs(value))}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_line_cut_csv(path, columns: dict) -> Path:
    """Write named 1D arrays of equal length as CSV columns, x index first."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[name]).ravel() for name in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("line-cut columns differ in length")
    lines = ["x," + ",".join(names)]
    for i in range(length):
        lines.append(str(i) + "," + ",".join(_fmt(a[i]) for a in arrays))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_montecarlo_csv(path, summary) -> Path:
    """Per-trial table of a Monte-Carlo run: trial, leak_ratio, pv_waves.

    One row per successful trial, labelled with its index in the run;
    failed trials (``summary.failures``) have no row.
    """
    path = Path(path)
    failed = {index for index, _ in summary.failures}
    succeeded = [index for index in range(summary.trials) if index not in failed]
    lines = ["trial,leak_ratio,pv_waves"]
    for index, ratio, pv in zip(succeeded, summary.leak_ratios, summary.pv_waves):
        lines.append(f"{index},{_fmt(ratio)},{_fmt(pv)}")
    path.write_text("\n".join(lines) + "\n")
    return path
