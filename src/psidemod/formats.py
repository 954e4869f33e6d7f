"""File formats: raw grids with JSON sidecars, PGM images, CSV tables.

Every writer is deterministic: the same data produces the same bytes.  A raw
grid is little-endian float32 (``.f32``) or interleaved re/im complex64
(``.c64``), row-major, beside a JSON sidecar that records its kind and grid
dimensions, never in the raw file.  Stack frames live one file per frame next
to their sidecar, ``<stem>_NNN.f32`` (or ``.pgm`` for camera data).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from .carrier import _forward
from .fields import (
    CarrierSpec,
    ComplexField,
    ErrorSchedule,
    InterferogramStack,
    PhaseMap,
    StackMetadata,
    _peak,
)


# P5, then width, height and maxval after whitespace or comment lines, then one whitespace byte
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


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
    return _write_raw(path, values, "<f4")


def _write_raw(path, values, dtype: str) -> Path:
    """Write ``values`` to ``path`` as raw ``dtype``; a value the dtype cannot
    hold, read off the cast itself, raises ``ValueError`` and writes nothing."""
    path = Path(path)
    try:
        with np.errstate(over="raise"):
            raw = np.asarray(values, dtype=dtype)
    except FloatingPointError:
        raise ValueError(f"{path.name}: a value overflows {np.dtype(dtype).name}") from None
    raw.tofile(path)
    return path


def read_f32(path, shape) -> np.ndarray:
    return _read_raw(path, shape, np.dtype("<f4"))


def _read_raw(path, shape, dtype: np.dtype) -> np.ndarray:
    return np.fromfile(_sized(path, shape, dtype), dtype=dtype).reshape(shape)


def _sized(path, shape, dtype: np.dtype) -> Path:
    """``path``, refused unless its raw file holds exactly ``shape`` of ``dtype``."""
    path = Path(path)
    expected = int(np.prod(shape))
    size = path.stat().st_size
    if size != expected * dtype.itemsize:
        raise ValueError(f"{path} holds {size} bytes, expected {expected} {dtype.name} values")
    return path


# the suffix of a raw grid file names its dtype
_SUFFIX = {"<f4": ".f32", "<c8": ".c64"}


def _save_grid(stem, kind: str, values, dtype: str, **extra) -> list[Path]:
    """Write ``values`` as a raw ``dtype`` grid and the ``stem.json`` sidecar
    that records its kind, shape and ``extra``; returns [raw, sidecar]."""
    stem = Path(stem)
    raw = _write_raw(stem.with_suffix(_SUFFIX[dtype]), values, dtype)
    height, width = np.shape(values)
    payload = {"kind": kind, "width": width, "height": height, **extra}
    return [raw, dump_json(stem.with_suffix(".json"), payload)]


def _is_number(value) -> bool:
    """A JSON number that float() takes: JSON's true and false are bools, not
    numbers, and an integer past the float range would overflow."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


# what a value of each kind accepts: a sidecar field, or a CLI parameter
# that arrives already parsed (a config, manifest or flag value)
_FIELD_KINDS = {
    "a positive integer": lambda value: type(value) is int and value >= 1,
    "an integer": lambda value: type(value) is int,
    "a number": _is_number,
    "a list of numbers": lambda value: type(value) is list and all(map(_is_number, value)),
    "a [u0, v0] pair": lambda value: _FIELD_KINDS["a list of numbers"](value) and len(value) == 2,
    "a nested list of numbers": lambda value: type(value) is list and all(
        _is_number(item) or _FIELD_KINDS["a nested list of numbers"](item) for item in value),
    "true or false": lambda value: type(value) is bool,
    "an object": lambda value: type(value) is dict,
    "a string": lambda value: type(value) is str,
}


def _field(where, meta: dict, key: str, kind: str, optional: bool = False):
    """What ``meta`` records under ``key``: a float for a number, else as read.
    Anything but ``kind``, or null where ``optional``, raises ``ValueError``
    naming ``where`` (the sidecar) and the field."""
    value = meta.get(key)
    if value is None and optional:
        return None
    if not _FIELD_KINDS[kind](value):
        null = " or null" if optional else ""
        raise ValueError(f"{where} field {key!r} must be {kind}{null}, got {value!r}")
    return float(value) if kind == "a number" else value


def _load_grid(path, kind: str, what: str, dtype: str):
    """The raw ``dtype`` grid that ``path`` (sidecar or raw file) belongs to,
    and its sidecar's contents; refused unless the sidecar records ``kind``."""
    path = Path(path)
    sidecar = path if path.suffix == ".json" else path.with_suffix(".json")
    meta = load_json(sidecar)
    if meta.get("kind") != kind:
        raise ValueError(f"{sidecar} does not describe {what}")
    shape = tuple(_field(sidecar, meta, key, "a positive integer") for key in ("height", "width"))
    return _read_raw(sidecar.with_suffix(_SUFFIX[dtype]), shape, np.dtype(dtype)), meta


def save_phase_map(stem, phase_map: PhaseMap) -> list[Path]:
    return _save_grid(stem, "phase_map", phase_map.values, "<f4", wrapped=phase_map.wrapped)


def load_phase_map(path) -> PhaseMap:
    values, meta = _load_grid(path, "phase_map", "a phase map", "<f4")
    return PhaseMap(values.astype(np.float64),
                    wrapped=_field(Path(path).with_suffix(".json"), meta, "wrapped",
                                   "true or false"))


def save_complex_field(stem, field: ComplexField) -> list[Path]:
    return _save_grid(stem, "complex_field", field.values, "<c8")


def load_complex_field(path) -> ComplexField:
    values, _ = _load_grid(path, "complex_field", "a complex field", "<c8")
    return ComplexField(values.astype(np.complex128))


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
    width, height, n_frames = (_field(sidecar, meta, key, "a positive integer")
                               for key in ("width", "height", "N"))
    omega0 = _field(sidecar, meta, "omega0", "a number")
    files = []
    for index in range(n_frames):
        raw = sidecar.parent / f"{sidecar.stem}_{index:03d}.f32"
        pgm = raw.with_suffix(".pgm")
        if not (raw.exists() or pgm.exists()):
            raise FileNotFoundError(f"frame {index} of {sidecar} not found ({raw.name} or {pgm.name})")
        files.append(_sized(raw, (height, width), np.dtype("<f4")) if raw.exists() else pgm)
    # every frame is found, and every raw one sized, before the stack is allocated
    frames = np.empty((n_frames, height, width))
    for index, path in enumerate(files):
        image = read_f32(path, (height, width)) if path.suffix == ".f32" else read_pgm(path)
        if image.shape != (height, width):
            raise ValueError(f"{path} is {image.shape[1]}x{image.shape[0]}, sidecar says {width}x{height}")
        frames[index] = image

    carrier = _field(sidecar, meta, "carrier", "an object", optional=True)
    if carrier is not None:
        where = f"{sidecar} carrier"
        carrier = CarrierSpec(_field(where, carrier, "u0", "a number"),
                              _field(where, carrier, "v0", "a number"))
    errors = _field(sidecar, meta, "errors", "a list of numbers", optional=True)
    metadata = StackMetadata(
        background=_field(sidecar, meta, "a", "a number", optional=True),
        contrast=_field(sidecar, meta, "b", "a number", optional=True),
        carrier=carrier,
        errors=None if errors is None else ErrorSchedule(np.asarray(errors, dtype=np.float64)),
        noise_sigma=_field(sidecar, meta, "noise_sigma", "a number", optional=True),
        seed=_field(sidecar, meta, "seed", "an integer", optional=True),
    )
    return InterferogramStack(frames, omega0, metadata)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM, 8-bit or big-endian 16-bit."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path} is not a binary PGM (magic {data[:2]!r})")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path} has a truncated PGM header: after P5 it needs width, "
                         "height and maxval in decimal digits")
    width, height, maxval = map(int, header.groups())
    if width == 0 or height == 0:
        raise ValueError(f"{path} has an empty {width}x{height} PGM image")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path} has unsupported maxval {maxval}")
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    expected = width * height
    available = (len(data) - header.end()) // dtype.itemsize
    if available < expected:
        raise ValueError(f"{path} holds {available} pixels, header says {expected}")
    pixels = np.frombuffer(data, dtype=dtype, count=expected, offset=header.end())
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


def write_gray(path, values) -> Path:
    """Write float values as an 8-bit PGM: rounded, then clipped to [0, 255]."""
    gray = np.round(values)
    return write_pgm(path, np.clip(gray, 0, 255, out=gray).astype(np.uint8))


def export_spectrum(stem, field: ComplexField) -> list[Path]:
    """Write the centered log10-magnitude spectrum of a field.

    Produces ``stem.f32`` (float32 log magnitude, DC at the grid center),
    ``stem.json`` and an 8-bit ``stem.pgm`` normalized for display.  An
    overflowing spectrum raises ``DegeneracyError`` and writes nothing.
    """
    stem = Path(stem)
    magnitude = np.fft.fftshift(np.abs(_forward(field.values, None)))
    peak = _peak(magnitude, "field spectrum", field.shape)
    if peak == 0.0:
        log_magnitude = np.zeros(field.shape)
    else:
        # 12 decades below the peak, or the least subnormal where that underflows
        floor = max(peak * 1e-12, np.finfo(np.float64).smallest_subnormal)
        log_magnitude = np.log10(np.maximum(magnitude, floor))
    paths = _save_grid(stem, "spectrum_log10", log_magnitude, "<f4", layout="centered")
    # once on disk, the log magnitude is normalized in place for display
    log_magnitude -= log_magnitude.min()
    log_magnitude /= float(log_magnitude.max()) or 1.0
    log_magnitude *= 255
    paths.append(write_gray(stem.with_suffix(".pgm"), log_magnitude))
    return paths


def load_spectrum(path):
    """Read back an exported spectrum; returns (log-magnitude array, sidecar dict)."""
    return _load_grid(path, "spectrum_log10", "a spectrum export", "<f4")


def _fmt(value) -> str:
    return repr(float(value))


def _write_table(path, header, rows) -> Path:
    """Write a CSV table: the header's names, then one line per row of cells."""
    path = Path(path)
    lines = [",".join(header), *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_ftf_csv(path, omegas, values) -> Path:
    """Frequency-response table: omega_over_pi, re, im, abs."""
    rows = ((_fmt(omega / np.pi), _fmt(value.real), _fmt(value.imag), _fmt(abs(value)))
            for omega, value in zip(np.asarray(omegas), np.asarray(values)))
    return _write_table(path, ("omega_over_pi", "re", "im", "abs"), rows)


def write_line_cut_csv(path, columns: dict) -> Path:
    """Write named 1D arrays of equal length as CSV columns, x index first."""
    arrays = [np.asarray(column).ravel() for column in columns.values()]
    if any(a.size != arrays[0].size for a in arrays):
        raise ValueError("line-cut columns differ in length")
    rows = ((str(i), *map(_fmt, cells)) for i, cells in enumerate(zip(*arrays)))
    return _write_table(path, ("x", *columns), rows)


def write_montecarlo_csv(path, summary) -> Path:
    """Per-trial table of a Monte-Carlo run: trial, leak_ratio, pv_waves.

    One row per successful trial, labelled with its index in the run;
    failed trials (``summary.failures``) have no row.
    """
    failed = {index for index, _ in summary.failures}
    succeeded = [index for index in range(summary.trials) if index not in failed]
    rows = ((str(index), _fmt(ratio), _fmt(pv))
            for index, ratio, pv in zip(succeeded, summary.leak_ratios, summary.pv_waves))
    return _write_table(path, ("trial", "leak_ratio", "pv_waves"), rows)
