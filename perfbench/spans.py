"""In-memory span tracer that wraps psidemod's public functions from outside.

A traced layer is a named group of functions.  While a ``Tracer`` is
installed, every binding of each wrapped function in ``sys.modules``
(``psidemod`` and its submodules, plus the function's own module for the
numpy FFT entry points) points at a wrapper that records a span: layer,
start, end, parent span and the operation it belongs to.  A layer's self
time is its span's duration minus the time covered by its child spans.
Calls of a layer nested inside a span of the same layer (``save_phase_map``
calling ``write_f32``) belong to the outer span and are not counted again.

Work counts marked ``computed`` are derived from array sizes, not measured:
they ignore cache misses and temporaries.  Per-layer numbers carry no
roofline or bandwidth ratio, because peak rate and bandwidth are not
measured here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _temporal_work(args, kwargs, result):
    # S = sum_n c_n I_n: read N real frames, write one complex field;
    # a complex tap times a real sample plus the complex accumulate is 4 flops
    n, h, w = args[0].frames.shape
    return n * h * w * 8 + h * w * 16, 4 * n * h * w


def _carrier_work(args, kwargs, result):
    # read and write one complex field; per pixel the phase u0*x + v0*y
    # (1 op), cos and sin (1 op each) and a complex multiply (6 ops)
    h, w = args[0].shape
    return 32 * h * w, 9 * h * w


def _wrap_work(args, kwargs, result):
    # read and write float64; add, modulo, subtract, compare, select
    n = result.size
    return 16 * n, 5 * n


def _fft_work(args, kwargs, result):
    # read and write complex128; 5 N log2 N flops for an N-point complex FFT
    n = result.size
    return 32 * n, 5.0 * n * math.log2(n) if n > 1 else 0.0


def _validated_bytes(args, kwargs, result):
    # the array each constructor copies and scans, read back from the instance
    obj = args[0]
    for name in ("values", "frames", "deviations"):
        if hasattr(obj, name):
            return getattr(obj, name).nbytes, None
    raise RuntimeError(f"cannot size the validated array of {type(obj).__name__}")


def _written_bytes(args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    return sum(Path(p).stat().st_size for p in paths), None


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it wraps and what its metrics predict."""

    name: str
    targets: tuple  # (module, attribute path) pairs
    metrics: tuple  # per-layer metric suffixes reported for this layer
    moves: str  # the end-to-end metric this layer should move
    workloads: str  # where it dominates / where it is bypassed
    work: object = None  # (args, kwargs, result) -> (bytes, ops or None)


_WRITERS = (
    "dump_json",
    "write_f32",
    "save_phase_map",
    "save_complex_field",
    "save_stack",
    "write_pgm",
    "export_spectrum",
    "write_ftf_csv",
    "write_line_cut_csv",
    "write_montecarlo_csv",
)

LAYERS = (
    Layer("carrier.demodulate_spatial", (("psidemod.carrier", "demodulate_spatial"),),
          ("calls", "self_s"), "latency_p50_s",
          "spatial-1024 / bypassed in cli-fig8-512"),
    Layer("carrier.remove_carrier", (("psidemod.carrier", "remove_carrier"),),
          ("calls", "self_s", "bytes_computed", "ops_per_byte_computed"), "latency_p50_s",
          "spatial-1024 / bypassed in cli-fig8-512", _carrier_work),
    Layer("kernel.fft", (("numpy.fft", "fft2"), ("numpy.fft", "ifft2")),
          ("calls", "self_s", "flops_computed", "bytes_computed", "ops_per_byte_computed"),
          "latency_p50_s", "spatial-1024", _fft_work),
    Layer("psa.demodulate_temporal", (("psidemod.psa", "demodulate_temporal"),),
          ("calls", "self_s", "bytes_computed", "ops_per_byte_computed"), "latency_p50_s",
          "spatial-1024, cli-fig8-512", _temporal_work),
    Layer("psa.field_phase", (("psidemod.psa", "field_phase"),),
          ("calls", "self_s"), "mpix_per_s", "mc-spatial-256 (all three use it)"),
    Layer("fields.wrap", (("psidemod.fields", "wrap"),),
          ("calls", "self_s", "bytes_computed", "ops_per_byte_computed"), "mpix_per_s",
          "mc-spatial-256 (all three use it)", _wrap_work),
    Layer("fields.generate_stack", (("psidemod.fields", "generate_stack"),),
          ("calls", "self_s"), "mpix_per_s; setup_s only on spatial-1024",
          "mc-spatial-256 / spatial-1024 (off the timed path)"),
    Layer("fields.validate",
          tuple(("psidemod.fields", f"{cls}.__post_init__")
                for cls in ("PhaseMap", "ComplexField", "InterferogramStack", "ErrorSchedule")),
          ("calls", "self_s", "bytes_computed"), "mpix_per_s, peak_rss_mb",
          "mc-spatial-256; peak_rss_mb on spatial-1024", _validated_bytes),
    Layer("conjugate.conjugate_amplitudes", (("psidemod.conjugate", "conjugate_amplitudes"),),
          ("calls", "self_s"), "mpix_per_s (predicted negligible)", "mc-spatial-256 only"),
    Layer("metrics.wrapped_diff", (("psidemod.metrics", "wrapped_diff"),),
          ("calls", "self_s"), "latency_p50_s", "spatial-1024"),
    Layer("metrics.remove_piston_tilt", (("psidemod.metrics", "remove_piston_tilt"),),
          ("calls", "self_s"), "latency_p50_s", "spatial-1024"),
    Layer("metrics.montecarlo_repeatability", (("psidemod.metrics", "montecarlo_repeatability"),),
          ("calls", "self_s"), "mpix_per_s", "mc-spatial-256 only"),
    Layer("formats.write", tuple(("psidemod.formats", name) for name in _WRITERS),
          ("calls", "self_s", "bytes"), "latency_p50_s", "cli-fig8-512 only", _written_bytes),
    Layer("cli.main", (("psidemod.cli", "main"),),
          ("calls", "self_s"), "latency_p50_s", "cli-fig8-512 only"),
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes": "B",
    "bytes_computed": "B",
    "flops_computed": "flop",
    "ops_per_byte_computed": "op/B",
}

# counts that must repeat exactly for the same inputs
DETERMINISTIC = ("calls", "bytes", "bytes_computed", "flops_computed")


def layer_metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{layer.name}.{m}", UNITS[m]) for layer in LAYERS for m in layer.metrics]
    return names + [("trace.overhead_frac", "ratio"), ("trace.untraced_frac", "ratio")]


def _resolve(module_name, path):
    """Return (owner object, attribute name, original) or fail loudly."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise RuntimeError(f"traced function {module_name}.{path} not found")
    return owner, attr, getattr(owner, attr)


@dataclass
class OpRecord:
    """Per-layer totals of one traced operation."""

    index: int
    duration: float = 0.0
    covered: float = 0.0  # time inside top-level spans
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    bytes: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)


class Tracer:
    """Install wrappers around every layer and record spans per operation.

    ``with tracer.op(index):`` installs the wrappers, times the operation
    as the root span and removes the wrappers again, so code outside an
    operation (input generation, result checks) runs untraced.
    """

    def __init__(self):
        self.spans = []  # (op, span id, parent id, layer, start, end)
        self.records = []
        self._stack = []  # [span id, layer name, start, child time]
        self._record = None
        self._patches = []
        self._wrappers = []
        for layer in LAYERS:
            for module_name, path in layer.targets:
                owner, attr, original = _resolve(module_name, path)
                self._wrappers.append((owner, attr, original, self._wrap(layer, original)))

    def _wrap(self, layer, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack[-1][1] == layer.name:
                return original(*args, **kwargs)
            frame = [len(tracer.spans), layer.name, time.perf_counter(), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, end, stack[-1])
            if layer.work is not None:
                nbytes, ops = layer.work(args, kwargs, result)
                rec = tracer._record
                rec.bytes[layer.name] = rec.bytes.get(layer.name, 0) + nbytes
                if ops is not None:
                    rec.ops[layer.name] = rec.ops.get(layer.name, 0) + ops
            return result

        return wrapper

    def _close(self, frame, end, parent):
        span_id, name, start, child = frame
        duration = end - start
        parent[3] += duration
        rec = self._record
        self.spans[span_id] = (rec.index, span_id, parent[0], name, start, end)
        rec.calls[name] = rec.calls.get(name, 0) + 1
        rec.self_s[name] = rec.self_s.get(name, 0.0) + duration - child

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "psidemod" or n.startswith("psidemod."))]
        for owner, attr, original, wrapper in self._wrappers:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def _uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def op(self, index):
        rec = self._record = OpRecord(index)
        root = [len(self.spans), "op", 0.0, 0.0]
        self.spans.append(None)
        self._install()
        self._stack = [root]
        root[2] = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._uninstall()
            self.spans[root[0]] = (index, root[0], None, "op", root[2], end)
            rec.duration = end - root[2]
            rec.covered = root[3]
            self.records.append(rec)
            self._record = None


def summarize(records):
    """Per-layer metrics from the traced operations.

    Counts and computed work are those of the first traced operation, so
    two runs with the same seed report identical values; ``varying`` lists
    every count that differs between traced operations of this run.
    Self times are means per operation.
    """
    first = records[0]
    n = len(records)
    metrics = {}
    varying = {}
    for layer in LAYERS:
        name = layer.name
        per_op = {
            "calls": [r.calls.get(name, 0) for r in records],
            "bytes": [r.bytes.get(name, 0) for r in records],
            "ops": [r.ops.get(name, 0) for r in records],
        }
        for kind, values in per_op.items():
            if min(values) != max(values):
                varying[f"{name}.{kind}"] = [min(values), max(values)]
        nbytes = first.bytes.get(name, 0)
        ops = first.ops.get(name, 0)
        values = {
            "calls": first.calls.get(name, 0),
            "self_s": sum(r.self_s.get(name, 0.0) for r in records) / n,
            "bytes": nbytes,
            "bytes_computed": nbytes,
            "flops_computed": ops,
            "ops_per_byte_computed": ops / nbytes if nbytes else 0.0,
        }
        for m in layer.metrics:
            metrics[f"{name}.{m}"] = values[m]
    metrics["trace.untraced_frac"] = statistics.median(1.0 - r.covered / r.duration for r in records)
    return metrics, varying
