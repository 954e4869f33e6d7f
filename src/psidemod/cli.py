"""Command-line harness for reproducible demodulation experiments.

Subcommands: ``simulate`` (synthesize a stack), ``demod`` (temporal or
temporal-spatial demodulation), ``ftf`` (frequency-response sweep),
``compare`` (difference two phase maps), ``montecarlo`` (repeatability
study) and ``replay`` (re-run a recorded manifest).  Every run writes a
``manifest.json`` echoing the fully resolved parameter set, excluding only
the output directory, so ``replay`` reproduces the outputs byte for byte.

Each parameter is declared once, in :data:`PARAMETERS`: flag ``--x-y`` is
the manifest and ``--config`` key ``x_y``.  Values resolve as command
default, then preset, then config file, then the flags actually given, so a
flag that parses to ``None`` (``--carrier none``) still overrides.

Exit codes: 0 success, 2 precondition refusal, bad parameters or a request
too large to allocate, 3 numerical degeneracy, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .carrier import SpectralMask, _mask_for, remove_carrier, spatial_from_temporal
from .conjugate import ConjugatePair, predicted_error_map
from .errors import DegeneracyError
from .fields import (
    TWO_PI,
    WAVEFRONT_KINDS,
    CarrierSpec,
    ErrorSchedule,
    PhaseMap,
    generate_stack,
    make_error_schedule,
    synthesize_wavefront,
    wrap,
)
from .formats import (
    _FIELD_KINDS,
    dump_json,
    export_spectrum,
    load_json,
    load_phase_map,
    load_stack,
    save_complex_field,
    save_phase_map,
    save_stack,
    write_ftf_csv,
    write_gray,
    write_line_cut_csv,
    write_montecarlo_csv,
)
from .metrics import _interior, _reference, montecarlo_repeatability, remove_piston_tilt, wrapped_diff
from .psa import PsaSpec, demodulate_temporal, field_phase, ftf_sweep, sh5_spec, taps_from_zeros

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def parse_angle(text) -> float:
    """Parse an angle in radians: a plain float or 'pi', 'pi/2', '-3pi/4', '0.5pi'."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    match = re.fullmatch(r"(-?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?", s)
    if not match:
        raise ValueError(f"cannot parse angle {text!r}")
    sign = -1.0 if match.group(1) else 1.0
    numerator = float(match.group(2)) if match.group(2) else 1.0
    denominator = float(match.group(3)) if match.group(3) else 1.0
    if denominator == 0.0:
        raise ValueError(f"angle {text!r} divides by zero")
    return sign * numerator * np.pi / denominator


def parse_carrier(text):
    """'none' -> None, 'pi/4' -> [u0, 0.0], 'pi/4,pi/8' -> [u0, v0]."""
    if text is None:
        return None
    s = str(text).strip().lower()
    if s in ("", "none", "null"):
        return None
    parts = s.split(",")
    if len(parts) > 2:
        raise ValueError(f"carrier {text!r} has more than two components")
    u0 = parse_angle(parts[0])
    v0 = parse_angle(parts[1]) if len(parts) == 2 else 0.0
    return [u0, v0]


def parse_demod_carrier(text):
    """Like parse_carrier, but 'auto' and 'estimate' pass through and 'none' is refused."""
    s = str(text).strip().lower()
    if s in ("auto", "estimate"):
        return s
    carrier = parse_carrier(text)
    if carrier is None:
        raise ValueError("demod carrier must be 'auto', 'estimate' or 'u0[,v0]'")
    return carrier


def parse_float_list(text):
    return [float(part) for part in str(text).split(",") if part.strip() != ""]


def parse_angle_list(text):
    return [parse_angle(part) for part in str(text).split(",") if part.strip() != ""]


def parse_coefficients(text):
    value = json.loads(str(text))
    if not _FIELD_KINDS["a nested list of numbers"](value):
        raise ValueError(f"coefficients must be a JSON nested list, got {text!r}")
    return value


def _error_family(spec_text: str):
    """Split an error-model string into (kind, argument).

    Forms: 'zero', 'uniform:<half-range>', 'gaussian:<sigma>',
    'quadratic-pzt:<kappa>', whose argument is the magnitude (0 when
    omitted), and 'fixed:<e0,e1,...>', whose argument stays text.
    """
    kind, _, argument = str(spec_text).partition(":")
    kind = kind.strip().lower()
    if kind == "fixed":
        return kind, argument
    return kind, float(argument) if argument else 0.0


def _build_schedule(spec_text: str, n_frames: int, nominal_step: float, seed) -> ErrorSchedule:
    kind, argument = _error_family(spec_text)
    if kind == "fixed":
        return ErrorSchedule(parse_float_list(argument))
    return make_error_schedule(kind, n_frames, magnitude=argument, nominal_step=nominal_step, seed=seed)


def _build_psa(params) -> PsaSpec:
    name = params["psa"]
    if name == "sh5":
        return sh5_spec()
    if params[name] is None or params["psa_step"] is None:
        raise ValueError(f"psa {name!r} requires --{name} and --psa-step")
    return (PsaSpec if name == "taps" else taps_from_zeros)(params[name], params["psa_step"])


def _build_mask(params) -> SpectralMask | None:
    if params["cutoff"] is not None:
        return SpectralMask(params["cutoff"], params["border_crop"])
    if params["border_crop"] is not None:
        raise ValueError("border_crop without cutoff is ambiguous; give both")
    return None


def _build_truth(params) -> PhaseMap:
    return synthesize_wavefront(params["wavefront"], params["amplitude"],
                                (params["height"], params["width"]), params["coefficients"])


def _carrier(value) -> CarrierSpec | None:
    return None if value is None else CarrierSpec(*value)


def _synthesize_stack(params):
    truth = _build_truth(params)
    schedule = _build_schedule(params["errors"], params["frames"], params["omega0"], params["error_seed"])
    stack = generate_stack(truth, params["background"], params["contrast"], params["omega0"],
                           params["frames"], errors=schedule, carrier=_carrier(params["carrier"]),
                           noise_sigma=params["noise_sigma"], seed=params["seed"])
    return stack, truth


_SWITCH = {"action": argparse.BooleanOptionalAction}

# One row per parameter: its default and the keyword arguments of its flag.
PARAMETERS = {
    # synthesis
    "width": (256, {"type": int}),
    "height": (256, {"type": int}),
    "wavefront": ("defocus", {"choices": WAVEFRONT_KINDS}),
    "amplitude": (3.0, {"type": float, "help": "peak-to-valley in radians"}),
    "coefficients": (None, {"type": parse_coefficients, "help": "JSON nested list for polynomial"}),
    "background": (128.0, {"type": float, "help": "fringe background a"}),
    "contrast": (100.0, {"type": float, "help": "fringe contrast b"}),
    "omega0": (float(np.pi / 2), {"type": parse_angle, "help": "nominal step, e.g. pi/2"}),
    "frames": (5, {"type": int}),
    "errors": ("zero", {"help": "zero | uniform:D | gaussian:S | quadratic-pzt:K | fixed:e0,e1,... "
                                "(montecarlo refuses fixed:)"}),
    "error_seed": (0, {"type": int}),
    "carrier": (None, {"type": parse_carrier, "help": "synthesis carrier, 'none' or 'u0[,v0]' in rad/px"}),
    "noise_sigma": (0.0, {"type": float}),
    "seed": (0, {"type": int}),
    # algorithm
    "psa": ("sh5", {"choices": ("sh5", "taps", "zeros")}),
    "taps": (None, {"type": parse_float_list, "help": "comma-separated tap coefficients"}),
    "psa_step": (None, {"type": parse_angle, "help": "nominal step of --taps/--zeros"}),
    "zeros": (None, {"type": parse_angle_list, "help": "comma-separated FTF zero locations"}),
    # spectral mask
    "cutoff": (None, {"type": parse_angle, "help": "low-pass cutoff in rad/px"}),
    "border_crop": (None, {"type": int}),
    # simulate
    "stem": ("stack", {"help": "frame-file stem"}),
    "preview": (False, _SWITCH),
    "artifact_leak": (None, {"type": float, "help": "export the error map a leak ratio r would imprint"}),
    # demod
    "stack": (None, {"help": "stack sidecar JSON; omit to synthesize"}),
    "method": ("temporal", {"choices": ("temporal", "spatial")}),
    "demod_carrier": ("auto", {"type": parse_demod_carrier,
                               "help": "'auto' (metadata else estimate), 'estimate', or 'u0[,v0]'"}),
    "filter": (True, {**_SWITCH, "help": "--no-filter keeps the conjugate lobe (diagnostics)"}),
    "export_spectrum": (False, _SWITCH),
    "line_cut_row": (None, {"type": int}),
    "compare_truth": (False, {**_SWITCH, "help": "report residual vs the synthesized truth"}),
    # ftf
    "samples": (1024, {"type": int}),
    # compare and montecarlo
    "phase1": (None, {"help": "first phase-map JSON"}),
    "phase2": (None, {"help": "second phase-map JSON"}),
    "crop": (None, {"type": int}),
    "tilt": (True, _SWITCH),
    "gain": (10.0, {"type": float, "help": "display gain for the PGM export"}),
    "pgm": (False, _SWITCH),
    "trials": (50, {"type": int}),
}

_GRID = ("width", "height", "wavefront", "amplitude", "coefficients")
_SYNTH = _GRID + ("background", "contrast", "omega0", "frames", "errors", "error_seed", "carrier",
                  "noise_sigma", "seed")
_PSA = ("psa", "taps", "psa_step", "zeros")
_MASK = ("cutoff", "border_crop")
# passed to montecarlo_repeatability under their own names
_MONTECARLO = ("method", "trials", "seed", "background", "contrast", "noise_sigma", "crop")

# temporal-only demodulation of a detuned 5-step run: the conjugate lobe
# and the double-frequency ripple are left in plain view
_FIG8 = {
    "width": 512,
    "height": 512,
    "wavefront": "defocus",
    "amplitude": 3.0,
    "carrier": [float(np.pi / 4), 0.0],
    "errors": "fixed:0,0.1,-0.15,0.2,-0.05",
    "method": "temporal",
    "export_spectrum": True,
    "line_cut_row": 256,
    "compare_truth": True,
}

PRESETS = {
    "simulate": {
        # a tilted wavefront viewed through an ideal 5-step run, with the
        # error map a 10% conjugate leak would imprint on it
        "fig1": {
            "width": 512,
            "height": 512,
            "wavefront": "tilt",
            "amplitude": float(16 * np.pi),
            "preview": True,
            "artifact_leak": 0.1,
            "line_cut_row": 256,
        },
    },
    "demod": {
        "fig8": _FIG8,
        # same stack through carrier removal and the low-pass mask: the
        # ripple is gone without ever estimating the step errors
        "fig9": {**_FIG8, "method": "spatial", "cutoff": float(np.pi / 8)},
    },
    "ftf": {
        "fig2": {"psa": "sh5", "samples": 1024},
    },
}


# the value kind (formats._FIELD_KINDS) that each row's parser, or its
# switch, gives: a value that arrives already parsed must be of it
_KINDS = {
    int: "an integer", float: "a number", parse_angle: "a number",
    parse_carrier: "a [u0, v0] pair", parse_demod_carrier: "a [u0, v0] pair",
    parse_float_list: "a list of numbers", parse_angle_list: "a list of numbers",
    parse_coefficients: "a nested list of numbers",
    argparse.BooleanOptionalAction: "true or false", None: "a string",
}


def _merge(command: str, params: dict, given: dict, source: str) -> dict:
    """Override ``params`` with ``given``: strings go through each row's
    parser, other values must already be of the kind that parser gives, or
    null where the command's default is null."""
    if not isinstance(given, dict):
        raise ValueError(f"{source} must be a JSON object of parameters, got {type(given).__name__}")
    unknown = set(given) - set(DEFAULTS[command])
    if unknown:
        raise ValueError(f"{source} has unknown {command} parameters: {sorted(unknown)}")
    for name, value in given.items():
        keywords = PARAMETERS[name][1]
        parse = keywords.get("type")
        optional = DEFAULTS[command][name] is None
        kind = _KINDS[parse or keywords.get("action")]
        if isinstance(value, str) and parse is not None:
            value = parse(value)
        elif not (value is None and optional or _FIELD_KINDS[kind](value)):
            what = f"switch {name!r}" if "action" in keywords else repr(name)
            raise ValueError(f"{source} sets {what} to {value!r}, not {'null or ' if optional else ''}{kind}")
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"{source} sets {name!r} to {value!r}, not one of {choices}")
        params[name] = value
    return params


def _resolve_params(command: str, args) -> dict:
    """Defaults, then the preset, the config file and the flags actually given."""
    flags = dict(vars(args))
    del flags["command"], flags["out"]
    params = dict(DEFAULTS[command])
    preset = flags.pop("preset", None)
    if preset is not None:
        params.update(PRESETS[command][preset])
    config_path = flags.pop("config", None)
    if config_path is not None:
        _merge(command, params, load_json(config_path), "config file")
    return _merge(command, params, flags, "flags")


def _cut_row(params: dict, height: int) -> int | None:
    """The requested line-cut row, refused unless it lies on the map."""
    row = params["line_cut_row"]
    if row is not None and not 0 <= row < height:
        raise ValueError(f"line-cut row {row} outside a {height}-row map")
    return row


def _run_simulate(params: dict, out: Path) -> None:
    leak = params["artifact_leak"]
    row = None if leak is None else _cut_row(params, params["height"])
    stack, truth = _synthesize_stack(params)
    error_map = None if leak is None else predicted_error_map(truth, ConjugatePair(1.0, leak))
    save_stack(out, stack, params["stem"])
    save_phase_map(out / "truth", truth)
    if params["preview"]:
        write_gray(out / "frame_000.pgm", stack.frames[0])
    if error_map is not None:
        save_phase_map(out / "predicted_error", error_map)
        if row is not None:
            write_line_cut_csv(
                out / "error_cut.csv",
                {
                    "truth": truth.values[row],
                    "predicted_error": error_map.values[row],
                },
            )


def _run_demod(params: dict, out: Path) -> None:
    """Refuse on parameters alone before any work, then demodulate and write."""
    method = params["method"]
    request = params["demod_carrier"]
    spatial = method == "spatial"
    if params["compare_truth"] and params["stack"] is not None:
        raise ValueError("compare-truth needs a synthesized stack whose truth is known")
    spec = _build_psa(params)
    mask = _build_mask(params) if spatial else None
    carrier = CarrierSpec(*request) if spatial and request not in ("auto", "estimate") else None
    if params["stack"] is None:
        stack, truth = _synthesize_stack(params)
    else:
        stack, truth = load_stack(params["stack"]), None
    row = _cut_row(params, stack.height)
    recorded = None if request == "estimate" else stack.metadata.carrier
    if spatial and params["compare_truth"]:
        # a named or recorded carrier settles the default mask's crop now, before
        # the bandwidth guard could refuse; an estimated carrier is known only later
        known = carrier if carrier is not None else recorded
        resolved = mask if known is None else _mask_for(known, mask)
        if resolved is not None:
            _interior((stack.height, stack.width), resolved.border_crop)

    temporal = demodulate_temporal(stack, spec)
    if params["export_spectrum"]:
        export_spectrum(out / "spectrum", temporal)
    # before the phase step: written after it, some fig8 runs peaked 3 MB higher in RSS
    if truth is not None:
        save_stack(out, stack, "stack")
        save_phase_map(out / "truth", truth)
    if spatial:
        phase, field, diag = spatial_from_temporal(
            temporal,
            carrier=carrier,
            metadata_carrier=recorded,
            mask=mask,
            apply_filter=params["filter"],
        )
        diagnostics = {"method": "spatial", **diag.to_dict()}
        crop = diag.mask.border_crop
        # unfiltered, the returned field is already the carrier-removed one
        cut_columns = {"filtered" if params["filter"] else "unfiltered": phase}
    else:
        phase, valid = field_phase(temporal)
        field = temporal
        diagnostics = {
            "method": "temporal",
            "invalid_pixels": int(valid.size - valid.sum()),
        }
        crop = 0
        cut_columns = {"phase": phase}

    if truth is not None:
        reference = PhaseMap(_reference(truth, method, stack.metadata.carrier), wrapped=True)
    save_phase_map(out / "phase", phase)
    save_complex_field(out / "field", field)
    dump_json(out / "diagnostics.json", diagnostics)
    if row is not None:
        if spatial and params["filter"]:
            cut_columns["unfiltered"], _ = field_phase(remove_carrier(temporal, diag.carrier))
        columns = {name: column.values[row] for name, column in cut_columns.items()}
        if truth is not None:
            columns["reference"] = reference.values[row]
            columns["error"] = wrap(phase.values[row] - reference.values[row])
        write_line_cut_csv(out / "line_cut.csv", columns)
    if params["compare_truth"]:
        residual, report = remove_piston_tilt(wrapped_diff(phase, reference), crop=crop)
        save_phase_map(out / "residual", residual)
        dump_json(out / "report.json", {"method": method, **report.to_dict()})


def _run_ftf(params: dict, out: Path) -> None:
    spec = _build_psa(params)
    omegas, values = ftf_sweep(spec, params["samples"])
    write_ftf_csv(out / "ftf.csv", omegas, values)
    passband = complex(np.sum(spec.coefficients))
    dump_json(
        out / "ftf.json",
        {
            "n_steps": spec.n_steps,
            "nominal_step": spec.nominal_step,
            "rejects_background": spec.rejects_background,
            "background_leak": spec.background_leak,
            "passband_gain": abs(passband),
        },
    )


def _run_compare(params: dict, out: Path) -> None:
    if params["phase1"] is None or params["phase2"] is None:
        raise ValueError("compare requires --phase1 and --phase2")
    first = load_phase_map(params["phase1"])
    second = load_phase_map(params["phase2"])
    diff = wrapped_diff(first, second)
    residual, report = remove_piston_tilt(diff, crop=params["crop"], tilt=params["tilt"])
    save_phase_map(out / "residual", residual)
    dump_json(out / "report.json", report.to_dict())
    if params["pgm"]:
        write_gray(out / "residual.pgm", (residual.values * params["gain"] + np.pi) / TWO_PI * 255)


def _run_montecarlo(params: dict, out: Path) -> None:
    kind, magnitude = _error_family(params["errors"])
    if kind == "fixed":
        raise ValueError("monte-carlo runs need a random error family, not 'fixed'")
    summary = montecarlo_repeatability(
        _build_truth(params),
        _build_psa(params),
        carrier=_carrier(params["carrier"]),
        mask=_build_mask(params),
        error_kind=kind,
        error_magnitude=magnitude,
        **{name: params[name] for name in _MONTECARLO},
    )
    dump_json(out / "summary.json", summary.to_dict())
    write_montecarlo_csv(out / "trials.csv", summary)


# command -> help, runner, its parameters, and the defaults that differ from the table
COMMANDS = {
    "simulate": ("synthesize an interferogram stack", _run_simulate,
                 _SYNTH + ("stem", "preview", "artifact_leak", "line_cut_row"), {}),
    "demod": ("demodulate a stack (file or synthesized)", _run_demod,
              _SYNTH + ("stack",) + _PSA + ("method", "demod_carrier") + _MASK
              + ("filter", "export_spectrum", "line_cut_row", "compare_truth"), {}),
    "ftf": ("sweep an algorithm's frequency transfer function", _run_ftf,
            _PSA + ("samples",), {}),
    "compare": ("difference two phase maps", _run_compare,
                ("phase1", "phase2", "crop", "tilt", "gain", "pgm"), {"crop": 0}),
    "montecarlo": ("repeatability study over random error schedules", _run_montecarlo,
                   _GRID + _PSA + ("carrier",) + _MASK + ("errors",) + _MONTECARLO,
                   {"errors": "uniform:0.3"}),
}

DEFAULTS = {
    command: {**{name: PARAMETERS[name][0] for name in names}, **changed}
    for command, (_, _, names, changed) in COMMANDS.items()
}


def _run_replay(args) -> int:
    manifest = load_json(args.manifest)
    command = manifest.get("command")
    if command not in COMMANDS:
        raise ValueError(f"manifest names unknown command {command!r}")
    params = _merge(command, dict(DEFAULTS[command]), manifest.get("parameters", {}), "manifest")
    return _execute(command, params, Path(args.out))


def _execute(command: str, params: dict, out: Path) -> int:
    """Run one command in a fresh directory inside ``out``, or inside its
    nearest existing parent, and, only when it succeeds, create ``out``, move
    the files into it and record the manifest last, so a refused or failed
    run leaves ``out`` and its parents as it found them."""
    _, runner, _, _ = COMMANDS[command]
    anchor = next(path for path in (out, *out.parents) if path.exists())
    staging = Path(tempfile.mkdtemp(dir=anchor))
    try:
        runner(params, staging)
        out.mkdir(parents=True, exist_ok=True)
        for path in staging.iterdir():
            path.replace(out / path.name)
    finally:
        shutil.rmtree(staging)
    dump_json(out / "manifest.json", {"command": command, "parameters": params})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psidemod",
        description="Phase-shifting interferometry demodulation with spatial-carrier artifact filtering.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, names, _) in COMMANDS.items():
        # unset flags stay out of the namespace, so any given value overrides
        sub = commands.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        sub.add_argument("--out", required=True, help="output directory (created if needed)")
        sub.add_argument("--config", help="JSON file of parameter overrides")
        if command in PRESETS:
            sub.add_argument("--preset", choices=sorted(PRESETS[command]))
        for name in names:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, **PARAMETERS[name][1])

    rep = commands.add_parser("replay", help="re-run a recorded manifest byte for byte")
    rep.add_argument("manifest", help="manifest.json from a previous run")
    rep.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "replay":
            return _run_replay(args)
        return _execute(args.command, _resolve_params(args.command, args), Path(args.out))
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, MemoryError) as exc:  # RefusalError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
