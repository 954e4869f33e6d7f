"""Command-line harness for reproducible demodulation experiments.

Subcommands: ``simulate`` (synthesize a stack), ``demod`` (temporal or
temporal-spatial demodulation), ``ftf`` (frequency-response sweep),
``compare`` (difference two phase maps), ``montecarlo`` (repeatability
study) and ``replay`` (re-run a recorded manifest).  Every run writes a
``manifest.json`` echoing the fully resolved parameter set, excluding only
the output directory, so ``replay`` reproduces the outputs byte for byte.

Exit codes: 0 success, 2 precondition refusal or bad parameters,
3 numerical degeneracy, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .carrier import SpectralMask, remove_carrier, spatial_from_temporal
from .conjugate import ConjugatePair, predicted_error_map
from .errors import DegeneracyError, RefusalError
from .fields import (
    CarrierSpec,
    ErrorSchedule,
    PhaseMap,
    generate_stack,
    make_error_schedule,
    synthesize_wavefront,
    wrap,
)
from .formats import (
    dump_json,
    export_spectrum,
    load_json,
    load_phase_map,
    load_stack,
    save_complex_field,
    save_phase_map,
    save_stack,
    write_ftf_csv,
    write_line_cut_csv,
    write_montecarlo_csv,
    write_pgm,
)
from .metrics import montecarlo_repeatability, remove_piston_tilt, wrapped_diff
from .psa import PsaSpec, demodulate_temporal, field_phase, ftf_sweep, sh5_spec, taps_from_zeros

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

TWO_PI = 2.0 * np.pi


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
    return sign * numerator * np.pi / denominator


def parse_carrier(text):
    """'none' -> None, 'pi/4' -> [u0, 0.0], 'pi/4,pi/8' -> [u0, v0]."""
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        return [float(text[0]), float(text[1])]
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
    """Like parse_carrier, but 'auto' and 'estimate' pass through."""
    if text is None:
        return None
    s = str(text).strip().lower()
    if s in ("auto", "estimate"):
        return s
    return parse_carrier(text)


def parse_float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(part) for part in str(text).split(",") if part.strip() != ""]


def parse_angle_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [parse_angle(part) for part in str(text).split(",") if part.strip() != ""]


def parse_coefficients(text):
    if text is None or isinstance(text, list):
        return text
    value = json.loads(str(text))
    if not isinstance(value, list):
        raise ValueError(f"coefficients must be a JSON nested list, got {text!r}")
    return value


def _build_schedule(spec_text: str, n_frames: int, nominal_step: float, seed) -> ErrorSchedule:
    """Resolve an error-model string into a concrete schedule.

    Forms: 'zero', 'uniform:<half-range>', 'gaussian:<sigma>',
    'quadratic-pzt:<kappa>', 'fixed:<e0,e1,...>'.
    """
    kind, _, argument = str(spec_text).partition(":")
    kind = kind.strip().lower()
    if kind == "fixed":
        return ErrorSchedule(np.asarray(parse_float_list(argument), dtype=np.float64))
    magnitude = float(argument) if argument else 0.0
    return make_error_schedule(kind, n_frames, magnitude=magnitude, nominal_step=nominal_step, seed=seed)


def _error_family(spec_text: str):
    kind, _, argument = str(spec_text).partition(":")
    kind = kind.strip().lower()
    if kind == "fixed":
        raise ValueError("monte-carlo runs need a random error family, not 'fixed'")
    return kind, float(argument) if argument else 0.0


def _build_psa(params) -> PsaSpec:
    name = params["psa"]
    if name == "sh5":
        return sh5_spec()
    if name == "taps":
        if params["taps"] is None or params["psa_step"] is None:
            raise ValueError("psa 'taps' requires --taps and --psa-step")
        return PsaSpec(np.asarray(params["taps"], dtype=np.float64), float(params["psa_step"]))
    if name == "zeros":
        if params["zeros"] is None or params["psa_step"] is None:
            raise ValueError("psa 'zeros' requires --zeros and --psa-step")
        return taps_from_zeros(np.asarray(params["zeros"], dtype=np.float64), float(params["psa_step"]))
    raise ValueError(f"unknown psa {name!r}, expected 'sh5', 'taps' or 'zeros'")


def _build_truth(params) -> PhaseMap:
    return synthesize_wavefront(
        params["wavefront"],
        params["amplitude"],
        (int(params["height"]), int(params["width"])),
        coefficients=params.get("coefficients"),
    )


def _carrier_from_value(value) -> CarrierSpec | None:
    if value is None:
        return None
    return CarrierSpec(float(value[0]), float(value[1]))


def _synthesize_stack(params):
    truth = _build_truth(params)
    schedule = _build_schedule(
        params["errors"], int(params["frames"]), float(params["omega0"]), params["error_seed"]
    )
    carrier = _carrier_from_value(params["carrier"])
    stack = generate_stack(
        truth,
        float(params["background"]),
        float(params["contrast"]),
        float(params["omega0"]),
        int(params["frames"]),
        errors=schedule,
        carrier=carrier,
        noise_sigma=float(params["noise_sigma"]),
        seed=params["seed"],
    )
    return stack, truth, carrier


_SYNTH_DEFAULTS = {
    "width": 256,
    "height": 256,
    "wavefront": "defocus",
    "amplitude": 3.0,
    "coefficients": None,
    "background": 128.0,
    "contrast": 100.0,
    "omega0": float(np.pi / 2),
    "frames": 5,
    "errors": "zero",
    "error_seed": 0,
    "carrier": None,
    "noise_sigma": 0.0,
    "seed": 0,
}

SIMULATE_DEFAULTS = {
    **_SYNTH_DEFAULTS,
    "stem": "stack",
    "preview": False,
    "artifact_leak": None,
    "line_cut_row": None,
}

DEMOD_DEFAULTS = {
    **_SYNTH_DEFAULTS,
    "stack": None,
    "psa": "sh5",
    "taps": None,
    "psa_step": None,
    "zeros": None,
    "method": "temporal",
    "demod_carrier": "auto",
    "cutoff": None,
    "border_crop": None,
    "filter": True,
    "export_spectrum": False,
    "line_cut_row": None,
    "compare_truth": False,
}

FTF_DEFAULTS = {
    "psa": "sh5",
    "taps": None,
    "psa_step": None,
    "zeros": None,
    "samples": 1024,
}

COMPARE_DEFAULTS = {
    "phase1": None,
    "phase2": None,
    "crop": 0,
    "tilt": True,
    "gain": 10.0,
    "pgm": False,
}

MONTECARLO_DEFAULTS = {
    "width": 256,
    "height": 256,
    "wavefront": "defocus",
    "amplitude": 3.0,
    "coefficients": None,
    "psa": "sh5",
    "taps": None,
    "psa_step": None,
    "zeros": None,
    "method": "temporal",
    "carrier": None,
    "cutoff": None,
    "border_crop": None,
    "errors": "uniform:0.3",
    "trials": 50,
    "seed": 0,
    "background": 128.0,
    "contrast": 100.0,
    "noise_sigma": 0.0,
    "crop": None,
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
        # temporal-only demodulation of a detuned 5-step run: the conjugate
        # lobe and the double-frequency ripple are left in plain view
        "fig8": {
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
        },
        # same stack through carrier removal and the low-pass mask: the
        # ripple is gone without ever estimating the step errors
        "fig9": {
            "width": 512,
            "height": 512,
            "wavefront": "defocus",
            "amplitude": 3.0,
            "carrier": [float(np.pi / 4), 0.0],
            "errors": "fixed:0,0.1,-0.15,0.2,-0.05",
            "method": "spatial",
            "cutoff": float(np.pi / 8),
            "export_spectrum": True,
            "line_cut_row": 256,
            "compare_truth": True,
        },
    },
    "ftf": {
        "fig2": {"psa": "sh5", "samples": 1024},
    },
    "compare": {},
    "montecarlo": {},
}


def _resolve_params(command: str, defaults: dict, args) -> dict:
    params = dict(defaults)
    preset = getattr(args, "preset", None)
    if preset is not None:
        table = PRESETS.get(command, {})
        if preset not in table:
            raise ValueError(f"unknown {command} preset {preset!r}, expected one of {sorted(table)}")
        params.update(table[preset])
    config_path = getattr(args, "config", None)
    if config_path is not None:
        config = load_json(config_path)
        unknown = set(config) - set(defaults)
        if unknown:
            raise ValueError(f"config file has unknown {command} parameters: {sorted(unknown)}")
        params.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _write_manifest(out: Path, command: str, params: dict) -> None:
    dump_json(out / "manifest.json", {"command": command, "parameters": params})


def _preview_pgm(path: Path, frame: np.ndarray) -> None:
    display = np.clip(np.round(frame), 0, 255).astype(np.uint8)
    write_pgm(path, display)


def _run_simulate(params: dict, out: Path) -> int:
    stack, truth, _ = _synthesize_stack(params)
    save_stack(out, stack, params["stem"])
    save_phase_map(out / "truth", truth)
    if params["preview"]:
        _preview_pgm(out / "frame_000.pgm", stack.frames[0])
    if params["artifact_leak"] is not None:
        leak = float(params["artifact_leak"])
        pair = ConjugatePair(1.0 + 0.0j, leak + 0.0j)
        error_map = predicted_error_map(truth, pair)
        save_phase_map(out / "predicted_error", error_map)
        if params["line_cut_row"] is not None:
            row = int(params["line_cut_row"])
            write_line_cut_csv(
                out / "error_cut.csv",
                {
                    "truth": truth.values[row],
                    "predicted_error": error_map.values[row],
                },
            )
    _write_manifest(out, "simulate", params)
    return EXIT_OK


def _run_demod(params: dict, out: Path) -> int:
    if params["stack"] is not None:
        stack = load_stack(params["stack"])
        truth = None
    else:
        stack, truth, _ = _synthesize_stack(params)
        save_stack(out, stack, "stack")
        save_phase_map(out / "truth", truth)

    spec = _build_psa(params)
    temporal = demodulate_temporal(stack, spec)
    if params["export_spectrum"]:
        export_spectrum(out / "spectrum", temporal)

    method = params["method"]
    if method == "temporal":
        phase, valid = field_phase(temporal)
        field = temporal
        diagnostics = {
            "method": "temporal",
            "invalid_pixels": int(valid.size - valid.sum()),
        }
        crop = 0
        reference = None
        if truth is not None:
            reference_values = truth.values
            carrier = _carrier_from_value(params["carrier"])
            if carrier is not None:
                reference_values = reference_values + carrier.phase_field(truth.shape)
            reference = PhaseMap(wrap(reference_values), wrapped=True)
        cut_columns = {"phase": None}
    elif method == "spatial":
        carrier_request = params["demod_carrier"]
        carrier_arg = None
        metadata_carrier = None if carrier_request == "estimate" else stack.metadata.carrier
        if carrier_request not in ("auto", "estimate"):
            if carrier_request is None:
                raise ValueError("demod carrier must be 'auto', 'estimate' or 'u0[,v0]'")
            carrier_arg = CarrierSpec(float(carrier_request[0]), float(carrier_request[1]))
        mask = None
        if params["cutoff"] is not None:
            mask = SpectralMask(float(params["cutoff"]), params["border_crop"])
        elif params["border_crop"] is not None:
            raise ValueError("border_crop without cutoff is ambiguous; give both")
        phase, field, diag = spatial_from_temporal(
            temporal,
            carrier=carrier_arg,
            metadata_carrier=metadata_carrier,
            mask=mask,
            apply_filter=params["filter"],
        )
        diagnostics = {"method": "spatial", **diag.to_dict()}
        crop = diag.mask.border_crop
        reference = None if truth is None else PhaseMap(wrap(truth.values), wrapped=True)
        unfiltered_phase, _ = field_phase(remove_carrier(temporal, diag.carrier))
        cut_columns = {"filtered": None, "unfiltered": unfiltered_phase}
    else:
        raise ValueError(f"unknown method {method!r}, expected 'temporal' or 'spatial'")

    save_phase_map(out / "phase", phase)
    save_complex_field(out / "field", field)
    dump_json(out / "diagnostics.json", diagnostics)

    if params["line_cut_row"] is not None:
        row = int(params["line_cut_row"])
        if not 0 <= row < phase.height:
            raise ValueError(f"line-cut row {row} outside a {phase.height}-row map")
        columns = {}
        for name, override in cut_columns.items():
            columns[name] = phase.values[row] if override is None else override.values[row]
        if reference is not None:
            columns["reference"] = reference.values[row]
            columns["error"] = wrap(phase.values[row] - reference.values[row])
        write_line_cut_csv(out / "line_cut.csv", columns)

    if params["compare_truth"]:
        if reference is None:
            raise ValueError("compare-truth needs a synthesized stack whose truth is known")
        diff = wrapped_diff(phase, reference)
        residual, report = remove_piston_tilt(diff, crop=crop)
        save_phase_map(out / "residual", residual)
        dump_json(out / "report.json", {"method": method, **report.to_dict()})

    _write_manifest(out, "demod", params)
    return EXIT_OK


def _run_ftf(params: dict, out: Path) -> int:
    spec = _build_psa(params)
    omegas, values = ftf_sweep(spec, int(params["samples"]))
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
    _write_manifest(out, "ftf", params)
    return EXIT_OK


def _run_compare(params: dict, out: Path) -> int:
    if params["phase1"] is None or params["phase2"] is None:
        raise ValueError("compare requires --phase1 and --phase2")
    first = load_phase_map(params["phase1"])
    second = load_phase_map(params["phase2"])
    diff = wrapped_diff(first, second)
    residual, report = remove_piston_tilt(diff, crop=int(params["crop"]), tilt=params["tilt"])
    save_phase_map(out / "residual", residual)
    dump_json(out / "report.json", report.to_dict())
    if params["pgm"]:
        gain = float(params["gain"])
        display = np.clip(
            np.round((residual.values * gain + np.pi) / TWO_PI * 255), 0, 255
        ).astype(np.uint8)
        write_pgm(out / "residual.pgm", display)
    _write_manifest(out, "compare", params)
    return EXIT_OK


def _run_montecarlo(params: dict, out: Path) -> int:
    truth = _build_truth(params)
    spec = _build_psa(params)
    carrier = _carrier_from_value(params["carrier"])
    mask = None
    if params["cutoff"] is not None:
        mask = SpectralMask(float(params["cutoff"]), params["border_crop"])
    elif params["border_crop"] is not None:
        raise ValueError("border_crop without cutoff is ambiguous; give both")
    kind, magnitude = _error_family(params["errors"])
    summary = montecarlo_repeatability(
        truth,
        spec,
        method=params["method"],
        carrier=carrier,
        mask=mask,
        error_kind=kind,
        error_magnitude=magnitude,
        trials=int(params["trials"]),
        seed=int(params["seed"]),
        background=float(params["background"]),
        contrast=float(params["contrast"]),
        noise_sigma=float(params["noise_sigma"]),
        crop=params["crop"],
    )
    dump_json(out / "summary.json", summary.to_dict())
    write_montecarlo_csv(out / "trials.csv", summary)
    _write_manifest(out, "montecarlo", params)
    return EXIT_OK


RUNNERS = {
    "simulate": (SIMULATE_DEFAULTS, _run_simulate),
    "demod": (DEMOD_DEFAULTS, _run_demod),
    "ftf": (FTF_DEFAULTS, _run_ftf),
    "compare": (COMPARE_DEFAULTS, _run_compare),
    "montecarlo": (MONTECARLO_DEFAULTS, _run_montecarlo),
}


def _run_replay(args) -> int:
    manifest = load_json(args.manifest)
    command = manifest.get("command")
    if command not in RUNNERS:
        raise ValueError(f"manifest names unknown command {command!r}")
    defaults, runner = RUNNERS[command]
    params = manifest.get("parameters", {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"manifest has unknown {command} parameters: {sorted(unknown)}")
    merged = {**defaults, **params}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return runner(merged, out)


def _add_common(sub, command):
    sub.add_argument("--out", required=True, help="output directory (created if needed)")
    sub.add_argument("--config", default=None, help="JSON file of parameter overrides")
    if PRESETS.get(command):
        sub.add_argument("--preset", default=None, choices=sorted(PRESETS[command]))


def _add_synth_flags(sub):
    sub.add_argument("--width", type=int)
    sub.add_argument("--height", type=int)
    sub.add_argument("--wavefront", choices=("flat", "tilt", "defocus", "astigmatism", "polynomial"))
    sub.add_argument("--amplitude", type=float, help="peak-to-valley in radians")
    sub.add_argument("--coefficients", type=parse_coefficients, help="JSON nested list for polynomial")
    sub.add_argument("--background", type=float, help="fringe background a")
    sub.add_argument("--contrast", type=float, help="fringe contrast b")
    sub.add_argument("--omega0", type=parse_angle, help="nominal step, e.g. pi/2")
    sub.add_argument("--frames", type=int)
    sub.add_argument("--errors", help="zero | uniform:D | gaussian:S | quadratic-pzt:K | fixed:e0,e1,...")
    sub.add_argument("--error-seed", dest="error_seed", type=int)
    sub.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    sub.add_argument("--seed", type=int)


def _add_psa_flags(sub):
    sub.add_argument("--psa", choices=("sh5", "taps", "zeros"))
    sub.add_argument("--taps", type=parse_float_list, help="comma-separated tap coefficients")
    sub.add_argument("--psa-step", dest="psa_step", type=parse_angle, help="nominal step of --taps/--zeros")
    sub.add_argument("--zeros", type=parse_angle_list, help="comma-separated FTF zero locations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psidemod",
        description="Phase-shifting interferometry demodulation with spatial-carrier artifact filtering.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="synthesize an interferogram stack")
    _add_common(sim, "simulate")
    _add_synth_flags(sim)
    sim.add_argument("--carrier", type=parse_carrier, help="'none' or 'u0[,v0]' in rad/px")
    sim.add_argument("--stem", help="frame-file stem")
    sim.add_argument("--preview", action=argparse.BooleanOptionalAction, default=None)
    sim.add_argument("--artifact-leak", dest="artifact_leak", type=float,
                     help="also export the error map a leak ratio r would imprint")
    sim.add_argument("--line-cut-row", dest="line_cut_row", type=int)

    dem = commands.add_parser("demod", help="demodulate a stack (file or synthesized)")
    _add_common(dem, "demod")
    _add_synth_flags(dem)
    dem.add_argument("--carrier", type=parse_carrier, help="synthesis carrier, 'none' or 'u0[,v0]'")
    dem.add_argument("--stack", help="stack sidecar JSON; omit to synthesize")
    _add_psa_flags(dem)
    dem.add_argument("--method", choices=("temporal", "spatial"))
    dem.add_argument("--demod-carrier", dest="demod_carrier", type=parse_demod_carrier,
                     help="'auto' (metadata else estimate), 'estimate', or 'u0[,v0]'")
    dem.add_argument("--cutoff", type=parse_angle, help="low-pass cutoff in rad/px")
    dem.add_argument("--border-crop", dest="border_crop", type=int)
    dem.add_argument("--filter", action=argparse.BooleanOptionalAction, default=None,
                     help="--no-filter keeps the conjugate lobe (diagnostics)")
    dem.add_argument("--export-spectrum", dest="export_spectrum", action=argparse.BooleanOptionalAction,
                     default=None)
    dem.add_argument("--line-cut-row", dest="line_cut_row", type=int)
    dem.add_argument("--compare-truth", dest="compare_truth", action=argparse.BooleanOptionalAction,
                     default=None, help="report residual vs the synthesized truth")

    ftf = commands.add_parser("ftf", help="sweep an algorithm's frequency transfer function")
    _add_common(ftf, "ftf")
    _add_psa_flags(ftf)
    ftf.add_argument("--samples", type=int)

    cmp_ = commands.add_parser("compare", help="difference two phase maps")
    _add_common(cmp_, "compare")
    cmp_.add_argument("--phase1", help="first phase-map JSON")
    cmp_.add_argument("--phase2", help="second phase-map JSON")
    cmp_.add_argument("--crop", type=int)
    cmp_.add_argument("--tilt", action=argparse.BooleanOptionalAction, default=None)
    cmp_.add_argument("--gain", type=float, help="display gain for the PGM export")
    cmp_.add_argument("--pgm", action=argparse.BooleanOptionalAction, default=None)

    mc = commands.add_parser("montecarlo", help="repeatability study over random error schedules")
    _add_common(mc, "montecarlo")
    mc.add_argument("--width", type=int)
    mc.add_argument("--height", type=int)
    mc.add_argument("--wavefront", choices=("flat", "tilt", "defocus", "astigmatism", "polynomial"))
    mc.add_argument("--amplitude", type=float)
    mc.add_argument("--coefficients", type=parse_coefficients)
    _add_psa_flags(mc)
    mc.add_argument("--method", choices=("temporal", "spatial"))
    mc.add_argument("--carrier", type=parse_carrier)
    mc.add_argument("--cutoff", type=parse_angle)
    mc.add_argument("--border-crop", dest="border_crop", type=int)
    mc.add_argument("--errors", help="random family, e.g. uniform:0.3")
    mc.add_argument("--trials", type=int)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--background", type=float)
    mc.add_argument("--contrast", type=float)
    mc.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    mc.add_argument("--crop", type=int)

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
        defaults, runner = RUNNERS[args.command]
        params = _resolve_params(args.command, defaults, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return runner(params, out)
    except RefusalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
