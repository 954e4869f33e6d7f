"""End-to-end command-line runs: exit codes, output files, replays."""

import contextlib
import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest

import psidemod as p
from psidemod import cli, metrics
from psidemod.formats import dump_json, load_phase_map, save_stack

from conftest import FIXED_SCHEDULE, make_bandlimited


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def dir_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def read_json(path):
    return json.loads(path.read_text())


# --- simulate ---


def test_simulate_fig1_outputs(tmp_path):
    out = tmp_path / "fig1"
    code, _, err = run_cli("simulate", "--preset", "fig1", "--out", out)
    assert code == 0, err
    for name in (
        "stack.json",
        "stack_000.f32",
        "stack_004.f32",
        "truth.f32",
        "frame_000.pgm",
        "predicted_error.f32",
        "error_cut.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "simulate"
    params = manifest["parameters"]
    assert params["wavefront"] == "tilt"
    assert params["width"] == 512
    assert params["artifact_leak"] == 0.1
    assert "out" not in params
    error = load_phase_map(out / "predicted_error.json")
    assert abs(np.abs(error.values).max() - np.arcsin(0.1)) < 1e-3
    cut = (out / "error_cut.csv").read_text().splitlines()
    assert cut[0] == "x,truth,predicted_error"
    assert len(cut) == 513


def test_simulate_polynomial_wavefront_from_json_coefficients(tmp_path):
    out = tmp_path / "poly"
    code, _, err = run_cli("simulate", "--wavefront", "polynomial", "--coefficients",
                           "[[0, 1], [1, 0]]", "--width", 32, "--height", 24,
                           "--amplitude", 2.0, "--out", out)
    assert code == 0, err
    assert read_json(out / "manifest.json")["parameters"]["coefficients"] == [[0, 1], [1, 0]]
    expected = p.synthesize_wavefront("polynomial", 2.0, (24, 32), coefficients=[[0, 1], [1, 0]])
    # the truth is stored as float32
    assert np.array_equal(load_phase_map(out / "truth.json").values,
                          expected.values.astype(np.float32))
    code, _, err = run_cli("simulate", "--wavefront", "polynomial", "--coefficients", "3",
                           "--out", tmp_path / "x")
    assert code == 2
    assert "argument --coefficients: invalid parse_coefficients value: '3'" in err


def test_simulate_deterministic(tmp_path):
    args = (
        "simulate",
        "--width", 48,
        "--height", 32,
        "--amplitude", 1.0,
        "--noise-sigma", 1.5,
        "--seed", 11,
        "--errors", "uniform:0.2",
        "--error-seed", 4,
    )
    code1, _, _ = run_cli(*args, "--out", tmp_path / "a")
    code2, _, _ = run_cli(*args, "--out", tmp_path / "b")
    assert code1 == code2 == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_simulate_carrier_echoed(tmp_path):
    out = tmp_path / "c"
    code, _, err = run_cli(
        "simulate", "--out", out,
        "--width", 64, "--height", 64, "--amplitude", 1.0,
        "--carrier", "pi/4",
    )
    assert code == 0, err
    params = read_json(out / "manifest.json")["parameters"]
    assert params["carrier"] == [np.pi / 4, 0.0]
    sidecar = read_json(out / "stack.json")
    assert sidecar["carrier"]["u0"] == pytest.approx(np.pi / 4)


@pytest.mark.parametrize("row", [0, 31])
def test_simulate_line_cut_row_on_the_map_edge(tmp_path, row):
    code, _, err = run_cli(
        "simulate", "--width", 32, "--height", 32, "--artifact-leak", 0.1,
        "--line-cut-row", row, "--out", tmp_path / "x",
    )
    assert code == 0, err
    assert (tmp_path / "x" / "error_cut.csv").read_text().count("\n") == 33


@pytest.mark.parametrize(
    "args, message",
    [
        (("--psa", "taps", "--psa-step", "pi/2"), "psa 'taps' requires --taps and --psa-step"),
        (("--psa", "zeros", "--zeros", "0,pi/2,pi/2,pi"),
         "psa 'zeros' requires --zeros and --psa-step"),
    ],
    ids=["taps", "step"],
)
def test_psa_without_its_taps_or_step_is_refused_by_name(tmp_path, args, message):
    code, _, err = run_cli("demod", "--width", 32, "--height", 32, *args, "--out", tmp_path / "x")
    assert code == 2 and message in err, err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("row", [99, -1])
def test_simulate_line_cut_row_off_the_map_refused(tmp_path, row):
    code, _, err = run_cli(
        "simulate", "--width", 32, "--height", 32, "--artifact-leak", 0.1,
        "--line-cut-row", row, "--out", tmp_path / "x",
    )
    assert code == 2
    assert "line-cut row" in err
    assert not (tmp_path / "x" / "error_cut.csv").exists()


# --- demod ---


def test_demod_clean_run_recovers_truth(tmp_path):
    out = tmp_path / "clean"
    code, _, err = run_cli(
        "demod", "--out", out,
        "--width", 64, "--height", 64, "--amplitude", 1.0,
        "--compare-truth",
    )
    assert code == 0, err
    report = read_json(out / "report.json")
    assert report["method"] == "temporal"
    assert report["pv_waves"] < 1e-9


def test_demod_fig8_shows_ripple(tmp_path):
    out = tmp_path / "fig8"
    code, _, err = run_cli("demod", "--preset", "fig8", "--out", out)
    assert code == 0, err
    pair = p.conjugate_amplitudes(
        p.sh5_spec(), p.ErrorSchedule(FIXED_SCHEDULE), 100.0
    )
    oracle = 2 * np.arcsin(pair.leak_ratio) / (2 * np.pi)
    report = read_json(out / "report.json")
    assert report["method"] == "temporal"
    assert report["pv_waves"] == pytest.approx(oracle, rel=0.02)
    for name in ("spectrum.f32", "spectrum.json", "spectrum.pgm", "residual.f32"):
        assert (out / name).exists(), name
    cut = (out / "line_cut.csv").read_text().splitlines()
    assert cut[0] == "x,phase,reference,error"


def test_demod_fig9_removes_ripple(tmp_path):
    out = tmp_path / "fig9"
    code, _, err = run_cli("demod", "--preset", "fig9", "--out", out)
    assert code == 0, err
    report = read_json(out / "report.json")
    assert report["method"] == "spatial"
    assert report["pv_waves"] < 0.005
    diag = read_json(out / "diagnostics.json")
    assert diag["carrier_source"] == "metadata"
    assert diag["filter_applied"] is True
    cut = (out / "line_cut.csv").read_text().splitlines()
    assert cut[0] == "x,filtered,unfiltered,reference,error"


def test_demod_spatial_runs_the_temporal_step_once(tmp_path, monkeypatch):
    calls = []
    original = p.demodulate_temporal

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (cli, p.carrier, p.psa):
        monkeypatch.setattr(module, "demodulate_temporal", counting)
    code, _, err = run_cli(
        "demod", "--preset", "fig9", "--width", 64, "--height", 64, "--amplitude", 1.0,
        "--line-cut-row", 32, "--out", tmp_path / "x",
    )
    assert code == 0, err
    assert len(calls) == 1


def _count_carrier_removals(monkeypatch):
    """Count evaluations of the carrier factor, which ``remove_carrier`` and
    the spectral chain both take from ``carrier._centered``."""
    calls = []
    original = p.carrier._centered

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(p.carrier, "_centered", counting)
    return calls


def test_demod_spatial_unfiltered_cut_only_with_a_line_cut(tmp_path, monkeypatch):
    calls = _count_carrier_removals(monkeypatch)
    spatial = ("demod", "--method", "spatial", "--carrier", "pi/4", "--cutoff", "pi/8",
               "--width", 64, "--height", 64, "--amplitude", 1.0)
    code, _, err = run_cli(*spatial, "--out", tmp_path / "x")
    assert code == 0, err
    assert len(calls) == 1
    assert not (tmp_path / "x" / "line_cut.csv").exists()
    code, _, err = run_cli(*spatial, "--line-cut-row", 64, "--out", tmp_path / "y")
    assert code == 2
    assert "line-cut row 64 outside a 64-row map" in err


def test_demod_no_filter_line_cut_writes_the_returned_field_once(tmp_path, monkeypatch):
    calls = _count_carrier_removals(monkeypatch)
    out = tmp_path / "x"
    code, _, err = run_cli("demod", "--method", "spatial", "--carrier", "pi/4", "--no-filter",
                           "--width", 64, "--height", 48, "--amplitude", 1.0,
                           "--line-cut-row", 20, "--out", out)
    assert code == 0, err
    assert len(calls) == 1
    cut = (out / "line_cut.csv").read_text().splitlines()
    assert cut[0] == "x,unfiltered,reference,error"
    phase = load_phase_map(out / "phase")
    column = np.array([float(line.split(",")[1]) for line in cut[1:]])
    # phase.f32 holds float32, the CSV full precision
    np.testing.assert_allclose(column, phase.values[20], rtol=0, atol=1e-6)


def test_demod_spatial_needs_a_carrier(tmp_path):
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "x",
        "--width", 64, "--height", 64, "--amplitude", 1.0,
        "--method", "spatial",
    )
    assert code == 2
    assert "carrier" in err


def test_demod_missing_stack_is_io_error(tmp_path):
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "x", "--stack", tmp_path / "nope" / "stack.json"
    )
    assert code == 4
    assert "error:" in err


def test_demod_ambiguous_carrier_is_degenerate(tmp_path):
    # real-valued temporal field: I_n = a + b cos(u0 x) cos(n w0) demodulates
    # to 4 b cos(u0 x), whose mirrored lobes defeat carrier estimation
    x = np.arange(96, dtype=np.float64)
    frames = np.stack(
        [
            128.0 + 100.0 * np.cos(np.pi / 4 * x)[None, :] * np.cos(n * np.pi / 2)
            + np.zeros((64, 96))
            for n in range(5)
        ]
    )
    stack = p.InterferogramStack(frames, np.pi / 2)
    save_stack(tmp_path / "cam", stack, "cam")
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "x",
        "--stack", tmp_path / "cam" / "cam.json",
        "--method", "spatial",
    )
    assert code == 3
    assert "ambiguous" in err


def test_demod_compare_truth_needs_synthesis(tmp_path, defocus_truth):
    stack = p.generate_stack(defocus_truth, 128.0, 100.0, np.pi / 2, 5)
    save_stack(tmp_path / "s", stack)
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "x",
        "--stack", tmp_path / "s" / "stack.json",
        "--compare-truth",
    )
    assert code == 2
    assert "truth" in err


def test_demod_bad_parameters_exit_2(tmp_path):
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "a",
        "--width", 32, "--height", 32, "--amplitude", 1.0,
        "--errors", "fixed:0,0.1",
    )
    assert code == 2 and "schedule" in err
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "b",
        "--width", 32, "--height", 32, "--amplitude", 1.0,
        "--method", "spatial", "--carrier", "pi/4", "--border-crop", 4,
    )
    assert code == 2 and "cutoff" in err
    code, _, err = run_cli(
        "demod", "--out", tmp_path / "c", "--psa", "taps",
    )
    assert code == 2 and "taps" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("demod", "--stack", "s/stack.json", "--compare-truth"),
         "compare-truth needs a synthesized stack whose truth is known"),
        (("demod", "--width", 64, "--height", 64, "--line-cut-row", 99),
         "line-cut row 99 outside a 64-row map"),
        (("demod", "--stack", "s/stack.json", "--export-spectrum", "--line-cut-row", 64),
         "line-cut row 64 outside a 64-row map"),
        (("simulate", "--width", 64, "--height", 64, "--artifact-leak", 0.1, "--line-cut-row", 99),
         "line-cut row 99 outside a 64-row map"),
        (("simulate", "--width", 64, "--height", 64, "--artifact-leak", 1.5),
         "leak ratio r = 1.5 >= 1"),
        (("simulate", "--width", 32, "--height", 32, "--artifact-leak", "nan"),
         "leak ratio r = nan: the error map needs A1 nonzero and both finite"),
        # a named, recorded or synthesized carrier settles the mask before any output
        (("demod", "--width", 64, "--height", 64, "--method", "spatial", "--carrier", "pi/4",
          "--cutoff", 1.0, "--export-spectrum"),
         "mask cutoff 1 rad/px must stay below the carrier magnitude 0.785398 rad/px"),
        (("demod", "--stack", "c/stack.json", "--method", "spatial", "--cutoff", 1.0,
          "--export-spectrum"),
         "mask cutoff 1 rad/px must stay below the carrier magnitude 0.785398 rad/px"),
        (("demod", "--stack", "s/stack.json", "--method", "spatial", "--demod-carrier", "pi/4",
          "--cutoff", 1.0, "--export-spectrum"),
         "mask cutoff 1 rad/px must stay below the carrier magnitude 0.785398 rad/px"),
        (("demod", "--width", 64, "--height", 64, "--method", "spatial", "--carrier", "pi/4",
          "--cutoff", "pi/8", "--border-crop", 40, "--compare-truth"),
         "crop 40 px leaves under 2 interior pixels on a 64x64 map"),
        # the default crop ceil(2 pi / cutoff) of the default mask
        (("demod", "--width", 32, "--height", 32, "--method", "spatial", "--carrier", "pi/4",
          "--compare-truth"),
         "crop 16 px leaves under 2 interior pixels on a 32x32 map"),
        # a given mask's crop needs no carrier
        (("demod", "--width", 64, "--height", 64, "--method", "spatial", "--carrier", "pi/4",
          "--demod-carrier", "estimate", "--cutoff", "pi/8", "--border-crop", 40,
          "--compare-truth"),
         "crop 40 px leaves under 2 interior pixels on a 64x64 map"),
        # no trial could pass these, so montecarlo refuses before it runs any
        (("montecarlo", "--method", "spatial", "--width", 64, "--height", 64, "--carrier", 0.5,
          "--cutoff", 0.6, "--border-crop", 4),
         "mask cutoff 0.6 rad/px must stay below the carrier magnitude 0.5 rad/px"),
        (("montecarlo", "--method", "spatial", "--wavefront", "tilt", "--amplitude", 31.5,
          "--width", 64, "--height", 64, "--carrier", 0.25, "--cutoff", 0.1, "--border-crop", 0),
         "carrier magnitude 0.25 rad/px must exceed the maximum wavefront slope 0.5 rad/px"),
        # more trials than one seed can spawn children for
        (("montecarlo", "--width", 64, "--height", 64, "--trials", 2**70),
         "trials 1180591620717411303424 is more than one seed can spawn"),
    ],
)
def test_parameter_refusals_write_nothing(tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    truth = p.synthesize_wavefront("defocus", 1.0, (64, 64))
    save_stack("s", p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5))
    save_stack("c", p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5,
                                     carrier=p.CarrierSpec(np.pi / 4)))
    code, _, err = run_cli(*args, "--out", "x")
    assert code == 2
    assert message in err
    assert dir_bytes(tmp_path / "x") == {}


@pytest.mark.parametrize("before", ["absent", "empty", "earlier-run"])
@pytest.mark.parametrize(
    "args, message",
    [
        # the estimated carrier meets the cutoff only after the spectrum export
        (("--carrier", 0.5, "--demod-carrier", "estimate", "--cutoff", 0.6, "--export-spectrum"),
         "mask cutoff 0.6 rad/px must stay below the carrier magnitude 0.491048 rad/px"),
        # no synthesis carrier: the estimate refuses after the stack and truth exist
        (("--demod-carrier", "estimate"), "no off-axis carrier lobe"),
    ],
    ids=["cutoff-at-estimate", "no-carrier-lobe"],
)
def test_data_refusals_leave_out_as_found(tmp_path, args, message, before):
    def tree():
        return {path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")}

    # an absent --out whose parent is absent too: neither may be left behind
    out = tmp_path / "x" / "deep" if before == "absent" else tmp_path / "x"
    if before == "empty":
        out.mkdir()
    if before == "earlier-run":
        code, _, err = run_cli("demod", "--width", 64, "--height", 64, "--amplitude", 2.0,
                               "--export-spectrum", "--out", out)
        assert code == 0, err
    found = tree()
    code, _, err = run_cli("demod", "--method", "spatial", "--width", 64, "--height", 64, *args,
                           "--out", out)
    assert code == 2
    assert message in err
    # every file keeps its bytes, and no directory is made or left, staging included
    assert tree() == found


@pytest.mark.parametrize(
    "args, code, message",
    [
        # the temporal field is finite, and its spectrum, exported first, overflows
        (("demod", "--preset", "fig8", "--width", 64, "--height", 64, "--line-cut-row", 32,
          "--background", 1e306, "--contrast", 1e306),
         3, "field spectrum of shape (64, 64) computed from finite input overflowed"),
        # without the export, the frames are the first grid float32 cannot hold
        (("demod", "--preset", "fig8", "--width", 64, "--height", 64, "--line-cut-row", 32,
          "--background", 1e306, "--contrast", 1e306, "--no-export-spectrum"),
         2, "stack_000.f32: a value overflows float32"),
        (("simulate", "--width", 16, "--height", 16, "--amplitude", 1e40),
         2, "truth.f32: a value overflows float32"),
    ],
    ids=["fig8-spectrum", "fig8-frames", "simulate-truth"],
)
def test_overflowing_runs_leave_out_as_found(tmp_path, args, code, message):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(*args, "--out", out)
    assert got == code
    assert message in err
    assert not any(tmp_path.iterdir())


def test_a_request_too_large_to_allocate_exits_2_and_writes_nothing(tmp_path, monkeypatch):
    # numpy's _ArrayMemoryError is a MemoryError; raising one stands in for a
    # request such as --frames 100000000, which is never allocated here
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 763. GiB for an array")

    monkeypatch.setattr(cli, "generate_stack", too_large)
    out = tmp_path / "x"
    code, _, err = run_cli("simulate", "--width", 32, "--height", 32, "--out", out)
    assert code == 2
    assert "error: Unable to allocate 763. GiB for an array" in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_demod_non_finite_omega0_refused(tmp_path, step):
    code, _, err = run_cli("demod", "--width", 32, "--height", 32, "--omega0", step,
                           "--out", tmp_path / "x")
    assert code == 2
    assert f"nominal step must be finite, got {step}" in err


@pytest.mark.parametrize("method", ["temporal", "spatial"])
@pytest.mark.parametrize(
    "source, value, message",
    [
        ("flag", "none", "argument --demod-carrier: invalid"),
        ("config", "none", "demod carrier must be 'auto', 'estimate' or 'u0[,v0]'"),
        ("config", None, "config file sets 'demod_carrier' to None, not a [u0, v0] pair"),
        ("manifest", "none", "demod carrier must be 'auto', 'estimate' or 'u0[,v0]'"),
        ("manifest", None, "manifest sets 'demod_carrier' to None, not a [u0, v0] pair"),
    ],
)
def test_demod_carrier_none_refused_where_it_enters(tmp_path, method, source, value, message):
    out = tmp_path / "x"
    given = {"method": method, "carrier": [0.8, 0.0], "demod_carrier": value}
    if source == "flag":
        code, _, err = run_cli("demod", "--method", method, "--carrier", "0.8",
                               "--demod-carrier", value, "--out", out)
    elif source == "config":
        dump_json(tmp_path / "cfg.json", given)
        code, _, err = run_cli("demod", "--config", tmp_path / "cfg.json", "--out", out)
    else:
        dump_json(tmp_path / "m.json", {"command": "demod", "parameters": given})
        code, _, err = run_cli("replay", tmp_path / "m.json", "--out", out)
    assert code == 2
    assert message in err
    assert not out.exists() or dir_bytes(out) == {}


# --- ftf ---


def test_ftf_fig2_preset(tmp_path):
    out = tmp_path / "fig2"
    code, _, err = run_cli("ftf", "--preset", "fig2", "--out", out)
    assert code == 0, err
    info = read_json(out / "ftf.json")
    assert info["n_steps"] == 5
    assert info["rejects_background"] is True
    assert info["passband_gain"] == pytest.approx(8.0, abs=1e-12)
    lines = (out / "ftf.csv").read_text().splitlines()
    assert lines[0] == "omega_over_pi,re,im,abs"
    assert len(lines) == 1025


def test_ftf_from_zero_placement(tmp_path):
    out = tmp_path / "zeros"
    code, _, err = run_cli(
        "ftf", "--out", out,
        "--psa", "zeros", "--zeros", "0,pi/2,pi/2,pi", "--psa-step", "pi/2",
        "--samples", 1024,
    )
    assert code == 0, err
    info = read_json(out / "ftf.json")
    assert info["n_steps"] == 5
    assert info["rejects_background"] is True
    response = {}
    for line in (out / "ftf.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        response[round(float(cells[0]), 6)] = float(cells[3])
    for omega_over_pi in (-1.0, 0.0, 0.5):
        assert response[omega_over_pi] < 1e-12
    assert response[-0.5] > 1.0


def test_ftf_zeros_on_passband_refused(tmp_path):
    code, _, err = run_cli(
        "ftf", "--out", tmp_path / "x",
        "--psa", "zeros", "--zeros=-pi/2", "--psa-step", "pi/2",
    )
    assert code == 2
    assert "passband" in err


# --- compare ---


def test_compare_identical_maps(tmp_path, bandlimited_truth):
    from psidemod.formats import save_phase_map

    save_phase_map(tmp_path / "m", bandlimited_truth)
    out = tmp_path / "cmp"
    code, _, err = run_cli(
        "compare", "--out", out,
        "--phase1", tmp_path / "m.json", "--phase2", tmp_path / "m.json",
        "--pgm",
    )
    assert code == 0, err
    report = read_json(out / "report.json")
    assert report["pv_waves"] == 0.0
    image = np.fromfile(out / "residual.pgm", dtype=np.uint8)
    assert (out / "residual.pgm").exists()
    assert image.size > 0


def test_compare_two_temporal_runs_shows_artifact(tmp_path):
    base = (
        "demod",
        "--width", 256, "--height", 256, "--amplitude", 3.0,
    )
    code1, _, err1 = run_cli(
        *base, "--errors", "fixed:0.3,-0.3,0.3,-0.3,0.3", "--out", tmp_path / "a"
    )
    code2, _, err2 = run_cli(*base, "--errors", "zero", "--out", tmp_path / "b")
    assert code1 == 0 and code2 == 0, err1 + err2
    out = tmp_path / "cmp"
    code, _, err = run_cli(
        "compare", "--out", out,
        "--phase1", tmp_path / "a" / "phase.json",
        "--phase2", tmp_path / "b" / "phase.json",
    )
    assert code == 0, err
    # alternating +-0.3 leaks r = 0.309, a ripple of ~0.1 waves P-V
    assert 0.07 < read_json(out / "report.json")["pv_waves"] < 0.13


def test_compare_two_spatial_runs_agree(tmp_path):
    base = (
        "demod",
        "--width", 128, "--height", 128, "--amplitude", 1.0,
        "--carrier", "pi/4", "--method", "spatial",
    )
    run_cli(*base, "--errors", "fixed:0,0.1,-0.15,0.2,-0.05", "--out", tmp_path / "a")
    run_cli(*base, "--errors", "fixed:0.2,-0.1,0.05,-0.2,0.1", "--out", tmp_path / "b")
    out = tmp_path / "cmp"
    code, _, err = run_cli(
        "compare", "--out", out,
        "--phase1", tmp_path / "a" / "phase.json",
        "--phase2", tmp_path / "b" / "phase.json",
        "--crop", 16,
    )
    assert code == 0, err
    assert read_json(out / "report.json")["pv_waves"] < 0.01


@pytest.mark.parametrize(
    "kind, broken",
    [
        ("phase_map", {"height": None}),
        ("phase_map", {"height": "16"}),
        ("phase_map", {"width": -16}),
        ("stack", {"carrier": {"u0": 0.7}}),
        ("stack", {"carrier": [0.7, 0.0]}),
        ("stack", {"N": 2.5}),
        ("stack", None),
    ],
)
def test_malformed_sidecar_refused(tmp_path, kind, broken):
    from psidemod.formats import dump_json, save_phase_map

    truth = make_bandlimited((16, 16), pv=1.0, cycles=(1, 1))
    if kind == "phase_map":
        save_phase_map(tmp_path / "m", truth)
        argv = ("compare", "--phase1", tmp_path / "m.json", "--phase2", tmp_path / "m.json")
        sidecar = tmp_path / "m.json"
    else:
        stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, carrier=p.CarrierSpec(0.7))
        save_stack(tmp_path, stack)
        argv = ("demod", "--stack", tmp_path / "stack.json")
        sidecar = tmp_path / "stack.json"
    if broken is None:
        dump_json(sidecar, [read_json(sidecar)])
    else:
        meta = read_json(sidecar)
        meta.update(broken)
        dump_json(sidecar, {key: value for key, value in meta.items() if value is not None})
    code, _, err = run_cli(*argv, "--out", tmp_path / "x")
    assert code == 2, err
    assert str(sidecar) in err


@pytest.mark.parametrize(
    "kind, broken, field",
    [
        ("stack", {"omega0": [1.0]}, "omega0"),
        ("stack", {"a": [1]}, "a"),
        ("stack", {"carrier": {"u0": [0.5], "v0": 0.0}}, "u0"),
        ("stack", {"seed": [1]}, "seed"),
        ("stack", {"noise_sigma": {}}, "noise_sigma"),
        ("stack", {"seed": 1.5}, "seed"),
        ("stack", {"b": True}, "b"),
        ("stack", {"a": 10**400}, "a"),
        ("stack", {"errors": [0.0, "0.1", 0.0, 0.0, 0.0]}, "errors"),
        ("phase_map", {"wrapped": None}, "wrapped"),
        ("phase_map", {"wrapped": "no"}, "wrapped"),
    ],
    ids=["omega0-list", "a-list", "carrier-u0-list", "seed-list", "noise-sigma-object",
         "seed-fraction", "b-bool", "a-past-float", "errors-string", "wrapped-missing",
         "wrapped-string"],
)
def test_sidecar_field_of_another_kind_is_refused_where_it_enters(tmp_path, kind, broken, field):
    from psidemod.formats import dump_json, save_phase_map

    truth = make_bandlimited((16, 16), pv=1.0, cycles=(1, 1))
    if kind == "phase_map":
        save_phase_map(tmp_path / "m", truth)
        sidecar = tmp_path / "m.json"
        argv = ("compare", "--phase1", sidecar, "--phase2", sidecar)
    else:
        stack = p.generate_stack(truth, 128.0, 100.0, np.pi / 2, 5, carrier=p.CarrierSpec(0.7),
                                 seed=1)
        save_stack(tmp_path, stack)
        sidecar = tmp_path / "stack.json"
        argv = ("demod", "--stack", sidecar)
    meta = dict(read_json(sidecar), **broken)
    dump_json(sidecar, {key: value for key, value in meta.items() if value is not None})
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    code, _, err = run_cli(*argv, "--out", out)
    assert code == 2, err
    assert f"{sidecar}" in err and f"field {field!r} must be" in err, err
    assert dir_bytes(out) == {"kept.txt": b"kept"}


def test_compare_requires_both_maps(tmp_path):
    code, _, err = run_cli("compare", "--out", tmp_path / "x")
    assert code == 2
    assert "phase1" in err


# --- montecarlo ---


def test_montecarlo_cli(tmp_path):
    args = (
        "montecarlo",
        "--width", 64, "--height", 64, "--amplitude", 1.0,
        "--errors", "uniform:0.2", "--trials", 4, "--seed", 5,
    )
    code, _, err = run_cli(*args, "--out", tmp_path / "a")
    assert code == 0, err
    summary = read_json(tmp_path / "a" / "summary.json")
    assert summary["trials"] == 4
    assert len(summary["pv_waves"]) == 4
    assert summary["error_kind"] == "uniform"
    rows = (tmp_path / "a" / "trials.csv").read_text().splitlines()
    assert len(rows) == 5
    code, _, _ = run_cli(*args, "--out", tmp_path / "b")
    assert code == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_montecarlo_cli_on_the_cached_basis_writes_the_same_bytes(tmp_path):
    # the spy's call record keeps the first run's truth alive, so the second
    # run, whose truth has the same content, reuses the first run's basis
    args = ("montecarlo", "--width", 48, "--height", 40, "--amplitude", 1.0,
            "--method", "spatial", "--carrier", "0.8,0.3", "--noise-sigma", 0.5,
            "--trials", 4, "--seed", 3)
    with mock.patch.object(metrics, "_TrialBasis", wraps=metrics._TrialBasis) as built:
        for name in ("a", "b"):
            code, _, err = run_cli(*args, "--out", tmp_path / name)
            assert code == 0, err
    assert built.call_count == 1
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_montecarlo_rejects_fixed_and_bad_trials(tmp_path):
    code, _, err = run_cli(
        "montecarlo", "--out", tmp_path / "x", "--errors", "fixed:0,0,0,0,0"
    )
    assert code == 2 and "random" in err
    code, _, err = run_cli(
        "montecarlo", "--out", tmp_path / "y", "--trials", 1
    )
    assert code == 2 and "trials" in err


def test_demod_and_montecarlo_compare_against_one_reference(tmp_path):
    # without step errors a temporal phase is the truth plus the carrier, so
    # both routes read round-off only if both add the carrier to the truth
    grid = ("--width", 64, "--height", 48, "--carrier", "0.8,0.3", "--errors", "zero")
    code, _, err = run_cli("demod", "--method", "temporal", *grid, "--compare-truth",
                           "--out", tmp_path / "demod")
    assert code == 0, err
    code, _, err = run_cli("montecarlo", *grid, "--trials", 2, "--out", tmp_path / "mc")
    assert code == 0, err
    demod_pv = read_json(tmp_path / "demod" / "report.json")["pv_waves"]
    mc_pvs = read_json(tmp_path / "mc" / "summary.json")["pv_waves"]
    assert len(mc_pvs) == 2
    for pv in (demod_pv, *mc_pvs):
        assert pv < 1e-12
        assert abs(pv - demod_pv) < 1e-12


# --- replay ---


def _write_two_phase_maps(root):
    from psidemod.formats import save_phase_map

    save_phase_map(root / "m1", make_bandlimited((32, 32), pv=1.0))
    save_phase_map(root / "m2", make_bandlimited((32, 32), pv=1.2, cycles=(1, 2)))
    return root / "m1.json", root / "m2.json"


REPLAY_CASES = {
    "demod-spatial": (
        "demod", "--width", 128, "--height", 128, "--amplitude", 1.0,
        "--carrier", "pi/4", "--errors", "fixed:0,0.1,-0.15,0.2,-0.05",
        "--method", "spatial", "--cutoff", "pi/8",
        "--export-spectrum", "--line-cut-row", 64, "--compare-truth",
    ),
    "simulate-fig1": ("simulate", "--preset", "fig1"),
    "demod-fig8": ("demod", "--preset", "fig8"),
    "demod-fig9": ("demod", "--preset", "fig9"),
    "ftf-fig2": ("ftf", "--preset", "fig2"),
    "montecarlo": (
        "montecarlo", "--width", 32, "--height", 32, "--amplitude", 1.0,
        "--method", "spatial", "--carrier", "pi/2", "--trials", 3, "--seed", 7,
    ),
    "compare": ("compare", "--phase1", "{m1}", "--phase2", "{m2}", "--crop", 2, "--pgm"),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replay_reproduces_bytes(tmp_path, case):
    m1, m2 = _write_two_phase_maps(tmp_path)
    args = [str(a).format(m1=m1, m2=m2) for a in REPLAY_CASES[case]]
    out1 = tmp_path / "run"
    code, _, err = run_cli(*args, "--out", out1)
    assert code == 0, err
    out2 = tmp_path / "again"
    code, _, err = run_cli("replay", out1 / "manifest.json", "--out", out2)
    assert code == 0, err
    first, second = dir_bytes(out1), dir_bytes(out2)
    assert set(first) == set(second)
    assert first == second


def test_replay_rejects_foreign_manifest(tmp_path):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "m.json", {"command": "demod", "parameters": {"bogus": 1}})
    code, _, err = run_cli("replay", tmp_path / "m.json", "--out", tmp_path / "x")
    assert code == 2
    assert "bogus" in err


# --- configuration and parsing ---


def test_config_file_overrides(tmp_path):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "cfg.json", {"width": 32, "height": 32, "amplitude": 1.0})
    out = tmp_path / "o"
    code, _, err = run_cli("simulate", "--out", out, "--config", tmp_path / "cfg.json")
    assert code == 0, err
    params = read_json(out / "manifest.json")["parameters"]
    assert params["width"] == 32
    # explicit flags still beat the config file
    out2 = tmp_path / "o2"
    code, _, _ = run_cli(
        "simulate", "--out", out2, "--config", tmp_path / "cfg.json", "--width", 40
    )
    assert code == 0
    assert read_json(out2 / "manifest.json")["parameters"]["width"] == 40
    # even a flag that parses to None
    dump_json(tmp_path / "carrier.json", {"width": 32, "height": 32, "carrier": [0.7, 0.0]})
    out3 = tmp_path / "o3"
    code, _, err = run_cli(
        "simulate", "--out", out3, "--config", tmp_path / "carrier.json", "--carrier", "none"
    )
    assert code == 0, err
    assert read_json(out3 / "manifest.json")["parameters"]["carrier"] is None
    assert read_json(out3 / "stack.json")["carrier"] is None


def test_flag_none_overrides_preset(tmp_path):
    out = tmp_path / "o"
    code, _, err = run_cli(
        "demod", "--preset", "fig8", "--width", 64, "--height", 64,
        "--line-cut-row", 32, "--carrier", "none", "--out", out,
    )
    assert code == 0, err
    assert read_json(out / "manifest.json")["parameters"]["carrier"] is None
    assert read_json(out / "stack.json")["carrier"] is None


def test_config_unknown_key_refused(tmp_path):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "cfg.json", {"widht": 32})
    code, _, err = run_cli("simulate", "--out", tmp_path / "x", "--config", tmp_path / "cfg.json")
    assert code == 2
    assert "widht" in err


@pytest.mark.parametrize(
    "key, text, parsed",
    [
        ("omega0", "pi/2", float(np.pi / 2)),
        ("carrier", "pi/4", [float(np.pi / 4), 0.0]),
        ("width", "32", 32),
    ],
)
def test_config_strings_go_through_the_flag_parser(tmp_path, key, text, parsed):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "cfg.json", {"width": 32, "height": 32, "amplitude": 1.0, key: text})
    out = tmp_path / "o"
    code, _, err = run_cli("simulate", "--out", out, "--config", tmp_path / "cfg.json")
    assert code == 0, err
    assert read_json(out / "manifest.json")["parameters"][key] == parsed


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"preview": "false"}, "config file sets switch 'preview'"),
        ({"wavefront": "sphere"}, "config file sets 'wavefront' to 'sphere', not one of"),
        ([[1, 2]], "cfg.json holds a JSON list, not an object"),
        # values that are not strings skip the parsers, so they are type-checked
        ({"width": 32.5}, "config file sets 'width' to 32.5, not an integer"),
        ({"frames": True}, "config file sets 'frames' to True, not an integer"),
        ({"amplitude": [1.0]}, "config file sets 'amplitude' to [1.0], not a number"),
        ({"carrier": [0.7]}, "config file sets 'carrier' to [0.7], not null or a [u0, v0] pair"),
        ({"errors": 0.3}, "config file sets 'errors' to 0.3, not a string"),
        ({"contrast": None}, "config file sets 'contrast' to None, not a number"),
        ({"coefficients": "3"}, "coefficients must be a JSON nested list, got '3'"),
        # an integer past the float range is not a number
        *(pytest.param({key: 10**400}, f"config file sets {key!r} to {10**400}, not a number",
                       id=f"{key}-past-float") for key in ("amplitude", "background", "omega0")),
        pytest.param({"carrier": [10**400, 0.0]},
                     f"config file sets 'carrier' to [{10**400}, 0.0], not null or a [u0, v0] pair",
                     id="carrier-past-float"),
        pytest.param({"wavefront": "polynomial", "coefficients": [[0.0, 10**400]]},
                     f"config file sets 'coefficients' to [[0.0, {10**400}]], "
                     "not null or a nested list of numbers", id="coefficients-past-float"),
    ],
)
def test_config_malformed_values_refused(tmp_path, payload, message):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "o"
    code, _, err = run_cli(
        "simulate", "--width", 32, "--height", 32, "--out", out, "--config", tmp_path / "cfg.json"
    )
    assert code == 2
    assert message in err
    assert not (out / "frame_000.pgm").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([1, 2], "m.json holds a JSON list, not an object"),
        ({"command": "simulate", "parameters": [1]}, "manifest must be a JSON object"),
        ({"command": "simulate", "parameters": {"height": 32.5}},
         "manifest sets 'height' to 32.5, not an integer"),
        ({"command": "fly", "parameters": {}}, "manifest names unknown command 'fly'"),
        pytest.param({"command": "ftf",
                      "parameters": {"psa": "taps", "taps": [10**400, 1.0], "psa_step": 1.5}},
                     f"manifest sets 'taps' to [{10**400}, 1.0], not null or a list of numbers",
                     id="taps-past-float"),
    ],
)
def test_replay_of_a_malformed_manifest_refused(tmp_path, manifest, message):
    from psidemod.formats import dump_json

    dump_json(tmp_path / "m.json", manifest)
    code, _, err = run_cli("replay", tmp_path / "m.json", "--out", tmp_path / "x")
    assert code == 2
    assert message in err


def test_parse_angle():
    assert cli.parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert cli.parse_angle("-3pi/4") == pytest.approx(-3 * np.pi / 4)
    assert cli.parse_angle("0.5pi") == pytest.approx(np.pi / 2)
    assert cli.parse_angle("2*pi") == pytest.approx(2 * np.pi)
    assert cli.parse_angle("1.25") == 1.25
    assert cli.parse_angle(-2) == -2.0
    with pytest.raises(ValueError):
        cli.parse_angle("about pi")


@pytest.mark.parametrize("text", ["pi/0", "-pi/0.0"])
def test_parse_angle_refuses_a_zero_denominator(tmp_path, text):
    with pytest.raises(ValueError, match="divides by zero"):
        cli.parse_angle(text)
    code, _, err = run_cli("ftf", "--psa", "zeros", "--zeros", "pi/2", f"--psa-step={text}",
                           "--out", tmp_path / "f")
    assert code == 2
    assert "argument --psa-step: invalid parse_angle value" in err
    dump_json(tmp_path / "cfg.json", {"omega0": text})
    code, _, err = run_cli("simulate", "--config", tmp_path / "cfg.json", "--out", tmp_path / "s")
    assert code == 2
    assert f"angle {text!r} divides by zero" in err


def test_parse_carrier():
    assert cli.parse_carrier("none") is None
    assert cli.parse_carrier(None) is None
    assert cli.parse_carrier("pi/4") == [pytest.approx(np.pi / 4), 0.0]
    assert cli.parse_carrier("pi/4,pi/8") == [
        pytest.approx(np.pi / 4),
        pytest.approx(np.pi / 8),
    ]
    with pytest.raises(ValueError):
        cli.parse_carrier("1,2,3")
    assert cli.parse_demod_carrier("auto") == "auto"
    assert cli.parse_demod_carrier("estimate") == "estimate"
    assert cli.parse_demod_carrier("pi/4") == [pytest.approx(np.pi / 4), 0.0]


def test_help_and_usage_exit_codes():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "simulate" in out
    code, _, err = run_cli("simulate")  # missing --out
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


# --- manifest schema ---

_SYNTH_SCHEMA = {
    "width": 256,
    "height": 256,
    "wavefront": "defocus",
    "amplitude": 3.0,
    "coefficients": None,
    "background": 128.0,
    "contrast": 100.0,
    "omega0": np.pi / 2,
    "frames": 5,
    "errors": "zero",
    "error_seed": 0,
    "carrier": None,
    "noise_sigma": 0.0,
    "seed": 0,
}

_PSA_SCHEMA = {"psa": "sh5", "taps": None, "psa_step": None, "zeros": None}

# every command's resolved defaults: a manifest recorded by an earlier
# version replays only while these keys exist, and the same flags write the
# same outputs only while these values stay put
MANIFEST_SCHEMA = {
    "simulate": {
        **_SYNTH_SCHEMA,
        "stem": "stack",
        "preview": False,
        "artifact_leak": None,
        "line_cut_row": None,
    },
    "demod": {
        **_SYNTH_SCHEMA,
        "stack": None,
        **_PSA_SCHEMA,
        "method": "temporal",
        "demod_carrier": "auto",
        "cutoff": None,
        "border_crop": None,
        "filter": True,
        "export_spectrum": False,
        "line_cut_row": None,
        "compare_truth": False,
    },
    "ftf": {**_PSA_SCHEMA, "samples": 1024},
    "compare": {
        "phase1": None,
        "phase2": None,
        "crop": 0,
        "tilt": True,
        "gain": 10.0,
        "pgm": False,
    },
    "montecarlo": {
        "width": 256,
        "height": 256,
        "wavefront": "defocus",
        "amplitude": 3.0,
        "coefficients": None,
        **_PSA_SCHEMA,
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
    },
}


def test_manifest_schema_of_every_command(tmp_path, bandlimited_truth):
    from psidemod.formats import save_phase_map

    save_phase_map(tmp_path / "m", bandlimited_truth)
    phase = str(tmp_path / "m.json")
    small = {"width": 16, "height": 16}
    overrides = {
        "simulate": small,
        "demod": small,
        "ftf": {},
        "compare": {"phase1": phase, "phase2": phase},
        "montecarlo": {**small, "trials": 2},
    }
    for command, given in overrides.items():
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in given.items()]
        out = tmp_path / command
        code, _, err = run_cli(command, *flags, "--out", out)
        assert code == 0, err
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == command
        assert manifest["parameters"] == {**MANIFEST_SCHEMA[command], **given}, command
