import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import diracspin
from diracspin.cli import build_parser, main

PERP_ANGLE = 0.14334756890536535


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify ----------------------------------------------------------------

def test_verify_roundtrip_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--seed", "42", "--samples", "30", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "42", "--samples", "30", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_defaults_are_run_config(monkeypatch):
    from diracspin import cli
    from diracspin.verify import RunConfig

    built = []

    def capture(cfg):
        built.append(cfg)
        raise OSError("not run")

    monkeypatch.setattr(cli, "run_all", capture)
    assert main(["verify"]) == 2
    assert built == [RunConfig()]


def test_verify_stdout_json(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["config"]["samples"] == 10


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "10", "--format", "csv")
    assert code == 0
    assert out.startswith("name,samples,tolerance,max_residual,passed\n")


def test_verify_identity_failure_exit_one(capsys):
    code, _, err = run(capsys, "verify", "--samples", "5", "--tol", "bloch_rotation=1e-30")
    assert code == 1
    assert "bloch_rotation" in err


def test_verify_unknown_tolerance_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--tol", "nonsense=1e-9")
    assert code == 2
    assert "unknown tolerance" in err


def test_verify_bad_config_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--vmax", "1.5")
    assert code == 2
    assert "vmax" in err


def test_malformed_tol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol", "justaname"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobnicate"])
    assert exc.value.code == 2


def test_leftover_before_subcommand_uses_top_level_usage(capsys):
    # --bogus was given to the top-level parser, which reports it
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "verify"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: diracspin [-h] [--version]")
    assert "diracspin: error: unrecognized arguments: --bogus" in err


def test_leftover_after_subcommand_uses_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: diracspin verify ")
    assert "diracspin verify: error: unrecognized arguments: --bogus" in err


# --- wigner ----------------------------------------------------------------

def test_wigner_perpendicular_case(capsys):
    code, out, _ = run(capsys, "wigner", "--velocity", "0.5,0,0",
                       "--momentum", "0,0.5773502691896257,0", "--mass", "1")
    assert code == 0
    r = json.loads(out)
    assert r["angle"] == pytest.approx(PERP_ANGLE, abs=1e-12)
    assert_allclose(r["axis"], [0.0, 0.0, 1.0], atol=1e-12)
    assert r["brute_force_residual"] < 1e-10
    assert r["passed"] is True
    R = np.array(r["rotation"])
    assert_allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_wigner_zero_velocity_identity(capsys):
    code, out, _ = run(capsys, "wigner", "--velocity", "0,0,0", "--momentum", "1,2,3")
    assert code == 0
    r = json.loads(out)
    assert r["angle"] == 0.0
    assert_allclose(np.array(r["rotation"]), np.eye(3), atol=1e-14)


def test_wigner_small_angle_keeps_its_digits(capsys):
    # a 5.0e-9 angle, from the perpendicular form
    # tan(angle) = gv gu v u / (gv + gu)
    code, out, _ = run(capsys, "wigner", "--velocity", "0.0001,0,0", "--momentum=0,0.0001,0")
    assert code == 0
    r = json.loads(out)
    gv, gu = 1.0 / np.sqrt(1.0 - 1e-8), np.sqrt(1.0 + 1e-8)  # gu u = |p| / m = 1e-4
    assert r["angle"] == pytest.approx(np.arctan(gv * 1e-4 * 1e-4 / (gv + gu)), rel=1e-14, abs=0)
    assert r["axis"] == [0.0, 0.0, 1.0]


def test_wigner_collinear_reports_no_axis(capsys):
    # v parallel to p gives R = I exactly, so the axis is the zero vector
    code, out, _ = run(capsys, "wigner", "--velocity", "0.99999,0,0", "--momentum", "1e4,0,0")
    r = json.loads(out)
    assert r["rotation"] == np.eye(3).tolist() and r["angle"] == 0.0
    assert r["axis"] == [0.0, 0.0, 0.0]


def test_wigner_mass_is_not_checked_against_the_sweep_range(capsys):
    # m^2 (1 + pmax^2) would overflow for verify's default --pmax; a point
    # check draws nothing, so only its own momentum has to stay finite
    code, out, _ = run(capsys, "wigner", "--velocity", "0.5,0,0", "--mass", "5e153")
    assert code == 0 and json.loads(out)["passed"] is True


def test_wigner_superluminal_exit_two(capsys):
    code, _, err = run(capsys, "wigner", "--velocity", "1.01,0,0")
    assert code == 2
    assert "speed" in err


# --- boost -----------------------------------------------------------------

def test_boost_velocity_matrix(capsys):
    code, out, _ = run(capsys, "boost", "--velocity", "0.6,0,0")
    assert code == 0
    r = json.loads(out)
    assert r["config"]["gamma"] == pytest.approx(1.25)
    assert_allclose(np.array(r["matrix"])[0], [1.25, -0.75, 0.0, 0.0], atol=1e-15)
    assert r["metric_residual"] < 1e-12


def test_boost_momentum_matrix(capsys):
    code, out, _ = run(capsys, "boost", "--momentum", "3,0,4", "--mass", "2")
    assert code == 0
    r = json.loads(out)
    assert r["config"]["energy"] == pytest.approx(np.sqrt(29.0))
    L = np.array(r["matrix"])
    assert_allclose(L[:, 0] * 2.0, [np.sqrt(29.0), 3.0, 0.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("p", [1e12, 1e16])
def test_boost_at_extreme_momentum_is_accepted(capsys, p):
    # det L cancels to 0 here; the rotation part decides the orientation
    code, out, err = run(capsys, "boost", f"--momentum={p},0,0")
    assert code == 0 and err == ""
    L = np.array(json.loads(out)["matrix"])
    assert L[0, 0] == L[1, 0] == L[0, 1] == p


@pytest.mark.parametrize("p, ratio", [("1e16,2e16,3e16", "3.74e+16"), ("3e16,1e16,0", "3.16e+16")])
def test_boost_past_rounding_scale_names_the_cause(capsys, p, ratio):
    # valid boosts whose rotation part rounding has lost: still refused, now
    # for that reason rather than "matrix is not proper orthochronous"
    code, out, err = run(capsys, "boost", f"--momentum={p}")
    assert code == 2 and out == ""
    assert err == (f"error: |p|/m = {ratio} is beyond the scale (about 2^53) where rounding "
                   f"loses the standard boost's rotation part\n")


def test_boost_requires_exactly_one_input(capsys):
    code, _, _ = run(capsys, "boost")
    assert code == 2
    code, _, _ = run(capsys, "boost", "--velocity", "0.1,0,0", "--momentum", "1,0,0")
    assert code == 2


# --- amplitude -------------------------------------------------------------

def test_amplitude_rest_frame_documented_matrix(capsys):
    code, out, _ = run(capsys, "amplitude", "--eps", "1", "--momentum", "0,0,0")
    assert code == 0
    r = json.loads(out)
    payload = np.array(r["amplitude"])
    got = payload[..., 0] + 1j * payload[..., 1]
    s = 1.0 / np.sqrt(2.0)
    sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert_allclose(got, s * np.vstack([sigma2, sigma2]), atol=1e-15)
    assert r["passed"] is True
    assert max(r["residuals"].values()) < 1e-12


def test_amplitude_moving_negative_shell(capsys):
    code, out, _ = run(capsys, "amplitude", "--eps", "-1", "--momentum", "1,2,3",
                       "--mass", "0.5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_amplitude_bad_eps_exit_two(capsys):
    code, _, _ = run(capsys, "amplitude", "--eps", "3")
    assert code == 2


def test_amplitude_residuals_are_mass_scaled(capsys):
    # the Dirac-equation residual is divided by m, as in the verify sweep
    code, out, _ = run(capsys, "amplitude", "--mass", "1e5", "--momentum", "1,2,3")
    assert code == 0
    r = json.loads(out)
    assert r["passed"] is True
    assert sorted(r["residuals"]) == ["amplitude_dirac", "amplitude_orthogonality",
                                      "amplitude_parity", "amplitude_projector"]


# --- spin-transform --------------------------------------------------------

def test_spin_transform_reports_rotation(capsys):
    code, out, _ = run(capsys, "spin-transform", "--velocity", "0.5,0,0",
                       "--momentum=0,0.5773502691896257,0", "--xi", "1,0,0")
    assert code == 0
    r = json.loads(out)
    assert r["equivalence_residual"] < 1e-10
    xi_out = np.array(r["xi_out"])
    assert np.linalg.norm(xi_out) == pytest.approx(1.0, abs=1e-12)
    # rotated by the frozen angle about z
    assert xi_out[0] == pytest.approx(np.cos(PERP_ANGLE), abs=1e-12)


def test_spin_transform_identity_report(capsys):
    code, out, _ = run(capsys, "spin-transform", "--velocity", "0,0,0",
                       "--momentum", "1,2,3", "--xi", "0,1,0")
    assert code == 0
    r = json.loads(out)
    assert_allclose(np.array(r["rotation"]), np.eye(3), atol=1e-14)
    assert_allclose(r["xi_out"], [0.0, 1.0, 0.0], atol=1e-14)


HIGH_RAPIDITY = [("0.99999,0,0", "1e4,0,0", True), ("0.9999999,0,0", "1e4,0,0", False),
                 ("0.9999999,0,0", "1e10,0,0", False)]


@pytest.mark.parametrize("velocity, momentum, equivalence_passes", HIGH_RAPIDITY)
def test_spin_transform_lifts_the_rotation_at_high_rapidity(capsys, velocity, momentum,
                                                            equivalence_passes):
    # v parallel to p: the half-angle rotation is I exactly, so the SU(2)
    # lift takes it; the exit code is the equivalence check's, whose
    # expansion side cancels (3.3e-12, 5.1e-10 and 2.4e-9 against 1e-10)
    code, out, err = run(capsys, "spin-transform", "--velocity", velocity, "--momentum", momentum)
    r = json.loads(out)
    assert r["rotation"] == np.eye(3).tolist()
    assert r["su2"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert (r["equivalence_residual"] < r["config"]["tolerance"]) == equivalence_passes
    assert r["passed"] is equivalence_passes and code == (0 if equivalence_passes else 1)
    assert err == ""


# --- precess ---------------------------------------------------------------

def test_precess_uniform_csv(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code = main(["precess", "--field", "uniform", "--b", "0,0,2", "--q", "1,0,0",
                 "--xi", "1,0,0", "--t-final", "0.7853981633974483", "--steps", "1000",
                 "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "t,qx,qy,qz,xix,xiy,xiz"
    assert len(lines) == 1002
    assert "xi_drift=" in err
    drift = float(err.split("xi_drift=")[1].split()[0])
    assert drift < 1e-9


def test_precess_quadrupole_has_position_columns(capsys):
    code, out, _ = run(capsys, "precess", "--field", "quadrupole",
                       "--gradient", "1,0,0,0,1,0,0,0,-2", "--q", "0.1,0,0",
                       "--xi", "0,0,1", "--t-final", "0.5", "--steps", "50")
    assert code == 0
    assert out.startswith("t,qx,qy,qz,xix,xiy,xiz,x,y,z\n")


def test_precess_zero_field_constant(capsys):
    code, out, _ = run(capsys, "precess", "--field", "uniform", "--b", "0,0,0",
                       "--q", "0.3,0,0", "--xi", "0,1,0", "--t-final", "1", "--steps", "4")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    for row in rows:
        assert float(row[1]) == 0.3 and float(row[5]) == 1.0


def test_precess_refuses_non_bloch_vector(capsys):
    code, out, err = run(capsys, "precess", "--b", "0,0,1", "--xi", "2,0,0",
                         "--t-final", "0.1", "--steps", "3")
    assert code == 2 and out == ""
    assert err == "error: Bloch vector must satisfy |xi| <= 1, got 2.0\n"


def test_precess_missing_field_components_exit_two(capsys):
    code, _, err = run(capsys, "precess", "--field", "uniform",
                       "--t-final", "1", "--steps", "4")
    assert code == 2
    assert "needs --b" in err


def test_precess_rejects_json_format(capsys):
    # only verify takes --format; precess always writes CSV
    with pytest.raises(SystemExit) as exc:
        main(["precess", "--field", "uniform", "--b", "0,0,1",
              "--t-final", "1", "--steps", "4", "--format", "json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: diracspin precess ")
    assert "diracspin precess: error: unrecognized arguments: --format json" in err


# --- fourier-check ---------------------------------------------------------

def test_fourier_check_default_gaussian(capsys):
    code, out, _ = run(capsys, "fourier-check")
    assert code == 0
    r = json.loads(out)
    assert r["relative_error"] < 1e-3
    assert r["refinement_decreases"] is True
    assert r["refined_relative_error"] < r["relative_error"]
    assert r["passed"] is True


def test_fourier_check_tolerance_override_failure(capsys):
    code, out, _ = run(capsys, "fourier-check", "--tol", "parseval=1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_point_reports_are_json_only(capsys):
    # only verify takes --format; the point reports are always JSON
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--velocity", "0.1,0,0", "--format", "csv"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: diracspin wigner ")
    assert "diracspin wigner: error: unrecognized arguments: --format csv" in err
    # and the shared default is still JSON for verify
    code, out, _ = run(capsys, "verify", "--samples", "5")
    assert code == 0
    json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_package_version_is_read_from_the_module():
    # pyproject.toml declares the version dynamic, read from diracspin.__version__
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == diracspin.__version__


# --- exit-code contract under adversarial numbers ----------------------------

#: Masses whose square underflows float64: omega(0) would be zero.
TINY_MASS_ARGV = [
    ["fourier-check", "--mass", "1e-300"],
    ["wigner", "--velocity=0.1,0,0", "--mass", "1e-200"],
    ["spin-transform", "--velocity=0.1,0,0", "--mass", "1e-200"],
    ["verify", "--samples", "3", "--mass", "1e-200"],
    ["boost", "--momentum=1,0,0", "--mass", "1e-200"],
]

#: Bad usage that must exit 2: a tolerance that is not positive on every
#: subcommand that checks one, and flags of verify or --tol on a subcommand
#: that does not take them.
REFUSED_ARGV = [
    ["verify", "--samples", "3", "--tol", "su2_lift=0"],
    ["verify", "--samples", "3", "--tol", "su2_lift=-1"],
    ["wigner", "--velocity", "0.5,0,0", "--tol", "wigner_closed_form=0"],
    ["wigner", "--velocity", "0.5,0,0", "--tol", "wigner_closed_form=-1"],
    ["amplitude", "--tol", "amplitude_dirac=0"],
    ["amplitude", "--tol", "amplitude_dirac=-1"],
    ["spin-transform", "--velocity", "0.5,0,0", "--tol", "spin_transform_equivalence=0"],
    ["spin-transform", "--velocity", "0.5,0,0", "--tol", "spin_transform_equivalence=-1"],
    ["fourier-check", "--tol", "parseval=0"],
    ["fourier-check", "--tol", "parseval=-1"],
    ["boost", "--velocity", "0.5,0,0", "--tol", "foo=1", "--samples", "0", "--vmax", "7"],
    ["boost", "--velocity", "0.5,0,0", "--samples", "0"],
    ["precess", "--b", "0,0,1", "--t-final", "1", "--steps", "10", "--tol", "foo=1"],
    ["wigner", "--velocity", "1,2"],
    ["wigner", "--velocity", "1,x,2"],
    ["precess", "--field", "quadrupole", "--gradient", "1,2,3", "--t-final", "1", "--steps", "2"],
    ["precess", "--field", "quadrupole", "--t-final", "1", "--steps", "2"],
    ["precess", "--b", "0,0,1", "--t-final", "1", "--steps", "0"],
    ["precess", "--b", "1,2,3,4", "--t-final", "1", "--steps", "10"],
    ["precess", "--b", "1,nan,2", "--t-final", "1", "--steps", "10"],
    ["precess", "--b", "0,0,1", "--xi", "2,0,0", "--t-final", "0.1", "--steps", "3"],
    ["spin-transform", "--velocity", "0.5,0,0", "--xi", "2,0,0"],
    # |v|^2 overflows: refused by the kernels' one speed check, with no warning
    ["wigner", "--velocity", "1e200,0,0"],
    ["boost", "--velocity", "1e200,0,0"],
    ["spin-transform", "--velocity", "1e200,0,0"],
    ["precess", "--b", "0,0,1", "--xi", "1e300,1e300,0", "--t-final", "0.1", "--steps", "3"],
    ["fourier-check", "--spin", "1,2,3"],
    ["fourier-check", "--spin", "1,x"],
    ["fourier-check", "--eps", "0"],
    ["fourier-check", "--width", "1e-300"],
    ["fourier-check", "--width", "1e300"],
    ["fourier-check", "--width", "1e-150"],
    ["fourier-check", "--width", "1e100"],
    ["fourier-check", "--width", "1e150"],
    ["fourier-check", "--center", "1e300,0,0"],
    # refused by the library: an infinite norm, an overflowing phase omega t,
    # and an S' that overflows at a finite on-shell momentum
    ["fourier-check", "--spin", "1e200,0"],
    ["fourier-check", "--time", "1e308"],
    ["spin-transform", "--velocity", "0.9,0.3,0", "--momentum", "1.3e154,0,0"],
]

ADVERSARIAL_ARGV = [
    ["verify", "--samples", "3", "--pmax", "nan"],
    ["verify", "--samples", "3", "--pmax", "inf"],
    ["verify", "--samples", "3", "--pmax", "1e300"],
    ["verify", "--samples", "3", "--mass", "1e300"],
    ["verify", "--samples", "3", "--vmax", "nan"],
    ["verify", "--samples", "3", "--tol", "su2_lift=nan"],
    ["verify", "--samples", "3", "--pmax", "1000"],
    ["wigner", "--velocity", "nan,0,0"],
    ["wigner", "--velocity", "0.5,0,0", "--momentum", "1e300,0,0"],
    ["boost", "--velocity", "inf,0,0"],
    ["boost", "--momentum", "1e300,0,0"],
    ["amplitude", "--mass", "inf"],
    ["amplitude", "--momentum", "1e300,0,0"],
    ["amplitude", "--mass", "1e300", "--momentum", "1,2,3"],
    ["spin-transform", "--velocity", "0.5,0,0", "--xi", "nan,0,0"],
    ["spin-transform", "--velocity", "0.5,0,0", "--momentum", "1e300,0,0"],
    ["precess", "--b", "0,0,1", "--t-final", "nan", "--steps", "10"],
    ["precess", "--b", "0,0,1", "--t-final", "inf", "--steps", "10"],
    ["precess", "--b", "0,0,1", "--t-final", "1e300", "--steps", "10"],
    ["precess", "--b", "0,0,1e300", "--t-final", "1", "--steps", "10"],
    ["precess", "--b", "0,0,1", "--q", "1e300,0,0", "--t-final", "1", "--steps", "10"],
    ["precess", "--field", "quadrupole", "--gradient", "1e300,0,0,0,1,0,0,0,-2",
     "--t-final", "1", "--steps", "10"],
    ["fourier-check", "--width", "nan"],
    ["fourier-check", "--time", "inf"],
    ["fourier-check", "--spin", "nan,0"],
    ["boost", "--momentum=1e100,0,0", "--mass", "1e-100"],
    *TINY_MASS_ARGV,
    *REFUSED_ARGV,
]


@pytest.mark.parametrize("argv", ADVERSARIAL_ARGV, ids=" ".join)
def test_adversarial_numbers_keep_exit_contract(capsys, argv):
    try:
        code, usage = main(argv), False
    except SystemExit as exc:
        code, usage = exc.code, True
    out, err = capsys.readouterr()
    assert code in ((2,) if argv in REFUSED_ARGV else (0, 1, 2))
    assert "Traceback" not in err
    if code == 2:  # refused runs leave no partial report behind, and one error line
        assert out == ""
        lines = err.splitlines()
        if usage:  # argparse prints its usage text before the error line
            assert [ln for ln in lines if "error:" in ln] == lines[-1:]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_spin_transform_refuses_a_long_bloch_vector_as_precess_does(capsys):
    expected = (2, "", "error: Bloch vector must satisfy |xi| <= 1, got 2.0\n")
    assert run(capsys, "spin-transform", "--velocity", "0.5,0,0", "--xi", "2,0,0") == expected
    assert run(capsys, "precess", "--b", "0,0,1", "--xi", "2,0,0", "--t-final", "0.1",
               "--steps", "3") == expected


@pytest.mark.parametrize("width, quantity", [("1e-150", "d3p/(2 omega) weights"),
                                             ("1e150", "d3p/(2 omega) weights"),
                                             ("1e100", "bound on |Psi|^2")])
def test_fourier_check_refuses_widths_out_of_float_range(capsys, width, quantity):
    # refused by the library before any quadrature runs: one error line
    # naming the quantity that leaves the float64 range, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "fourier-check", "--width", width)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: momentum cube Grid(")
    assert quantity in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("center", ["1e300,0,0", "1e154,0,0", "-1e154,1e154,0"])
def test_fourier_check_refuses_a_center_out_of_float_range(capsys, center):
    # refused before any cube is sized from the center: one error line
    # naming the center, and no numpy overflow warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "fourier-check", f"--center={center}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: profile center (")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("width, expected", [("1e-30", 0), ("1e10", 1), ("1e30", 1)])
def test_fourier_check_keeps_wide_range_outcomes(capsys, width, expected):
    # inside the float64 range the check runs: a narrow packet passes, and
    # packets much wider than the mass miss Parseval (exit 1), a real result
    code, out, _ = run(capsys, "fourier-check", "--width", width)
    assert code == expected
    assert json.loads(out)["passed"] is (expected == 0)


def test_fourier_check_refuses_an_infinite_norm(capsys):
    # spin 1e200: the norm overflows, and normalizing refuses it; it used to
    # return the zero packet, whose check then failed (exit 1) with both
    # sides [0, 0]
    code, out, err = run(capsys, "fourier-check", "--spin", "1e200,0")
    assert (code, out) == (2, "")
    assert err == "error: cannot normalize a profile of norm inf\n"


@pytest.mark.parametrize("momentum", ["1.3e154,0,0", "1e153,0,0"])
def test_spin_transform_refuses_an_overflowing_transformed_spin(capsys, momentum):
    # at 1.3e154 the S' expansion overflows, though the momentum lifts onto
    # the shell; it is refused by name, not warned about, and 1e153 runs
    code, out, err = run(capsys, "spin-transform", "--velocity", "0.9,0.3,0",
                         "--momentum", momentum)
    if momentum == "1e153,0,0":
        assert code in (0, 1) and err == ""
        assert np.isfinite(np.array(json.loads(out)["transformed_spin"])).all()
    else:
        assert (code, out) == (2, "")
        assert err == "error: the transformed spin S' overflows float64 for mass = 1.0\n"


def _extreme(hi: float):
    """Zero, or 10^e of either sign with the exponent e log-uniform on
    [-3, 3] or on [-hi, hi]."""
    exponent = st.one_of(st.floats(-3.0, 3.0), st.floats(-hi, hi))
    return st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                             st.sampled_from((1.0, -1.0)), exponent))


def _option(name: str, size: int, hi: float = 300.0):
    """An option with `size` such numbers, or None (left at its default)."""
    values = st.lists(_extreme(hi), min_size=size, max_size=size)
    return st.one_of(st.none(), values.map(lambda v: f"--{name}={','.join(map(repr, v))}"))


def _exit_contract(argv) -> None:
    """Exit 0, 1 or 2; on 2 nothing on stdout and exactly one error line;
    never a warning (raised here as an error) or a traceback."""
    argv = [a for a in argv if a is not None]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert len([ln for ln in err.getvalue().splitlines() if "error:" in ln]) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_option("velocity", 3, hi=0.2).filter(bool), _option("momentum", 3),
       _option("mass", 1, hi=160.0), _option("xi", 3, hi=1.0))
def test_spin_transform_argv_keeps_the_exit_contract(velocity, momentum, mass, xi):
    _exit_contract(["spin-transform", velocity, momentum, mass, xi])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_option("width", 1), _option("center", 3), _option("spin", 2), _option("time", 1),
       _option("mass", 1, hi=160.0))
def test_fourier_check_argv_keeps_the_exit_contract(width, center, spin, time, mass):
    _exit_contract(["fourier-check", width, center, spin, time, mass])


def test_verify_kernel_refusal_is_an_identity_failure(capsys):
    # At |p|/m up to 1e17, beyond 2^53, standard_boost refuses the boosts
    # whose rotation part rounding has lost; the configuration is valid, so
    # that identity fails (exit 1) instead of the run ending as bad usage.
    code, out, err = run(capsys, "verify", "--samples", "3", "--pmax", "1e17")
    assert code == 1 and "Traceback" not in err
    row = {r["name"]: r for r in json.loads(out)["identities"]}["standard_boost"]
    assert row["max_residual"] is None and row["passed"] is False
    assert "standard_boost" in err


@pytest.mark.parametrize("argv", [["precess", "--b", "0,0,1", "--t-final", "nan", "--steps", "10"],
                                  ["verify", "--pmax", "inf"],
                                  ["verify", "--tol", "su2_lift=nan"]], ids=" ".join)
def test_non_finite_argument_refused_up_front(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["amplitude", "--momentum", "1e300,0,0"],
                                  ["amplitude", "--mass", "1e300", "--momentum", "1,2,3"],
                                  ["boost", "--momentum", "1e300,0,0"],
                                  ["wigner", "--velocity", "0.5,0,0", "--momentum", "1e300,0,0"],
                                  ["spin-transform", "--velocity", "0.5,0,0",
                                   "--momentum", "1e300,0,0"]], ids=" ".join)
def test_overflowing_momentum_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: momentum with mass = ")
    assert err.endswith("overflows the on-shell energy squared, |p|^2 + mass^2\n")


@pytest.mark.parametrize("argv", TINY_MASS_ARGV, ids=" ".join)
def test_underflowing_mass_refused_by_name(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: mass = {float(argv[-1])!r} underflows the mass squared")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_boost_whose_entries_overflow_is_refused_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "boost", "--momentum=1e100,0,0", "--mass", "1e-100")
    assert code == 2 and out == ""
    assert err == "error: matrix entries up to 1e+200 overflow the metric check L^T g L\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


#: One run of every subcommand with its array-valued options left at their defaults.
DEFAULT_ARRAY_ARGV = [
    ["verify", "--samples", "2"],
    ["wigner", "--velocity", "0.3,0.1,0"],
    ["boost", "--velocity", "0.3,0.1,0"],
    ["amplitude"],
    ["spin-transform", "--velocity", "0.3,0.1,0"],
    ["precess", "--b", "0,0,1", "--t-final", "1", "--steps", "20"],
    ["fourier-check", "--width", "0.5"],
]


def test_parser_built_once_and_shares_no_default_array(capsys):
    assert build_parser() is build_parser()
    first = [run(capsys, *argv) for argv in DEFAULT_ARRAY_ARGV]
    second = [run(capsys, *argv) for argv in DEFAULT_ARRAY_ARGV]
    assert [code for code, _, _ in first] == [0] * len(DEFAULT_ARRAY_ARGV)
    assert first == second
    parse = build_parser().parse_args
    zero = [0.0, 0.0, 0.0]
    expected = {"wigner": {"momentum": zero}, "amplitude": {"momentum": zero},
                "spin-transform": {"momentum": zero, "xi": [0.0, 0.0, 1.0]},
                "precess": {"q": zero, "xi": [1.0, 0.0, 0.0], "x0": zero},
                "fourier-check": {"center": zero, "spin": [1.0 + 0j, 0j]}}
    for argv in DEFAULT_ARRAY_ARGV:
        if argv[0] not in expected:
            continue
        a, b = parse(argv), parse(argv)
        for name, value in expected[argv[0]].items():
            assert getattr(a, name) is not getattr(b, name)
            getattr(a, name)[...] = 7.0  # a caller that writes into its arrays
            assert np.array_equal(getattr(parse(argv), name), value)


def test_numeric_subcommands_leave_sympy_out():
    # The runtime is numpy alone; scipy and sympy are test references.  With
    # every import of either refused, importing the package and the CLI and
    # running each subcommand load neither, and neither do the samplers, the
    # Newton-Wigner and other operators on a packet and the norm of a
    # normalized, transported packet.
    src = str(Path(diracspin.__file__).resolve().parents[1])
    code = """if True:
        import contextlib, io, json, sys

        BLOCKED = ("scipy", "sympy")

        class Blocked:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in BLOCKED:
                    raise ModuleNotFoundError(f"{name} is blocked", name=name)

        sys.meta_path.insert(0, Blocked())
        import numpy as np
        import diracspin
        import diracspin.cli as cli
        from diracspin import states
        from diracspin.lorentz import random_lorentz, random_rotation
        runs = [["verify", "--samples", "2"], ["wigner", "--velocity", "0.3,0.1,0"],
                ["boost", "--velocity", "0.3,0,0"], ["amplitude", "--momentum", "1,2,3"],
                ["spin-transform", "--velocity", "0.3,0.1,0"],
                ["precess", "--b", "0,0,1", "--t-final", "1", "--steps", "10"],
                ["fourier-check", "--width", "0.4", "--spin", "1+0j,0.5j"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
        w = states.normalized(states.gaussian_packet(1, 1.0, 0.5, spin=(0.6, 0.8j)))
        moved = states.lorentz_transform(w, random_lorentz(np.random.default_rng(1), 0.8))
        nrm = states.norm(moved, moved.default_grid())
        ops = [states.nw_apply(w, 0), states.nw_shift(w, [0.1, 0.2, 0.0]),
               states.momentum_apply(w, 1), states.apply_spin(w, [[0, 1], [1, 0]])]
        finite = [bool(np.isfinite(op.evaluate(np.ones((4, 3)))).all()) for op in ops]
        rotation = random_rotation(np.random.default_rng(2))
        print(json.dumps({"codes": codes, "finite": finite, "norm": nrm,
                          "rotation": rotation.shape,
                          "loaded": sorted(m for m in sys.modules if m.split(".")[0] in BLOCKED)}))
    """
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    out = json.loads(res.stdout)
    assert out["codes"] == [0] * 7
    assert out["finite"] == [True] * 4
    assert out["rotation"] == [3, 3]
    assert out["loaded"] == []
    assert out["norm"] == pytest.approx(1.0, abs=1e-6)


def test_precess_overflow_is_reported_not_raised(capsys):
    code, _, err = run(capsys, "precess", "--b", "0,0,1e300", "--t-final", "1", "--steps", "10")
    assert code == 2
    assert err.startswith("error: integration produced non-finite values")


def test_precess_summary_overflow_prints_nothing(capsys):
    # |q| = 1e300 integrates finitely, but its squared norm overflows
    code, out, err = run(capsys, "precess", "--b", "0,0,1", "--q", "1e300,0,0",
                         "--t-final", "1", "--steps", "10")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: conservation summary overflows")


@pytest.mark.parametrize("argv", [["--pmax", "1e300"], ["--mass", "1e300"]], ids=" ".join)
def test_verify_overflowing_energy_refused_by_name(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--samples", "3", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "pmax_over_m" in err and "mass" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
