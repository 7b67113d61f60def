"""Smoke runs of the scripts under scripts/, with tiny arguments and no --out."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracspin
from diracspin.verify import IDENTITY_RUNNERS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    src = str(Path(diracspin.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src})


def test_residual_sweep_prints_one_row_per_identity(tmp_path):
    res = run_script("residual_sweep.py", "--samples", "5", "10", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = res.stdout.splitlines()[2:-1]  # between the header rule and the peak RSS line
    assert [row.split()[0] for row in rows] == list(IDENTITY_RUNNERS)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name, args", [("precession_demo.py", ["--steps", "50"]),
                                        ("wigner_angle_scan.py", ["--speeds", "0.5", "0.9"])])
def test_script_runs(tmp_path, name, args):
    res = run_script(name, *args, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--steps", "0"], ["--periods", "nan"], ["--periods", "inf"],
                                  ["--xi", "2,0,0"], ["--periods", "1e300"]],
                         ids=" ".join)
def test_precession_demo_refuses_bad_run_arguments(tmp_path, args):
    res = run_script("precession_demo.py", *args, cwd=tmp_path)
    assert res.returncode == 2 and res.stdout == "" and "Traceback" not in res.stderr
    lines = res.stderr.splitlines()  # argparse's usage text, then one error line
    assert [ln for ln in lines if "error:" in ln] == lines[-1:]


def test_precession_demo_reports_a_diverged_halving_row(tmp_path):
    # 200 periods are fine at 2000 steps, but RK4 overflows at 125 of them
    res = run_script("precession_demo.py", "--periods", "200", "--steps", "2000", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "n=  125  diverged" in res.stdout


@pytest.mark.parametrize("value", ["1,2", "1,2,3,4", "1,x,2", "1,nan,2"])
def test_precession_demo_refuses_a_bad_vector(tmp_path, value):
    res = run_script("precession_demo.py", "--b", value, "--steps", "50", cwd=tmp_path)
    assert res.returncode == 2 and res.stdout == "" and "Traceback" not in res.stderr
    lines = res.stderr.splitlines()  # argparse's usage text, then one error line
    assert [ln for ln in lines if "error:" in ln] == lines[-1:]
