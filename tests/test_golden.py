"""Reports pinned byte for byte against files committed under tests/data.

Comparing two runs of one build cannot see a change in the last digit of a
residual; these files can.  A change that moves a pinned report on purpose
replaces the file in the same commit and says so in CHANGES.md.  The digits
are those of float64 numpy on x86-64; another BLAS or CPU may round a
residual differently.
"""
from pathlib import Path

import pytest

from diracspin.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    (["verify", "--seed", "42"], "verify_seed42.json"),
    (["verify", "--seed", "7", "--samples", "500", "--vmax", "0.999", "--pmax", "30"],
     "verify_seed7_high_boost.json"),
    (["verify", "--seed", "3", "--samples", "100", "--mass", "2.5", "--pmax", "20"],
     "verify_seed3_mass2p5.json"),
    (["fourier-check", "--width", "0.4", "--spin", "1+0j,0.5j"], "fourier_check_readme.json"),
]


@pytest.mark.parametrize("argv, name", GOLDEN, ids=[name for _, name in GOLDEN])
def test_report_matches_golden(tmp_path, argv, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
