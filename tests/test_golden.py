"""Reports and trajectories pinned byte for byte against files committed
under tests/data.

Comparing two runs of one build cannot see a change in the last digit of a
residual; these files can.  A change that moves a pinned report on purpose
re-pins the file under a version bump and says so in CHANGES.md.  The digits
are those of float64 numpy on x86-64; another BLAS or CPU may round a
residual differently.

Most of them depend on the kernel OpenBLAS selects for the CPU: they were
pinned under its SkylakeX (AVX-512) kernel.  Forced to the Haswell kernel,
which a CPU without AVX-512 gets, the three verify reports,
fourier_check_readme.json, both amplitude reports and transport_packet.txt
change at the rounding level (a max_residual of 2.66e-15 reads 2.00e-15),
since that kernel rounds their BLAS products with other fused
multiply-adds.  The precess trajectories do not: their RK4 stages make no
BLAS call, only plain float sums in a fixed order, so both precess runs are
the same bytes under every kernel (CI checks Haswell and Nehalem).

They do not depend on the C library: each square behind a pinned digit is
the IEEE product x * x, never libm's pow, and |p|^2 is summed in one order,
(p1^2 + p3^2) + p2^2, by `minkowski.shell_energy`.
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
    (["wigner", "--velocity", "0.5,0,0", "--momentum=0,0.577,0"], "wigner_readme.json"),
    (["amplitude", "--eps", "-1", "--momentum", "1,2,3"], "amplitude_readme.json"),
    (["amplitude", "--eps", "1", "--momentum", "1,2,3"], "amplitude_positive_shell.json"),
    (["spin-transform", "--velocity", "0.5,0,0", "--momentum=0,1,0", "--xi", "0,0,1"],
     "spin_transform_readme.json"),
]


@pytest.mark.parametrize("argv, name", GOLDEN, ids=[name for _, name in GOLDEN])
def test_report_matches_golden(tmp_path, argv, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


#: precess runs pinned with their stderr conservation summary.  The uniform
#: case starts from q_z = -0 with q_x < 0 and e > 0, where the RK4 stages
#: carry a -0 cross-product component that the zero gradient force of a
#: uniform field turns into +0: a CSV that kept "-0" after the first row
#: would show a dropped force term.  The quadrupole case has a non-symmetric
#: gradient, so its transposed reading differs from the Stern-Gerlach one.
PRECESS_GOLDEN = [
    (["precess", "--field", "uniform", "--b", "0,0,1.3", "--q=-0.5,0.2,-0", "--xi", "0.6,0,-0.8",
      "--charge", "1.5", "--mass", "2", "--t-final", "3", "--steps", "120"],
     "precess_uniform.csv",
     "# steps=120 t_final=3 xi_drift=6.2915339604785459e-11 "
     "q_norm_drift=9.4114160908986833e-11 xi_dot_q_drift=1.0485912138591402e-10"),
    (["precess", "--field", "quadrupole", "--gradient", "0.2,0.5,-0.1,0,-0.3,0.4,0.1,0,0.1",
      "--reading", "transposed", "--x0", "0.3,-0.2,0.5", "--q", "0.1,0.4,-0.2",
      "--xi", "0,0.6,0.8", "--charge", "2", "--mass", "0.7", "--t-final", "2.5",
      "--steps", "120"],
     "precess_quadrupole_transposed.csv",
     "# steps=120 t_final=2.5 xi_drift=1.0001131034442778e-09 "
     "q_norm_drift=0.91426326980119399 xi_dot_q_drift=0.81898749325081377"),
]


@pytest.mark.parametrize("argv, name, summary", PRECESS_GOLDEN,
                         ids=[name for _, name, _ in PRECESS_GOLDEN])
def test_precess_matches_golden(capsys, argv, name, summary):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.encode() == (DATA / name).read_bytes()
    assert err == summary + "\n"


#: Packet transport pinned as text: the transported spin-basis values and the
#: covariant values of one normalized packet per energy sign, on a 5^3
#: momentum grid, 17 significant digits per real and imaginary part.
TRANSPORT_GOLDEN = "transport_packet.txt"


def _transport_text() -> str:
    import numpy as np

    from diracspin.lorentz import random_lorentz
    from diracspin.states import (Grid, gaussian_packet, lorentz_transform, normalized,
                                  to_covariant)

    pts = Grid(1.5, 5).points()
    L = random_lorentz(np.random.default_rng(5), 0.8)
    lines = []
    for eps in (1, -1):
        w = normalized(gaussian_packet(eps, 1.0, 0.5, spin=(0.8, 0.6j)))
        for label, vals in (("lorentz_transform", lorentz_transform(w, L).evaluate(pts)),
                            ("to_covariant", to_covariant(w).evaluate(pts))):
            lines.append(f"# eps={eps:+d} {label}")
            lines.extend(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in vals)
    return "\n".join(lines) + "\n"


def test_transport_matches_golden():
    assert _transport_text() == (DATA / TRANSPORT_GOLDEN).read_text()
