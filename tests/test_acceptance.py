"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see every line; each
criterion states its tolerance and sweep size inline and fails loudly if
the bound is missed.
"""
import time

import numpy as np
import pytest

from diracspin.amplitudes import (amplitude, dirac_bar, parity_residual,
                                  sandwich_formula_residual, weinberg_residual)
from diracspin.clifford import GAMMA, GAMMA5, PAULI, energy_projector, slash
from diracspin.cli import main
from diracspin.dynamics import ChargedState, integrate, larmor_solution, uniform_field
from diracspin.lorentz import (bispinor_inverse, bispinor_rep, boost_from_velocity,
                               random_lorentz, random_momentum, random_velocity,
                               su2_from_so3, wigner_rotation, wigner_rotation_closed)
from diracspin.minkowski import METRIC, on_shell
from diracspin.position import default_grids, parseval_check
from diracspin.spin_ops import (casimir_spin, fw_residual, spin_from_pl, spin_matrix,
                                spin_transform_closed, spin_transform_wigner)
from diracspin.states import (DensityState, bloch_transform, gaussian_packet, momentum_apply,
                              norm, nw_apply, nw_shift, spin_expectations)


def report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_criterion_01_clifford_algebra():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            worst = max(worst, np.abs(anti - 2.0 * METRIC[mu, nu] * np.eye(4)).max())
    worst = max(worst, np.abs(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]).max())
    for mu in range(4):
        worst = max(worst, np.abs(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5).max())
    # contracted square on soft momenta keeps the bound absolute
    for _ in range(200):
        p4 = random_momentum(rng, 1.0, pmax_over_m=2.0)
        p2 = p4[0] ** 2 - p4[1:] @ p4[1:]
        worst = max(worst, np.abs(slash(p4) @ slash(p4) - p2 * np.eye(4)).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 0.1
    report(1, "clifford-algebra", ok, f"max residual {worst:.2e} <= 1e-14, {elapsed:.3f} s < 0.1 s")


def test_criterion_02_bispinor_covariance():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        L = random_lorentz(rng)
        S = bispinor_rep(L)
        Sinv = bispinor_inverse(S)
        for mu in range(4):
            lhs = Sinv @ GAMMA[mu] @ S
            rhs = np.einsum("n,nab->ab", L[mu], GAMMA)
            worst = max(worst, np.abs(lhs - rhs).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(2, "bispinor-covariance", ok,
           f"1000 transformations, max residual {worst:.2e} < 1e-10, {elapsed:.2f} s < 5 s")


def test_criterion_03_wigner_rotation():
    rng = np.random.default_rng(103)
    worst_closed = 0.0
    for _ in range(1000):
        v3 = random_velocity(rng, 0.99)
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0)
        brute, _ = wigner_rotation(boost_from_velocity(v3), p4, 1.0)
        worst_closed = max(worst_closed,
                           np.abs(wigner_rotation_closed(v3, p4, 1.0) - brute).max())
    worst_cocycle = 0.0
    for _ in range(1000):
        L1 = random_lorentz(rng, 0.99).astype(np.longdouble)
        L2 = random_lorentz(rng, 0.99).astype(np.longdouble)
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0).astype(np.longdouble)
        R21, _ = wigner_rotation(L2 @ L1, p4, 1.0)
        Ra, _ = wigner_rotation(L1, p4, 1.0)
        Rb, _ = wigner_rotation(L2, np.asarray(L1 @ p4, dtype=float), 1.0)
        worst_cocycle = max(worst_cocycle, np.abs(R21 - Rb @ Ra).max())
    ok = worst_closed < 1e-10 and worst_cocycle < 1e-10
    report(3, "wigner-rotation", ok,
           f"1000 closed-vs-brute {worst_closed:.2e}, 1000 cocycle {worst_cocycle:.2e}, both < 1e-10")


def test_criterion_04_amplitude_identities():
    rng = np.random.default_rng(104)
    worst = 0.0
    eye2, eye4 = np.eye(2), np.eye(4)
    for _ in range(1000):
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0)
        complete = np.zeros((4, 4), dtype=complex)
        for eps in (1, -1):
            v = amplitude(eps, p4, 1.0)
            vb = dirac_bar(v)
            worst = max(worst, np.abs(vb @ v - eps * eye2).max())
            worst = max(worst, np.abs(v @ vb - eps * energy_projector(eps, p4, 1.0)).max())
            worst = max(worst, np.abs(slash(p4) @ v - eps * v).max())
            worst = max(worst, parity_residual(eps, p4, 1.0))
            worst = max(worst, sandwich_formula_residual(eps, p4, 1.0))
            complete += eps * v @ vb
            w = amplitude(-eps, p4, 1.0)
            worst = max(worst, np.abs(dirac_bar(w) @ v).max())
        worst = max(worst, np.abs(complete - eye4).max())
    ok = worst < 1e-12
    report(4, "amplitude-identities", ok,
           f"1000 momenta x both shells x all identities, max residual {worst:.2e} < 1e-12")


def test_criterion_05_weinberg_condition():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        L = random_lorentz(rng)
        p4 = random_momentum(rng, 1.0)
        eps = 1 if rng.integers(2) else -1
        worst = max(worst, weinberg_residual(L, eps, p4, 1.0))
    ok = worst < 1e-9
    report(5, "finite-transformation-law", ok, f"500 samples, max residual {worst:.2e} < 1e-9")


def test_criterion_06_fw_diagonalization():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0)
        for eps in (1, -1):
            worst = max(worst, fw_residual(eps, p4, 1.0))
    ok = worst < 1e-11
    report(6, "fw-diagonalization", ok, f"1000 momenta x both shells, {worst:.2e} < 1e-11")


def test_criterion_07_spin_reconstruction():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0)
        for eps in (1, -1):
            S = spin_from_pl(eps, p4, 1.0)
            for i in range(3):
                worst = max(worst, np.abs(S[i] - spin_matrix(i)).max())
            worst = max(worst, np.abs(casimir_spin(eps, p4, 1.0) - 0.75 * np.eye(2)).max())
    ok = worst < 1e-12
    report(7, "pl-spin-reconstruction", ok,
           f"1000 momenta x both shells, max residual {worst:.2e} < 1e-12 (casimir 3/4)")


def test_criterion_08_spin_transform_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        v3 = random_velocity(rng, 0.99)
        p4 = random_momentum(rng, 1.0, pmax_over_m=10.0)
        closed = spin_transform_closed(v3, p4, 1.0)
        rotated = spin_transform_wigner(v3, p4, 1.0)
        worst = max(worst, np.abs(closed - rotated).max())
    ok = worst < 1e-10
    report(8, "spin-transform-equivalence", ok, f"500 samples, {worst:.2e} < 1e-10")


def test_criterion_09_newton_wigner():
    rng = np.random.default_rng(109)
    pts = rng.normal(scale=0.8, size=(40, 3))
    worst_comp = 0.0
    worst_norm = 0.0
    worst_comm = 0.0
    for eps in (1, -1):
        w = gaussian_packet(eps, 1.0, 0.7, spin=(0.8, 0.6))
        a = np.array([0.3, -0.2, 0.15])
        b = np.array([-0.1, 0.25, 0.4])
        stepwise = nw_shift(nw_shift(w, a), b).evaluate(pts)
        combined = nw_shift(w, a + b).evaluate(pts)
        worst_comp = max(worst_comp, np.abs(stepwise - combined).max())
        n0 = norm(w)
        worst_norm = max(worst_norm, abs(norm(nw_shift(w, a)) - n0) / n0)
        base = w.evaluate(pts)
        for j in range(3):
            for k in range(3):
                xp = momentum_apply(nw_apply(w, j), k).evaluate(pts)
                px = nw_apply(momentum_apply(w, k), j).evaluate(pts)
                expect = 1j * (1.0 if j == k else 0.0) * base
                worst_comm = max(worst_comm, np.abs((px - xp) - expect).max())
        for j, k in [(0, 1), (0, 2), (1, 2)]:
            ab = nw_apply(nw_apply(w, j), k).evaluate(pts)
            ba = nw_apply(nw_apply(w, k), j).evaluate(pts)
            worst_comm = max(worst_comm, np.abs(ab - ba).max())
    ok = worst_comp < 1e-12 and worst_norm < 1e-8 and worst_comm < 1e-10
    report(9, "newton-wigner", ok,
           f"shift composition {worst_comp:.2e} < 1e-12, norm drift {worst_norm:.2e} < 1e-8, "
           f"commutators {worst_comm:.2e} < 1e-10")


def test_criterion_10_bloch_transformation():
    rng = np.random.default_rng(110)
    worst_exp = 0.0
    worst_rot = 0.0
    worst_len = 0.0
    for _ in range(1000):
        q4 = random_momentum(rng, 1.0, pmax_over_m=5.0)
        xi = rng.normal(size=3)
        xi /= max(1.0, np.linalg.norm(xi) / 0.95)
        s = DensityState(1.0, q4[1:], xi)
        worst_exp = max(worst_exp, np.abs(spin_expectations(s)["svec"] - xi / 2.0).max())
        L = random_lorentz(rng, vmax=0.9)
        out = bloch_transform(s, L)
        R, _ = wigner_rotation(L, q4, 1.0)
        worst_rot = max(worst_rot, np.abs(out.xi - R @ xi).max())
        U = su2_from_so3(R)
        adj = np.array([[0.5 * np.trace(PAULI[i] @ U @ PAULI[j] @ U.conj().T).real
                         for j in range(3)] for i in range(3)])
        worst_rot = max(worst_rot, np.abs(out.xi - adj @ xi).max())
        worst_len = max(worst_len, abs(np.linalg.norm(out.xi) - np.linalg.norm(xi)))
    ok = worst_exp < 1e-13 and worst_rot < 1e-12 and worst_len < 1e-12
    report(10, "bloch-transformation", ok,
           f"1000 states: <S>=xi/2 {worst_exp:.2e} < 1e-13, wigner/adjoint rotation "
           f"{worst_rot:.2e} < 1e-12, length drift {worst_len:.2e}")


def test_criterion_11_precession_dynamics():
    state = ChargedState(q=np.array([1.0, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0]))
    b3 = np.array([0.0, 0.0, 2.0])
    field = uniform_field(b3)
    quarter = np.pi / 4.0  # angular speed eB/m = 2

    def endpoint_error(steps):
        traj = integrate(state, field, quarter, steps)
        q_exact, xi_exact = larmor_solution(state, b3, traj.t)
        return max(np.abs(traj.q - q_exact).max(), np.abs(traj.xi - xi_exact).max()), traj

    err_1000, traj = endpoint_error(1000)
    err_250, _ = endpoint_error(250)
    err_500, _ = endpoint_error(500)
    order = np.log2(err_250 / err_500)
    xi_norm = np.linalg.norm(traj.xi, axis=1)
    drift = np.abs(xi_norm - xi_norm[0]).max()
    ok = err_1000 < 1e-6 and 3.8 < order < 4.2 and drift < 1e-9
    report(11, "precession-dynamics", ok,
           f"quarter-period error {err_1000:.2e} < 1e-6 at 1000 steps, order {order:.3f} in "
           f"[3.8, 4.2], |xi| drift {drift:.2e} < 1e-9")


def test_criterion_12_position_parseval():
    t0 = time.perf_counter()
    a = gaussian_packet(1, 1.0, 0.4, spin=(1.0, 0.0))
    b = gaussian_packet(1, 1.0, 0.4, spin=(0.6, 0.8))
    pgrid, xgrid = default_grids(a, b)
    _, _, coarse = parseval_check(a, b, pgrid, xgrid)
    _, _, fine = parseval_check(a, b, pgrid.refined(), xgrid.refined())
    elapsed = time.perf_counter() - t0
    ok = coarse < 1e-3 and fine < coarse and elapsed < 30.0
    report(12, "position-parseval", ok,
           f"default-grid relerr {coarse:.2e} < 1e-3, refined {fine:.2e} strictly smaller, "
           f"{elapsed:.1f} s < 30 s")


def test_criterion_13_cli_contract(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code_a = main(["verify", "--seed", "42", "--samples", "40", "--out", str(f1)])
    code_b = main(["verify", "--seed", "42", "--samples", "40", "--out", str(f2)])
    identical = f1.read_bytes() == f2.read_bytes()
    code_fail = main(["verify", "--samples", "5", "--tol", "bloch_rotation=1e-30",
                      "--out", str(tmp_path / "fail.json")])
    code_usage = main(["verify", "--tol", "not_an_identity=1e-9"])
    capsys.readouterr()  # swallow the diagnostic lines before reporting
    with capsys.disabled():
        ok = (code_a == 0 and code_b == 0 and identical
              and code_fail == 1 and code_usage == 2)
        report(13, "cli-contract", ok,
               f"seed-42 reports byte-identical={identical}, exit codes pass=0 "
               f"fail={code_fail} usage={code_usage}")
