import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

import diracspin
from diracspin.amplitudes import amplitude, amplitude_via_boost
from diracspin.clifford import GAMMA, PAULI
from diracspin.lorentz import (VMAX_HARD, bispinor_from_params, bispinor_inverse,
                               bispinor_rep, boost_from_velocity, boost_params,
                               lorentz_from_params, lorentz_gamma, random_lorentz,
                               random_momentum, random_rotation, random_velocity,
                               rotation_params, rotations_from_draws, standard_boost,
                               su2_from_so3, wigner_d, wigner_rotation,
                               wigner_rotation_closed)
from diracspin.minkowski import (METRIC, SampleRefused, is_proper_orthochronous, lorentz_residual,
                                 minkowski_dot, on_shell)

# Frozen reference: boost v = 0.5 x, momentum along y with |p| = gamma/2 and
# m = 1 rotates the spin frame about z by arctan(sqrt(3)/12).
PERP_ANGLE = 0.14334756890536535

small_v = st.floats(-0.95, 0.95)


def test_boost_frozen_example():
    L = boost_from_velocity([0.6, 0.0, 0.0])
    expect = np.array([[1.25, -0.75, 0, 0],
                       [-0.75, 1.25, 0, 0],
                       [0, 0, 1, 0],
                       [0, 0, 0, 1]])
    assert_allclose(L, expect, atol=1e-15)


def test_gamma_factor():
    assert lorentz_gamma(np.zeros(3)) == 1.0
    assert lorentz_gamma([0.6, 0, 0]) == pytest.approx(1.25)


@given(small_v, small_v)
def test_boost_inverse_pairs(vx, vy):
    v = np.array([vx, vy, 0.0])
    if np.linalg.norm(v) >= 0.99:
        return
    L = boost_from_velocity(v)
    assert_allclose(L @ boost_from_velocity(-v), np.eye(4), atol=1e-12)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        boost_from_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        boost_from_velocity([0.8, 0.8, 0.0])


def test_vmax_hard_is_subluminal():
    assert 0.0 < VMAX_HARD < 1.0


def test_standard_boost_first_column(momenta):
    for p4 in momenta:
        L = standard_boost(p4, 1.0)
        assert_allclose(L[:, 0], p4, rtol=1e-12)
        assert lorentz_residual(L) < 1e-10 * max(1.0, np.abs(L).max() ** 2)


def test_standard_boost_uses_given_energy(momenta):
    # the caller's p^0 is used as given, not recomputed from the spatial part:
    # with p^0 nudged off shell by ~1e-13 the matrix is still the closed form
    # built from that p^0, bit for bit
    m = 1.3
    for p4 in momenta[:10] * m:
        p4[0] *= 1.0 + 1e-13
        p0, pv = p4[0], p4[1:]
        ref = np.eye(4)
        ref[0, 0] = p0 / m
        ref[0, 1:] = ref[1:, 0] = pv / m
        ref[1:, 1:] += np.outer(pv, pv) / (m * (m + p0))
        assert np.array_equal(standard_boost(p4, m), ref)


def test_standard_boost_velocity_reading(momenta):
    # the rest frame of p moves with velocity -p/p0 relative to the lab
    for p4 in momenta[:10]:
        assert_allclose(standard_boost(p4, 1.0),
                        boost_from_velocity(-p4[1:] / p4[0]), atol=2e-11)


def test_standard_boost_rest_identity():
    assert_allclose(standard_boost(on_shell(3.0, np.zeros(3)), 3.0), np.eye(4), atol=0)


def test_wigner_rotation_block_structure(rng):
    L = random_lorentz(rng)
    p4 = random_momentum(rng, 1.0)
    R3, R4 = wigner_rotation(L, p4, 1.0)
    assert_allclose(R4[0], [1, 0, 0, 0], atol=5e-14)
    assert_allclose(R4[:, 0], [1, 0, 0, 0], atol=5e-14)
    assert_allclose(R4[1:, 1:], R3, atol=0)
    assert_allclose(R3 @ R3.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(R3) == pytest.approx(1.0, abs=1e-13)


def test_wigner_closed_matches_brute(rng):
    worst = 0.0
    for _ in range(300):
        v3 = random_velocity(rng)
        p4 = random_momentum(rng, 1.0)
        brute, _ = wigner_rotation(boost_from_velocity(v3), p4, 1.0)
        worst = max(worst, np.abs(wigner_rotation_closed(v3, p4, 1.0) - brute).max())
    assert worst < 1e-10


def test_wigner_batch_matches_single(rng):
    # a stack of momenta is the same computation as one call per momentum
    L = random_lorentz(rng)
    P = np.array([random_momentum(rng, 1.0) for _ in range(17)])
    R3, R4 = wigner_rotation(L, P, 1.0)
    assert R3.shape == (17, 3, 3) and R4.shape == (17, 4, 4)
    for k in range(len(P)):
        single3, single4 = wigner_rotation(L, P[k], 1.0)
        assert np.array_equal(R3[k], single3) and np.array_equal(R4[k], single4)
    # and each block agrees with the closed form for a pure boost; a (2, 3, 4)
    # stack keeps its leading shape
    v3 = random_velocity(rng)
    R3, _ = wigner_rotation(boost_from_velocity(v3), P[:6].reshape(2, 3, 4), 1.0)
    assert R3.shape == (2, 3, 3, 3)
    for k in range(6):
        assert np.abs(R3.reshape(6, 3, 3)[k] - wigner_rotation_closed(v3, P[k], 1.0)).max() < 1e-10


def test_wigner_rotation_recomputes_energy_from_spatial_momentum(rng):
    # both standard boosts are built on shell from the spatial momenta, so an
    # input energy off shell by a relative 1e-9 still gives a Lorentz matrix
    # to roundoff (a boost built from that energy misses L^T g L = g by ~1e-9)
    L = random_lorentz(rng)
    for p4 in (random_momentum(rng, 1.0) for _ in range(10)):
        off = p4 * np.array([1.0 + 1e-9, 1.0, 1.0, 1.0])
        _, R4 = wigner_rotation(L, off, 1.0)
        assert lorentz_residual(R4) < 1e-13


def test_wigner_perpendicular_frozen_angle():
    gamma = 1.0 / np.sqrt(0.75)
    v3 = np.array([0.5, 0.0, 0.0])
    p4 = np.array([gamma, 0.0, gamma / 2.0, 0.0])
    R = wigner_rotation_closed(v3, p4, 1.0)
    angle = np.arccos((np.trace(R) - 1.0) / 2.0)
    assert angle == pytest.approx(PERP_ANGLE, abs=1e-14)
    # independent closed form for perpendicular configurations:
    # tan(angle) = gv gu v u / (gv + gu), here both gammas are 2/sqrt(3)
    assert angle == pytest.approx(np.arctan(np.sqrt(3.0) / 12.0), abs=1e-14)
    # rotation happens in the v-p plane, about +z for this orientation
    assert R[2, 2] == pytest.approx(1.0, abs=1e-15)
    # Over a grid of speeds both the closed form and the brute-force product
    # equal R_z(angle) entry by entry.  Matrices, not angles, are compared:
    # the arccos above loses digits at small angles.
    speeds = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    v, u = (a.ravel() for a in np.meshgrid(speeds, speeds, indexing="ij"))
    gv, gu = 1.0 / np.sqrt(1.0 - v * v), 1.0 / np.sqrt(1.0 - u * u)
    Rz = Rotation.from_euler("z", np.arctan(gv * gu * v * u / (gv + gu))[:, None]).as_matrix()
    zero = np.zeros_like(v)
    v3 = np.stack([v, zero, zero], -1)
    p4 = np.stack([gu, zero, gu * u, zero], -1)
    assert np.abs(wigner_rotation_closed(v3, p4, 1.0) - Rz).max() <= 1e-15
    assert np.abs(wigner_rotation(boost_from_velocity(v3), p4, 1.0)[0] - Rz).max() <= 1e-12


def test_wigner_parallel_gives_identity():
    p4 = on_shell(1.0, [0.0, 0.0, 2.0])
    R = wigner_rotation_closed(np.array([0.0, 0.0, 0.7]), p4, 1.0)
    assert_allclose(R, np.eye(3), atol=1e-13)


def test_wigner_zero_velocity_identity(momenta):
    for p4 in momenta[:5]:
        assert_allclose(wigner_rotation_closed(np.zeros(3), p4, 1.0), np.eye(3), atol=1e-14)


def test_wigner_cocycle(rng):
    # R(L2 L1, p) = R(L2, L1 p) R(L1, p), checked in extended precision
    worst = 0.0
    for _ in range(60):
        L1 = random_lorentz(rng).astype(np.longdouble)
        L2 = random_lorentz(rng).astype(np.longdouble)
        p4 = random_momentum(rng, 1.0).astype(np.longdouble)
        R21, _ = wigner_rotation(L2 @ L1, p4, 1.0)
        Ra, _ = wigner_rotation(L1, p4, 1.0)
        Rb, _ = wigner_rotation(L2, np.asarray(L1 @ p4, dtype=float), 1.0)
        worst = max(worst, np.abs(R21 - Rb @ Ra).max())
    assert worst < 1e-10


def _random_so3(rng):
    return Rotation.random(rng=rng).as_matrix()


def test_rotations_from_draws_match_scipy_bit_for_bit():
    q = np.random.default_rng(4).normal(size=(100_000, 4))
    assert np.array_equal(rotations_from_draws(q), Rotation.from_quat(q).as_matrix())
    assert np.array_equal(rotations_from_draws(q[7]), Rotation.from_quat(q[7]).as_matrix())


def test_random_lorentz_leaves_scipy_out():
    # the samplers build rotations with numpy alone, so a sweep or a packet
    # run does not pay for importing scipy
    src = str(Path(diracspin.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, diracspin.cli\n"
            "from diracspin.lorentz import random_lorentz, random_rotation\n"
            "rng = np.random.default_rng(0)\n"
            "random_lorentz(rng), random_rotation(rng)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "[]"


def test_su2_lift_adjoint(rng):
    for _ in range(50):
        R = _random_so3(rng)
        U = su2_from_so3(R)
        assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
        adj = np.array([[0.5 * np.trace(_pauli(i) @ U @ _pauli(j) @ U.conj().T).real
                         for j in range(3)] for i in range(3)])
        assert_allclose(adj, R, atol=1e-12)


def _pauli(i):
    from diracspin.clifford import PAULI
    return PAULI[i]


def test_su2_lift_identity_branch():
    assert_allclose(su2_from_so3(np.eye(3)), np.eye(2), atol=0)


def test_su2_lift_half_turn():
    # half turn about z has trace -1; the lift must still be a valid cover
    R = Rotation.from_rotvec([0.0, 0.0, np.pi]).as_matrix()
    U = su2_from_so3(R)
    adj = np.array([[0.5 * np.trace(_pauli(i) @ U @ _pauli(j) @ U.conj().T).real
                     for j in range(3)] for i in range(3)])
    assert_allclose(adj, R, atol=1e-12)


def test_su2_rejects_non_rotation():
    with pytest.raises(ValueError):
        su2_from_so3(np.diag([1.0, 1.0, -1.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_su2_refuses_non_finite_rotation_without_warning(entry):
    R = random_rotation(np.random.default_rng(4))
    R[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (R, np.full((3, 3), entry)):
            with pytest.raises(SampleRefused, match=r"^matrix entries must be finite$") as exc:
                su2_from_so3(point)
            assert exc.value.index == 0
        # in a stack the first refused sample is named, whichever check it fails
        Rs = rotations_from_draws(np.random.default_rng(5).standard_normal((4, 4)))
        Rs[1] = R
        with pytest.raises(SampleRefused, match=r"finite \(sample 1\)$") as exc:
            su2_from_so3(Rs)
        assert exc.value.index == 1
        Rs[0] *= -1.0
        with pytest.raises(SampleRefused, match=r"proper rotation \(sample 0\)$") as exc:
            su2_from_so3(Rs)
        assert exc.value.index == 0


def _wigner_d_inputs(rng, n=5):
    L = random_lorentz(rng)
    p4 = np.array([random_momentum(rng, 1.0) for _ in range(n)])
    return L, p4, on_shell(1.0, (p4 @ L.T)[:, 1:])


def test_wigner_d_refuses_parity(rng):
    _, p4, _ = _wigner_d_inputs(rng)
    P = np.diag([1.0, -1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="not proper orthochronous"):
        wigner_d(P, p4, p4 @ P.T, 1.0)


def test_wigner_d_refuses_zero_mass(rng):
    L, p4, q4 = _wigner_d_inputs(rng)
    with pytest.raises(ValueError, match="mass must be positive"):
        wigner_d(L, p4, q4, 0.0)


def test_wigner_d_single_point_is_batch_row(rng):
    # one real matrix product per call; BLAS may round a one-row product
    # differently from a batch, so rows agree to rounding
    L, p4, q4 = _wigner_d_inputs(rng)
    D = wigner_d(L, p4, q4, 1.0)
    assert D.shape == (5, 2, 2)
    for k in range(5):
        assert_allclose(wigner_d(L, p4[k], q4[k], 1.0), D[k], rtol=0, atol=1e-14)


def test_params_boost_roundtrip():
    eta = np.array([0.3, -0.4, 0.5])
    speed = np.tanh(np.linalg.norm(eta))
    v3 = speed * eta / np.linalg.norm(eta)
    assert_allclose(lorentz_from_params(boost_params(eta)), boost_from_velocity(v3), atol=1e-13)


def test_params_rotation_roundtrip():
    theta = np.array([0.2, 0.1, -0.7])
    L = lorentz_from_params(rotation_params(theta))
    assert_allclose(L[0], [1, 0, 0, 0], atol=1e-15)
    assert_allclose(L[1:, 1:], Rotation.from_rotvec(theta).as_matrix(), atol=1e-13)


def test_params_antisymmetry_required():
    with pytest.raises(ValueError):
        lorentz_from_params(np.ones((4, 4)))


def test_bispinor_rep_identity():
    assert_allclose(bispinor_rep(np.eye(4)), np.eye(4), atol=0)


def test_bispinor_covariance(rng):
    # S(L)^{-1} gamma^mu S(L) = L^mu_nu gamma^nu
    for _ in range(25):
        L = random_lorentz(rng)
        S = bispinor_rep(L)
        Sinv = bispinor_inverse(S)
        for mu in range(4):
            lhs = Sinv @ GAMMA[mu] @ S
            rhs = np.einsum("n,nab->ab", L[mu], GAMMA)
            assert_allclose(lhs, rhs, atol=1e-10)


def test_bispinor_inverse_is_inverse(rng):
    L = random_lorentz(rng)
    S = bispinor_rep(L)
    assert_allclose(bispinor_inverse(S) @ S, np.eye(4), atol=1e-11)


def _covariance_residual(L, S):
    Sinv = bispinor_inverse(S)
    return max(np.abs(Sinv @ GAMMA[mu] @ S - np.einsum("n,nab->ab", L[mu], GAMMA)).max()
               for mu in range(4))


def _branch_key(A):
    """First nonzero of (Re c0, Re w1, Re w2, Re w3) for A = c0 I - i w.sigma;
    the documented sign rule makes it positive."""
    c0 = np.trace(A) / 2.0
    w = np.array([0.5j * np.trace(PAULI[k] @ A) for k in range(3)])
    key = np.concatenate(([c0.real], w.real))
    return key[np.flatnonzero(key)[0]]


def test_bispinor_exp_matches_closed_lift():
    # The exponential is the brute-force reference.  The closed-form lift
    # agrees with it up to the double-cover sign, chosen so Re tr A >= 0;
    # a rotation by 4 rad > pi exponentiates onto the other branch.
    cases = [(boost_params([0.2, 0.0, -0.3]), 1.0),
             (rotation_params([0.2, 0.1, -0.7]), 1.0),
             (boost_params([0.2, 0.0, -0.3]) + rotation_params([0.5, -0.4, 0.3]), 1.0),
             (rotation_params([0.0, 4.0, 0.0]), -1.0)]
    for omega, sign in cases:
        S = bispinor_rep(lorentz_from_params(omega))
        assert_allclose(bispinor_from_params(omega), sign * S, atol=1e-13)
        assert np.trace(S[:2, :2]).real > 0.0


@pytest.mark.parametrize("p_over_m", [1e3, 1e4, 1e6])
def test_bispinor_rep_high_rapidity(p_over_m):
    # L^T g L - g of the float standard boost is of order (p0/m)^2 eps, so the
    # covariance bound is scaled by that condition number; the observed
    # residuals stay orders of magnitude below it.
    rng = np.random.default_rng(1206)
    eps, m = np.finfo(float).eps, 1.5
    for _ in range(20):
        u = rng.normal(size=3)
        p4 = on_shell(m, m * p_over_m * u / np.linalg.norm(u))
        gamma = p4[0] / m
        L = standard_boost(p4, m)
        S = bispinor_rep(L)
        assert _covariance_residual(L, S) <= gamma ** 2 * eps
        # the off-shell rounding of the float p4 itself moves the two
        # constructions apart by a relative gamma eps
        for e in (1, -1):
            v = amplitude(e, p4, m)
            assert np.abs(amplitude_via_boost(e, p4, m) - v).max() <= 2.0 * gamma * eps * np.abs(v).max()


_AXES = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
         np.array([0.48, -0.6, 0.64])]


@pytest.mark.parametrize("n", _AXES, ids=["x", "y", "z", "oblique"])
def test_half_turn_lift(n):
    R = 2.0 * np.outer(n, n) - np.eye(3)
    L = np.eye(4)
    L[1:, 1:] = R
    assert _covariance_residual(L, bispinor_rep(L)) < 1e-14
    D = su2_from_so3(R)
    adj = np.array([[0.5 * np.trace(PAULI[i] @ D @ PAULI[j] @ D.conj().T).real
                     for j in range(3)] for i in range(3)])
    assert_allclose(adj, R, atol=1e-15)
    # the sign rule: a half-turn about n lifts to -i n.sigma, n's first
    # nonzero component positive
    assert _branch_key(D) > 0.0
    assert_allclose(D, -1j * np.einsum("i,iab->ab", n, PAULI), atol=1e-15)
    assert_allclose(bispinor_rep(L)[:2, :2], D, atol=0)


def test_lift_sign_rule_random(rng):
    for _ in range(50):
        L = random_lorentz(rng)
        assert _branch_key(bispinor_rep(L)[:2, :2]) > 0.0
        assert _branch_key(su2_from_so3(random_rotation(rng))) > 0.0
        # half-turn about a random axis: tr D is zero up to rounding, so the
        # branch is whichever the rounding picks, and the rule still holds
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        D = su2_from_so3(2.0 * np.outer(n, n) - np.eye(3))
        assert _branch_key(D) > 0.0
        half = -1j * np.einsum("i,iab->ab", n, PAULI)
        assert min(np.abs(D - half).max(), np.abs(D + half).max()) < 1e-15


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_sampler_contracts(seed):
    rng = np.random.default_rng(seed)
    p4 = random_momentum(rng, 2.0, pmax_over_m=5.0)
    assert np.linalg.norm(p4[1:]) <= 10.0
    assert minkowski_dot(p4, p4) == pytest.approx(4.0, rel=1e-10)
    v3 = random_velocity(rng, vmax=0.9)
    assert np.linalg.norm(v3) <= 0.9
    L = random_lorentz(rng)
    assert is_proper_orthochronous(L)
    assert lorentz_residual(L) < 1e-10 * max(1.0, np.abs(L).max() ** 2)


def test_random_rotation_is_so3(rng):
    R = random_rotation(rng)
    assert R.shape == (3, 3)
    assert_allclose(R @ R.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-13)


def test_dot_invariance_under_random_lorentz(rng):
    for _ in range(50):
        L = random_lorentz(rng)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert minkowski_dot(L @ a, L @ b) == pytest.approx(minkowski_dot(a, b), abs=1e-8)


def test_metric_congruence(rng):
    L = random_lorentz(rng)
    assert_allclose(L.T @ METRIC @ L, METRIC, atol=1e-10 * max(1.0, np.abs(L).max() ** 2))
