"""Brute-force references the tests check the library's closed forms against.

The library ships one implementation of each formula; each of these is the
independent partner of one of them, kept here because only tests call it:

- the generator exponentials exp((i/2) omega_{mu nu} J^{mu nu}) in the
  vector and bispinor realizations, against `lorentz.bispinor_rep`'s
  closed-form lift and `lorentz.boost_from_velocity`;
- the amplitude boosted from the rest frame, against `amplitudes.amplitude`;
- the one-point position synthesis as one whole-array sum, against a node
  of `position.synthesize_mesh`;
- the dense products with fixed Clifford and Pauli tensors (einsum
  contractions and matrix products), against the flat `minkowski.contract`
  and the monomial gathers that replaced them, which must equal them bit
  for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from diracspin.amplitudes import amplitude
from diracspin.clifford import GAMMA0, SIGMA
from diracspin.lorentz import _SIGMA4, bispinor_rep, standard_boost
from diracspin.minkowski import METRIC, lorentz_matrix, on_shell
from diracspin.position import TWO_PI_CUBED_SQRT
from diracspin.states import SpinWaveFunction, _as_sectors, to_covariant


# ---------------------------------------------------------------------------
# Generator parameters: a real antisymmetric omega_{mu nu} feeds the matched
# exponential maps exp((i/2) omega_{mu nu} J^{mu nu}) in the vector and
# bispinor realizations.
# ---------------------------------------------------------------------------

def check_generator_params(omega: np.ndarray) -> np.ndarray:
    """Validate an exactly antisymmetric real 4x4 parameter matrix."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError(f"generator parameters must have shape (4, 4), got {omega.shape}")
    if not np.array_equal(omega, -omega.T):
        raise ValueError("generator parameters must be exactly antisymmetric")
    return omega


def boost_params(eta3: np.ndarray) -> np.ndarray:
    """Parameters of a pure boost with rapidity vector eta (omega_{0i} = eta_i)."""
    eta3 = np.asarray(eta3, dtype=float)
    omega = np.zeros((4, 4))
    omega[0, 1:] = eta3
    omega[1:, 0] = -eta3
    return omega


def rotation_params(theta3: np.ndarray) -> np.ndarray:
    """Parameters of a rotation by the axis-angle vector theta (omega_{ij} = -eps_{ijk} theta_k)."""
    theta3 = np.asarray(theta3, dtype=float)
    omega = np.zeros((4, 4))
    omega[1, 2], omega[2, 1] = -theta3[2], theta3[2]
    omega[2, 3], omega[3, 2] = -theta3[0], theta3[0]
    omega[3, 1], omega[1, 3] = -theta3[1], theta3[1]
    return omega


def lorentz_from_params(omega: np.ndarray) -> np.ndarray:
    """Vector-realization exponential exp((i/2) omega_{mu nu} J^{mu nu}).

    With (J^{ab})^mu_nu = i (g^{a mu} delta^b_nu - g^{b mu} delta^a_nu) and
    omega antisymmetric, the generator is exactly real,

        (i/2) omega_{ab} (J^{ab})^mu_nu = -(g omega)^mu_nu,

    so the exponential is expm(-g omega).

    boost_params(eta x-hat) reproduces boost_from_velocity(tanh(eta) x-hat).
    """
    return lorentz_matrix(expm(-METRIC @ check_generator_params(omega)), proper=True)


def bispinor_from_params(omega: np.ndarray) -> np.ndarray:
    """Bispinor-realization exponential exp((i/2) omega_{mu nu} Sigma^{mu nu}).

    Paired with lorentz_from_params on the same omega it satisfies the
    conjugation law S^{-1} gamma^mu S = L^mu_nu gamma^nu.
    """
    omega = check_generator_params(omega)
    return expm(0.5j * np.einsum("ab,abmn->mn", omega, SIGMA))


# ---------------------------------------------------------------------------
# Amplitudes and position synthesis
# ---------------------------------------------------------------------------

def amplitude_via_boost(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Amplitude generated from the rest frame, S(L_p) v^eps(q) with q = (m, 0).

    Agrees with the closed form because the standard boost has trivial
    Wigner rotation.
    """
    q = on_shell(m, np.zeros(3))
    return bispinor_rep(standard_boost(p4, m)) @ amplitude(eps, q, m)


def synthesize(w, x4, pgrid) -> np.ndarray:
    """The position-space bispinor, shape (4,), at one spacetime point
    x4 = (t, xvec): the sum over the whole momentum cube of
    d3p/(2 omega) e^{-i eps (omega t - pvec.xvec)} psi(p), per sector of
    `w` (a wavefunction or a sequence of them), over (2 pi)^{3/2}."""
    x4 = np.asarray(x4, dtype=float)
    pts = pgrid.points()
    psi = np.zeros(4, dtype=complex)
    for s in _as_sectors(w):
        om, wts = pgrid.shell_measure(s.mass)
        phase = np.exp(-1j * s.eps * (om * x4[0] - pts @ x4[1:]))
        values = (to_covariant(s) if isinstance(s, SpinWaveFunction) else s).evaluate(pts)
        psi = psi + np.einsum("n,n,na->a", wts, phase, values)
    return psi / TWO_PI_CUBED_SQRT


# ---------------------------------------------------------------------------
# Dense products with fixed tensors
# ---------------------------------------------------------------------------

#: Batch shapes of the exactness tests: one point (no batch axis), the
#: default sweep's 200 samples and one 4096-sample sweep chunk.
EXACT_BATCHES = [(), (200,), (4096,)]


def assert_same_bits(a, b):
    """a and b hold the same bytes: shape, dtype, sign bits of zeros and NaN
    payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def dense_contract(x, T):
    """sum_i x_i T_i as the einsum `minkowski.contract` replaced."""
    axes = "abcd"[:np.ndim(T) - 1]
    return np.einsum(f"...i,i{axes}->...{axes}", x, T)


def dense_dirac_bar(M):
    """M^+ gamma^0 as a matrix product with gamma^0."""
    return np.swapaxes(np.asarray(M).conj(), -1, -2) @ GAMMA0


def dense_bispinor_inverse(S):
    """gamma^0 S^+ gamma^0 as two matrix products with gamma^0."""
    return GAMMA0 @ np.swapaxes(np.asarray(S).conj(), -1, -2) @ GAMMA0


def dense_sigma_trace(k, Mk):
    """Re tr(sigma_k M_k) from the stacked products sigma_k M_k."""
    tr = _SIGMA4[k] @ Mk
    return tr[:, 0, 0].real + tr[:, 1, 1].real


def obeys_two_term_rule(T) -> bool:
    """Whether contracting a vector with T (k, ...) is exact: every real
    output component a sum of at most two terms, each an input times an
    entry in {0, +-1, +-1/2}."""
    flat = np.ascontiguousarray(T, dtype=complex).reshape(len(T), -1).view(float)
    return bool(np.isin(flat, [0.0, 1.0, -1.0, 0.5, -0.5]).all()
                and ((flat != 0).sum(axis=0) <= 2).all())
