"""Lorentz transformations in the vector, SU(2), and bispinor realizations.

Covers velocity boosts, the standard boost taking the rest momentum to p,
Wigner rotations (both the brute-force matrix product and the closed form),
and the spinor double cover.  One closed-form map takes a proper
orthochronous L to the SL(2,C) element A(L) with A X(x) A^+ = X(Lx), where
X(x) = x^mu sigma_mu and sigma_mu = (I, sigma_1, sigma_2, sigma_3); the
SU(2) lift of a rotation and the bispinor S(L) = diag(A, (A^+)^{-1}) are
both read off it.  The double-cover sign is fixed by Re tr A > 0 (see
`_sl2c_lift` for the tie at Re tr A = 0).  Finite bispinor transformations
also come from generator parameters through the matrix exponential, which
stays as the brute-force reference for the closed form.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .clifford import GAMMA0, PAULI, SIGMA
from .minkowski import METRIC, check_mass, lorentz_matrix, on_shell

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3)
_Z2 = np.zeros((2, 2), dtype=complex)

#: Hard upper bound on boost speeds accepted anywhere in the package; keeps
#: gamma factors (and with them condition numbers) bounded in sweeps.
VMAX_HARD = 0.999999


def lorentz_gamma(v3: np.ndarray) -> float:
    """Lorentz factor gamma = (1 - |v|^2)^(-1/2) for |v| < 1."""
    v3 = np.asarray(v3, dtype=float)
    b2 = float(v3 @ v3)
    if b2 >= 1.0:
        raise ValueError(f"superluminal velocity: |v| = {np.sqrt(b2):.6f} >= 1")
    return 1.0 / np.sqrt(1.0 - b2)


def boost_from_velocity(v3: np.ndarray) -> np.ndarray:
    """Pure boost with velocity v, as a 4x4 vector-realization matrix.

    Row 0 is (gamma, -gamma v); the spatial block is
    I + gamma^2/(1+gamma) v (x) v.  The matrix is symmetric and
    boost_from_velocity(-v) is its inverse.
    """
    v3 = np.asarray(v3, dtype=float)
    if v3.shape != (3,):
        raise ValueError(f"velocity must have shape (3,), got {v3.shape}")
    g = lorentz_gamma(v3)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1:] = -g * v3
    L[1:, 0] = -g * v3
    L[1:, 1:] += (g * g / (1.0 + g)) * np.outer(v3, v3)
    return lorentz_matrix(L, proper=True)


def _standard_boost_matrix(p0, pv, m):
    """Standard boosts L_p for energies p0 (...) and spatial momenta pv (..., 3),
    shape (..., 4, 4), in the dtype of pv.

    Column 0 is p/m, and the spatial block is I + pvec (x) pvec / (m (m + p^0));
    the matrix is symmetric.
    """
    L = np.zeros(pv.shape[:-1] + (4, 4), dtype=pv.dtype)
    L[..., 0, 0] = p0 / m
    L[..., 0, 1:] = L[..., 1:, 0] = pv / m
    L[..., 1:, 1:] = _I3 + pv[..., :, None] * pv[..., None, :] / (m * (m + p0))[..., None, None]
    return L


def standard_boost(p4: np.ndarray, m: float) -> np.ndarray:
    """Boost L_p taking the rest four-momentum (m, 0, 0, 0) to p.

    Column 0 equals p/m; note L_p = boost_from_velocity(-pvec/p^0): the two
    constructors use opposite sign conventions for the velocity argument.
    """
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    return lorentz_matrix(_standard_boost_matrix(p4[0], p4[1:], m), proper=True)


#: Metric in extended precision for the Wigner composition below.
_METRIC_LD = METRIC.astype(np.longdouble)


def wigner_rotation(L: np.ndarray, p4: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Wigner rotations R(L, p) = L_{Lp}^{-1} L L_p by direct matrix products,
    for four-momenta p4 of shape (..., 4); a single four-momentum (shape (4,))
    is the n = 1 case.

    Composing the three factors involves entries of order (p^0/m)^2 that
    cancel down to a rotation, so the products run in extended precision
    (a standard boost is symmetric, so its inverse is g L_p g), and both
    standard boosts are assembled with the energy recomputed from the spatial
    momentum, which keeps them pseudo-orthogonal to extended-precision
    roundoff even when p4 is slightly off shell.  The result is returned as
    float64.  Longdouble inputs are used as given, which lets callers chain
    exact products of group elements.  Returns (R3, R4): the rotation blocks,
    shape (..., 3, 3), and the full matrices, shape (..., 4, 4), whose time
    row and column equal (1, 0, 0, 0) up to roundoff.
    """
    Ld = np.asarray(L).astype(np.longdouble)
    p4d = np.asarray(p4).astype(np.longdouble)
    md = np.longdouble(m)
    Q = np.stack([p4d[..., 1:], (p4d @ Ld.T)[..., 1:]])
    q0 = np.sqrt(md * md + np.einsum("...i,...i->...", Q, Q))
    B_in, B_out = _standard_boost_matrix(q0, Q, md)
    R4 = np.asarray(_METRIC_LD @ B_out @ _METRIC_LD @ Ld @ B_in, dtype=float)
    return R4[..., 1:, 1:].copy(), R4


def wigner_rotation_closed(v3: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Closed-form Wigner rotation for a pure boost of velocity v acting on p.

    With a = m + p^0 and b = m + gamma (p^0 - v.p) (b is m plus the boosted
    energy), the rotation block is

        R = I + (1-gamma)/(a b) p(x)p + gamma^2 (m-p^0)/(b (1+gamma)) v(x)v
            + (gamma/b) p(x)v
            + (gamma/b) (2 gamma (v.p)/(a (1+gamma)) - 1) v(x)p.

    Agrees with wigner_rotation(boost_from_velocity(v), p, m).
    """
    v3 = np.asarray(v3, dtype=float)
    p4 = np.asarray(p4, dtype=float)
    m = check_mass(m)
    g = lorentz_gamma(v3)
    p0, pv = p4[0], p4[1:]
    a = m + p0
    b = m + g * (p0 - v3 @ pv)
    return (np.eye(3)
            + ((1.0 - g) / (a * b)) * np.outer(pv, pv)
            + (g * g * (m - p0) / (b * (1.0 + g))) * np.outer(v3, v3)
            + (g / b) * np.outer(pv, v3)
            + (g / b) * (2.0 * g * (v3 @ pv) / (a * (1.0 + g)) - 1.0) * np.outer(v3, pv))


#: sigma_mu = (I, sigma_1, sigma_2, sigma_3), shape (4, 2, 2).
_SIGMA4 = np.concatenate([_I2[None], PAULI])
#: Row 4 mu + nu, column 4 X + 2 a + b: (sigma_mu sigma_X sigma_nu)_{ab}.
_LIFT = np.einsum("mab,xbc,ncd->mnxad", _SIGMA4, _SIGMA4, _SIGMA4).reshape(16, 16)


def _sl2c_lift(L: np.ndarray) -> np.ndarray:
    """SL(2,C) element A with A X(x) A^+ = X(Lx), X(x) = x^mu sigma_mu, for a
    proper orthochronous float matrix L (validated by the caller).

    Each M_X = sum_{mu nu} L^mu_nu sigma_mu X sigma_nu equals 2 c A with
    c = tr(A^+ X), for X in (I, sigma_1, sigma_2, sigma_3).  M_I vanishes at
    half-turns, so the M_X holding the largest entry is used.  Dividing by 2c
    takes |c|^2 = tr(X M_X) / 2 and only the phase of c^2 = det(M_X) / 4: the
    determinant cancels down from entries of order gamma^2 to order gamma, so
    its modulus would carry a relative error of order gamma eps.  For L = I
    every step is exact, so A(I) = I exactly.

    Sign rule: with A = c0 I - i w.sigma, Re c0 > 0; at Re c0 = 0 (where
    Re w != 0, since c0^2 + w.w = 1) the first nonzero component of Re w is
    positive.  A rotation by theta about n has c0 = cos(theta/2) and
    w = sin(theta/2) n, so a half-turn lifts to -i n.sigma with the first
    nonzero component of n positive.
    """
    M = (L.reshape(16) @ _LIFT).reshape(4, 2, 2)
    k = np.abs(M).argmax() // 4
    (a, b), (c, d) = M[k]
    det = a * d - b * c
    A = M[k] / np.sqrt(2.0 * np.trace(_SIGMA4[k] @ M[k]).real * det / abs(det))
    (a, b), (c, d) = A
    key = (a + d).real
    if key == 0.0:
        key = next(r for r in (-(b + c).imag, (c - b).real, (d - a).imag) if r != 0.0)
    return -A if key < 0.0 else A


def su2_from_so3(R3: np.ndarray) -> np.ndarray:
    """SU(2) element D covering the rotation R, with D (sigma.a) D^+ = (R a).sigma.

    D is the closed-form lift of diag(1, R), so tr D >= 0, and a half-turn
    about n lifts to -i n.sigma with the first nonzero component of n
    positive (see `_sl2c_lift`).
    """
    R3 = np.asarray(R3, dtype=float)
    if R3.shape != (3, 3):
        raise ValueError(f"rotation must have shape (3, 3), got {R3.shape}")
    if np.abs(R3.T @ R3 - np.eye(3)).max() >= 1e-10 or np.linalg.det(R3) <= 0.0:
        raise ValueError("matrix is not a proper rotation")
    L = np.eye(4)
    L[1:, 1:] = R3
    return _sl2c_lift(L)


# ---------------------------------------------------------------------------
# Generator parameters: a real antisymmetric omega_{mu nu} feeds the matched
# exponential maps exp((i/2) omega_{mu nu} J^{mu nu}) in the vector and
# bispinor realizations.  The vector generators are
# (J^{ab})^mu_nu = i (g^{a mu} delta^b_nu - g^{b mu} delta^a_nu).
# ---------------------------------------------------------------------------

def _vector_generators() -> np.ndarray:
    J = np.zeros((4, 4, 4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            for mu in range(4):
                for nu in range(4):
                    J[a, b, mu, nu] = 1j * (METRIC[a, mu] * (b == nu) - METRIC[b, mu] * (a == nu))
    return J


VECTOR_GENERATORS = _vector_generators()


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

    boost_params(eta x-hat) reproduces boost_from_velocity(tanh(eta) x-hat).
    """
    omega = check_generator_params(omega)
    gen = 0.5j * np.einsum("ab,abmn->mn", omega, VECTOR_GENERATORS)
    L = expm(gen)
    if np.abs(L.imag).max() > 1e-12:
        raise ValueError("generator parameters produced a non-real vector matrix")
    return lorentz_matrix(L.real, proper=True)


def bispinor_from_params(omega: np.ndarray) -> np.ndarray:
    """Bispinor-realization exponential exp((i/2) omega_{mu nu} Sigma^{mu nu}).

    Paired with lorentz_from_params on the same omega it satisfies the
    conjugation law S^{-1} gamma^mu S = L^mu_nu gamma^nu.
    """
    omega = check_generator_params(omega)
    return expm(0.5j * np.einsum("ab,abmn->mn", omega, SIGMA))


def bispinor_rep(L: np.ndarray) -> np.ndarray:
    """Finite bispinor transformation S(L) = diag(A, (A^+)^{-1}) for proper
    orthochronous L, with A the closed-form SL(2,C) lift of L.

    The branch follows the lift's sign rule (Re tr A >= 0), so S(I) = +I.
    The inverse satisfies S^{-1} = gamma^0 S^+ gamma^0.
    """
    A = _sl2c_lift(lorentz_matrix(L, proper=True))
    (a, b), (c, d) = A
    return np.block([[A, _Z2], [_Z2, np.array([[d, -c], [-b, a]]).conj()]])


def bispinor_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a bispinor transformation via S^{-1} = gamma^0 S^+ gamma^0."""
    return GAMMA0 @ np.asarray(S).conj().T @ GAMMA0


def random_momentum(rng: np.random.Generator, m: float, pmax_over_m: float = 10.0) -> np.ndarray:
    """On-shell four-momentum with pvec = m u, u uniform in the ball |u| <= pmax_over_m."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    r = pmax_over_m * rng.uniform() ** (1.0 / 3.0)
    return on_shell(m, m * r * u)


def random_velocity(rng: np.random.Generator, vmax: float = 0.99) -> np.ndarray:
    """Velocity uniform in the ball |v| <= vmax (vmax capped at 0.999999)."""
    if not 0.0 < vmax <= VMAX_HARD:
        raise ValueError(f"vmax must lie in (0, {VMAX_HARD}], got {vmax}")
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return vmax * rng.uniform() ** (1.0 / 3.0) * u


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random rotation matrix."""
    from scipy.spatial.transform import Rotation

    return Rotation.random(rng=rng).as_matrix()


def random_lorentz(rng: np.random.Generator, vmax: float = 0.99) -> np.ndarray:
    """Random proper orthochronous transformation, sampled as boost x rotation."""
    L = np.eye(4)
    L[1:, 1:] = random_rotation(rng)
    return boost_from_velocity(random_velocity(rng, vmax)) @ L
