"""Lorentz transformations in the vector, SU(2), and bispinor realizations.

Covers velocity boosts, the standard boost taking the rest momentum to p,
Wigner rotations (both the brute-force matrix product and the closed form),
and the spinor double cover.  One closed-form map takes a proper
orthochronous L to the SL(2,C) element A(L) with A X(x) A^+ = X(Lx), where
X(x) = x^mu sigma_mu and sigma_mu = (I, sigma_1, sigma_2, sigma_3); the
SU(2) lift of a rotation, the bispinor S(L) = diag(A, (A^+)^{-1}) and the
Wigner matrix D = A(Lp)^{-1} A(L) A(p) (`wigner_d`) are all read off it.
The double-cover sign is fixed by Re tr A > 0 (see `_sl2c_lift` for the tie
at Re tr A = 0).  Finite bispinor transformations
also come from generator parameters through the matrix exponential, which
stays as the brute-force reference for the closed form.

The kinematic kernels and the samplers' builders are batch-first (see
`minkowski`); the generator-parameter maps take one matrix.
"""
from __future__ import annotations

import numpy as np

from .clifford import GAMMA0, PAULI, SIGMA
from .minkowski import (METRIC, check_mass, lorentz_matrix, matmul_stack, on_shell, refuse_first,
                        stack_matmul)

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3)

#: Hard upper bound on boost speeds accepted anywhere in the package; keeps
#: gamma factors (and with them condition numbers) bounded in sweeps.
VMAX_HARD = 0.999999


def lorentz_gamma(v3: np.ndarray) -> float:
    """Lorentz factor gamma = (1 - |v|^2)^(-1/2) for velocities v3 of shape
    (..., 3) with |v| < 1."""
    v3 = np.asarray(v3, dtype=float)
    b2 = np.vecdot(v3, v3)
    refuse_first((b2 >= 1.0,
                  lambda i: f"superluminal velocity: |v| = {np.sqrt(b2.reshape(-1)[i]):.6f} >= 1"))
    return 1.0 / np.sqrt(1.0 - b2)


def boost_from_velocity(v3: np.ndarray) -> np.ndarray:
    """Pure boosts with velocities v3 of shape (..., 3), as (..., 4, 4)
    vector-realization matrices.

    Row 0 is (gamma, -gamma v); the spatial block is
    I + gamma^2/(1+gamma) v (x) v.  The matrix is symmetric and
    boost_from_velocity(-v) is its inverse.
    """
    v3 = np.asarray(v3, dtype=float)
    if v3.shape[-1:] != (3,):
        raise ValueError(f"velocity must have shape (3,), got {v3.shape}")
    g = lorentz_gamma(v3)
    L = np.zeros(v3.shape[:-1] + (4, 4))
    L[..., 0, 0] = g
    L[..., 0, 1:] = L[..., 1:, 0] = -g[..., None] * v3
    L[..., 1:, 1:] = _I3 + _mat(g * g / (1.0 + g)) * _outer(v3, v3)
    return lorentz_matrix(L, proper=True)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products a (x) b over the leading axes."""
    return a[..., :, None] * b[..., None, :]


def _mat(x) -> np.ndarray:
    """Per-sample scalars (...) as (..., 1, 1), to scale a stack of matrices."""
    return np.asarray(x)[..., None, None]


def _standard_boost_matrix(p0, pv, m):
    """Standard boosts L_p for energies p0 (...), spatial momenta pv (..., 3)
    and masses m (a scalar or (...)), shape (..., 4, 4), in the dtype of pv.

    Column 0 is p/m, and the spatial block is I + pvec (x) pvec / (m (m + p^0));
    the matrix is symmetric.
    """
    L = np.zeros(pv.shape[:-1] + (4, 4), dtype=pv.dtype)
    L[..., 0, 0] = p0 / m
    L[..., 0, 1:] = L[..., 1:, 0] = pv / np.asarray(m)[..., None]
    L[..., 1:, 1:] = _I3 + _outer(pv, pv) / _mat(m * (m + p0))
    return L


def standard_boost(p4: np.ndarray, m: float) -> np.ndarray:
    """Boosts L_p taking the rest four-momentum (m, 0, 0, 0) to p, for
    four-momenta of shape (..., 4); shape (..., 4, 4).

    Column 0 equals p/m; note L_p = boost_from_velocity(-pvec/p^0): the two
    constructors use opposite sign conventions for the velocity argument.
    """
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    return lorentz_matrix(_standard_boost_matrix(p4[..., 0], p4[..., 1:], m), proper=True)


def wigner_rotation(L: np.ndarray, p4: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Wigner rotations R(L, p) = L_{Lp}^{-1} L L_p by direct matrix products,
    for transformations L of shape (..., 4, 4), four-momenta p4 of shape
    (..., 4) and masses m (a scalar or (...)), broadcast against each other
    over the leading axes; a single L and a single four-momentum is the
    n = 1 case.

    Composing the three factors involves entries of order (p^0/m)^2 that
    cancel down to a rotation, so the products run in extended precision
    (a standard boost is symmetric, so its inverse is g L_p g: the same
    matrix with the time row and column negated off the diagonal), and both
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
    md = np.asarray(m, dtype=np.longdouble)
    Lp = (Ld @ p4d[..., None])[..., 0]
    Q = np.stack(np.broadcast_arrays(p4d[..., 1:], Lp[..., 1:]))
    q0 = np.sqrt(md * md + np.einsum("...i,...i->...", Q, Q))
    B_in, B_out = _standard_boost_matrix(q0, Q, md)
    B_out[..., 0, 1:] *= -1
    B_out[..., 1:, 0] *= -1
    R4 = np.asarray(B_out @ Ld @ B_in, dtype=float)
    return R4[..., 1:, 1:].copy(), R4


def wigner_rotation_closed(v3: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Closed-form Wigner rotations for pure boosts of velocities v3 (..., 3)
    acting on four-momenta p4 (..., 4); shape (..., 3, 3).

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
    g, p0, pv = _mat(lorentz_gamma(v3)), _mat(p4[..., 0]), p4[..., 1:]
    a = m + p0
    vp = _mat(np.vecdot(v3, pv))
    b = m + g * (p0 - vp)
    return (_I3
            + ((1.0 - g) / (a * b)) * _outer(pv, pv)
            + (g * g * (m - p0) / (b * (1.0 + g))) * _outer(v3, v3)
            + (g / b) * _outer(pv, v3)
            + (g / b) * (2.0 * g * vp / (a * (1.0 + g)) - 1.0) * _outer(v3, pv))


def rotation_angle(R3: np.ndarray) -> np.ndarray:
    """Angles arccos((tr R - 1) / 2) of rotations R of shape (..., 3, 3); the
    cosine is clipped to [-1, 1], so rounding past 0 or pi gives no NaN."""
    return np.arccos(np.clip((np.trace(R3, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))


#: sigma_mu = (I, sigma_1, sigma_2, sigma_3), shape (4, 2, 2).
_SIGMA4 = np.concatenate([_I2[None], PAULI])
#: Row 4 mu + nu, column 4 X + 2 a + b: (sigma_mu sigma_X sigma_nu)_{ab}.
_LIFT = np.einsum("mab,xbc,ncd->mnxad", _SIGMA4, _SIGMA4, _SIGMA4).reshape(16, 16)


def _sl2c_lift(L: np.ndarray) -> np.ndarray:
    """SL(2,C) elements A with A X(x) A^+ = X(Lx), X(x) = x^mu sigma_mu, for
    proper orthochronous float matrices L of shape (..., 4, 4) (validated by
    the caller); shape (..., 2, 2).

    Each M_X = sum_{mu nu} L^mu_nu sigma_mu X sigma_nu equals 2 c A with
    c = tr(A^+ X), for X in (I, sigma_1, sigma_2, sigma_3).  M_I vanishes at
    half-turns, so the M_X holding the largest entry is used.  Dividing by 2c
    takes |c|^2 = tr(X M_X) / 2 and only the phase of c^2 = det(M_X) / 4: the
    determinant cancels down from entries of order gamma^2 to order gamma, so
    its modulus would carry a relative error of order gamma eps.  For L = I
    every step is exact, so A(I) = I exactly.  The determinant, its modulus
    and the division by it are written in real arithmetic, rounded as the
    complex scalar operations are; complex array products would fuse
    multiply-adds and round differently.

    Sign rule: with A = c0 I - i w.sigma, Re c0 > 0; at Re c0 = 0 (where
    Re w != 0, since c0^2 + w.w = 1) the first nonzero component of Re w is
    positive.  A rotation by theta about n has c0 = cos(theta/2) and
    w = sin(theta/2) n, so a half-turn lifts to -i n.sigma with the first
    nonzero component of n positive.
    """
    batch = L.shape[:-2]
    M = (L.reshape(-1, 1, 16) @ _LIFT).reshape(-1, 4, 2, 2)
    k = np.abs(M).reshape(-1, 16).argmax(axis=-1) // 4
    Mk = M[np.arange(len(M)), k]
    # (a d, b c) as real products, then det = a d - b c
    parts = Mk.view(float).reshape(-1, 2, 2, 2)  # row, column, (re, im)
    x, y = parts[:, 0], parts[:, 1, ::-1]  # (a, b) and (d, c)
    re = x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1]
    im = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]
    det_re, det_im = re[:, 0] - re[:, 1], im[:, 0] - im[:, 1]
    tr = _SIGMA4[k] @ Mk
    scale = 2.0 * (tr[:, 0, 0].real + tr[:, 1, 1].real)
    inv_abs = 1.0 / np.hypot(det_re, det_im)
    c2 = np.empty(len(M), dtype=complex)
    c2.real, c2.imag = scale * det_re * inv_abs, scale * det_im * inv_abs
    A = Mk / np.sqrt(c2)[:, None, None]
    key = A[:, 0, 0].real + A[:, 1, 1].real
    if not key.all():
        a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
        for tie in (-(b + c).imag, (c - b).real, (d - a).imag):
            key = np.where(key == 0.0, tie, key)
    np.negative(A, out=A, where=(key < 0.0)[:, None, None])
    return A.reshape(batch + (2, 2))


def wigner_d(L: np.ndarray, p4: np.ndarray, q4: np.ndarray, m: float) -> np.ndarray:
    """SU(2) Wigner matrices D(R(L, p)) for a proper orthochronous L,
    on-shell four-momenta p4 (..., 4) and their images q4 (..., 4), with
    qvec = (L p)vec and q^0 on the shell; shape (..., 2, 2).

    D is the SL(2,C) product W = A(q)^{-1} A(L) A(p), with A(L) the lift
    that `bispinor_rep` uses and, for k on the shell,

        A(k) = (m + k^0 + kvec.sigma) / sqrt(2m (m + k^0)),
        A(k)^{-1} = (m + k^0 - kvec.sigma) / sqrt(2m (m + k^0)).

    It is the element the amplitude relation D^T = (eps vbar(q) S(L) v(p))^{-1}
    defines, sign included.  The amplitude factors as v^eps(p) =
    [A(p); eps A(p)^{-1}] sigma_2 / sqrt(2), and S(L) = diag(A(L), (A(L)^+)^{-1});
    with A(p), A(q) hermitian and W unitary,

        eps vbar(q) S(L) v(p) = sigma_2 (W + (W^+)^{-1}) sigma_2 / 2 = sigma_2 W sigma_2,
        D^T = (sigma_2 W sigma_2)^{-1} = sigma_2 W^{-1} sigma_2,
        D = sigma_2 W^{-T} sigma_2 = W        (sigma_2 W^T sigma_2 = W^{-1} on SU(2)),

    for either energy sign, so D carries the double-cover sign of S(L) and
    takes no eps.  Writing x^0 I + xvec.sigma = x^mu sigma_mu, D is bilinear
    in the real components b = (m + q^0, -qvec) / sqrt(2m (m + q^0)) and
    a = (m + p^0, pvec) / sqrt(2m (m + p^0)):

        D = sum_{mu nu} b_mu a_nu sigma_mu A(L) sigma_nu,

    which is one real matrix product of the (n, 16) outer products b (x) a
    with the 16 matrices sigma_mu A(L) sigma_nu.  A(q)^{-1} has unit
    determinant only when q^0 is on the shell of qvec.
    """
    m = check_mass(m)
    L = lorentz_matrix(L, proper=True)
    p4 = np.asarray(p4, dtype=float)
    batch = p4.shape[:-1]
    p4, q4 = p4.reshape(-1, 4), np.asarray(q4, dtype=float).reshape(-1, 4)
    a = np.empty((4, len(p4)))  # one row per sigma component
    a[0], a[1:] = m + p4[:, 0], p4[:, 1:].T
    b = np.empty_like(a)
    b[0], b[1:] = m + q4[:, 0], -q4[:, 1:].T
    a /= np.sqrt(2.0 * m * a[0])
    b /= np.sqrt(2.0 * m * b[0])
    sandwich = np.einsum("mij,jk,nkl->mnil", _SIGMA4, _sl2c_lift(L), _SIGMA4)
    D = (b[:, None] * a[None]).reshape(16, -1).T @ sandwich.reshape(16, 4).view(float)
    return D.view(complex).reshape(batch + (2, 2))


def su2_from_so3(R3: np.ndarray) -> np.ndarray:
    """SU(2) elements D covering rotations R of shape (..., 3, 3), with
    D (sigma.a) D^+ = (R a).sigma; shape (..., 2, 2).

    D is the closed-form lift of diag(1, R), so tr D >= 0, and a half-turn
    about n lifts to -i n.sigma with the first nonzero component of n
    positive (see `_sl2c_lift`).  A matrix with a non-finite entry, or that
    is not a proper rotation to 1e-10, is refused, naming the first such
    sample of a stack.
    """
    R3 = np.asarray(R3, dtype=float)
    if R3.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must have shape (3, 3), got {R3.shape}")
    R, checks = R3, []
    if not np.isfinite(R3).all():
        # Non-finite samples are checked as the identity, so the gates below
        # raise no warning; a NaN, for which they are False, is refused here.
        finite = np.isfinite(R3).all(axis=(-2, -1))
        R = np.where(finite[..., None, None], R3, _I3)
        checks.append((~finite, lambda i: "matrix entries must be finite"))
    bad = ((np.abs(np.swapaxes(R, -1, -2) @ R - _I3).max(axis=(-2, -1)) >= 1e-10)
           | (np.linalg.det(R) <= 0.0))
    refuse_first(*checks, (bad, lambda i: "matrix is not a proper rotation"))
    return _sl2c_lift(_rotation4(R3))


def _rotation4(R3: np.ndarray) -> np.ndarray:
    """diag(1, R) for rotations R of shape (..., 3, 3)."""
    L = np.zeros(R3.shape[:-2] + (4, 4))
    L[..., 0, 0] = 1.0
    L[..., 1:, 1:] = R3
    return L


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
    from scipy.linalg import expm  # slow to import; only these two references need it

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
    from scipy.linalg import expm

    omega = check_generator_params(omega)
    return expm(0.5j * np.einsum("ab,abmn->mn", omega, SIGMA))


def bispinor_rep(L: np.ndarray) -> np.ndarray:
    """Finite bispinor transformations S(L) = diag(A, (A^+)^{-1}) for proper
    orthochronous L of shape (..., 4, 4), with A the closed-form SL(2,C) lift
    of L; shape (..., 4, 4).

    The branch follows the lift's sign rule (Re tr A >= 0), so S(I) = +I.
    The inverse satisfies S^{-1} = gamma^0 S^+ gamma^0.
    """
    A = _sl2c_lift(lorentz_matrix(L, proper=True))
    S = np.zeros(A.shape[:-2] + (4, 4), dtype=complex)
    S[..., :2, :2] = A
    # (A^+)^{-1} = conj([[d, -c], [-b, a]]) since det A = 1
    S[..., 2, 2], S[..., 3, 3] = A[..., 1, 1].conj(), A[..., 0, 0].conj()
    S[..., 2, 3], S[..., 3, 2] = -A[..., 1, 0].conj(), -A[..., 0, 1].conj()
    return S


def bispinor_inverse(S: np.ndarray) -> np.ndarray:
    """Inverses of bispinor transformations (..., 4, 4) via S^{-1} = gamma^0 S^+ gamma^0."""
    return stack_matmul(matmul_stack(GAMMA0, np.swapaxes(np.asarray(S).conj(), -1, -2)), GAMMA0)


# ---------------------------------------------------------------------------
# Random samples.  Every sample kind is made of standard normals only: a kind
# has a width, a sample takes that many normals, and the batch-first builders
# read them as columns.  A sweep draws a whole chunk of samples in one call;
# a scalar sampler is the n = 1 case, one standard_normal(width) call.
# ---------------------------------------------------------------------------

#: Widths of a point uniform in the unit ball (five normals, see
#: `_ball_points`), a Haar-random rotation (a normal quaternion, scalar last,
#: as scipy's Rotation.random takes it) and a `random_lorentz` sample
#: (rotation, then velocity).
BALL, ROTATION = 5, 4
LORENTZ = ROTATION + BALL


def _ball_points(g: np.ndarray, radius: float) -> np.ndarray:
    """Points uniform in the ball |x| <= radius from `BALL` draws g (..., 5):
    radius g[:3] / |g|, the first three of five standard normals over the
    norm of all five (Voelker, Gosmann & Stewart 2017)."""
    return (radius / np.sqrt(np.vecdot(g, g)))[..., None] * g[..., :3]


def momenta_from_draws(d: np.ndarray, m: float, pmax_over_m: float) -> np.ndarray:
    """On-shell four-momenta (..., 4) from `BALL` draws d (..., 5), with
    pvec uniform in the ball |pvec| <= m pmax_over_m."""
    return on_shell(m, _ball_points(d, m * pmax_over_m))


def velocities_from_draws(d: np.ndarray, vmax: float) -> np.ndarray:
    """Velocities (..., 3) uniform in the ball |v| <= vmax from `BALL` draws
    d (..., 5), for 0 < vmax <= VMAX_HARD."""
    if not 0.0 < vmax <= VMAX_HARD:
        raise ValueError(f"vmax must lie in (0, {VMAX_HARD}], got {vmax}")
    return _ball_points(d, vmax)


def rotations_from_draws(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from `ROTATION` draws (..., 4).

    q = (x, y, z, w) is a quaternion with its scalar last.  It is divided by
    its norm, summed left to right, and mapped by the standard entries; both
    steps keep the operation order of scipy's Rotation.from_quat(q).as_matrix(),
    so the matrices agree with it bit for bit.
    """
    q = np.asarray(q, dtype=float)
    q = q / np.sqrt(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1]
                    + q[..., 2] * q[..., 2] + q[..., 3] * q[..., 3])[..., None]
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.stack([x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                     2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                     2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
                    axis=-1).reshape(q.shape[:-1] + (3, 3))


def lorentz_from_draws(d: np.ndarray, vmax: float) -> np.ndarray:
    """Transformations boost x rotation (..., 4, 4) from `LORENTZ` draws d (..., 9)."""
    R = _rotation4(rotations_from_draws(d[..., :4]))
    return boost_from_velocity(velocities_from_draws(d[..., 4:], vmax)) @ R


def random_momentum(rng: np.random.Generator, m: float, pmax_over_m: float = 10.0) -> np.ndarray:
    """On-shell four-momentum with pvec = m u, u uniform in the ball |u| <= pmax_over_m."""
    return momenta_from_draws(rng.standard_normal(BALL), m, pmax_over_m)


def random_velocity(rng: np.random.Generator, vmax: float = 0.99) -> np.ndarray:
    """Velocity uniform in the ball |v| <= vmax (vmax capped at 0.999999)."""
    return velocities_from_draws(rng.standard_normal(BALL), vmax)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random rotation matrix."""
    return rotations_from_draws(rng.standard_normal(ROTATION))


def random_lorentz(rng: np.random.Generator, vmax: float = 0.99) -> np.ndarray:
    """Random proper orthochronous transformation, sampled as boost x rotation."""
    return lorentz_from_draws(rng.standard_normal(LORENTZ), vmax)
