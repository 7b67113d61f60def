"""Lorentz transformations in the vector, SU(2), and bispinor realizations.

Covers velocity boosts, the standard boost taking the rest momentum to p,
Wigner rotations (the half-angle closed form, and any L through its boost x
rotation split), and the spinor double cover.  One closed-form map takes a proper
orthochronous L to the SL(2,C) element A(L) with A X(x) A^+ = X(Lx), where
X(x) = x^mu sigma_mu and sigma_mu = (I, sigma_1, sigma_2, sigma_3); the
SU(2) lift of a rotation, the bispinor S(L) = diag(A, (A^+)^{-1}) and the
Wigner matrix D = A(Lp)^{-1} A(L) A(p) (`wigner_d`) are all read off it.
The double-cover sign is fixed by Re tr A > 0 (see `_sl2c_lift` for the tie
at Re tr A = 0).

The kinematic kernels and the samplers' builders are batch-first (see
`minkowski`).
"""
from __future__ import annotations

import numpy as np

from .clifford import GAMMA0_ROWS, PAULI, monomial
from .minkowski import (check_mass, conj_gather, four_momentum_checks, is_proper_orthochronous,
                        lorentz_matrix, on_shell, refuse_first)

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3)

#: Largest velocity sampling radius (`check_vmax`): keeps the gamma factors
#: of a sweep's random boosts, and with them its condition numbers, bounded.
#: A velocity given directly needs only |v| < 1 (`lorentz_gamma`).
VMAX_HARD = 0.999999


def check_vmax(vmax: float) -> float:
    """Validate a velocity sampling radius, 0 < vmax <= VMAX_HARD."""
    if not 0.0 < vmax <= VMAX_HARD:  # a NaN fails this too
        raise ValueError(f"vmax must lie in (0, {VMAX_HARD}], got {vmax!r}")
    return vmax


def lorentz_gamma(v3: np.ndarray) -> np.ndarray:
    """Lorentz factor gamma = (1 - |v|^2)^(-1/2) for velocities v3 of shape
    (..., 3).

    This is the package's one speed check: a velocity with a non-finite
    entry, or with |v| >= 1 (|v|^2 overflowing included), is refused,
    naming the first such sample.
    """
    v3 = np.asarray(v3, dtype=float)
    with np.errstate(over="ignore"):  # refused below, not warned about
        b2 = np.vecdot(v3, v3)
    if not (b2 < 1.0).all():  # a NaN or inf entry fails this too
        refuse_first((~np.isfinite(v3).all(axis=-1), lambda i: "velocity must have finite entries"),
                     (~(b2 < 1.0), lambda i: (f"superluminal velocity: speed |v| = "
                                              f"{np.sqrt(b2.reshape(-1)[i]):.6g} >= 1")))
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
    return L


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products a (x) b over the leading axes."""
    return a[..., :, None] * b[..., None, :]


def _mat(x) -> np.ndarray:
    """Per-sample scalars (...) as (..., 1, 1), to scale a stack of matrices."""
    return np.asarray(x)[..., None, None]


def _standard_boost_matrix(p0, pv, m):
    """Standard boosts L_p for energies p0 (...), spatial momenta pv (..., 3)
    and one mass m, shape (..., 4, 4), in the dtype of pv.

    Column 0 is p/m, and the spatial block is I + pvec (x) pvec / (m (m + p^0));
    the matrix is symmetric.
    """
    L = np.zeros(pv.shape[:-1] + (4, 4), dtype=pv.dtype)
    L[..., 0, 0] = p0 / m
    L[..., 0, 1:] = L[..., 1:, 0] = pv / m
    L[..., 1:, 1:] = _I3 + _outer(pv, pv) / _mat(m * (m + p0))
    return L


def standard_boost(p4: np.ndarray, m: float) -> np.ndarray:
    """Boosts L_p taking the rest four-momentum (m, 0, 0, 0) to p, for
    four-momenta of shape (..., 4); shape (..., 4, 4).

    Column 0 equals p/m; note L_p = boost_from_velocity(-pvec/p^0): the two
    constructors use opposite sign conventions for the velocity argument.

    From |p|/m of a few 10^15 (near 2^53) on, the stored spatial block I + pvec (x) pvec /
    (m (m + p^0)) of a boost along a generic direction has lost its identity
    part to rounding, so its rotation part is gone and the matrix is no
    longer recognizably proper orthochronous; such a boost is refused with
    that reason, naming the first such sample.  So is, up front, a sample
    whose p^0/m, m (m + p^0), pvec/m or pvec (x) pvec / (m (m + p^0))
    overflows.
    """
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    p0, pv = p4[..., 0], p4[..., 1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the largest entries of column 0 and of the spatial block, formed
        # as the build forms them
        pmax = np.abs(pv).max(axis=-1)
        ratio, denom = p0 / m, m * (m + p0)
        spatial = (pmax / m, pmax * pmax / denom)
    # a non-finite sample or one with p^0 <= 0 is refused as a matrix below
    valid = np.isfinite(p4).all(axis=-1) & (p0 > 0.0)
    refuse_first((valid & ~np.isfinite(ratio),
                  lambda i: (f"p4 energy {float(np.ravel(p0)[i])!r} overflows p^0/m "
                             f"for mass = {m!r}")),
                 (valid & ~np.isfinite(denom),
                  lambda i: (f"p4 energy {float(np.ravel(p0)[i])!r} overflows m (m + p^0) "
                             f"for mass = {m!r}")),
                 (valid & ~(np.isfinite(spatial[0]) & np.isfinite(spatial[1])),
                  lambda i: (f"p4 momentum entries up to {float(np.ravel(pmax)[i])!r} overflow "
                             f"pvec/m or pvec (x) pvec / (m (m + p^0)) for mass = {m!r}")))
    with np.errstate(all="ignore"):  # only samples refused below can overflow here
        L = _standard_boost_matrix(p0, pv, m)
    L = lorentz_matrix(L)
    # p^0 <= 0 gives a Lorentz matrix that is not orthochronous at all
    refuse_first((~(L[..., 0, 0] > 0.0), lambda i: "matrix is not proper orthochronous"),
                 (~is_proper_orthochronous(L),
                  lambda i: (f"|p|/m = {np.linalg.norm(p4[..., 1:].reshape(-1, 3)[i]) / m:.3g} is "
                             f"beyond the scale (about 2^53) where rounding loses the standard "
                             f"boost's rotation part")))
    return L


def wigner_rotation(L: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Wigner rotations R(L, p) = L_{Lp}^{-1} L L_p for transformations L
    (..., 4, 4) and four-momenta p4 (..., 4) of one mass m, broadcast against
    each other over the leading axes; shape (..., 3, 3).

    With L = boost_from_velocity(v) diag(1, R0) (`_boost_rotation_split`), a
    rotation is its own Wigner rotation and R0 L_p R0^T = L_{R0 p}, so
    R(L, p) = R(boost_from_velocity(v), (p^0, R0 pvec)) R0, the first factor
    in the half-angle form of `wigner_rotation_closed`.  No product of boosts
    is formed, so nothing of order (p^0/m)^2 cancels: R carries L's own
    rounding, of order L^0_0 eps, at any momentum.  No BLAS call is made.

    A mass that `check_mass` refuses is refused first, then a sample with a
    non-finite entry of L or p4, p^0 <= 0 or L^0_0 < 1, naming the first one.
    """
    m = check_mass(m)
    L, p4 = np.asarray(L, dtype=float), np.asarray(p4, dtype=float)
    if not (np.isfinite(L).all() and np.isfinite(p4).all() and (p4[..., 0] > 0.0).all()
            and (L[..., 0, 0] >= 1.0).all()):
        # the slow path: find and name the first bad sample of the broadcast batch
        batch = np.broadcast_shapes(L.shape[:-2], p4.shape[:-1])
        g = np.broadcast_to(L[..., 0, 0], batch)
        refuse_first(*four_momentum_checks("p4", np.broadcast_to(p4, batch + (4,))),
                     (~np.isfinite(L).all(axis=(-2, -1)), lambda i: "L must have finite entries"),
                     (~(g >= 1.0), lambda i: f"L needs L^0_0 >= 1, got {float(g.flat[i])!r}"))
    g, v, R0 = _boost_rotation_split(L)
    q = R0[..., 0] * p4[..., None, 1] + R0[..., 1] * p4[..., None, 2] + R0[..., 2] * p4[..., None, 3]
    R = _half_angle_rotation(g, v, p4[..., 0], q, m)
    return (R[..., :, 0, None] * R0[..., None, 0, :] + R[..., :, 1, None] * R0[..., None, 1, :]
            + R[..., :, 2, None] * R0[..., None, 2, :])


def _boost_rotation_split(L: np.ndarray) -> tuple:
    """(gamma, v, R0) with L = boost_from_velocity(v) diag(1, R0), read off L's
    entries gamma = L^0_0 (not recomputed from v: 1 - |v|^2 cancels), u = L[1:, 0]
    and w = L[0, 1:]: v = -u / gamma and R0 = L[1:, 1:] - u w^T / (1 + gamma)."""
    g, u = L[..., 0, 0], L[..., 1:, 0]
    return g, -u / g[..., None], L[..., 1:, 1:] - _outer(u / (1.0 + g)[..., None], L[..., 0, 1:])


def wigner_rotation_closed(v3: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Closed-form Wigner rotations R(boost_from_velocity(v), p) for pure
    boosts of velocities v3 (..., 3) acting on four-momenta p4 (..., 4);
    shape (..., 3, 3).  `boost_from_velocity(v)` is the active boost by -v.

    The half-angle (Rodrigues) form of O'Donnell & Visser, Eur. J. Phys. 32,
    1033 (2011), arXiv:1102.2001, with gamma the Lorentz factor of v:

        w = v x p,   D = (p^0 + m)(1 + 1/gamma) - v.p,   t = w / D,
        c = 2 / (1 + |t|^2),   R = I + c ([t]x + t t^T - |t|^2 I),

    a rotation about v x p by theta with tan(theta/2) = |t|.  D is positive:
    D >= m + (p^0 + m)/gamma + (p^0 - |v||pvec|), and p^0 > |pvec|, |v| < 1.
    That same bound keeps the one subtraction in D from cancelling by more
    than a factor gamma + 1, so t carries a relative error of order gamma
    eps at worst.  Every entry of R is then built from bounded terms
    (|c t_i| <= 1, c |t|^2 < 2): nothing of order gamma p^0 / m cancels
    down to a rotation, R is orthogonal to a few eps for any rounded t, and
    v parallel to p (w = 0) gives R = I exactly.  The entries are plain
    float products of the components; the kernel makes no BLAS call.
    """
    v3, p4 = np.asarray(v3, dtype=float), np.asarray(p4, dtype=float)
    m = check_mass(m)
    return _half_angle_rotation(lorentz_gamma(v3), v3, p4[..., 0], p4[..., 1:], m)


def _half_angle_rotation(g, v3, p0, pv, m):
    """`wigner_rotation_closed` for valid Lorentz factors g, velocities v3,
    energies p0 and spatial momenta pv, broadcast together."""
    vx, vy, vz = v3[..., 0], v3[..., 1], v3[..., 2]
    px, py, pz = pv[..., 0], pv[..., 1], pv[..., 2]
    d = (p0 + m) * (1.0 + 1.0 / g) - (vx * px + vy * py + vz * pz)
    tx, ty, tz = (vy * pz - vz * py) / d, (vz * px - vx * pz) / d, (vx * py - vy * px) / d
    t2 = tx * tx + ty * ty + tz * tz
    c = 2.0 / (1.0 + t2)
    xy, xz, yz = tx * ty, tx * tz, ty * tz
    R = np.empty(t2.shape + (3, 3))
    R[..., 0, 0] = 1.0 + c * (tx * tx - t2)
    R[..., 1, 1] = 1.0 + c * (ty * ty - t2)
    R[..., 2, 2] = 1.0 + c * (tz * tz - t2)
    R[..., 0, 1], R[..., 1, 0] = c * (xy - tz), c * (xy + tz)
    R[..., 0, 2], R[..., 2, 0] = c * (xz + ty), c * (xz - ty)
    R[..., 1, 2], R[..., 2, 1] = c * (yz - tx), c * (yz + tx)
    return R


def rotation_angle(R3: np.ndarray) -> np.ndarray:
    """Angles atan2(|a| / 2, (tr R - 1) / 2) of rotations R of shape
    (..., 3, 3), with a = (R_21 - R_12, R_02 - R_20, R_10 - R_01) = 2 sin(theta) n.

    Both arguments carry absolute errors of order eps, so the angle is
    accurate to a few eps relative at every scale, where arccos of the
    cosine alone loses digits at small angles (and gives 0 below ~1e-8)."""
    R3 = np.asarray(R3, dtype=float)
    ax = R3[..., 2, 1] - R3[..., 1, 2]
    ay = R3[..., 0, 2] - R3[..., 2, 0]
    az = R3[..., 1, 0] - R3[..., 0, 1]
    trace = R3[..., 0, 0] + R3[..., 1, 1] + R3[..., 2, 2]
    return np.arctan2(np.sqrt(ax * ax + ay * ay + az * az) / 2.0, (trace - 1.0) / 2.0)


#: sigma_mu = (I, sigma_1, sigma_2, sigma_3), shape (4, 2, 2).
_SIGMA4 = np.concatenate([_I2[None], PAULI])
#: Row 4 mu + nu, column 4 X + 2 a + b: (sigma_mu sigma_X sigma_nu)_{ab}.
_LIFT = np.einsum("mab,xbc,ncd->mnxad", _SIGMA4, _SIGMA4, _SIGMA4).reshape(16, 16)


def _trace_table() -> tuple[np.ndarray, np.ndarray]:
    """Positions and signs, both (4, 2), of Re (sigma_k M)_{aa} in the
    (re, im) view of a 2x2 complex M, (M_00, M_01, M_10, M_11) as 8 floats:
    with sigma_k's row a holding the phase z in column c (`monomial`),
    Re (z M_{ca}) is z.re M_{ca}.re for a real z and -z.im M_{ca}.im for an
    imaginary one."""
    columns, phases = monomial(_SIGMA4)
    real = phases.imag == 0
    positions = 2 * (2 * columns + np.arange(2)) + ~real
    return positions, np.where(real, phases.real, -phases.imag)


_TRACE_POSITIONS, _TRACE_SIGNS = _trace_table()


def _sigma_trace(k: np.ndarray, Mk: np.ndarray) -> np.ndarray:
    """Re tr(sigma_k M_k) for indices k (n,) and C-contiguous matrices M_k
    (n, 2, 2), shape (n,): each diagonal entry of sigma_k M_k is one
    component of M_k times a unit phase, read off `_trace_table`."""
    terms = Mk.view(float).take(8 * np.arange(len(k))[:, None] + _TRACE_POSITIONS[k])
    terms *= _TRACE_SIGNS[k]
    return terms[:, 0] + terms[:, 1]


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
    scale = 2.0 * _sigma_trace(k, Mk)
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

    The 16 matrices depend on L alone (`_wigner_sandwich`) and the product
    on the points alone (`_wigner_product`), so a caller transporting many
    grid blocks by one L builds them once.  A sample with a non-finite
    entry, with p^0 or q^0 not positive, or whose 2m (m + p^0) or
    2m (m + q^0) overflows is refused up front, naming the first such
    sample; one whose product still overflows (a tiny mass against a huge
    energy) is refused after it.
    """
    m = check_mass(m)
    sandwich = _wigner_sandwich(lorentz_matrix(L, proper=True))
    p4, q4 = np.asarray(p4, dtype=float), np.asarray(q4, dtype=float)
    refuse_first(*four_momentum_checks("p4", p4), *four_momentum_checks("q4", q4),
                 *(_norm_scale_check(name, k4, m) for name, k4 in (("p4", p4), ("q4", q4))))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        D = _wigner_product(sandwich, p4, q4, m)
    refuse_first((~np.isfinite(D).all(axis=(-2, -1)),
                  lambda i: f"the Wigner matrix overflows float64 for mass = {m!r}"))
    return D


def _norm_scale_check(name: str, k4: np.ndarray, m: float) -> tuple:
    """The `refuse_first` check that 2m (m + k^0), the square of the norm
    `_wigner_product` divides by, is finite, formed as it forms it."""
    k0 = k4[..., 0]
    with np.errstate(over="ignore"):
        scale = 2.0 * m * (m + k0)
    return (~np.isfinite(scale), lambda i: (f"{name} energy {float(np.ravel(k0)[i])!r} overflows "
                                            f"2m (m + {name[0]}^0) for mass = {m!r}"))


def _wigner_sandwich(L: np.ndarray) -> np.ndarray:
    """The per-transformation part of `wigner_d`: the 16 matrices
    sigma_mu A(L) sigma_nu for a proper orthochronous L (validated by the
    caller), as the real (16, 8) right factor of its product."""
    return np.einsum("mij,jk,nkl->mnil", _SIGMA4, _sl2c_lift(L), _SIGMA4).reshape(16, 4).view(float)


def _wigner_product(sandwich: np.ndarray, p4: np.ndarray, q4: np.ndarray, m: float) -> np.ndarray:
    """The per-point part of `wigner_d`: D for on-shell p4 (..., 4) and their
    images q4 (..., 4), from the factor of `_wigner_sandwich`; the inputs are
    taken as valid float arrays."""
    batch = p4.shape[:-1]
    p4, q4 = p4.reshape(-1, 4), q4.reshape(-1, 4)
    a = np.empty((4, len(p4)))  # one row per sigma component
    a[0], a[1:] = m + p4[:, 0], p4[:, 1:].T
    b = np.empty_like(a)
    b[0], b[1:] = m + q4[:, 0], -q4[:, 1:].T
    a /= np.sqrt(2.0 * m * a[0])
    b /= np.sqrt(2.0 * m * b[0])
    D = (b[:, None] * a[None]).reshape(16, -1).T @ sandwich
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


#: Row-major position in S of (gamma^0 S^+ gamma^0)_{ab}, conjugated:
#: S_{GAMMA0_ROWS[b], GAMMA0_ROWS[a]}.
_INVERSE_INDEX = 4 * GAMMA0_ROWS + GAMMA0_ROWS[:, None]


def bispinor_inverse(S: np.ndarray) -> np.ndarray:
    """Inverses of bispinor transformations (..., 4, 4) via S^{-1} = gamma^0 S^+ gamma^0,
    gathered (`_INVERSE_INDEX`)."""
    return conj_gather(S, _INVERSE_INDEX)


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
    d (..., 5), for a radius `check_vmax` accepts."""
    return _ball_points(d, check_vmax(vmax))


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
    """Velocity uniform in the ball |v| <= vmax, for a radius `check_vmax` accepts."""
    return velocities_from_draws(rng.standard_normal(BALL), vmax)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random rotation matrix."""
    return rotations_from_draws(rng.standard_normal(ROTATION))


def random_lorentz(rng: np.random.Generator, vmax: float = 0.99) -> np.ndarray:
    """Random proper orthochronous transformation, sampled as boost x rotation."""
    return lorentz_from_draws(rng.standard_normal(LORENTZ), vmax)
