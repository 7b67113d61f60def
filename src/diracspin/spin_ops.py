"""Momentum-space matrix actions of spin and Pauli-Lubanski operators.

Index convention (fixed here once, reused everywhere): an operator acting on
sharp-momentum basis kets as O |a> = sum_b M_{ab} |b> is stored as the matrix
M with row index a, i.e. exactly as the summation is written.  Acting on a
column of expansion coefficients (or on a wavefunction, which carries the
same index) therefore uses the transpose; `column_action` performs that map.
That is why the spin-basis matrices appear with transposed Pauli matrices:
as stored, spin components obey [S_i, S_j] = -i eps_{ijk} S_k, while their
column actions obey the usual [S_i, S_j] = +i eps_{ijk} S_k.

All matrices are per mass shell: eps labels the energy sign and p is the
on-shell four-momentum, with operator eigenvalues P^mu -> eps p^mu.
"""
from __future__ import annotations

import numpy as np

from .amplitudes import amplitude, dirac_bar
from .clifford import ALPHA, GAMMA0, GAMMA5, GAMMA_GAMMA5, PAULI_T
from .lorentz import _mat, lorentz_gamma, wigner_rotation_closed
from .minkowski import (check_component, check_energy_sign, check_mass, contract, max_entry,
                        refuse_first)

_EYE2 = np.eye(2, dtype=complex)


def column_action(M: np.ndarray) -> np.ndarray:
    """Convert stored (ket-index) operator matrices (..., n, n) to their
    coefficient-column actions: each matrix transposed, the stack axes kept."""
    return np.swapaxes(M, -1, -2).copy()


def pl_covariant(mu: int, eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Pauli-Lubanski component W^mu on the covariant basis, for four-momenta
    (..., 4); shape (..., 4, 4):

        W^mu -> -(eps/2) (eps m gamma^mu + p^mu I) gamma^5.

    Contracting with p_mu gives a matrix that annihilates the amplitude
    columns (transversality P.W = 0).  A zero entry may be -0 where the
    product with gamma^5 gave +0.
    """
    mu = check_component(mu, 4, "mu")
    eps = check_energy_sign(eps)
    check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    return -(eps / 2.0) * (eps * m * GAMMA_GAMMA5[mu] + _mat(p4[..., mu]) * GAMMA5)


def pl_spin(mu: int, eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Pauli-Lubanski component W^mu on the spin basis, for four-momenta
    (..., 4) of one mass m; shape (..., 2, 2):

        W^0 -> (eps/2) pvec.sigma^T
        W^k -> (eps/2) (m sigma^T_k + p_k (pvec.sigma^T)/(m + p^0)),

    which equals the basis contraction eps vbar W^mu_cov v and also
    -(m/2) eps vbar gamma^mu gamma^5 v.
    """
    mu = check_component(mu, 4, "mu")
    eps = check_energy_sign(eps)
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    p0, pv = p4[..., 0], p4[..., 1:]
    pst = contract(pv, PAULI_T)
    if mu == 0:
        return (eps / 2.0) * pst
    k = mu - 1
    return (eps / 2.0) * (m * PAULI_T[k] + _mat(pv[..., k]) * pst / _mat(m + p0))


def spin_matrix(i: int) -> np.ndarray:
    """Spin component S_i on the spin basis: sigma^T_i / 2, independent of p and eps."""
    return PAULI_T[check_component(i, 3, "i")] / 2.0


#: The spin triple (S_1, S_2, S_3), shape (3, 2, 2).
_SPIN = PAULI_T / 2.0


def spin_from_pl(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Spin components rebuilt from the Pauli-Lubanski matrices,

        S_i = (1/m) (eps W_i - eps W^0 p_i / (p^0 + m)),

    using the shell eigenvalues P -> eps p (so E P^0 -> p^0 and
    E Wvec -> eps Wvec).  Returns shape (..., 3, 2, 2) for four-momenta
    (..., 4); equals sigma^T/2 for both energy signs.
    """
    eps = check_energy_sign(eps)
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    w0 = pl_spin(0, eps, p4, m)
    return np.stack([(eps * pl_spin(i + 1, eps, p4, m)
                      - eps * w0 * _mat(p4[..., i + 1]) / _mat(p4[..., 0] + m)) / m
                     for i in range(3)], axis=-3)


def casimir_spin(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Spin-basis matrix of -W.W/m^2, shape (..., 2, 2); equals s(s+1) I = (3/4) I."""
    check_mass(m)
    w = [pl_spin(mu, eps, p4, m) for mu in range(4)]
    return -(w[0] @ w[0] - sum(wk @ wk for wk in w[1:])) / (m * m)


def spin_covariant(i: int, eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Spin component S_i on the covariant basis, for four-momenta (..., 4);
    shape (..., 4, 4),

        S_i -> -(eps/2) (gamma^i + eps p_i (I - eps gamma^0)/(p^0 + m)) gamma^5,

    obtained from the Pauli-Lubanski actions with shell eigenvalues; it
    contracts to the spin-basis matrix, eps vbar S_i v = sigma^T_i / 2,
    for both energy signs.  As in `pl_covariant`, gamma^5 is folded into
    the fixed factors, and a zero entry may be -0 where the product gave +0.
    """
    i = check_component(i, 3, "i")
    eps = check_energy_sign(eps)
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    return -(eps / 2.0) * (GAMMA_GAMMA5[i + 1] + eps * _mat(p4[..., i + 1])
                           * (GAMMA5 - eps * GAMMA_GAMMA5[0]) / _mat(p4[..., 0] + m))


def hamiltonian_covariant(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Free Dirac Hamiltonian on the covariant basis, H = eps pvec.alphavec + m beta
    (alpha_k = gamma^0 gamma^k, beta = gamma^0), for four-momenta (..., 4); shape (..., 4, 4).

    Squares to (p^0)^2 I.
    """
    eps = check_energy_sign(eps)
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    return eps * contract(p4[..., 1:], ALPHA) + m * GAMMA0


def fw_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Foldy-Wouthuysen diagonalization check: max entry of
    eps vbar H v - eps p^0 I, which vanishes identically; per four-momentum."""
    v = amplitude(eps, p4, m)
    h = hamiltonian_covariant(eps, p4, m)
    p4 = np.asarray(p4, dtype=float)
    return max_entry(eps * dirac_bar(v) @ h @ v - eps * _mat(p4[..., 0]) * _EYE2)


def spin_transform_closed(v3: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Spin matrices seen from a frame boosted with velocity v, closed form,
    for velocities (..., 3) and four-momenta (..., 4).

    With gamma the Lorentz factor of v, a = m + p^0, and
    b = m + gamma (p^0 - v.p):

        S'_i = S_i + p_i [ (1-gamma)(p.S) + gamma (m + p^0)(v.S) ] / (a b)
                   + v_i (gamma/b) [ gamma (m - p^0)(v.S)/(1+gamma)
                                     + 2 gamma (v.p)(p.S)/(a (1+gamma)) - p.S ]

    evaluated on the positive-energy shell with the S_i of spin_matrix.
    Componentwise equal to applying the Wigner rotation to the spin triple
    (`spin_transform_wigner`), though a different formula: this expansion
    has terms of order gamma p^0/m that cancel, the half-angle form of
    `lorentz.wigner_rotation_closed` has none.  Returns shape (..., 3, 2, 2).
    A sample whose S' overflows float64 is refused, naming the first one.
    """
    v3 = np.asarray(v3, dtype=float)
    p4 = np.asarray(p4, dtype=float)
    m = check_mass(m)
    g, p0, pv = _mat(lorentz_gamma(v3)), _mat(p4[..., 0]), p4[..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        a = m + p0
        vp = _mat(np.vecdot(v3, pv))
        b = m + g * (p0 - vp)
        p_dot_s = contract(pv, _SPIN)
        v_dot_s = contract(v3, _SPIN)
        p_term = ((1.0 - g) * p_dot_s + g * (m + p0) * v_dot_s) / (a * b)
        v_term = (g / b) * (g * (m - p0) * v_dot_s / (1.0 + g)
                            + 2.0 * g * vp * p_dot_s / (a * (1.0 + g))
                            - p_dot_s)
        out = _SPIN + _mat(pv) * p_term[..., None, :, :] + _mat(v3) * v_term[..., None, :, :]
    refuse_first((~np.isfinite(out).all(axis=(-3, -2, -1)),
                  lambda i: f"the transformed spin S' overflows float64 for mass = {m!r}"))
    return out


def spin_transform_wigner(v3: np.ndarray, p4: np.ndarray, m: float) -> np.ndarray:
    """Spin matrices transformed by rotating the triple with R(v, p), for
    velocities (..., 3) and four-momenta (..., 4); shape (..., 3, 2, 2)."""
    R = wigner_rotation_closed(v3, p4, m)
    return contract(R, _SPIN)
