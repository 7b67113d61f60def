"""Bispinor amplitudes on both mass shells and their algebraic identities.

The amplitude v^eps(p) is the 4x2 matrix of bispinor components of the
sharp-momentum basis states with energy sign eps.  Closed form:

    v^eps(p) = [ I + (p^0 I + pvec.sigma)/m       ]
               [ eps (I + (p^0 I - pvec.sigma)/m) ] sigma_2 / (2 sqrt(1 + p^0/m))

It satisfies vbar^eps' v^eps = eps delta_{eps eps'} I_2, v^eps vbar^eps =
eps Lambda_eps(p), and p_mu gamma^mu v^eps = eps m v^eps.  Under a finite
transformation the columns mix with the transposed SU(2) Wigner matrix:
S(L) v^eps(p) D^T(R(L, p)) = v^eps(Lp), where the transpose implements the
summation over the first index of D when kets are relabelled.
"""
from __future__ import annotations

import functools

import numpy as np

from .clifford import (ALPHA, GAMMA, GAMMA0_ROWS, GAMMA5, GAMMA_GAMMA5, PAULI, PAULI_T, column_tables,
                       energy_projector, slash)
from .lorentz import bispinor_rep, su2_from_so3, wigner_rotation
from .minkowski import (check_energy_sign, check_mass, conj_gather, contract, four_momentum_checks,
                        gather_columns, max_entry, parity_flip, refuse_first, row_blocks)


def amplitude(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Bispinor amplitudes v^eps(p) for four-momenta p4 of shape (..., 4),
    shape (..., 4, 2); a single four-momentum (shape (4,)) is the n = 1 case
    and gives one 4x2 matrix.  eps is one sign or an array of signs, one per
    four-momentum.

    The closed form written out entry by entry: with c = 1 + (p^0 + p_z)/m,
    d = 1 + (p^0 - p_z)/m and the sigma_2 column swap applied,

        v = pref [ (p_y + i p_x)/m           -i c             ]
                 [  i d                      (p_y - i p_x)/m  ]
                 [ -eps (p_y + i p_x)/m      -i eps d         ]
                 [  i eps c                  eps (-p_y + i p_x)/m ]

    with pref = 1 / (2 sqrt(1 + p^0/m)).  The p^0 given is used as is; a
    four-momentum with a non-finite entry, p^0 <= 0 or a p^0/m that
    overflows is refused up front, naming the first such sample.

    The entries are filled as contiguous planes of a (4, 2, ...) array
    (`_amplitude_planes`), so a batch result is a transposed view of it and
    not C-contiguous.
    """
    eps = check_energy_sign(eps)
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    p0 = p4[..., 0]
    # a finite p^0 overflows p^0/m only when m < 1
    if m < 1.0 or not (np.isfinite(p4).all() and (p0 > 0.0).all()):
        with np.errstate(over="ignore"):
            ratio = p0 / m
        refuse_first(*four_momentum_checks("p4", p4),
                     (~np.isfinite(ratio), lambda i: (f"p4 energy {float(np.ravel(p0)[i])!r} "
                                                      f"overflows p^0/m for mass = {m!r}")))
    v = _amplitude_planes(eps, p0, p4[..., 1:], m)
    return v.transpose(*range(2, v.ndim), 0, 1)


def _amplitude_planes(eps, p0: np.ndarray, pv: np.ndarray, m: float) -> np.ndarray:
    """The amplitudes of `amplitude` for energies p0 (...) and spatial
    momenta pv (..., 3), as planes: shape (4, 2, ...), entry (a, b) of
    sample n at [a, b, n].  eps and m are taken as valid."""
    pref = 1.0 / (2.0 * np.sqrt(1.0 + p0 / m))
    inv_m = 1.0 / m
    c = pref * (1.0 + (p0 + pv[..., 2]) * inv_m)
    d = pref * (1.0 + (p0 - pv[..., 2]) * inv_m)
    x = pref * (pv[..., 0] * inv_m)
    y = pref * (pv[..., 1] * inv_m)
    v = np.zeros((4, 2) + np.shape(p0), dtype=complex)
    re, im = v.real, v.imag
    re[0, 0], im[0, 0], im[0, 1] = y, x, -c
    im[1, 0], re[1, 1], im[1, 1] = d, y, -x
    re[2, 0], im[2, 0], im[2, 1] = -eps * y, -eps * x, -eps * d
    im[3, 0], re[3, 1], im[3, 1] = eps * c, -eps * y, eps * x
    return v


def dirac_bar(M: np.ndarray) -> np.ndarray:
    """Dirac adjoint Mbar = M^+ gamma^0 (shape (..., k, 4) for a (..., 4, k)
    input), gathered (`_bar_index`)."""
    M = np.asarray(M)
    return conj_gather(M, _bar_index(M.shape[-1]))


@functools.cache
def _bar_index(k: int) -> np.ndarray:
    """Row-major position in a 4 x k matrix M of (M^+ gamma^0)_{ja},
    conjugated: M_{GAMMA0_ROWS[a], j}; shape (k, 4)."""
    return k * GAMMA0_ROWS + np.arange(k)[:, None]


def weinberg_residual(L: np.ndarray, eps: int, p4: np.ndarray, m: float) -> float:
    """Max-entry residual of S(L) v^eps(p) D^T(R(L, p)) = v^eps(Lp), for
    transformations (..., 4, 4), signs and four-momenta (..., 4) broadcast
    together; shape (...).

    The SU(2) lift of the Wigner rotation is defined up to a global sign;
    the residual is evaluated for both signs and the smaller one returned.
    """
    L = np.asarray(L, dtype=float)
    R3, _ = wigner_rotation(L, p4, m)
    D = su2_from_so3(R3)
    moved = bispinor_rep(L) @ amplitude(eps, p4, m)
    target = amplitude(eps, (L @ np.asarray(p4, dtype=float)[..., None])[..., 0], m)
    return np.minimum(*(max_entry(moved @ np.swapaxes(sign * D, -1, -2) - target)
                        for sign in (1.0, -1.0)))


def orthogonality_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Max-entry residual of vbar^eps v^eps = eps I and vbar^-eps v^eps = 0,
    per four-momentum of a (..., 4) stack."""
    v = amplitude(eps, p4, m)
    # both bars in one (..., 4, 4) factor: rows 0-1 give the same shell, 2-3 the other
    products = dirac_bar(np.concatenate([v, amplitude(-eps, p4, m)], axis=-1)) @ v
    same = max_entry(products[..., :2, :] - eps * np.eye(2))
    cross = max_entry(products[..., 2:, :])
    return np.maximum(same, cross)


def projector_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Max-entry residual of v^eps vbar^eps = eps Lambda_eps(p), per four-momentum."""
    v = amplitude(eps, p4, m)
    return max_entry(v @ dirac_bar(v) - eps * energy_projector(eps, p4, m))


def dirac_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Max-entry residual of p_mu gamma^mu v^eps = eps m v^eps, divided by m,
    per four-momentum."""
    v = amplitude(eps, p4, m)
    return max_entry(slash(p4) @ v - eps * m * v) / m


def parity_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Max-entry residual of eps v^eps(p) = gamma^0 v^eps(p^pi) (unit parity
    phase), per four-momentum."""
    eps = check_energy_sign(eps)
    lhs = eps * amplitude(eps, p4, m)
    rhs = amplitude(eps, parity_flip(p4), m)[..., GAMMA0_ROWS, :]
    return max_entry(lhs - rhs)


def sandwich_formulas(p4: np.ndarray, m: float) -> dict[str, np.ndarray]:
    """Closed forms for the five reference contractions, independent of eps:

        vbar gamma^mu v          = (p^mu / m) I
        vbar gamma^5 v           = 0
        vbar gamma^0 gamma^5 v   = -(pvec.sigma^T) / m
        vbar gamma^k gamma^5 v   = -(m sigma^T_k + p_k (pvec.sigma^T)/(m + p^0)) / m
        vbar gamma^0 (pvec.gammavec) v = 0

    Returned as target matrices (..., 2, 2) keyed by formula name.
    """
    m = check_mass(m)
    p4 = np.asarray(p4, dtype=float)
    p0, pv = p4[..., 0, None, None], p4[..., 1:]
    eye = np.eye(2, dtype=complex)
    zero = np.zeros(p4.shape[:-1] + (2, 2), dtype=complex)
    psig_t = contract(pv, PAULI_T)  # pvec . sigma^T
    out = {f"gamma{mu}": (p4[..., mu, None, None] / m) * eye for mu in range(4)}
    out["gamma5"] = zero
    out["gamma0_gamma5"] = -psig_t / m
    for k in range(3):
        out[f"gamma{k + 1}_gamma5"] = -(m * PAULI[k].T + pv[..., k, None, None] * psig_t / (m + p0)) / m
    out["gamma0_pslash3"] = zero.copy()
    return out


#: The `column_tables` of the nine fixed sandwich matrices: gamma^5, then gamma^mu and
#: gamma^mu gamma^5 for each mu.  The tenth, gamma^0 (pvec.gammavec) = pvec.alphavec, varies.
_SANDWICH_COLUMNS = column_tables([GAMMA5, *(g for mu in range(4)
                                             for g in (GAMMA[mu], GAMMA_GAMMA5[mu]))])
#: `sandwich_formulas` keys in the row order of the ten sandwiches.
_SANDWICH_TARGETS = ("gamma5", "gamma0", "gamma0_gamma5", "gamma1", "gamma1_gamma5", "gamma2",
                     "gamma2_gamma5", "gamma3", "gamma3_gamma5", "gamma0_pslash3")


def sandwich_formula_residual(eps: int, p4: np.ndarray, m: float) -> float:
    """Worst max-entry residual over all five closed-form contractions,
    vbar M v with v and vbar computed once, per four-momentum.  The ten
    left factors vbar M are stacked as rows of one (..., 20, 4) matrix, so
    each sample makes one product with v."""
    p4 = np.asarray(p4, dtype=float)
    targets = sandwich_formulas(p4, m)
    v = amplitude(eps, p4, m)
    vb = dirac_bar(v)
    left = np.concatenate([row_blocks(gather_columns(vb, *_SANDWICH_COLUMNS), 9),
                           vb @ contract(p4[..., 1:], ALPHA)], axis=-2)
    sandwiches = (left @ v).reshape(vb.shape[:-2] + (10, 2, 2))
    diffs = sandwiches - np.stack([targets[name] for name in _SANDWICH_TARGETS], axis=-3)
    return np.abs(diffs).max(axis=(-3, -2, -1))
