"""Dirac gamma matrices and energy projectors.

The gamma matrices are held in the chiral-like representation

    gamma^0 = [[0, I], [I, 0]],   gamma^k = [[0, -sigma_k], [sigma_k, 0]],
    gamma^5 = diag(I, -I),

with entries drawn from {0, +-1, +-i}, so the Clifford algebra
gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu} I holds exactly in
floating point.  The spin generators are Sigma^{mu nu} = (i/4)
[gamma^mu, gamma^nu].  Space inversion acts on bispinors as gamma^0 (unit
phase): conjugation by it keeps gamma^0 and flips the sign of gamma^k.

Products with these fixed tensors obey the two-term rule of `minkowski`:
each real output component is at most two terms, each an input times an
entry in {0, +-1, +-1/2}, so it is exact whatever the summation order.
A per-sample vector is contracted with a tensor by one flat product
(`minkowski.contract`, as in `slash`).  Every gamma^mu, gamma^5 and
sigma_mu is monomial, one nonzero entry per row, so a product with one is
a gather with phases; `monomial` reads the column and phase tables off a
matrix.  `GAMMA0_ROWS` is the table of gamma^0, a permutation matrix, which
`amplitudes.dirac_bar` and `lorentz.bispinor_inverse` gather with;
`lorentz._trace_table` reads the tables of sigma_mu = (I, sigma_k) for the
trace its SL(2,C) lift takes, `column_tables` those `gather_columns` takes.
"""
from __future__ import annotations

import numpy as np

from .minkowski import _LOWER, check_energy_sign, check_mass, contract

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

#: Pauli matrices, shape (3, 2, 2).
PAULI = np.stack([
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])

#: Transposed Pauli matrices (sigma_2 flips sign under transposition).
PAULI_T = np.stack([PAULI[0].T.copy(), PAULI[1].T.copy(), PAULI[2].T.copy()])

GAMMA0 = np.block([[_Z2, _I2], [_I2, _Z2]])
GAMMA5 = np.block([[_I2, _Z2], [_Z2, -_I2]])

#: gamma^mu stacked over mu = 0..3, shape (4, 4, 4).
GAMMA = np.stack([
    GAMMA0,
    np.block([[_Z2, -PAULI[0]], [PAULI[0], _Z2]]),
    np.block([[_Z2, -PAULI[1]], [PAULI[1], _Z2]]),
    np.block([[_Z2, -PAULI[2]], [PAULI[2], _Z2]]),
])


def _sigma_tensor() -> np.ndarray:
    out = np.zeros((4, 4, 4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            out[mu, nu] = 0.25j * (GAMMA[mu] @ GAMMA[nu] - GAMMA[nu] @ GAMMA[mu])
    return out


#: Sigma^{mu nu} = (i/4)[gamma^mu, gamma^nu], shape (4, 4, 4, 4).
SIGMA = _sigma_tensor()


def monomial(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase tables of monomial matrices M (..., n, n), each with
    one nonzero entry per row and per column: row a of M holds phases[a]
    in column columns[a], so (M X)_a = phases[a] X_{columns[a]}.  Shapes
    (..., n) each; a matrix that is not monomial is refused."""
    M = np.asarray(M)
    nonzero = M != 0
    if not ((nonzero.sum(axis=-1) == 1).all() and (nonzero.sum(axis=-2) == 1).all()):
        raise ValueError("matrix is not monomial: a row or column has other than one nonzero entry")
    columns = nonzero.argmax(axis=-1)
    return columns, np.take_along_axis(M, columns[..., None], axis=-1)[..., 0]


#: gamma^0 is a permutation matrix: row a holds its 1 in column
#: GAMMA0_ROWS[a], and since it is symmetric, column a holds it in row
#: GAMMA0_ROWS[a].  So (X gamma^0)_{ia} = X_{i, GAMMA0_ROWS[a]} and
#: (gamma^0 X)_{ai} = X_{GAMMA0_ROWS[a], i}.
GAMMA0_ROWS = monomial(GAMMA0)[0]


#: alpha_k = gamma^0 gamma^k, shape (3, 4, 4): H = alphavec.pvec + beta m, beta = gamma^0.
ALPHA = GAMMA0 @ GAMMA[1:]
#: gamma^mu gamma^5 stacked over mu = 0..3, shape (4, 4, 4).
GAMMA_GAMMA5 = GAMMA @ GAMMA5


def column_tables(Ms) -> tuple[np.ndarray, np.ndarray]:
    """Row and phase tables, shape (k n,) each, of monomial matrices Ms (k, n, n)
    placed side by side as one (n, k n) matrix M: column j of M holds phases[j]
    in row rows[j] (`monomial` of each transpose), for `minkowski.gather_columns`."""
    rows, phases = monomial(np.swapaxes(np.asarray(Ms), -1, -2))
    return rows.reshape(-1), phases.reshape(-1)


def slash(p4: np.ndarray) -> np.ndarray:
    """Feynman slash p_mu gamma^mu = p^0 gamma^0 - pvec . gammavec, for
    four-momenta (..., 4); shape (..., 4, 4)."""
    return contract(np.asarray(p4, dtype=float) * _LOWER, GAMMA)


def energy_projector(eps: int, p4: np.ndarray, m: float) -> np.ndarray:
    """Covariant projectors onto the energy-sign-eps solutions, for
    four-momenta (..., 4); shape (..., 4, 4),

        Lambda_eps(p) = (m I + eps p_mu gamma^mu) / (2 m).

    Idempotent, with Lambda_+ + Lambda_- = I and trace 2 each.
    """
    eps = check_energy_sign(eps)
    m = check_mass(m)
    return (m * np.eye(4, dtype=complex) + eps * slash(p4)) / (2.0 * m)
