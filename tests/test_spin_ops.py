"""Momentum-space spin and Pauli-Lubanski operator matrices.

Stored 2x2 blocks act on state labels; the action on coefficient columns
is the transpose (see spin_ops.column_action).  Commutator checks below
are phrased on the column-action side where the algebra takes its
textbook sign.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracspin import spin_ops
from diracspin.amplitudes import amplitude, dirac_bar
from diracspin.clifford import GAMMA5, PAULI
from diracspin.lorentz import (momenta_from_draws, random_momentum, random_velocity,
                               velocities_from_draws, wigner_rotation_closed)
from diracspin.minkowski import minkowski_dot, on_shell
from diracspin.spin_ops import (casimir_spin, column_action, fw_residual,
                                hamiltonian_covariant, pl_covariant, pl_spin, spin_covariant,
                                spin_from_pl, spin_matrix, spin_transform_closed,
                                spin_transform_wigner)
from _reference import EXACT_BATCHES, assert_same_bits, dense_contract

EPS_LC = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS_LC[i, j, k] = 1.0
    EPS_LC[i, k, j] = -1.0


def test_spin_matrix_is_half_transposed_pauli():
    for i in range(3):
        assert_allclose(spin_matrix(i), PAULI[i].T / 2.0, atol=0)


def test_spin_algebra_on_columns():
    S = [column_action(spin_matrix(i)) for i in range(3)]
    for i in range(3):
        for j in range(3):
            comm = S[i] @ S[j] - S[j] @ S[i]
            expect = 1j * np.einsum("k,kab->ab", EPS_LC[i, j], np.array(S))
            assert_allclose(comm, expect, atol=1e-15)


@pytest.mark.parametrize("eps", [1, -1])
def test_pl_reconstruction_recovers_rest_spin(eps, momenta):
    # (eps Wvec - eps W0 pvec/(p0+m))/m collapses to the fixed spin matrices
    for p4 in momenta:
        S = spin_from_pl(eps, p4, 1.0)
        for i in range(3):
            assert_allclose(S[i], spin_matrix(i), atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_pl_orthogonal_to_momentum(eps, momenta):
    # p_mu W^mu = 0 as a 2x2 identity in the spin basis
    for p4 in momenta[:10]:
        contraction = (p4[0] * pl_spin(0, eps, p4, 1.0)
                       - sum(p4[k + 1] * pl_spin(k + 1, eps, p4, 1.0) for k in range(3)))
        assert_allclose(contraction, np.zeros((2, 2)), atol=1e-11)


@pytest.mark.parametrize("eps", [1, -1])
def test_casimir_value(eps, momenta):
    for p4 in momenta:
        assert_allclose(casimir_spin(eps, p4, 1.0), 0.75 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_pl_sandwich_matches_spin_basis(eps, momenta):
    # eps vbar W_cov^mu v = W_spin^mu, the bridge between representations
    for p4 in momenta[:10]:
        v = amplitude(eps, p4, 1.0)
        for mu in range(4):
            got = eps * dirac_bar(v) @ pl_covariant(mu, eps, p4, 1.0) @ v
            assert_allclose(got, pl_spin(mu, eps, p4, 1.0), atol=1e-12)


def test_pl_rest_values():
    # at rest W^0 vanishes and Wvec = eps m Svec (the shell sign is undone
    # by the eps in the reconstruction formula)
    p4 = on_shell(1.0, np.zeros(3))
    for eps in (1, -1):
        assert_allclose(pl_spin(0, eps, p4, 1.0), np.zeros((2, 2)), atol=1e-15)
        for k in range(3):
            assert_allclose(pl_spin(k + 1, eps, p4, 1.0), eps * 1.0 * spin_matrix(k),
                            atol=1e-15)


@pytest.mark.parametrize("eps", [1, -1])
def test_spin_covariant_sandwich(eps, momenta):
    for p4 in momenta[:10]:
        v = amplitude(eps, p4, 1.0)
        for i in range(3):
            got = eps * dirac_bar(v) @ spin_covariant(i, eps, p4, 1.0) @ v
            assert_allclose(got, spin_matrix(i), atol=1e-12)


def test_spin_covariant_rest_closed_form():
    from diracspin.clifford import GAMMA
    p4 = on_shell(1.0, np.zeros(3))
    for eps in (1, -1):
        for i in range(3):
            expect = -0.5 * eps * GAMMA[i + 1] @ GAMMA5
            assert_allclose(spin_covariant(i, eps, p4, 1.0), expect, atol=1e-15)


@pytest.mark.parametrize("eps", [1, -1])
def test_hamiltonian_sandwich_gives_energy(eps, momenta):
    for p4 in momenta[:10]:
        v = amplitude(eps, p4, 1.0)
        got = eps * dirac_bar(v) @ hamiltonian_covariant(eps, p4, 1.0) @ v
        assert_allclose(got, eps * p4[0] * np.eye(2), atol=1e-11)


@pytest.mark.parametrize("eps", [1, -1])
def test_fw_diagonalization(eps, momenta):
    for p4 in momenta:
        assert fw_residual(eps, p4, 1.0) < 1e-11


@pytest.mark.parametrize("eps", [1, -1])
def test_fw_rest_trivial(eps):
    assert fw_residual(eps, on_shell(1.0, np.zeros(3)), 1.0) < 1e-15


def test_spin_transform_closed_vs_wigner(rng):
    worst = 0.0
    for _ in range(120):
        v3 = random_velocity(rng)
        p4 = random_momentum(rng, 1.0)
        closed = spin_transform_closed(v3, p4, 1.0)
        rotated = spin_transform_wigner(v3, p4, 1.0)
        worst = max(worst, np.abs(closed - rotated).max())
    assert worst < 1e-10


def test_spin_transform_is_adjoint_rotation(rng):
    # transformed spin components are R_ij S_j with R the Wigner rotation
    v3 = random_velocity(rng)
    p4 = random_momentum(rng, 1.0)
    R = wigner_rotation_closed(v3, p4, 1.0)
    got = spin_transform_wigner(v3, p4, 1.0)
    stacked = np.array([spin_matrix(j) for j in range(3)])
    for i in range(3):
        assert_allclose(got[i], np.einsum("j,jab->ab", R[i], stacked), atol=1e-13)


def test_spin_transform_zero_velocity(momenta):
    got = spin_transform_closed(np.zeros(3), momenta[0], 1.0)
    for i in range(3):
        assert_allclose(got[i], spin_matrix(i), atol=1e-13)


def test_spin_transform_preserves_casimir(rng):
    v3 = random_velocity(rng)
    p4 = random_momentum(rng, 1.0)
    got = spin_transform_closed(v3, p4, 1.0)
    total = sum(column_action(got[i]) @ column_action(got[i]) for i in range(3))
    assert_allclose(total, 0.75 * np.eye(2), atol=1e-12)


# Each kernel with a flat contraction equals, bit for bit, the same kernel
# with the contraction done by the einsum it replaced.
CONTRACTING_KERNELS = {
    "pl_spin": lambda v3, p4: np.stack([pl_spin(mu, -1, p4, 1.3) for mu in range(4)]),
    "hamiltonian_covariant": lambda v3, p4: hamiltonian_covariant(-1, p4, 1.3),
    "spin_transform_closed": lambda v3, p4: spin_transform_closed(v3, p4, 1.3),
    "spin_transform_wigner": lambda v3, p4: spin_transform_wigner(v3, p4, 1.3),
}


@pytest.mark.parametrize("batch", EXACT_BATCHES)
@pytest.mark.parametrize("kernel", list(CONTRACTING_KERNELS))
def test_contracting_kernel_is_the_einsum_bit_for_bit(kernel, batch, monkeypatch):
    draws = np.random.default_rng(11).standard_normal(batch + (10,))
    v3 = velocities_from_draws(draws[..., :5], 0.99)
    p4 = momenta_from_draws(draws[..., 5:], 1.3, 10.0)
    got = CONTRACTING_KERNELS[kernel](v3, p4)
    monkeypatch.setattr(spin_ops, "contract", dense_contract)
    assert_same_bits(got, CONTRACTING_KERNELS[kernel](v3, p4))


def test_column_action_transposes_each_matrix_of_a_stack():
    M = np.arange(5 * 2 * 3).reshape(5, 2, 3) + 1j
    got = column_action(M)
    assert got.shape == (5, 3, 2)
    for n in range(5):
        assert_same_bits(got[n], column_action(M[n]))
        assert_same_bits(got[n], M[n].T)
