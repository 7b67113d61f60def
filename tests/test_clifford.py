import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from diracspin import clifford
from diracspin.clifford import (ALPHA, GAMMA, GAMMA0, GAMMA0_ROWS, GAMMA5, GAMMA_GAMMA5, PAULI, SIGMA,
                                energy_projector, monomial, slash)
from diracspin.lorentz import _SIGMA4, momenta_from_draws
from diracspin.minkowski import METRIC, minkowski_dot, on_shell
from _reference import EXACT_BATCHES, assert_same_bits, dense_contract

finite = st.floats(-20, 20, allow_nan=False)


def test_pauli_algebra_exact():
    eye = np.eye(2)
    for i in range(3):
        assert_array_equal(PAULI[i] @ PAULI[i], eye)
        assert_array_equal(PAULI[i], PAULI[i].conj().T)
    assert_array_equal(PAULI[0] @ PAULI[1], 1j * PAULI[2])


def test_gamma_anticommutators_exact():
    # {gamma^mu, gamma^nu} = 2 g^{mu nu} with no rounding at all
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            assert_array_equal(anti, 2.0 * METRIC[mu, nu] * np.eye(4))


def test_gamma5_product_form_exact():
    assert_array_equal(GAMMA5, 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
    assert_array_equal(GAMMA5 @ GAMMA5, np.eye(4))
    for mu in range(4):
        assert_array_equal(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5, np.zeros((4, 4)))


def test_gamma0_alias():
    assert_array_equal(GAMMA0, GAMMA[0])


def test_sigma_antisymmetry_and_bar_hermiticity():
    for mu in range(4):
        for nu in range(4):
            assert_allclose(SIGMA[mu, nu], -SIGMA[nu, mu], atol=0)
            # gamma^0 Sigma^+ gamma^0 = Sigma
            assert_allclose(GAMMA0 @ SIGMA[mu, nu].conj().T @ GAMMA0, SIGMA[mu, nu], atol=1e-15)


def test_sigma_closes_lorentz_algebra():
    g = METRIC
    for m in range(4):
        for n in range(4):
            for r in range(4):
                for s in range(4):
                    lhs = SIGMA[m, n] @ SIGMA[r, s] - SIGMA[r, s] @ SIGMA[m, n]
                    rhs = 1j * (g[n, r] * SIGMA[m, s] - g[m, r] * SIGMA[n, s]
                                + g[m, s] * SIGMA[n, r] - g[n, s] * SIGMA[m, r])
                    assert_allclose(lhs, rhs, atol=1e-15)


@given(finite, finite, finite, finite)
def test_slash_squared_is_invariant(t, x, y, z):
    p = np.array([t, x, y, z])
    assert_allclose(slash(p) @ slash(p), minkowski_dot(p, p) * np.eye(4), atol=1e-11)


@pytest.mark.parametrize("eps", [1, -1])
def test_energy_projector_algebra(eps, momenta):
    for p4 in momenta[:10]:
        P = energy_projector(eps, p4, 1.0)
        assert_allclose(P @ P, P, atol=1e-13)
        assert np.trace(P).real == pytest.approx(2.0, abs=1e-13)
        Q = energy_projector(-eps, p4, 1.0)
        assert_allclose(P + Q, np.eye(4), atol=1e-15)
        assert_allclose(P @ Q, np.zeros((4, 4)), atol=1e-13)


def test_energy_projector_rest():
    p4 = on_shell(1.0, np.zeros(3))
    assert_allclose(energy_projector(1, p4, 1.0), (np.eye(4) + GAMMA0) / 2.0)




@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_slash_is_the_einsum_bit_for_bit(batch, monkeypatch):
    p4 = momenta_from_draws(np.random.default_rng(3).standard_normal(batch + (5,)), 1.3, 10.0)
    got = slash(p4)
    monkeypatch.setattr(clifford, "contract", dense_contract)
    assert_same_bits(got, slash(p4))


def test_every_fixed_matrix_is_monomial_with_unit_phases():
    for M in (*GAMMA, GAMMA5, *ALPHA, *GAMMA_GAMMA5, *_SIGMA4):
        columns, phases = monomial(M)
        assert_array_equal(np.abs(phases), 1.0)
        assert_array_equal(M[np.arange(len(M)), columns], phases)
        X = np.arange(len(M) * 3.0).reshape(len(M), 3) + 1j
        assert_array_equal(phases[:, None] * X[columns], M @ X)


def test_gamma0_rows_make_it_a_symmetric_permutation():
    columns, phases = monomial(GAMMA0)
    assert_array_equal(columns, GAMMA0_ROWS)
    assert_array_equal(phases, 1.0)
    assert_array_equal(GAMMA0, GAMMA0.T)


def test_alpha_and_beta_obey_the_dirac_algebra_exactly():
    beta, eye = GAMMA0, np.eye(4)
    for i in range(3):
        assert_array_equal(ALPHA[i], GAMMA0 @ GAMMA[i + 1])
        assert_array_equal(ALPHA[i] @ beta + beta @ ALPHA[i], 0.0)
        for j in range(3):
            assert_array_equal(ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i], 2.0 * (i == j) * eye)
    assert_array_equal(beta @ beta, eye)
    for mu in range(4):
        assert_array_equal(GAMMA_GAMMA5[mu], GAMMA[mu] @ GAMMA5)


def test_monomial_refuses_a_matrix_with_two_entries_in_a_row():
    with pytest.raises(ValueError, match="not monomial"):
        monomial(GAMMA0 + GAMMA5)
    with pytest.raises(ValueError, match="not monomial"):
        monomial(np.array([[1.0, 0.0], [1.0, 0.0]]))
