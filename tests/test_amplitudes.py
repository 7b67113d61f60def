import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from diracspin.amplitudes import (amplitude, dirac_bar, parity_residual, sandwich_formula_residual,
                                  sandwich_formulas, weinberg_residual)
from diracspin.clifford import GAMMA, GAMMA0, PAULI, energy_projector, slash
from diracspin import amplitudes
from diracspin.lorentz import momenta_from_draws, random_lorentz, random_momentum
from diracspin.minkowski import SampleRefused, on_shell
from _reference import (EXACT_BATCHES, amplitude_via_boost, assert_same_bits, dense_contract,
                        dense_dirac_bar)

SQRT_HALF = np.sqrt(0.5)
# amplitudes at p = 0 (the sigma_2 pairing fixes the phase convention)
REST_PLUS = SQRT_HALF * np.vstack([PAULI[1], PAULI[1]])
REST_MINUS = SQRT_HALF * np.vstack([PAULI[1], -PAULI[1]])

coords = st.floats(-8, 8, allow_nan=False)


def test_rest_frame_frozen():
    p4 = on_shell(1.0, np.zeros(3))
    assert_allclose(amplitude(1, p4, 1.0), REST_PLUS, atol=1e-15)
    assert_allclose(amplitude(-1, p4, 1.0), REST_MINUS, atol=1e-15)


def test_rest_frame_mass_independent():
    # normalization vbar v = eps I makes the rest amplitude mass free
    p4 = on_shell(7.3, np.zeros(3))
    assert_allclose(amplitude(1, p4, 7.3), REST_PLUS, atol=1e-15)


@pytest.mark.parametrize("eps", [1, -1])
def test_orthonormality(eps, momenta):
    for p4 in momenta:
        v = amplitude(eps, p4, 1.0)
        assert_allclose(dirac_bar(v) @ v, eps * np.eye(2), atol=1e-12)
        w = amplitude(-eps, p4, 1.0)
        assert_allclose(dirac_bar(w) @ v, np.zeros((2, 2)), atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_projector_identity(eps, momenta):
    for p4 in momenta:
        v = amplitude(eps, p4, 1.0)
        assert_allclose(v @ dirac_bar(v), eps * energy_projector(eps, p4, 1.0), atol=1e-12)


def test_completeness(momenta):
    for p4 in momenta:
        total = sum(eps * amplitude(eps, p4, 1.0) @ dirac_bar(amplitude(eps, p4, 1.0))
                    for eps in (1, -1))
        assert_allclose(total, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_momentum_space_dirac_equation(eps, momenta):
    for p4 in momenta:
        v = amplitude(eps, p4, 1.0)
        assert_allclose(slash(p4) @ v, eps * 1.0 * v, atol=1e-11)


@pytest.mark.parametrize("eps", [1, -1])
def test_parity_relation(eps, momenta):
    for p4 in momenta:
        assert parity_residual(eps, p4, 1.0) < 1e-12


@given(coords, coords, coords, st.floats(0.1, 5.0))
@settings(max_examples=60)
def test_amplitude_normalization_property(px, py, pz, m):
    p4 = on_shell(m, [px, py, pz])
    v = amplitude(1, p4, m)
    assert np.abs(dirac_bar(v) @ v - np.eye(2)).max() < 1e-11


def test_batch_matches_scalar(rng):
    # a batch row is, bit for bit, the point amplitude of the same four-momentum
    P = on_shell(1.0, np.array([random_momentum(rng, 1.0)[1:] for _ in range(9)]))
    for eps in (1, -1):
        batch = amplitude(eps, P, 1.0)
        assert batch.shape == (9, 4, 2)
        for k in range(9):
            assert_array_equal(batch[k], amplitude(eps, P[k], 1.0))


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("m", [0.3, 1.0, 7.0])
def test_batch_matches_scalar_both_shells(rng, eps, m):
    # entry-by-entry closed form against the matrix-built scalar amplitude,
    # |p|/m log-uniform in [1e-3, 1e3]; the two differ only by the rounding
    # of p^0, a relative few eps of the largest entry
    u = rng.normal(size=(60, 3))
    P = m * (10.0 ** rng.uniform(-3, 3, size=60) / np.linalg.norm(u, axis=1))[:, None] * u
    batch = amplitude(eps, on_shell(m, P), m)
    assert batch.shape == (60, 4, 2)
    for k in range(60):
        ref = amplitude(eps, on_shell(m, P[k]), m)
        assert np.abs(batch[k] - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("eps", [1, -1])
def test_amplitude_stack_matches_rows(rng, eps):
    # a (2, 3, 4) stack of four-momenta is the same computation as one call
    # per momentum, and each row matches the boosted rest amplitude
    m = 0.7
    P = np.array([random_momentum(rng, m) for _ in range(6)]).reshape(2, 3, 4)
    v = amplitude(eps, P, m)
    assert v.shape == (2, 3, 4, 2)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(v[i, j], amplitude(eps, P[i, j], m))
            assert_allclose(v[i, j], amplitude_via_boost(eps, P[i, j], m), atol=1e-12)


def test_construction_via_boost_agrees(momenta):
    # boosting the rest amplitude with the standard boost reproduces the
    # closed form, column by column including phases
    for p4 in momenta[:12]:
        for eps in (1, -1):
            assert_allclose(amplitude_via_boost(eps, p4, 1.0), amplitude(eps, p4, 1.0),
                            atol=1e-12)


def test_sandwich_gamma0_gives_energy_over_mass(momenta):
    for p4 in momenta[:10]:
        for eps in (1, -1):
            v = amplitude(eps, p4, 1.0)
            got = dirac_bar(v) @ GAMMA0 @ v
            assert_allclose(got, (p4[0] / 1.0) * np.eye(2), atol=1e-12)


def test_sandwich_formula_targets_cover_all_five(momenta):
    targets = sandwich_formulas(momenta[0], 1.0)
    assert set(targets) == {"gamma0", "gamma1", "gamma2", "gamma3", "gamma5",
                            "gamma0_gamma5", "gamma1_gamma5", "gamma2_gamma5",
                            "gamma3_gamma5", "gamma0_pslash3"}


@pytest.mark.parametrize("eps", [1, -1])
def test_sandwich_formulas_closed_forms(eps, momenta):
    for p4 in momenta:
        assert sandwich_formula_residual(eps, p4, 1.0) < 1e-12


def test_sandwich_formulas_eps_independent(momenta):
    # eps vbar M v is the same 2x2 for both shells, for every reference M
    p4 = momenta[3]
    for name, M in [("gamma0", GAMMA0), ("gamma2", GAMMA[2])]:
        del name
        vp, vm = amplitude(1, p4, 1.0), amplitude(-1, p4, 1.0)
        assert_allclose(dirac_bar(vp) @ M @ vp, dirac_bar(vm) @ M @ vm, atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_weinberg_transformation_law(eps, rng):
    worst = 0.0
    for _ in range(60):
        L = random_lorentz(rng)
        p4 = random_momentum(rng, 1.0)
        worst = max(worst, weinberg_residual(L, eps, p4, 1.0))
    assert worst < 1e-9


def test_weinberg_pure_rotation(rng):
    # rotations act without any boost mixing; the residual stays tiny
    from diracspin.lorentz import random_rotation
    R4 = np.eye(4)
    R4[1:, 1:] = random_rotation(rng)
    p4 = random_momentum(rng, 1.0)
    assert weinberg_residual(R4, 1, p4, 1.0) < 1e-12


def test_refuses_energy_over_mass_that_overflows():
    # p^0/m = 1e408 used to raise "overflow encountered in divide"
    stack = on_shell(1e-100, np.zeros((3, 3)))
    stack[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=r"^p4 energy 1e\+308 overflows p\^0/m "
                                                r"for mass = 1e-100$"):
            amplitude(1, [1e308, 0.0, 0.0, 0.0], 1e-100)
        with pytest.raises(SampleRefused, match=r"\(sample 1\)$") as exc:
            amplitude(-1, stack, 1e-100)
    assert exc.value.index == 1
    assert_array_equal(amplitude(1, stack[::2], 1e-100)[1], amplitude(1, stack[2], 1e-100))


def test_rejects_bad_energy_sign():
    p4 = on_shell(1.0, np.zeros(3))
    with pytest.raises(ValueError):
        amplitude(0, p4, 1.0)
    with pytest.raises(ValueError):
        amplitude(2, p4, 1.0)


def _signed_zeros(rng, shape):
    """Complex normals with about a third of the components +0 or -0."""
    z = rng.standard_normal(shape + (2,))
    z[rng.random(z.shape) < 0.3] = 0.0
    z[rng.random(z.shape) < 0.5] *= -1.0
    return z.view(complex)[..., 0]


@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_sandwich_contractions_are_the_einsums_bit_for_bit(batch, monkeypatch):
    p4 = momenta_from_draws(np.random.default_rng(8).standard_normal(batch + (5,)), 0.7, 10.0)
    targets = sandwich_formulas(p4, 0.7)
    residuals = [sandwich_formula_residual(eps, p4, 0.7) for eps in (1, -1)]
    monkeypatch.setattr(amplitudes, "contract", dense_contract)
    for name, target in sandwich_formulas(p4, 0.7).items():
        assert_same_bits(targets[name], target)
    for eps, residual in zip((1, -1), residuals):
        assert_same_bits(residual, sandwich_formula_residual(eps, p4, 0.7))


@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_dirac_bar_is_the_gamma0_product_bit_for_bit(batch):
    rng = np.random.default_rng(9)
    p4 = momenta_from_draws(rng.standard_normal(batch + (5,)), 1.0, 10.0)
    v = amplitude(1, p4, 1.0)
    for M in (v, np.concatenate([v, amplitude(-1, p4, 1.0)], axis=-1),
              _signed_zeros(rng, batch + (4, 3))):
        got = dirac_bar(M)
        assert got.flags.c_contiguous
        assert_same_bits(got, dense_dirac_bar(M))


def test_dirac_bar_keeps_each_samples_non_finiteness():
    M = _signed_zeros(np.random.default_rng(10), (6, 4, 2))
    M[1, 3, 0] = np.nan
    M[4, 0, 1] = complex(0.0, np.inf)
    with np.errstate(invalid="ignore"):
        dense = dense_dirac_bar(M)
    finite = np.isfinite(dirac_bar(M)).all(axis=(-2, -1))
    assert_array_equal(finite, np.isfinite(dense).all(axis=(-2, -1)))
    assert_array_equal(finite, [True, False, True, True, False, True])
