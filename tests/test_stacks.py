"""Batch-first kernels: a call on a (n, ...) stack equals one call per row,
bit for bit, so the batched sweep reports what a per-sample loop would."""
import numpy as np
import pytest

from diracspin.amplitudes import (amplitude, dirac_bar, dirac_residual, orthogonality_residual,
                                  parity_residual, projector_residual, sandwich_formula_residual,
                                  weinberg_residual)
from diracspin.clifford import PAULI, energy_projector, slash
from diracspin.lorentz import (BALL, LORENTZ, ROTATION, bispinor_inverse, bispinor_rep,
                               boost_from_velocity, lorentz_from_draws, lorentz_gamma,
                               momenta_from_draws, random_lorentz, random_momentum,
                               random_rotation, random_velocity, rotations_from_draws,
                               standard_boost, su2_from_so3, velocities_from_draws,
                               wigner_rotation, wigner_rotation_closed)
from diracspin.minkowski import (SampleRefused, is_proper_orthochronous, lorentz_matrix,
                                 lorentz_residual, on_shell, parity_flip)
from diracspin.spin_ops import (casimir_spin, fw_residual, hamiltonian_covariant, pl_covariant,
                                pl_spin, spin_covariant, spin_from_pl, spin_transform_closed,
                                spin_transform_wigner)
from diracspin.states import DensityState, bloch_transform, spin_expectations
from diracspin.verify import CHUNK, IDENTITY_RUNNERS, RunConfig, evaluate_at

N = 12
M = 1.7


def assert_rows(fn, *stacks, rows=None):
    """fn over stacks with a leading axis equals fn row by row, on the given
    rows (all by default)."""
    out = fn(*stacks)
    out = out if isinstance(out, tuple) else (out,)
    for i in range(len(stacks[0])) if rows is None else rows:
        row = fn(*(s[i] for s in stacks))
        row = row if isinstance(row, tuple) else (row,)
        assert all(np.array_equal(o[i], r, equal_nan=True) for o, r in zip(out, row)), i


def _half_turn(n):
    n = np.asarray(n, dtype=float)
    return 2.0 * np.outer(n, n) - np.eye(3)


def _embed(R):
    L = np.zeros(R.shape[:-2] + (4, 4))
    L[..., 0, 0] = 1.0
    L[..., 1:, 1:] = R
    return L


#: Rotations with the lift's special cases: identity, half-turns about the
#: axes and an oblique axis (where Re tr D = 0 and the sign rule decides).
SPECIAL_ROTATIONS = np.array([np.eye(3), _half_turn([1, 0, 0]), _half_turn([0, 1, 0]),
                              _half_turn([0, 0, 1]), _half_turn([0.48, -0.6, 0.64])])


@pytest.fixture
def P(rng):
    return np.array([random_momentum(rng, M, 20.0) for _ in range(N)])


@pytest.fixture
def V(rng):
    return np.array([random_velocity(rng, 0.99) for _ in range(N)])


@pytest.fixture
def Ls(rng):
    return np.array([random_lorentz(rng, 0.99) for _ in range(N)])


@pytest.fixture
def Rs(rng):
    return np.concatenate([SPECIAL_ROTATIONS, [random_rotation(rng) for _ in range(N)]])


def test_minkowski_stacks(P, Ls):
    assert_rows(lambda p: on_shell(M, p[..., 1:]), P)
    assert_rows(parity_flip, P)
    assert_rows(lorentz_residual, Ls)
    assert_rows(is_proper_orthochronous, Ls)
    assert_rows(lambda L: lorentz_matrix(L, proper=True), Ls)


def test_boost_stacks(P, V):
    assert_rows(lorentz_gamma, V)
    assert_rows(boost_from_velocity, V)
    assert_rows(lambda p: standard_boost(p, M), P)
    assert_rows(lambda v, p: wigner_rotation_closed(v, p, M), V, P)


def test_wigner_rotation_stack_of_L(P, Ls):
    # one L per momentum: the transposes act on the matrix axes only
    assert_rows(lambda L, p: wigner_rotation(L, p, M), Ls, P)
    # one L broadcast over many momenta, and one momentum under many L
    L = Ls[0]
    assert_rows(lambda p: wigner_rotation(L, p, M), P)
    p = P[0]
    assert_rows(lambda L: wigner_rotation(L, p, M), Ls)
    R3, R4 = wigner_rotation(Ls.reshape(3, 4, 4, 4), P.reshape(3, 4, 4), M)
    assert R3.shape == (3, 4, 3, 3) and R4.shape == (3, 4, 4, 4)
    assert np.array_equal(R3.reshape(N, 3, 3), wigner_rotation(Ls, P, M)[0])


def test_su2_and_bispinor_stacks(Rs, Ls):
    assert_rows(su2_from_so3, Rs)
    D = su2_from_so3(Rs)
    axes = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.48, -0.6, 0.64]]
    # the sign rule in a stack: a half-turn about n lifts to -i n.sigma
    for D_half, n in zip(D[1:5], axes):
        assert np.allclose(D_half, -1j * np.einsum("i,iab->ab", n, PAULI), atol=1e-15)
    assert np.array_equal(D[0], np.eye(2))
    Lall = np.concatenate([_embed(Rs), Ls])
    assert_rows(bispinor_rep, Lall)
    assert_rows(bispinor_inverse, bispinor_rep(Lall))


def test_clifford_stacks(P):
    assert_rows(slash, P)
    for eps in (1, -1):
        assert_rows(lambda p: energy_projector(eps, p, M), P)


@pytest.mark.parametrize("eps", [1, -1])
def test_spin_operator_stacks(P, V, eps):
    for mu in range(4):
        assert_rows(lambda p: pl_spin(mu, eps, p, M), P)
        assert_rows(lambda p: pl_covariant(mu, eps, p, M), P)
    for i in range(3):
        assert_rows(lambda p: spin_covariant(i, eps, p, M), P)
    assert_rows(lambda p: hamiltonian_covariant(eps, p, M), P)
    assert_rows(lambda p: spin_from_pl(eps, p, M), P)
    assert_rows(lambda p: casimir_spin(eps, p, M), P)
    assert_rows(lambda p: fw_residual(eps, p, M), P)
    assert_rows(lambda v, p: spin_transform_closed(v, p, M), V, P)
    assert_rows(lambda v, p: spin_transform_wigner(v, p, M), V, P)


@pytest.mark.parametrize("eps", [1, -1])
def test_amplitude_residual_stacks(P, Ls, eps):
    for residual in (orthogonality_residual, projector_residual, dirac_residual,
                     parity_residual, sandwich_formula_residual):
        assert_rows(lambda p: residual(eps, p, M), P)
    assert_rows(lambda L, p: weinberg_residual(L, eps, p, M), Ls, P)


def test_weinberg_residual_sign_per_sample(P, Ls):
    signs = np.array([1, -1] * (N // 2))
    assert_rows(lambda L, e, p: weinberg_residual(L, e, p, M), Ls, signs, P)


def test_bloch_state_stacks(rng, P, Ls):
    xi = rng.uniform(-0.5, 0.5, size=(N, 3))
    states = DensityState(M, P[:, 1:], xi)
    assert states.mass == M and np.array_equal(states.q4, P)
    assert_rows(lambda q, x: DensityState(M, q, x).q4, P[:, 1:], xi)
    expected = spin_expectations(states)
    for i in range(N):
        row = spin_expectations(DensityState(M, P[i, 1:], xi[i]))
        assert all(np.array_equal(expected[k][i], row[k]) for k in ("w0", "wvec", "svec"))
    moved = bloch_transform(states, Ls)
    assert moved.mass == M
    for i in range(N):
        row = bloch_transform(DensityState(M, P[i, 1:], xi[i]), Ls[i])
        assert np.array_equal(moved.q4[i], row.q4) and np.array_equal(moved.xi[i], row.xi)


def test_builders_reproduce_the_one_at_a_time_samplers():
    # drawing sample by sample and building the stack at once leaves every
    # sample, and the generator, as the scalar samplers do
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    lorentz = [random_lorentz(a, 0.9) for _ in range(N)]
    rotations = [random_rotation(a) for _ in range(N)]
    momenta = [random_momentum(a, M, 30.0) for _ in range(N)]
    velocities = [random_velocity(a, 0.5) for _ in range(N)]
    assert np.array_equal(lorentz_from_draws(b.standard_normal((N, LORENTZ)), 0.9), lorentz)
    assert np.array_equal(rotations_from_draws(b.standard_normal((N, ROTATION))), rotations)
    assert np.array_equal(momenta_from_draws(b.standard_normal((N, BALL)), M, 30.0), momenta)
    assert np.array_equal(velocities_from_draws(b.standard_normal((N, BALL)), 0.5), velocities)
    assert a.uniform() == b.uniform()


def test_validators_name_the_first_refused_sample(Ls, Rs, V):
    bad = Ls.copy()
    bad[[3, 7], 0, 0] *= 2.0
    with pytest.raises(SampleRefused, match=r"metric.*\(sample 3\)") as exc:
        lorentz_matrix(bad)
    assert exc.value.index == 3
    R = Rs.copy()
    R[[5, 9]] *= -1.0
    with pytest.raises(SampleRefused, match=r"not a proper rotation \(sample 5\)") as exc:
        su2_from_so3(R)
    assert exc.value.index == 5
    fast = V.copy()
    fast[4] *= 2.0
    with pytest.raises(SampleRefused, match=r"superluminal.*\(sample 4\)") as exc:
        boost_from_velocity(fast)
    assert exc.value.index == 4
    # the Bloch vectors are checked before the momenta are lifted
    q = np.array([[0.1, 0.0, 0.0]] * 4)
    xi = np.zeros((4, 3))
    q[2, 0] = np.inf
    xi[1] = [0.0, 0.0, 1.5]
    with pytest.raises(SampleRefused, match=r"\|xi\| <= 1.*\(sample 1\)") as exc:
        DensityState(1.0, q, xi)
    assert exc.value.index == 1
    # a single input keeps the plain message, sample 0
    with pytest.raises(SampleRefused, match=r"proper rotation$") as exc:
        su2_from_so3(-np.eye(3))
    assert exc.value.index == 0


_Q = on_shell(1.0, [0.1, 0.2, 0.0])
_XI = np.zeros(3)
_V = np.array([0.3, -0.2, 0.1])
NAN, INF = np.nan, np.inf


def _stack_with(base, rows: dict):
    """Four copies of the row base, with the given rows replaced."""
    a = np.array([base] * 4, dtype=float)
    for i, row in rows.items():
        a[i] = row
    return a


#: Velocities with a NaN in row 2, which the closed-form kernels would carry
#: into a NaN matrix if their speed check let it through.
_V_NAN = _stack_with(_V, {2: [0.0, NAN, 0.0]})


@pytest.mark.parametrize("make, message, index", [
    (lambda: amplitude(1, [NAN, 0.0, 0.0, 0.0], 1.0), r"finite entries$", 0),
    (lambda: amplitude(1, [1.0, 0.0, INF, 0.0], 1.0), r"finite entries$", 0),
    (lambda: amplitude(1, [-3.0, 0.0, 0.0, 0.0], 1.0), r"positive energy, got -3.0$", 0),
    (lambda: amplitude(-1, [INF, 0.0, 0.0, 0.0], 1.0), r"finite entries$", 0),
    (lambda: amplitude(1, _stack_with(_Q, {2: [0.0, 0.0, 0.0, 0.0], 3: [1.0, NAN, 0.0, 0.0]}), 1.0),
     r"positive energy, got 0.0 \(sample 2\)", 2),
    (lambda: amplitude(1, _stack_with(_Q, {1: [1.0, NAN, 0.0, 0.0], 2: [-1.0, 0.0, 0.0, 0.0]}),
                       1.0),
     r"p4 must have finite entries \(sample 1\)", 1),
    (lambda: DensityState(1.0, [NAN, 0.0, 0.0], _XI), r"momentum must have finite entries$", 0),
    (lambda: DensityState(1.0, [INF, 0.0, 0.0], _XI), r"momentum must have finite entries$", 0),
    (lambda: DensityState(1.0, [INF, INF, 0.0], _XI), r"momentum must have finite entries$", 0),
    (lambda: DensityState(1.0, _Q[1:], [0.0, NAN, 0.0]), r"xi must have finite entries$", 0),
    (lambda: DensityState(1.0, _stack_with(_Q[1:], {1: [NAN, 0.0, 0.0]}), _stack_with(_XI, {})),
     r"momentum must have finite entries \(sample 1\)", 1),
    (lambda: DensityState(1.0, _stack_with(_Q[1:], {}), _stack_with(_XI, {3: [0.0, 0.0, -INF]})),
     r"xi must have finite entries \(sample 3\)", 3),
    # the Bloch vectors are checked before the momenta are lifted
    (lambda: DensityState(1.0, _stack_with(_Q[1:], {2: [INF, 0.0, 0.0]}),
                          _stack_with(_XI, {1: [0.0, 1.5, 0.0]})),
     r"\|xi\| <= 1, got 1.5 \(sample 1\)", 1),
    # the one speed check, `lorentz_gamma`, in every kernel that takes a velocity
    (lambda: lorentz_gamma(_V_NAN), r"velocity must have finite entries \(sample 2\)", 2),
    (lambda: boost_from_velocity(_V_NAN), r"velocity must have finite entries \(sample 2\)", 2),
    (lambda: wigner_rotation_closed(_V_NAN, _stack_with(_Q, {}), 1.0),
     r"velocity must have finite entries \(sample 2\)", 2),
    (lambda: spin_transform_closed(_V_NAN, _stack_with(_Q, {}), 1.0),
     r"velocity must have finite entries \(sample 2\)", 2),
    (lambda: spin_transform_wigner(_V_NAN, _stack_with(_Q, {}), 1.0),
     r"velocity must have finite entries \(sample 2\)", 2),
    (lambda: lorentz_gamma([1e200, 0.0, 0.0]),
     r"superluminal velocity: speed \|v\| = inf >= 1$", 0),
    (lambda: boost_from_velocity(_stack_with(_V, {1: [0.0, -1e200, 0.0], 3: [NAN, 0.0, 0.0]})),
     r"superluminal velocity: speed \|v\| = inf >= 1 \(sample 1\)", 1),
], ids=["amp-nan", "amp-inf-p", "amp-negative-p0", "amp-inf-p0", "amp-stack-p0", "amp-stack-nan",
        "rho-nan", "rho-inf", "rho-inf-inf", "rho-xi-nan", "rho-stack-nan", "rho-stack-xi",
        "rho-stack-order", "gamma-stack-nan", "boost-stack-nan", "wigner-closed-stack-nan",
        "spin-closed-stack-nan", "spin-wigner-stack-nan", "gamma-overflow",
        "boost-stack-overflow"])
def test_non_finite_samples_are_refused_by_name(make, message, index):
    # refused before any arithmetic, so no RuntimeWarning (an error here) fires
    with pytest.raises(SampleRefused, match=message) as exc:
        make()
    assert exc.value.index == index


# --- sweep-sized stacks -------------------------------------------------------
# A chunk of the sweep has CHUNK samples, so the flattened products of the
# kernels below have 8192 rows or more, which OpenBLAS may block or thread
# otherwise than a small stack.  Rows sampled from the whole chunk, its ends
# included, must still equal the row-by-row calls.

def _chunk_rows(rng):
    return np.union1d([0, 1, CHUNK - 1], rng.choice(CHUNK, 29, replace=False))


def _chunk_samples(name, cfg, rng):
    """One chunk of CHUNK samples of an identity, drawn and built as the sweep does."""
    widths, builders = zip(*IDENTITY_RUNNERS[name][0])
    draws = np.split(rng.standard_normal((CHUNK, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    return [build(cfg, d) for build, d in zip(builders, draws)]


@pytest.mark.parametrize("eps", [1, -1])
def test_fixed_matrix_kernels_on_a_chunk(rng, eps):
    P = momenta_from_draws(rng.standard_normal((CHUNK, BALL)), M, 20.0)
    Ls = lorentz_from_draws(rng.standard_normal((CHUNK, LORENTZ)), 0.99)
    rows = _chunk_rows(rng)
    assert_rows(lambda p: dirac_bar(amplitude(eps, p, M)), P, rows=rows)
    for residual in (orthogonality_residual, parity_residual, sandwich_formula_residual):
        assert_rows(lambda p: residual(eps, p, M), P, rows=rows)
    for mu in range(4):
        assert_rows(lambda p: pl_covariant(mu, eps, p, M), P, rows=rows)
    for i in range(3):
        assert_rows(lambda p: spin_covariant(i, eps, p, M), P, rows=rows)
    assert_rows(lambda p: hamiltonian_covariant(eps, p, M), P, rows=rows)
    assert_rows(lambda L: bispinor_inverse(bispinor_rep(L)), Ls, rows=rows)
    assert_rows(lorentz_residual, Ls, rows=rows)
    assert_rows(lambda L, p: wigner_rotation(L, p, M), Ls, P, rows=rows)


@pytest.mark.parametrize("name", [name for name, (kinds, *_) in IDENTITY_RUNNERS.items() if kinds])
def test_evaluators_on_a_chunk(rng, name):
    cfg = RunConfig(mass=M, pmax_over_m=20.0)
    samples = _chunk_samples(name, cfg, rng)
    assert_rows(lambda *s: evaluate_at(name, M, *s), *samples, rows=_chunk_rows(rng))
