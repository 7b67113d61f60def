import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from diracspin import amplitudes, spin_ops, verify
from diracspin.clifford import (ALPHA, GAMMA, GAMMA5, GAMMA_GAMMA5, PAULI, PAULI_T, SIGMA,
                                column_tables)
from diracspin.lorentz import wigner_rotation
from diracspin.minkowski import (_BLOCK, METRIC, SampleRefused, check_component, check_mass,
                                 contract, gather_columns, is_proper_orthochronous, lorentz_matrix,
                                 lorentz_residual, minkowski_dot, on_shell, parity_flip)
from diracspin.states import (DensityState, Grid, gaussian_packet, momentum_apply, nw_apply,
                              spin_expectations)
from diracspin.verify import RunConfig, run_all
from _reference import EXACT_BATCHES, assert_same_bits, dense_contract, obeys_two_term_rule

finite = st.floats(-50, 50, allow_nan=False)
PARITY = np.diag([1.0, -1.0, -1.0, -1.0])


def test_metric_is_mostly_minus():
    assert_allclose(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))


@given(finite, finite, finite, finite)
def test_dot_signature(t, x, y, z):
    p = np.array([t, x, y, z])
    assert minkowski_dot(p, p) == pytest.approx(t * t - x * x - y * y - z * z, abs=1e-9)


def test_dot_frozen_values():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    assert minkowski_dot(a, b) == pytest.approx(5.0 - 12.0 - 21.0 - 32.0)


@given(finite, finite, finite, st.floats(0.01, 100.0))
def test_on_shell_positive_root(x, y, z, m):
    p = on_shell(m, [x, y, z])
    assert p[0] > 0
    # p0^2 - |p|^2 cancels, so the shell residual is absolute at the p0^2 scale
    assert minkowski_dot(p, p) == pytest.approx(m * m, abs=1e-10 * p[0] ** 2)


def test_on_shell_rest():
    assert_allclose(on_shell(2.5, np.zeros(3)), [2.5, 0, 0, 0])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_on_shell_rejects_bad_mass(bad):
    with pytest.raises(ValueError):
        on_shell(bad, np.zeros(3))


@pytest.mark.parametrize("kind", ["grid", "strided", "extreme", "special"])
def test_on_shell_is_the_einsum_rounding(rng, kind):
    # the whole-batch sum of squares rounds as the einsum; a momentum whose
    # energy is not finite (a squared entry overflowing in "extreme", an inf
    # or nan entry in "special") is refused by index, with no warning
    if kind == "grid":
        pts = Grid(3.2, 63).points()
    else:
        pts = rng.normal(size=(3 * _BLOCK + 5, 3))
        if kind == "strided":
            pts = np.concatenate([np.ones((len(pts), 1)), pts], axis=1)[:, 1:]
        elif kind == "extreme":
            pts *= 10.0 ** rng.uniform(-200.0, 200.0, size=(len(pts), 1))
        else:
            pts[rng.random(pts.shape) < 0.05] = -0.0
            pts[rng.random(pts.shape) < 0.01] = np.inf
            pts[rng.random(pts.shape) < 0.01] = np.nan
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = np.sqrt(2.25 + np.einsum("...i,...i->...", pts, pts))
    ok = np.isfinite(expected)
    assert ok.all() == (kind in ("grid", "strided"))
    good = pts if ok.all() else pts[ok]
    assert len(good) > _BLOCK
    got = on_shell(1.5, good)
    reference = np.concatenate([expected[ok, None], good], axis=1)
    assert_array_equal(got, reference)
    assert_array_equal(np.signbit(got), np.signbit(reference))
    assert_array_equal(on_shell(1.5, good[0]), got[0])
    if not ok.all():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleRefused) as exc:
                on_shell(1.5, pts)
        assert exc.value.index == np.argmin(ok)


def test_parity_flip_keeps_time():
    p = np.array([3.0, 1.0, 2.0, -4.0])
    assert_allclose(parity_flip(p), [3.0, -1.0, -2.0, 4.0])
    # involution
    assert_allclose(parity_flip(parity_flip(p)), p)


def test_parity_matrix_action_matches_flip():
    p = np.array([1.0, 0.5, -0.25, 2.0])
    assert_allclose(PARITY @ p, parity_flip(p))


def test_lorentz_residual_identity_exact():
    assert lorentz_residual(np.eye(4)) == 0.0


def test_lorentz_matrix_rejects_scaled_identity():
    with pytest.raises(ValueError):
        lorentz_matrix(2.0 * np.eye(4))


def test_lorentz_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError):
        lorentz_matrix(np.eye(3))


def test_proper_orthochronous_classification():
    assert is_proper_orthochronous(np.eye(4))
    assert not is_proper_orthochronous(PARITY)                  # det = -1
    assert not is_proper_orthochronous(-np.eye(4))              # past-pointing
    time_reversal = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert not is_proper_orthochronous(time_reversal)


def _boosts(p3):
    """Standard boosts (..., 4, 4) to momenta p3 (..., 3), unit mass, built
    without validation."""
    p0 = np.sqrt(1.0 + np.vecdot(p3, p3))
    L = np.zeros(p3.shape[:-1] + (4, 4))
    L[..., 0, 0] = p0
    L[..., 0, 1:] = L[..., 1:, 0] = p3
    L[..., 1:, 1:] = np.eye(3) + p3[..., :, None] * p3[..., None, :] / (1.0 + p0)[..., None, None]
    return L


def test_discrete_elements_stay_refused_at_high_rapidity():
    boost = _boosts(np.array([1e12, 0.0, 0.0]))
    time_reversal = np.diag([-1.0, 1.0, 1.0, 1.0])
    for X in (PARITY, time_reversal, -np.eye(4), PARITY @ boost,
              time_reversal @ boost, -boost):
        assert not is_proper_orthochronous(X)
        with pytest.raises(SampleRefused, match="not proper orthochronous"):
            lorentz_matrix(X, proper=True)


@pytest.mark.parametrize("p_over_m", [1e2, 1e6, 1e12, 1e15, 1e16, 1e17])
def test_rotation_part_decides_at_high_rapidity(p_over_m):
    # det L cancels to 0 for a boost from p/m ~ 1e12; the rotation part's
    # determinant det L[1:, 1:] / L^0_0 keeps boost x rotation proper up to
    # 1e15, and parity negates it exactly, so a matrix and its parity image
    # are never both accepted, not even where rounding has destroyed it.
    from diracspin.lorentz import _rotation4, rotations_from_draws

    rng = np.random.default_rng(11)
    u = rng.standard_normal((300, 3))
    L = _boosts(p_over_m * u / np.linalg.norm(u, axis=1)[:, None])
    L = L @ _rotation4(rotations_from_draws(rng.standard_normal((300, 4))))
    proper = is_proper_orthochronous(L)
    improper = is_proper_orthochronous(PARITY @ L)
    assert not (proper & improper).any()
    if p_over_m <= 1e15:
        assert proper.all() and not improper.any()
    axis = _boosts(np.array([p_over_m, 0.0, 0.0]))
    assert is_proper_orthochronous(axis) and not is_proper_orthochronous(PARITY @ axis)


def test_a_stack_names_its_first_improper_matrix():
    boosts = _boosts(np.array([[1e12, 0.0, 0.0], [0.0, 1e16, 0.0], [3.0, 4.0, 0.0]]))
    stack = np.concatenate([boosts, PARITY @ boosts])[[0, 1, 4, 2, 3]]
    assert is_proper_orthochronous(stack).tolist() == [True, True, False, True, False]
    with pytest.raises(SampleRefused, match=r"not proper orthochronous \(sample 2\)") as exc:
        lorentz_matrix(stack, proper=True)
    assert exc.value.index == 2


def test_lorentz_matrix_proper_flag():
    # parity preserves the metric but is excluded once proper=True
    lorentz_matrix(PARITY)
    with pytest.raises(ValueError):
        lorentz_matrix(PARITY, proper=True)



@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [0, 1])
def test_lorentz_matrix_refuses_non_finite_entries(proper, entry, k):
    diag = np.ones(4)
    diag[k] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match="non-finite entry"):
            lorentz_matrix(np.diag(diag), proper=proper)


@pytest.mark.parametrize("proper", [False, True])
def test_lorentz_matrix_names_first_non_finite_sample(proper):
    stack = np.stack([np.eye(4), np.eye(4), np.diag([1.0, np.nan, 1.0, 1.0])])
    with pytest.raises(SampleRefused) as exc:
        lorentz_matrix(stack, proper=proper)
    assert exc.value.index == 2 and "(sample 2)" in str(exc.value)


@pytest.mark.parametrize("proper", [False, True])
def test_lorentz_matrix_refuses_overflowing_entries_without_warnings(proper):
    # a standard boost with p/m = 1e200: finite entries whose squares overflow
    g = 1e200
    L = np.eye(4)
    L[0, 0] = L[1, 1] = g
    L[0, 1] = L[1, 0] = g
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match="overflow the metric check"):
            lorentz_matrix(L, proper=proper)


def test_check_mass_refuses_underflowing_square():
    tiny = np.finfo(float).tiny
    assert check_mass(1.5e-154) == 1.5e-154  # 2.25e-308 is still a normal float64
    for m in (1.4e-154, 1e-200, 5e-324):
        with pytest.raises(ValueError, match=f"mass = {m!r} underflows the mass squared"):
            check_mass(m)
    assert check_mass(np.sqrt(tiny) * (1 + 1e-15)) > 0


_P4 = on_shell(1.3, np.array([0.3, -0.4, 0.2]))
_PACKET = gaussian_packet(1, 1.3, 0.5, spin=(0.6, 0.8j))

#: Each function that takes a component index, as (name, range, call).
COMPONENT_CALLS = [
    ("pl_covariant", 4, lambda mu: spin_ops.pl_covariant(mu, 1, _P4, 1.3)),
    ("pl_spin", 4, lambda mu: spin_ops.pl_spin(mu, -1, _P4, 1.3)),
    ("spin_matrix", 3, spin_ops.spin_matrix),
    ("spin_covariant", 3, lambda i: spin_ops.spin_covariant(i, 1, _P4, 1.3)),
    ("nw_apply", 3, lambda i: nw_apply(_PACKET, i)),
    ("momentum_apply", 3, lambda j: momentum_apply(_PACKET, j)),
]


@pytest.mark.parametrize("name, n, call", COMPONENT_CALLS, ids=[c[0] for c in COMPONENT_CALLS])
@pytest.mark.parametrize("bad", [-1, -3, "n", 7, 1.0, True, None])
def test_component_index_outside_range_is_refused(name, n, call, bad):
    # a negative index once gave another component's value or one that
    # matched none, and a float or a large one failed inside the indexing
    index = n if bad == "n" else bad
    with pytest.raises(ValueError, match=rf"must be an integer in range\({n}\), got "):
        call(index)


def test_check_component_accepts_integers_in_range():
    assert [check_component(i, 4, "mu") for i in range(4)] == [0, 1, 2, 3]
    got = check_component(np.int64(2), 3, "i")
    assert got == 2 and type(got) is int


@pytest.mark.parametrize("m", [1.0, 1.5e-154, 1e300, 1.4e-154, 5e-324, 0.0, -1.0, np.nan, np.inf])
def test_kernels_refuse_a_mass_as_check_mass_does(m):
    # each kernel takes one mass and refuses exactly what check_mass refuses,
    # with its text and no warning; a state at rest is exact at any such mass
    rest = np.array([[m, 0.0, 0.0, 0.0]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check_mass(m)
        except ValueError as exc:
            message = rf"^{re.escape(str(exc))}$"
            with pytest.raises(ValueError, match=message):
                wigner_rotation(np.eye(4), rest, m)
            with pytest.raises(ValueError, match=message):
                spin_ops.pl_spin(1, 1, rest, m)
            with pytest.raises(ValueError, match=message):
                DensityState(m, np.zeros((2, 3)), np.zeros((2, 3)))
        else:
            R3, _ = wigner_rotation(np.eye(4), rest, m)
            assert np.array_equal(R3, [np.eye(3)] * 2)
            assert np.array_equal(spin_ops.pl_spin(1, 1, rest, m), [m * PAULI_T[0] / 2.0] * 2)


# --- gathers with fixed monomial matrices ------------------------------------

#: Stack layouts: C-contiguous, a swapaxes view (each matrix in column-major
#: order) and matrices stored as planes behind the batch axes (the layout of
#: `amplitudes.amplitude`), where no matrix is contiguous.
LAYOUTS = ["contiguous", "swapaxes", "planes"]


def _stack(rng, batch, rows, cols, layout, zeros=False):
    def draw(shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if zeros:  # exact zeros of both signs, in both components
            x.real[np.abs(x.real) < 0.3] = 0.0
            x.imag[np.abs(x.imag) < 0.3] = -0.0
        return x
    if layout == "contiguous":
        return draw(batch + (rows, cols))
    if layout == "swapaxes":
        return np.swapaxes(draw(batch + (cols, rows)), -1, -2)
    return np.moveaxis(draw((rows, cols) + batch), (0, 1), (-2, -1))


def _gather_tables():
    """Each gather table in use, with its matrices side by side as one dense
    matrix and the rows of the stacks it is applied to."""
    sandwich = [GAMMA5, *(g for mu in range(4) for g in (GAMMA[mu], GAMMA_GAMMA5[mu]))]
    return {"sandwiches": (amplitudes._SANDWICH_COLUMNS, np.concatenate(sandwich, axis=1), 2),
            "gamma": (verify._GAMMA_COLUMNS, np.concatenate(GAMMA, axis=1), 4),
            "pauli": (verify._PAULI_COLUMNS, np.concatenate(PAULI, axis=1), 2)}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batch", EXACT_BATCHES)
@pytest.mark.parametrize("name", list(_gather_tables()))
def test_gather_columns_is_the_matrix_product_bit_for_bit(name, batch, layout):
    tables, M, rows = _gather_tables()[name]
    blocks = np.split(M, M.shape[1] // len(M), axis=1)
    assert_same_bits(np.stack(tables), np.stack(column_tables(blocks)))
    rng = np.random.default_rng(len(batch) + M.shape[1])
    X = _stack(rng, batch, rows, len(M), layout)
    got = gather_columns(X, *tables)
    assert got.flags.c_contiguous
    assert_same_bits(got, np.ascontiguousarray(X @ M))
    # A zero term gives a zero entry, always +0 here.  The dense product's
    # sign of it depends on the BLAS kernel (OpenBLAS's stacked 2 x 6 Pauli
    # product gives -0 for some), so the gather equals it with zeros made +0.
    X = _stack(rng, batch, rows, len(M), layout, zeros=True)
    assert_same_bits(gather_columns(X, *tables), np.ascontiguousarray(X @ M) + 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("name", list(_gather_tables()))
def test_gather_columns_leaves_the_products_samples_non_finite(name, bad):
    tables, M, rows = _gather_tables()[name]
    X = _stack(np.random.default_rng(5), (6,), rows, len(M), "contiguous")
    X[1, 0, 0] = X[4, -1, -1] = bad
    with np.errstate(invalid="ignore"):
        got, ref = gather_columns(X, *tables), X @ M
    assert_array_equal(np.isfinite(got).all(axis=(-2, -1)), np.isfinite(ref).all(axis=(-2, -1)))
    assert_array_equal(np.isfinite(got).all(axis=(-2, -1)), [True, False, True, True, False, True])


# --- flat contractions with fixed tensors ------------------------------------

def _fixed_tensors():
    return {"GAMMA": GAMMA, "ALPHA": ALPHA, "PAULI": PAULI, "PAULI_T": PAULI_T,
            "_SPIN": spin_ops._SPIN}


#: The tensors the contraction tests take: those above, and gamma^k alone,
#: whose rows alpha_k = gamma^0 gamma^k permutes.
_CONTRACTED = {**_fixed_tensors(), "GAMMA[1:]": GAMMA[1:]}


@pytest.mark.parametrize("batch", EXACT_BATCHES)
@pytest.mark.parametrize("name", list(_CONTRACTED))
def test_contract_is_the_einsum_bit_for_bit(name, batch):
    T = _CONTRACTED[name]
    x = np.random.default_rng(len(batch) + len(T)).standard_normal(batch + (len(T),)) * 7.0
    x[..., 0] = np.where(np.abs(x[..., 0]) < 0.5, 0.0, x[..., 0])  # some exact zeros too
    got = contract(x, T)
    assert got.flags.c_contiguous
    assert_same_bits(got, dense_contract(x, T))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", list(_CONTRACTED))
def test_contract_leaves_the_einsums_samples_non_finite(name, bad):
    T = _CONTRACTED[name]
    x = np.random.default_rng(5).standard_normal((6, len(T)))
    x[1, 0] = x[4, -1] = bad
    with np.errstate(invalid="ignore"):
        got, ref = contract(x, T), dense_contract(x, T)
    tail = tuple(range(1, got.ndim))
    assert_array_equal(np.isfinite(got).all(axis=tail), np.isfinite(ref).all(axis=tail))
    assert_array_equal(np.isfinite(got).all(axis=tail), [True, False, True, True, False, True])


def test_every_contracted_tensor_obeys_the_two_term_rule(monkeypatch):
    # Record each tensor any module hands to contract while the sweep and the
    # Bloch-state kernels run: a tensor outside the rule could round
    # differently from its einsum and move a pinned digit.  The recorded set
    # must also be the one the einsum test above covers.
    seen = {}

    def recording(x, T):
        seen[(T.shape, T.tobytes())] = T
        return contract(x, T)

    for mod in [m for name, m in sys.modules.items() if name.startswith("diracspin")]:
        if getattr(mod, "contract", None) is contract:
            monkeypatch.setattr(mod, "contract", recording)
    assert run_all(RunConfig(samples=20))["all_pass"]
    spin_expectations(DensityState(1.0, [0.3, -0.2, 0.9], [0.1, 0.5, -0.3]))
    expected = {(T.shape, T.tobytes()) for T in _fixed_tensors().values()}
    assert set(seen) == expected
    assert all(obeys_two_term_rule(T) for T in seen.values())
    # the rule bites: contracting with the 16 generators Sigma^{mu nu} sums four terms
    assert not obeys_two_term_rule(SIGMA.reshape(16, 4, 4))
