import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diracspin.amplitudes import amplitude
from diracspin.clifford import GAMMA0, PAULI
from diracspin.lorentz import (_sl2c_lift, bispinor_rep, boost_from_velocity, random_lorentz,
                               random_rotation, wigner_d, wigner_rotation)
from diracspin import minkowski
from diracspin.minkowski import SampleRefused, on_shell, shell_energy
from diracspin.states import (CovariantWaveFunction, DensityState, Grid, SpinWaveFunction,
                              apply_spin, bloch_transform, dirac_residual, evaluate_on,
                              from_covariant, gaussian_packet, lorentz_transform,
                              momentum_apply, norm, normalized, nw_apply, nw_apply_sampled,
                              nw_shift, sample, scalar_product, spin_expectations,
                              to_covariant)
from diracspin import states
from _reference import EXACT_BATCHES, assert_same_bits, dense_contract


def packet(eps=1, width=0.5, spin=(1.0, 0.0), center=(0.0, 0.0, 0.0)):
    return gaussian_packet(eps, 1.0, width, spin=spin, center=np.asarray(center))


@pytest.fixture
def pts(rng):
    return rng.normal(scale=0.8, size=(30, 3))


# --- packets, jets and the sympy oracle -----------------------------------

def _lambdified(exprs, pts):
    """A pair of sympy expressions in p1, p2, p3, lambdified as one numpy
    function with shared subexpressions and every Float printed as the repr
    of its float64 (sympy's own printer keeps 15 significant digits), at the
    points: shape (N, 2)."""
    sp = pytest.importorskip("sympy")
    from sympy.printing.numpy import NumPyPrinter

    class Float64Printer(NumPyPrinter):
        def _print_Float(self, expr):
            return repr(float(expr))

    printer = Float64Printer({"fully_qualified_modules": False, "inline": True,
                              "allow_unknown_functions": True})
    f = sp.lambdify(sp.symbols("p1 p2 p3", real=True), list(exprs), modules="numpy", cse=True,
                    printer=printer)
    out = np.empty(pts.shape[:-1] + (2,), dtype=complex)
    # a constant component comes back as a scalar; the assignment broadcasts it
    out[..., 0], out[..., 1] = f(pts[..., 0], pts[..., 1], pts[..., 2])
    return out


def _packet_pair(w):
    """The sympy pair spin_s * exp(-|P - center|^2 / (2 width^2)) of a packet."""
    sp = pytest.importorskip("sympy")
    P = sp.symbols("p1 p2 p3", real=True)
    gauss = sp.exp(-sum((P[i] - w.center[i]) ** 2 for i in range(3)) / w._two_w2)
    return tuple(sp.sympify(s) * gauss for s in w.spin)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (0.0, -0.7, 0.0)],
                         ids=["centred", "off-centre", "off-axis-zero"])
@pytest.mark.parametrize("unit", [False, True], ids=["raw", "normalized"])
def test_packet_matches_its_symbolic_form(eps, center, unit):
    # The numpy packet takes lambdify's operations in lambdify's order, so it
    # equals the lambdified pair bit for bit while sympy keeps the terms of
    # the exponent in axis order.  A center with a zero component is sorted
    # with that plain square first; the exponent x = |p - c|^2 / (2 width^2)
    # is then summed in another order, and exp carries its rounding as a
    # relative error of x ulps.  Measured: at most 1.6 eps (1 + x) |value|.
    w = packet(eps=eps, width=0.45, spin=(0.3 - 0.2j, 0.5 + 0.7j), center=center)
    if unit:
        w = normalized(w)
    pts = Grid(3.0, 63).points()
    got, ref = w.evaluate(pts), _lambdified(_packet_pair(w), pts)
    if center[0] and center[1] and center[2] or not any(center):
        assert np.array_equal(got, ref)
    x = np.sum((pts - np.asarray(center)) ** 2, axis=1) / (2.0 * 0.45 ** 2)
    bound = 2.0 * np.finfo(float).eps * (1.0 + x)[:, None] * np.abs(ref)
    assert (np.abs(got - ref) <= bound).all()


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("width", [0.45, 0.02])  # at 0.02 most of the cube underflows to zero
def test_packet_jet_matches_evaluate(eps, width):
    # evaluate is the packet's order-0 jet computed in place: bit for bit,
    # sign bits of zeros included
    w = packet(eps=eps, width=width, spin=(0.3 - 0.2j, -0.5 + 0.7j), center=(0.3, -0.2, 0.5))
    pts = Grid(3.0, 63).points()
    jet = w.taylor(pts, 0)
    assert jet.order == 0 and list(jet.coef) == [(0, 0, 0)]
    assert np.array_equal(w.evaluate(pts).view(np.int64), jet.value.view(np.int64))


@pytest.mark.parametrize("eps", [1, -1])
def test_jet_operators_match_sympy(eps, rng):
    # Chains of operators on a packet, built on jets, against the same chains
    # built on the packet's sympy pair, differentiated by sympy and lambdified
    sp = pytest.importorskip("sympy")
    P = sp.symbols("p1 p2 p3", real=True)
    om2 = 1.0 + P[0] ** 2 + P[1] ** 2 + P[2] ** 2
    a = np.array([0.3, -0.2, 0.1])
    M = np.array([[0.6, 1.0 - 0.5j], [1.0j, -0.3]])

    def X(e, i):
        return tuple(sp.I * eps * (sp.diff(c, P[i]) - P[i] / (2 * om2) * c) for c in e)

    def Pm(e, j):
        return tuple(eps * P[j] * c for c in e)

    def shift(e):
        sub = {P[i]: P[i] + eps * a[i] for i in range(3)}
        factor = sp.sqrt(sp.sqrt(om2) / sp.sqrt(om2.subs(sub, simultaneous=True)))
        return tuple(factor * c.subs(sub, simultaneous=True) for c in e)

    def spin(e):
        return tuple(sum(sp.sympify(complex(M[s, t])) * e[t] for t in range(2)) for s in range(2))

    w = normalized(packet(eps=eps, width=0.7, spin=(0.6, 0.8j), center=(0.2, -0.1, 0.3)))
    chains = {
        "X0": (lambda u: nw_apply(u, 0), lambda e: X(e, 0)),
        "X2": (lambda u: nw_apply(u, 2), lambda e: X(e, 2)),
        "X0X1": (lambda u: nw_apply(nw_apply(u, 1), 0), lambda e: X(X(e, 1), 0)),
        "X2X2": (lambda u: nw_apply(nw_apply(u, 2), 2), lambda e: X(X(e, 2), 2)),
        "X0X1X1": (lambda u: nw_apply(nw_apply(nw_apply(u, 1), 1), 0),
                   lambda e: X(X(X(e, 1), 1), 0)),
        "X1P1": (lambda u: nw_apply(momentum_apply(u, 1), 1), lambda e: X(Pm(e, 1), 1)),
        "P0X2": (lambda u: momentum_apply(nw_apply(u, 2), 0), lambda e: Pm(X(e, 2), 0)),
        "X1 shift spin": (lambda u: nw_apply(nw_shift(apply_spin(u, M), a), 1),
                          lambda e: X(shift(spin(e)), 1)),
        "X0X1 shift": (lambda u: nw_apply(nw_apply(nw_shift(u, a), 1), 0),
                       lambda e: X(X(shift(e), 1), 0)),
    }
    pts = rng.normal(scale=0.8, size=(64, 3))
    for name, (op, oracle) in chains.items():
        got, ref = op(w).evaluate(pts), _lambdified(oracle(_packet_pair(w)), pts)
        assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max(), name


def test_nw_apply_refuses_a_profile_without_derivatives(rng):
    # a callable has values only: nw_apply refuses it when applied, and a
    # profile built on one at the latest when evaluated
    w = packet(spin=(0.6, 0.8j))
    moved = lorentz_transform(w, random_lorentz(rng, vmax=0.8))
    for callable_profile in (_as_callable(w), moved):
        with pytest.raises(ValueError, match="nw_apply_sampled"):
            nw_apply(callable_profile, 0)
    with pytest.raises(ValueError, match="nw_apply_sampled"):
        nw_apply(momentum_apply(moved, 2), 1).evaluate(np.zeros((1, 3)))


def test_normalized_packet_is_a_packet(pts):
    # normalized scales the spin pair once; evaluating the unit packet is the
    # packet formula with that pair, with no division per call
    w = packet(spin=(0.6, 0.8j), width=0.4)
    unit = normalized(w)
    assert unit.fn is None and unit.spin is not None
    inv = 1.0 / norm(w)
    assert unit.spin == (0.6 * inv, 0.8j * inv)
    again = gaussian_packet(1, 1.0, 0.4, spin=unit.spin)
    assert np.array_equal(unit.evaluate(pts), again.evaluate(pts))
    assert norm(unit) == pytest.approx(1.0, abs=2e-15)


# --- grids -----------------------------------------------------------------

def test_grid_axis_and_weights():
    g = Grid(2.0, 5)
    assert_allclose(g.axis(), [-2, -1, 0, 1, 2])
    w = g.weights()
    assert w.shape == (125,)
    # trapezoid weights integrate 1 over the cube to its volume
    assert np.sum(w) == pytest.approx(4.0 ** 3)


@pytest.mark.parametrize("half_width, n", [(2.0, 5), (3.0, 64), (1.5, 7)])
def test_grid_points_match_meshgrid(half_width, n):
    g = Grid(half_width, n)
    ax = g.axis()
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    assert np.array_equal(g.points(), np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1))


@pytest.mark.parametrize("n", [2, 5, 35, 63, 64, 65])
def test_block_points_are_rows_of_points(monkeypatch, n):
    # a block made from the axis holds the rows of the whole array, bit for
    # bit, also where it starts or ends part-way through a plane of axis 0
    g = Grid(2.5, n)
    ax = g.axis()
    whole = np.stack([X.ravel() for X in np.meshgrid(ax, ax, ax, indexing="ij")], axis=-1)
    monkeypatch.setattr(minkowski, "_BLOCK", n * n // 2 + 1)
    slices = list(minkowski._block_slices(n ** 3))
    assert any(sl.start % (n * n) for sl in slices)
    for sl in slices:
        assert_array_equal(g.block_points(sl), whole[sl])
    assert_array_equal(g.points(), whole)


@pytest.mark.parametrize("n", [5, 64])
def test_shell_measure_is_the_whole_array_formula(monkeypatch, n):
    # omega and d3p/(2 omega) built block by block from each block's points
    g = Grid(3.0, n)
    monkeypatch.setattr(minkowski, "_BLOCK", n * n // 2 + 1)
    om, wts = g.shell_measure(2.5)
    assert_array_equal(om, shell_energy(2.5, g.points()))
    assert_array_equal(wts, g.weights() / (2.0 * om))


def test_grid_refined_shares_endpoints():
    g = Grid(3.0, 9)
    r = g.refined()
    assert r.n == 17 and r.half_width == g.half_width
    assert_allclose(r.axis()[::2], g.axis())


def test_grid_rejects_bad_shape():
    with pytest.raises(ValueError):
        Grid(-1.0, 8)
    with pytest.raises(ValueError):
        Grid(1.0, 1)


@pytest.mark.parametrize("n", [3.5, 64.0, True, "64"])
def test_grid_rejects_a_non_integer_n(n):
    with pytest.raises(ValueError, match=r"n must be an integer, got"):
        Grid(1.0, n)


def test_grid_takes_a_numpy_integer_n():
    assert Grid(1.0, np.int64(5)).points().shape == (125, 3)


def test_grid_rejects_non_finite_pmax():
    with pytest.raises(ValueError, match="half_width"):
        Grid(float("nan"))


def test_packet_rejects_non_finite_width():
    # a NaN width passes a `width <= 0` test and makes the norm NaN
    with pytest.raises(ValueError, match="width"):
        gaussian_packet(1, 1.0, float("nan"))


def test_packet_rejects_non_finite_spin():
    with pytest.raises(ValueError, match="spin"):
        gaussian_packet(1, 1.0, 0.5, spin=(float("nan"), 0.0))


def test_packet_rejects_non_finite_center():
    # a NaN center would size the default grid with pmax = nan
    with pytest.raises(ValueError, match="center"):
        gaussian_packet(1, 1.0, 0.5, center=(float("nan"), 0.0, 0.0))


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.5,), ((0.0, 0.0, 0.0),)])
def test_profile_center_and_shift_must_be_three_vectors(center):
    # a (2,) center once passed and broke the norm with an IndexError, and a
    # (1,) shift broadcast into a shift along every axis
    with pytest.raises(ValueError, match=r"center must have shape \(3,\)"):
        gaussian_packet(1, 1.0, 0.4, center=center)
    with pytest.raises(ValueError, match=r"center must have shape \(3,\)"):
        CovariantWaveFunction(eps=1, mass=1.0, width=0.5, fn=np.zeros_like, center=center)
    with pytest.raises(ValueError, match=r"shift a3 must have shape \(3,\)"):
        nw_shift(packet(), center)


@pytest.mark.parametrize("kind", [SpinWaveFunction, CovariantWaveFunction])
def test_wavefunction_validation_and_default_grid(kind):
    def fn(pts):
        return np.zeros(pts.shape[:-1] + (4,))

    w = kind(eps=-1, mass=2.0, width=0.5, fn=fn, center=[3.0, 4.0, 0.0])
    assert w.center.dtype == float
    assert w.default_grid(16) == Grid(5.0 + 8.0 * 0.5, 16)
    for bad in ({"eps": 0}, {"mass": 0.0}, {"mass": float("nan")}, {"width": 0.0}):
        with pytest.raises(ValueError):
            kind(**{"eps": 1, "mass": 1.0, "width": 0.5, "fn": fn, **bad})


# --- scalar product and norms ----------------------------------------------

def test_norm_of_normalized_packet():
    w = normalized(packet(width=0.4))
    assert norm(w) == pytest.approx(1.0, abs=1e-12)


def test_scalar_product_conjugate_symmetry():
    a = packet(spin=(1.0, 0.5j), width=0.45)
    b = packet(spin=(0.2, 1.0), width=0.6, center=(0.3, 0.0, 0.0))
    ab = scalar_product(a, b)
    ba = scalar_product(b, a)
    assert ab == pytest.approx(np.conj(ba), abs=1e-12)


def test_scalar_product_antilinear_first_slot():
    a = packet(spin=(1.0, 0.0))
    b = packet(spin=(0.0, 1.0), center=(0.2, -0.1, 0.0))
    scaled = apply_spin(a, (2.0 - 1.0j) * np.eye(2))
    got = scalar_product(scaled, b)
    assert got == pytest.approx(np.conj(2.0 - 1.0j) * scalar_product(a, b), abs=1e-12)


def test_cross_shell_orthogonality_exact():
    a = packet(eps=1)
    b = packet(eps=-1)
    assert scalar_product(a, b) == 0.0


def test_self_product_evaluates_once():
    calls = []
    base = packet(spin=(1.0, 0.5j))

    def fn(pts):
        calls.append(len(pts))
        return base.evaluate(pts)

    w = SpinWaveFunction(eps=1, mass=1.0, width=0.5, fn=fn)
    assert norm(w, Grid(4.0, 12)) == norm(base, Grid(4.0, 12))
    assert calls == [12 ** 3]


# --- block-wise grid evaluation ------------------------------------------
# The reference is the whole-array evaluation: `minkowski._BLOCK` raised to
# at least the number of points makes `evaluate_on` a single call.

def _transported(rng, eps):
    w = normalized(packet(eps=eps, spin=(0.6, 0.8j), width=0.4))
    return lorentz_transform(w, random_lorentz(rng, vmax=0.8))


@pytest.mark.parametrize("eps", [1, -1])
def test_blocks_match_whole_grid_transported(monkeypatch, rng, eps):
    moved = _transported(rng, eps)
    grid = moved.default_grid(64)
    pts = grid.points()
    assert len(pts) > minkowski._BLOCK
    blocked, nrm = evaluate_on(moved, pts), norm(moved, grid)
    monkeypatch.setattr(minkowski, "_BLOCK", len(pts))
    assert_array_equal(blocked, moved.evaluate(pts))
    assert norm(moved, grid) == nrm


@pytest.mark.parametrize("eps", [1, -1])
def test_blocks_match_whole_grid_basis_changes(monkeypatch, eps):
    c = to_covariant(packet(eps=eps, spin=(0.6, 0.8j), width=0.4))
    back = from_covariant(c)
    grid = c.default_grid(63)
    pts = grid.points()
    assert len(pts) % minkowski._BLOCK != 0
    blocked = [evaluate_on(c, pts), evaluate_on(back, pts), dirac_residual(c, pts),
               sample(back, grid).values]
    monkeypatch.setattr(minkowski, "_BLOCK", len(pts))
    assert_array_equal(blocked[0], c.evaluate(pts))
    assert_array_equal(blocked[1], back.evaluate(pts))
    assert dirac_residual(c, pts) == blocked[2]
    assert_array_equal(sample(back, grid).values, blocked[3])


@pytest.mark.parametrize("eps", [1, -1])
def test_transport_is_the_per_point_wigner_d_route(rng, eps):
    # the per-transform Wigner factor changes no bit: the transported profile
    # equals D* psitilde(L^-1 p) with D from the public `wigner_d`, whole and
    # block by block, on a 64^3 grid of several blocks
    w = normalized(packet(eps=eps, spin=(0.6, 0.8j), width=0.4))
    L = random_lorentz(rng, vmax=0.8)
    moved = lorentz_transform(w, L)
    pts = moved.default_grid(64).points()
    assert len(pts) > 4 * minkowski._BLOCK
    q4 = on_shell(1.0, pts)
    pre4 = q4 @ (np.diag([1.0, -1, -1, -1]) @ L.T @ np.diag([1.0, -1, -1, -1])).T
    pre4[:, 0] = shell_energy(1.0, pre4[:, 1:])
    D = wigner_d(L, pre4, q4, 1.0)
    reference = np.einsum("nse,ne->ns", D.conj(), w.evaluate(pre4[:, 1:]))
    assert_array_equal(moved.evaluate(pts), reference)
    assert_array_equal(evaluate_on(moved, pts), reference)


@pytest.mark.parametrize("eps", [1, -1])
def test_to_covariant_is_the_row_wise_contraction(eps):
    # the plane-layout contraction rounds as v^eps(p) psitilde(p) row by row
    w = packet(eps=eps, spin=(0.6, 0.8j), width=0.4, center=(0.2, -0.1, 0.3))
    pts = Grid(4.0, 40).points()
    v = amplitude(eps, on_shell(1.0, pts), 1.0)
    assert_array_equal(to_covariant(w).evaluate(pts),
                       np.einsum("nab,nb->na", v, w.evaluate(pts)))


@pytest.mark.parametrize("width, direction", [(1e150, "overflow"), (1e-150, "underflow")])
def test_norm_refuses_cube_with_weights_out_of_range(width, direction):
    # without the refusal the norm read nan (and `normalized` blamed the
    # packet spin) or 0.0 ("cannot normalize the zero profile")
    w = gaussian_packet(1, 1.0, width)
    for call in (norm, normalized):
        with pytest.raises(ValueError, match=r"^momentum cube Grid\(.*d3p/\(2 omega\) weights"):
            call(w)
    with pytest.raises(ValueError, match=r"d3p/\(2 omega\) weights"):
        scalar_product(w, w, w.default_grid(8))


@pytest.mark.parametrize("width", [1e-30, 1e30])
def test_norm_of_extreme_in_range_widths(width):
    assert norm(normalized(gaussian_packet(1, 1.0, width))) == pytest.approx(1.0, rel=1e-9)


def test_blocks_are_near_equal():
    # split as np.array_split does: no block is a small remainder
    sizes = []
    base = packet()

    def fn(pts):
        sizes.append(len(pts))
        return base.evaluate(pts)

    w = SpinWaveFunction(eps=1, mass=1.0, width=0.5, fn=fn)
    n = 63 ** 3
    evaluate_on(w, Grid(4.0, 63).points())
    assert sum(sizes) == n and len(sizes) == -(-n // minkowski._BLOCK)
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= minkowski._BLOCK


def test_transported_norm_peak_memory(rng):
    # Evaluated whole, the 64^3 grid held ~96 MiB of temporaries at once;
    # with a whole (N, 3) point array it peaked at 26.1 MiB, and with each
    # block's points made from the axis it peaks at 20.1 MiB.
    moved = _transported(rng, 1)
    grid = moved.default_grid(64)
    norm(moved, grid)  # compiles the profile outside the traced call
    tracemalloc.start()
    try:
        norm(moved, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_spin_covariant_product_peak_memory():
    # A spin bra against a covariant ket on 64^3: the ket's values are made
    # first, then the bra's covariant values, conjugated in place.  That
    # peaks at 47.4 MiB; the conjugated copy of the bra peaked at 50.0 MiB
    # with the bra made first and at 60.0 MiB with the ket made first.
    w = packet(spin=(0.6, 0.8j), width=0.4)
    c = to_covariant(w)
    grid = w.default_grid(64)
    scalar_product(w, c, grid)  # compiles the profiles outside the traced call
    tracemalloc.start()
    try:
        scalar_product(w, c, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 57 * 2 ** 20


def test_dirac_residual_peak_memory():
    # With the whole (N, 4, 4) projector, the 64^3 grid peaked at ~136 MiB.
    c = to_covariant(gaussian_packet(1, 1.0, 0.4))
    pts = c.default_grid(64).points()
    dirac_residual(c, pts)  # compiles the profile outside the traced call
    tracemalloc.start()
    try:
        dirac_residual(c, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("covariant", [False, True], ids=["spin", "covariant"])
def test_self_product_equals_product_with_copy(rng, covariant):
    # reusing one evaluation for (a, a) gives exactly the two-evaluation value
    w = packet(spin=(0.6, 0.8j), width=0.5)
    a = lorentz_transform(to_covariant(w) if covariant else w, random_lorentz(rng, vmax=0.6))
    grid = a.default_grid(24)
    assert scalar_product(a, a, grid) == scalar_product(a, replace(a), grid)


def test_scalar_product_rejects_mass_mismatch():
    # masses are compared exactly, also where they differ by less than 1e-12
    for m1, m2 in ((1.0, 2.0), (1e-13, 5e-13)):
        a = gaussian_packet(1, m1, 0.5)
        b = gaussian_packet(1, m2, 0.5)
        with pytest.raises(ValueError, match="requires equal masses"):
            scalar_product(a, b)


def test_orthogonal_spins_give_zero():
    a = packet(spin=(1.0, 0.0))
    b = packet(spin=(0.0, 1.0))
    assert abs(scalar_product(a, b)) < 1e-14


def test_mixed_spin_and_covariant_product():
    # a spin-basis sector paired with a covariant one is carried to the
    # covariant basis; either order gives the spin-basis product
    w = packet(spin=(0.6, 0.8j), width=0.5, center=(0.2, 0.0, -0.1))
    grid = Grid(4.0, 24)
    expect = scalar_product(w, w, grid)
    assert scalar_product(w, to_covariant(w), grid) == pytest.approx(expect, rel=1e-14)
    assert scalar_product(to_covariant(w), w, grid) == pytest.approx(expect, rel=1e-14)


def test_product_of_sector_sequences():
    # sequences pair every sector with every other; the cross-shell pairs are 0
    plus = packet(spin=(0.6, 0.8j), width=0.5)
    minus = packet(eps=-1, spin=(0.0, 1.0), width=0.6)
    grid = Grid(4.0, 24)
    both = scalar_product([plus, minus], [plus, minus], grid)
    assert both == scalar_product(plus, plus, grid) + scalar_product(minus, minus, grid)


# --- covariant bridge ------------------------------------------------------

@pytest.mark.parametrize("eps", [1, -1])
def test_covariant_roundtrip(eps, pts):
    w = packet(eps=eps, spin=(0.8, 0.6j))
    back = from_covariant(to_covariant(w))
    assert_allclose(back.evaluate(pts), w.evaluate(pts), atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_covariant_solves_momentum_dirac(eps, pts):
    c = to_covariant(packet(eps=eps))
    assert dirac_residual(c, pts) < 1e-12


def test_covariant_shape(pts):
    c = to_covariant(packet())
    assert isinstance(c, CovariantWaveFunction)
    assert c.evaluate(pts).shape == (30, 4)


# --- Lorentz action --------------------------------------------------------

def test_transform_routes_agree(rng, pts):
    # boosting the spin profile then lifting = lifting then boosting
    w = packet(spin=(1.0, -0.5j), width=0.6)
    L = random_lorentz(rng, vmax=0.7)
    via_spin = to_covariant(lorentz_transform(w, L))
    via_cov = lorentz_transform(to_covariant(w), L)
    assert_allclose(via_spin.evaluate(pts), via_cov.evaluate(pts), atol=1e-12)


def test_transform_composition_up_to_cover_sign(rng, pts):
    # the SU(2)-lifted action is double valued: composing two finite
    # transformations may land on the other sheet, so compare modulo +-1
    w = packet(width=0.55)
    L1 = random_lorentz(rng, vmax=0.6)
    L2 = random_lorentz(rng, vmax=0.6)
    once = lorentz_transform(w, L2 @ L1).evaluate(pts)
    twice = lorentz_transform(lorentz_transform(w, L1), L2).evaluate(pts)
    mismatch = min(np.abs(twice - s * once).max() for s in (1.0, -1.0))
    assert mismatch < 1e-10


def test_transform_identity(pts):
    w = packet(spin=(0.3, 1.0))
    out = lorentz_transform(w, np.eye(4))
    assert_allclose(out.evaluate(pts), w.evaluate(pts), atol=1e-14)


def test_norm_invariant_under_boost():
    w = normalized(packet(width=0.5))
    L = boost_from_velocity([0.4, 0.0, 0.2])
    moved = lorentz_transform(w, L)
    assert norm(moved) == pytest.approx(1.0, rel=1e-6)


def _transport_d(L, pts, m):
    # D on a batch of spatial momenta, with p and q = Lp lifted as transport lifts them
    p4 = on_shell(m, pts)
    return wigner_d(L, p4, on_shell(m, p4 @ L[1:].T), m)


def test_wigner_d_batch_unitary(rng, pts):
    L = random_lorentz(rng)
    D = _transport_d(L, pts, 1.0)
    assert D.shape == (len(pts), 2, 2)
    prods = np.einsum("nab,ncb->nac", D, D.conj())
    assert_allclose(prods, np.broadcast_to(np.eye(2), prods.shape), atol=1e-10)


def _wigner_d_reference(L, pts, m, eps):
    # D^T = (eps vbar(Lp) S(L) v(p))^{-1} through a general einsum and inverse
    p4 = np.concatenate([np.sqrt(m * m + np.sum(pts ** 2, axis=1))[:, None], pts], axis=1)
    v_in = amplitude(eps, on_shell(m, pts), m)
    v_out = amplitude(eps, on_shell(m, (p4 @ L.T)[:, 1:]), m)
    M = eps * np.einsum("nbs,bc,cd,nde->nse", v_out.conj(), GAMMA0, bispinor_rep(L), v_in)
    return np.linalg.inv(M).transpose(0, 2, 1)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("m", [0.3, 1.0, 7.0])
def test_wigner_d_batch_matches_reference(rng, eps, m):
    L = random_lorentz(rng, vmax=0.95)
    pts = m * rng.normal(scale=3.0, size=(200, 3))
    assert_allclose(_transport_d(L, pts, m), _wigner_d_reference(L, pts, m, eps),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("m", [0.3, 1.0, 7.0])
def test_wigner_d_batch_rotates_pauli_vectors(rng, eps, m):
    # defining property D (sigma.a) D^+ = (R a).sigma with R the vector
    # Wigner rotation; a transposed or conjugated D fails it.  The one D
    # also transports the amplitudes of either shell, S(L) v^eps(p) D^T =
    # v^eps(Lp), which pins its double-cover sign to that of S(L).
    L = random_lorentz(rng, vmax=0.95)
    pts = m * rng.normal(scale=3.0, size=(20, 3))
    D = _transport_d(L, pts, m)
    for k, p in enumerate(pts):
        R, _ = wigner_rotation(L, on_shell(m, p), m)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        lhs = D[k] @ np.einsum("i,iab->ab", a, PAULI) @ D[k].conj().T
        assert_allclose(lhs, np.einsum("i,iab->ab", R @ a, PAULI), rtol=0, atol=1e-12)
    p4 = on_shell(m, pts)
    moved = bispinor_rep(L) @ amplitude(eps, p4, m) @ D.transpose(0, 2, 1)
    assert_allclose(moved, amplitude(eps, p4 @ L.T, m), rtol=0, atol=1e-12)


def _group_projection(L):
    # Lambda^mu_nu = tr(sigma_mu A sigma_nu A^+) / 2 for the lift A of L, in
    # extended precision: a Lorentz matrix to ~1e-19, however far the float64
    # L misses the metric
    s4 = np.concatenate([np.eye(2)[None], PAULI]).astype(np.clongdouble)
    A = _sl2c_lift(L).astype(np.clongdouble)
    return np.einsum("mab,bc,ncd,da->mn", s4, A, s4, A.conj().T).real / 2


@pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4])
def test_wigner_d_batch_high_rapidity(rng, ratio):
    # the closed form keeps unitarity and the Wigner rotation to rounding of
    # order (P^0/m) eps, P^0 = max(p^0, (Lp)^0), at any rapidity
    m = 2.5
    L = random_lorentz(rng, vmax=0.9)
    u = rng.normal(size=(200, 3))
    p4 = on_shell(m, (m * ratio) * u / np.linalg.norm(u, axis=1)[:, None])
    D = _transport_d(L, p4[:, 1:], m)
    kappa = np.maximum(p4[:, 0], (p4 @ L.T)[:, 0]) / m
    tol = 16.0 * kappa * np.finfo(float).eps
    Dh = D.conj().transpose(0, 2, 1)
    assert (np.abs(D @ Dh - np.eye(2)).max(axis=(1, 2)) <= tol).all()
    assert (np.abs(np.linalg.det(D) - 1.0) <= tol).all()
    # wigner_rotation's product of standard boosts has entries of order
    # (p^0/m)^2 that cancel down to a rotation: fed the float64 L it would
    # carry L's metric defect times (p^0/m)^2, so it gets the projected L, and
    # its own extended-precision rounding, (P^0/m)^2 eps_longdouble, is added
    # to the bound
    R, _ = wigner_rotation(_group_projection(L), p4, m)
    a = rng.normal(size=(len(p4), 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    lhs = D @ np.einsum("ni,iab->nab", a, PAULI) @ Dh
    rhs = np.einsum("ni,iab->nab", (R @ a[..., None])[..., 0], PAULI)
    tol_R = tol + 16.0 * kappa ** 2 * float(np.finfo(np.longdouble).eps)
    assert (np.abs(lhs - rhs).max(axis=(1, 2)) <= tol_R).all()


def test_rotation_rotates_center(rng):
    w = packet(center=(0.5, 0.0, 0.0))
    R = random_rotation(rng)
    L = np.eye(4)
    L[1:, 1:] = R
    assert_allclose(lorentz_transform(w, L).center, R @ w.center, atol=1e-12)


# --- Newton-Wigner shifts and operators ------------------------------------

def test_nw_shift_composition_pointwise(pts):
    w = packet(spin=(1.0, 0.3), width=0.7)
    a = np.array([0.3, -0.2, 0.1])
    b = np.array([-0.1, 0.4, 0.25])
    stepwise = nw_shift(nw_shift(w, a), b)
    combined = nw_shift(w, a + b)
    assert_allclose(stepwise.evaluate(pts), combined.evaluate(pts), atol=1e-13)


def test_nw_shift_inverse(pts):
    w = packet(width=0.6)
    a = np.array([0.2, 0.1, -0.3])
    back = nw_shift(nw_shift(w, a), -a)
    assert_allclose(back.evaluate(pts), w.evaluate(pts), atol=1e-13)


def test_nw_shift_preserves_norm():
    w = normalized(packet(width=0.5))
    assert norm(nw_shift(w, np.array([0.4, 0.0, 0.1]))) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("eps", [1, -1])
def test_nw_shift_moves_center(eps):
    w = packet(eps=eps, center=(0.1, 0.0, 0.0))
    a = np.array([0.2, 0.3, 0.0])
    assert_allclose(nw_shift(w, a).center, w.center - eps * a, atol=1e-15)


@pytest.mark.parametrize("eps", [1, -1])
def test_canonical_commutator(eps, pts):
    # [X_j, P_k] = i delta_{jk} acting on a smooth profile
    w = packet(eps=eps, spin=(0.6, 0.8), width=0.8)
    base = w.evaluate(pts)
    for j in range(3):
        for k in range(3):
            xp = momentum_apply(nw_apply(w, j), k).evaluate(pts)
            px = nw_apply(momentum_apply(w, k), j).evaluate(pts)
            expect = 1j * (1.0 if j == k else 0.0) * base
            assert_allclose(px - xp, expect, atol=1e-11)


def test_position_components_commute(pts):
    w = packet(width=0.8)
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        ab = nw_apply(nw_apply(w, j), k).evaluate(pts)
        ba = nw_apply(nw_apply(w, k), j).evaluate(pts)
        assert_allclose(ab - ba, np.zeros_like(ab), atol=1e-11)


def test_sampled_operators_match_symbolic():
    w = packet(width=0.9, spin=(1.0, 1.0j))
    grid = Grid(2.0, 161)
    s = sample(w, grid)
    # interior slice: central differences are only second order at edges
    sl = (slice(20, -20),) * 3
    num = nw_apply_sampled(s, 0).values[sl]
    sym = sample(nw_apply(w, 0), grid).values[sl]
    assert np.abs(num - sym).max() < 5e-4
    exact = sample(momentum_apply(w, 2), grid).values
    assert_allclose(s.eps * s.mesh(2)[..., None] * s.values, exact, atol=1e-13)


@pytest.mark.parametrize("symbolic", [True, False], ids=["symbolic", "callable"])
def test_sample_evaluates_at_grid_points(symbolic):
    # the sampled values are the profile at grid.points(), in that order
    base = packet(width=0.9, spin=(1.0, 1.0j), center=(0.2, -0.1, 0.3))
    w = base if symbolic else SpinWaveFunction(eps=1, mass=1.0, width=0.9, fn=base.evaluate)
    g = Grid(1.5, 7)
    s = sample(w, g)
    assert s.grid == g and s.values.shape == (7, 7, 7, 2)
    assert np.array_equal(s.values, w.evaluate(g.points()).reshape(7, 7, 7, 2))
    assert np.array_equal(s.mesh(1).ravel(), g.axis())


def test_momentum_apply_is_multiplication(pts):
    w = packet(eps=-1, width=0.7)
    got = momentum_apply(w, 1).evaluate(pts)
    assert_allclose(got, -1 * pts[:, [1]] * w.evaluate(pts), atol=1e-13)


def test_apply_spin_matrix_action(pts):
    w = packet(spin=(0.5, 0.5))
    M = np.array([[0.0, 1.0], [1.0j, 0.0]])
    got = apply_spin(w, M).evaluate(pts)
    assert_allclose(got, w.evaluate(pts) @ M.T, atol=1e-13)


def _as_callable(w):
    return SpinWaveFunction(eps=w.eps, mass=w.mass, width=w.width, fn=w.evaluate, center=w.center)


def test_operators_on_callable_profile_match_symbolic(pts):
    w = packet(eps=-1, spin=(0.6, 0.8j), width=0.7, center=(0.1, -0.2, 0.0))
    a = np.array([0.3, -0.2, 0.1])
    M = np.array([[0.0, 1.0], [1.0j, 0.0]])
    for op in (lambda u: nw_shift(u, a), lambda u: momentum_apply(u, 1),
               lambda u: apply_spin(u, M)):
        got, expect = op(_as_callable(w)), op(w)
        assert got.fn is None and got.jet is not None
        assert np.array_equal(got.center, expect.center)
        assert_allclose(got.evaluate(pts), expect.evaluate(pts), rtol=0, atol=1e-14)


def test_normalized_callable_profile(pts):
    w = packet(spin=(1.0, 0.5j), width=0.45)
    unit = normalized(_as_callable(w))
    assert unit.fn is None and unit.jet is not None
    assert norm(unit) == pytest.approx(1.0, abs=2e-15)
    assert_allclose(unit.evaluate(pts), normalized(w).evaluate(pts), rtol=0, atol=1e-14)


# --- sharp-momentum Bloch states -------------------------------------------

def test_density_state_validation():
    with pytest.raises(ValueError, match="mass must be positive"):
        DensityState(0.0, [2.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="of one shape"):
        DensityState(1.0, [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0])  # a four-momentum
    with pytest.raises(ValueError, match=r"\|xi\| <= 1, got 1.5$"):
        DensityState(1.0, np.zeros(3), [0.0, 0.0, 1.5])


@pytest.mark.parametrize("q", [[1e200, 1e199, 0.0], [1e154, 1e154, 1e154]])
def test_density_state_refuses_overflowing_momenta_without_warnings(q):
    # |q|^2 overflows in a square, or in the sum of three finite squares;
    # the on-shell lift refuses both by name
    stack = np.zeros((3, 3))
    stack[2] = q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=r"^momentum with mass = 1.0 overflows the on-shell "
                                                r"energy squared, \|p\|\^2 \+ mass\^2$"):
            DensityState(1.0, np.array(q), np.zeros(3))
        with pytest.raises(SampleRefused, match=r"overflows .*\(sample 2\)$") as exc:
            DensityState(1.0, stack, np.zeros((3, 3)))
    assert exc.value.index == 2


def test_density_state_carries_its_mass_at_high_momentum():
    # at |q| ~ 1e8 m, q0^2 - |q|^2 cancels to rounding: a mass derived from q4
    # was refused as "four-momentum must be timelike" or read as sqrt(2), 2,
    # 1/sqrt(2), ...  The carried mass is the given one, and q4 its lift.
    rng = np.random.default_rng(33)
    for m in (1.0, 0.3, 2.5):
        q = rng.normal(size=(200, 3))
        q *= (1e8 * m * rng.uniform(0.5, 2.0, 200) / np.linalg.norm(q, axis=1))[:, None]
        xi = rng.normal(size=(200, 3))
        xi /= np.maximum(1.0, np.linalg.norm(xi, axis=1) * 1.25)[:, None]
        s = DensityState(m, q, xi)
        assert type(s.mass) is float and s.mass == m
        assert_same_bits(s.q4, on_shell(m, q))
        # <Wvec> = (m xi + q (q.xi) / (q^0 + m)) / 2, whose second term is of order |q|
        wvec = spin_expectations(s)["wvec"]
        boosted = q * (np.vecdot(q, xi) / (2.0 * (s.q4[:, 0] + m)))[:, None]
        assert np.abs(wvec - boosted - m * xi / 2.0).max() < 1e-6


def test_density_matrix_properties():
    s = DensityState(1.0, [0.4, -0.2, 1.1], [0.3, 0.4, 0.5])
    rho = s.density_matrix()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert_allclose(rho, rho.conj().T, atol=1e-15)
    assert min(np.linalg.eigvalsh(rho)) >= -1e-14


def test_spin_expectation_is_half_bloch(rng):
    for _ in range(20):
        q = rng.normal(scale=2.0, size=3)
        xi = rng.normal(size=3)
        xi /= max(1.0, np.linalg.norm(xi) * 1.25)
        got = spin_expectations(DensityState(1.0, q, xi))
        assert_allclose(got["svec"], xi / 2.0, atol=1e-13)


def test_rest_pl_expectations():
    s = DensityState(1.0, np.zeros(3), [0.0, 0.0, 1.0])
    got = spin_expectations(s)
    assert got["w0"] == pytest.approx(0.0, abs=1e-15)
    assert_allclose(got["wvec"], [0.0, 0.0, 0.5], atol=1e-14)


def test_bloch_transform_rotation(rng):
    R = random_rotation(rng)
    L = np.eye(4)
    L[1:, 1:] = R
    s = DensityState(1.0, [0.3, 0.1, -0.5], [0.6, 0.0, 0.3])
    out = bloch_transform(s, L)
    assert out.mass == s.mass
    assert_allclose(out.q, R @ s.q, atol=1e-13)
    # for a pure rotation the Wigner rotation is the rotation itself
    assert_allclose(out.xi, R @ s.xi, atol=1e-12)


def test_bloch_transform_boost_from_rest_is_trivial():
    s = DensityState(1.0, np.zeros(3), [0.0, 0.8, 0.0])
    L = boost_from_velocity([0.6, 0.0, 0.0])
    out = bloch_transform(s, L)
    assert_allclose(out.xi, s.xi, atol=1e-14)
    assert_allclose(out.q4, L @ s.q4, atol=1e-14)


def test_bloch_transform_preserves_length(rng):
    s = DensityState(1.0, [1.0, -2.0, 0.5], [0.2, -0.7, 0.4])
    for _ in range(25):
        L = random_lorentz(rng)
        out = bloch_transform(s, L)
        assert np.linalg.norm(out.xi) == pytest.approx(np.linalg.norm(s.xi), abs=1e-12)


#: One mass per stack of Bloch states, from well below the momenta drawn
#: (|q| ~ 2) to well above them.
BLOCH_MASSES = (0.05, 1.0, 2.5, 40.0)


def _bloch_states(batch, mass=1.0, seed=16):
    """A stack of positive-energy states of one mass, |xi| <= 1."""
    rng = np.random.default_rng(seed)
    q = rng.normal(scale=2.0, size=batch + (3,))
    xi = rng.normal(size=batch + (3,))
    xi /= np.maximum(1.0, np.linalg.norm(xi, axis=-1) * 1.25)[..., None]
    return DensityState(mass, q, xi)


@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_density_matrix_is_the_einsum_bit_for_bit(batch, monkeypatch):
    s = _bloch_states(batch)
    got = s.density_matrix()
    monkeypatch.setattr(states, "contract", dense_contract)
    assert_same_bits(got, s.density_matrix())


def test_spin_expectations_of_a_stack_are_its_rows_bit_for_bit():
    for mass in BLOCH_MASSES:
        s = _bloch_states((7,), mass)
        got = spin_expectations(s)
        assert got["w0"].shape == (7,) and got["wvec"].shape == got["svec"].shape == (7, 3)
        for n in range(7):
            row = spin_expectations(DensityState(mass, s.q[n], s.xi[n]))
            assert isinstance(row["w0"], float)
            assert row["wvec"].shape == row["svec"].shape == (3,)
            assert_same_bits(got["w0"][n], row["w0"])
            assert_same_bits(got["wvec"][n], row["wvec"])
            assert_same_bits(got["svec"][n], row["svec"])


def test_spin_expectations_match_their_closed_forms():
    # <W^0> = qvec.xi / 2, <S> = xi / 2 and <Wvec> = (m xi + qvec (qvec.xi)/(q^0 + m)) / 2
    for m in BLOCH_MASSES:
        s = _bloch_states((50,), m)
        got = spin_expectations(s)
        qv, q0 = s.q, s.q4[:, 0]
        q_xi = np.vecdot(qv, s.xi)
        assert_allclose(got["w0"], q_xi / 2.0, rtol=1e-13, atol=1e-14)
        assert_allclose(got["svec"], s.xi / 2.0, rtol=1e-13, atol=1e-15)
        wvec = (m * s.xi + qv * (q_xi / (q0 + m))[:, None]) / 2.0
        assert_allclose(got["wvec"], wvec, rtol=1e-13, atol=1e-14)
