"""Position-space synthesis against the momentum-space scalar product.

The slice comparison carries the mode-normalization factor: with the
amplitude convention vbar v = eps I, summing both shells of the momentum
product equals 2m times the spatial integral of Psi^+ Phi.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diracspin import minkowski
from diracspin.amplitudes import amplitude
from diracspin.lorentz import random_lorentz
from diracspin.position import (default_grids, parseval_check, position_product,
                                quadrature_range_error, synthesize_mesh)
from diracspin.states import (Grid, SpinWaveFunction, gaussian_packet, lorentz_transform, norm,
                              normalized, scalar_product, to_covariant)
from _reference import synthesize

TWO_PI_CUBED_SQRT = (2.0 * np.pi) ** 1.5


def packet(eps=1, width=0.4, spin=(1.0, 0.0), center=(0.0, 0.0, 0.0)):
    return gaussian_packet(eps, 1.0, width, spin=spin, center=np.asarray(center))


def test_position_grid_refined():
    g = Grid(10.0, 9)  # a position cube
    r = g.refined()
    assert r.n == 17 and r.half_width == 10.0
    assert_allclose(r.axis()[::2], g.axis())
    assert np.sum(g.weights_1d()) == pytest.approx(20.0)


def test_position_grid_rejects_non_finite_xmax():
    with pytest.raises(ValueError, match="half_width"):
        Grid(float("inf"))


def test_default_grids_cover_both_packets():
    a = packet(width=0.4)
    b = packet(width=0.5)
    pgrid, xgrid = default_grids(a, b)
    assert pgrid.half_width >= 8.0 * 0.4
    assert xgrid.half_width >= 8.0 / 0.4  # driven by the narrower momentum width


def test_scalar_product_default_grid_is_default_grids():
    # one sizing rule: the product's own default cube is default_grids' at 64 points
    a = packet(width=0.4, center=(0.3, 0.0, 0.0))
    b = packet(width=0.5, spin=(0.6, 0.8j), center=(0.0, -0.2, 0.1))
    for x, y in ((a, b), (b, a), (a, a)):
        assert scalar_product(x, y) == scalar_product(x, y, default_grids(x, y, p_points=64)[0])


def test_parseval_default_accuracy():
    a = packet(spin=(1.0, 0.5))
    lhs, rhs, relerr = parseval_check(a, a)
    assert lhs.real > 0.0
    assert relerr < 1e-3


def test_parseval_refinement_strictly_improves():
    a = packet()
    pgrid, xgrid = default_grids(a, a)
    _, _, coarse = parseval_check(a, a, pgrid, xgrid)
    _, _, fine = parseval_check(a, a, pgrid.refined(), xgrid.refined())
    assert fine < coarse


@pytest.mark.parametrize("covariant", [False, True], ids=["spin", "covariant"])
def test_parseval_self_pair_equals_pair_with_copy(rng, covariant):
    # (a, a) synthesizes one mesh; the result is exactly that of two meshes
    w = packet(spin=(0.6, 0.8j), width=0.5)
    a = lorentz_transform(to_covariant(w) if covariant else w, random_lorentz(rng, vmax=0.6))
    pgrid, xgrid = default_grids(a, a, p_points=16, x_points=10)
    assert parseval_check(a, a, pgrid, xgrid) == parseval_check(a, replace(a), pgrid, xgrid)


@pytest.mark.parametrize("transported", [False, True], ids=["packet", "transported"])
def test_parseval_blocks_match_whole_grid(monkeypatch, rng, transported):
    # block-wise evaluation on refined grids gives the whole-array tuple bit for bit
    a = normalized(packet(spin=(0.6, 0.8j)))
    if transported:
        a = lorentz_transform(a, random_lorentz(rng, vmax=0.6))
    pgrid, xgrid = default_grids(a, a)
    pgrid, xgrid = pgrid.refined(), xgrid.refined()
    assert pgrid.n ** 3 > minkowski._BLOCK
    blocked = parseval_check(a, a, pgrid, xgrid)
    monkeypatch.setattr(minkowski, "_BLOCK", pgrid.n ** 3)
    assert parseval_check(a, a, pgrid, xgrid) == blocked


def test_parseval_self_pair_evaluates_once_per_route():
    # one evaluation per spin sector: the momentum product and the mesh share it
    calls = []
    base = packet(spin=(1.0, 0.5j), width=0.5)

    def fn(pts):
        calls.append(len(pts))
        return base.evaluate(pts)

    w = SpinWaveFunction(eps=1, mass=1.0, width=0.5, fn=fn)
    pgrid, xgrid = default_grids(w, w, p_points=12, x_points=8)
    parseval_check(w, w, pgrid, xgrid)
    assert calls == [12 ** 3]


# --- the shared cube -----------------------------------------------------
# One Parseval level evaluates each sector once on one shell measure and
# feeds both sides from it; the result is still exactly the one the public
# routes give separately.

def _sectors(kind):
    a = packet(spin=(0.6, 0.8j), width=0.45, center=(0.1, 0.0, -0.05))
    b = packet(spin=(1.0, 0.5), width=0.5, center=(0.0, 0.1, 0.0))
    a_neg = packet(eps=-1, spin=(0.3, -0.2j), width=0.45)
    return {"spin_self": (a, a), "spin_pair": (a, b),
            "covariant_self": (to_covariant(a),) * 2,
            "covariant_pair": (to_covariant(a), to_covariant(b)),
            "mixed_pair": (a, to_covariant(b)),
            "both_signs_self": ((a, a_neg),) * 2,
            "both_signs_pair": ((a, a_neg), (b, a_neg))}[kind]


def _public_routes(a, b, pgrid, xgrid, t):
    # the tuple parseval_check documents, built from the public functions
    lhs = scalar_product(a, b, pgrid)
    rhs = 2.0 * position_product(synthesize_mesh(a, t, xgrid, pgrid),
                                 synthesize_mesh(b, t, xgrid, pgrid), xgrid)
    scale = max(abs(lhs), abs(rhs))
    return lhs, rhs, float(abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs))


@pytest.mark.parametrize("kind", ["spin_self", "spin_pair", "covariant_self", "covariant_pair",
                                  "mixed_pair", "both_signs_self", "both_signs_pair"])
def test_parseval_is_the_public_routes(kind):
    a, b = _sectors(kind)
    pgrid, xgrid = default_grids(a, b, p_points=16, x_points=10)
    assert parseval_check(a, b, pgrid, xgrid, t=0.3) == _public_routes(a, b, pgrid, xgrid, 0.3)


@pytest.mark.parametrize("kind", ["spin_self", "both_signs_pair"])
def test_parseval_is_the_public_routes_on_refined_cube(kind):
    a, b = _sectors(kind)
    pgrid, xgrid = default_grids(a, b)
    pgrid, xgrid = pgrid.refined(), xgrid.refined()
    assert pgrid.n ** 3 > minkowski._BLOCK
    assert parseval_check(a, b, pgrid, xgrid) == _public_routes(a, b, pgrid, xgrid, 0.0)


@pytest.mark.parametrize("eps", [1, -1])
def test_synthesize_mesh_is_the_whole_array_formula(eps):
    # the integrand is d3p/(2 omega) e^{-i eps omega t} times the covariant
    # values, the weights the first operand of the complex product; with the
    # operands swapped numpy's complex multiply rounds differently
    a = packet(eps=eps, spin=(0.6, 0.8j), width=0.45, center=(0.1, 0.0, -0.05))
    pgrid, xgrid = default_grids(a, a)
    pgrid, xgrid = pgrid.refined(), xgrid.refined()
    t = 0.7
    om, wts = pgrid.shell_measure(1.0)
    core = (wts * np.exp(-1j * eps * om * t))[:, None] * to_covariant(a).evaluate(pgrid.points())
    E = np.exp(1j * eps * np.outer(pgrid.axis(), xgrid.axis()))
    mesh = np.einsum("abcd,aj,bk,cl->jkld", core.reshape((pgrid.n,) * 3 + (4,)), E, E, E,
                     optimize=True) / TWO_PI_CUBED_SQRT
    assert_array_equal(synthesize_mesh(a, t, xgrid, pgrid), mesh)


def test_refined_parseval_level_peak_memory():
    # One refined level (63^3 momentum, 35^3 position points) peaked at
    # 39.6 MiB with whole point arrays, whole-grid complex phases and weights,
    # and the four components' einsum intermediates; it peaks at 30.3 MiB.
    a = normalized(packet(spin=(0.6, 0.8j)))
    pgrid, xgrid = default_grids(a, a)
    pgrid, xgrid = pgrid.refined(), xgrid.refined()
    assert (pgrid.n, xgrid.n) == (63, 35)
    parseval_check(a, a, pgrid, xgrid)
    tracemalloc.start()
    try:
        parseval_check(a, a, pgrid, xgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_parseval_off_diagonal_pair():
    a = packet(spin=(1.0, 0.0))
    b = packet(spin=(0.6, 0.8), center=(0.15, 0.0, 0.0))
    lhs, rhs, relerr = parseval_check(a, b)
    assert abs(lhs) > 1e-3  # the pair overlaps substantially
    assert relerr < 1e-3


def test_parseval_orthogonal_spins_vanish():
    a = packet(spin=(1.0, 0.0))
    b = packet(spin=(0.0, 1.0))
    pgrid, xgrid = default_grids(a, b)
    lhs = scalar_product(a, b, pgrid)
    psi = synthesize_mesh(a, 0.0, xgrid, pgrid)
    phi = synthesize_mesh(b, 0.0, xgrid, pgrid)
    rhs = 2.0 * position_product(psi, phi, xgrid)
    scale = norm(a) * norm(b)
    assert abs(lhs) < 1e-10 * scale
    assert abs(rhs) < 1e-6 * scale


def test_parseval_mixed_shells_vanish():
    a = packet(eps=1)
    b = packet(eps=-1)
    _, rhs, _ = parseval_check(a, b)
    assert scalar_product(a, b) == 0.0
    assert abs(rhs) < 1e-6


def test_parseval_time_slice_invariance():
    # the equality holds on every constant-time slice, not just t = 0
    a = normalized(packet(spin=(0.8, 0.6j)))
    _, _, at0 = parseval_check(a, a, t=0.0)
    _, _, at1 = parseval_check(a, a, t=0.7)
    assert at0 < 1e-3 and at1 < 1e-3


def test_parseval_rejects_mass_mismatch():
    # masses are compared exactly, also where they differ by less than 1e-12
    for m1, m2, width in ((1.0, 2.0, 0.4), (1e-13, 5e-13, 0.5)):
        a = gaussian_packet(1, m1, width)
        b = gaussian_packet(1, m2, width)
        with pytest.raises(ValueError, match="requires a common mass"):
            parseval_check(a, b)


def test_coverage_guard_momentum():
    a = packet(width=0.4)
    with pytest.raises(ValueError, match="decay widths"):
        parseval_check(a, a, Grid(1.0, 16), Grid(20.0, 12))


def test_coverage_guard_position():
    a = packet(width=0.4)
    pgrid, _ = default_grids(a, a)
    with pytest.raises(ValueError, match="spatial widths"):
        parseval_check(a, a, pgrid, Grid(5.0, 12))


def _levels(w):
    pgrid, xgrid = default_grids(w, w)
    return (pgrid, xgrid), (pgrid.refined(), xgrid.refined())


@pytest.mark.parametrize("width", [1e-30, 0.4, 1e10, 1e30])
def test_quadrature_in_float_range_is_accepted(width):
    w = packet(width=width)
    pgrids, xgrids = zip(*_levels(w))
    peak2 = sum(abs(s) ** 2 for s in normalized(w).spin)
    assert quadrature_range_error((w.default_grid(), *pgrids), xgrids, 1.0, 0.0, peak2) is None


@pytest.mark.parametrize("width, quantity", [(1e-150, "d3p/(2 omega) weights"),
                                             (1e150, "d3p/(2 omega) weights")])
def test_quadrature_weights_out_of_range_are_named(width, quantity):
    # the named weights are the ones the library computes: on the packet's
    # normalizing cube they underflow to zero or overflow to inf
    w = packet(width=width)
    pgrids, xgrids = zip(*_levels(w))
    assert quantity in quadrature_range_error((w.default_grid(), *pgrids), xgrids, 1.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weights = w.default_grid().shell_measure(1.0)[1]
    assert not (np.finfo(float).tiny <= weights.min() and weights.max() < np.inf)


def test_position_bound_out_of_range_is_a_real_overflow():
    # --width 1e100: every weight is a normal float, but the bound on the unit
    # packet's |Psi|^2 overflows, and so does the refined position side
    w = packet(width=1e100)
    pgrids, xgrids = zip(*_levels(w))
    assert quadrature_range_error((w.default_grid(), *pgrids), xgrids, 1.0) is None
    unit = normalized(w)
    problem = quadrature_range_error(pgrids, xgrids, 1.0,
                                     peak2=sum(abs(s) ** 2 for s in unit.spin))
    assert "bound on |Psi|^2" in problem
    with np.errstate(all="ignore"):
        _, rhs, _ = parseval_check(unit, unit, *_levels(w)[1])
    assert not np.isfinite(rhs)


def test_phases_out_of_range_are_named():
    w = packet(width=0.4)
    pgrids, xgrids = zip(*_levels(w))
    assert "omega t" in quadrature_range_error(pgrids, xgrids, 1.0, t=1e308)


def test_synthesize_point_matches_mesh_node():
    a = packet(spin=(0.3, 1.0))
    pgrid, _ = default_grids(a, a)
    xgrid = Grid(8.0 / 0.4, 9)
    mesh = synthesize_mesh(a, 0.0, xgrid, pgrid)
    ax = xgrid.axis()
    x4 = np.array([0.0, ax[2], ax[5], ax[7]])
    point = synthesize(a, x4, pgrid)
    assert_allclose(mesh[2, 5, 7], point, atol=1e-12)


@pytest.mark.parametrize("eps", [1, -1])
def test_narrow_packet_approaches_plane_wave(eps):
    # a narrow profile centered at pbar synthesizes to the sharp-momentum
    # field eps exp(-i eps p.x) v(pbar) column / (2 pi)^{3/2}; the width
    # correction enters at O(w^2).  The point is the mesh node (3, 10, 6)
    # of an 11-point cube of half-width 0.5.
    pbar = np.array([0.4, -0.2, 0.3])
    width = 0.05
    m = 1.0
    w = gaussian_packet(eps, m, width, spin=(1.0, 0.0), center=pbar)
    p0 = np.sqrt(m * m + pbar @ pbar)
    xgrid = Grid(0.5, 11)
    ax = xgrid.axis()
    x4 = np.array([0.3, ax[3], ax[10], ax[6]])
    assert_allclose(x4[1:], [-0.2, 0.5, 0.1], atol=1e-15)
    mesh = synthesize_mesh(w, x4[0], xgrid, Grid(float(np.abs(pbar).max() + 8 * width), 48))
    got = mesh[3, 10, 6]
    phase = np.exp(-1j * eps * (p0 * x4[0] - pbar @ x4[1:]))
    v = amplitude(eps, np.concatenate([[p0], pbar]), m)
    kernel = eps * phase * v[:, 0] / TWO_PI_CUBED_SQRT
    # the packet integrates to (2 pi)^{3/2} w^3 g(0)-style mass; compare shapes
    ratio = got[np.argmax(np.abs(kernel))] / kernel[np.argmax(np.abs(kernel))]
    assert_allclose(got, ratio * kernel, rtol=1e-2, atol=1e-8 * np.abs(got).max())
    # the ratio itself is the real positive profile integral
    assert abs(ratio.imag) < 1e-2 * abs(ratio)


def test_mesh_shape_and_dtype():
    a = packet()
    pgrid, _ = default_grids(a, a)
    mesh = synthesize_mesh(a, 0.0, Grid(20.0, 7), pgrid)
    assert mesh.shape == (7, 7, 7, 4)
    assert mesh.dtype == np.complex128
