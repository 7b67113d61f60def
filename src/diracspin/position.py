"""Position-representation synthesis and the momentum/position Parseval check.

A momentum-space state is carried to a fixed-time position slice by

    Psi(x) = (2 pi)^(-3/2) sum_eps int d3p/(2 omega) psi^eps(p) e^{-i eps (omega t - pvec.xvec)},

evaluated by trapezoid quadrature on the same centered momentum cubes the
scalar product uses.  On tensor-product grids the plane-wave phase factors
over the three axes, so a full position mesh costs three small contractions
instead of a six-dimensional loop.  The mesh is the only synthesis: one
point is a node of a position cube chosen to pass through it.

The invariant scalar product can then be computed two ways — the
sign-weighted momentum integral or the position integral of
conj(Psi) gamma^0 Phi = Psi^+ Phi — and `parseval_check` reports both with
their relative mismatch.  With amplitudes normalized to vbar v = eps I
(so v^+ v = (omega/m) I), the fixed-time slice integral reproduces the
invariant momentum measure only up to a constant: the two routes satisfy

    sum_eps int d3p/(2 omega) psitilde^+ phitilde  =  2m int d3x Psi^+ Phi,

as the rest frame shows directly (v^+ v = I there, and the slice integral
collects 1/(2 omega)^2 ~ 1/(4 m^2) per mode).  `parseval_check` includes
the 2m factor on the position side.  Position cubes sized from the
uncertainty relation (extent 8 / width) keep the truncated tails below
quadrature error for Gaussian-decaying profiles.

Both sides of one Parseval level read one `states.ShellCube`: the shell
measure is computed once, each sector is evaluated once, and the momentum
product and the synthesis integrand are formed from those values.  What is
held whole is what a whole-array reduction or the mesh contraction reads:
the cube's omega, weights and sector values, and each sector's (N, 4)
integrand (`_synthesis_core`).  What is made per block is the points, the
phases e^{-i eps omega t} with their weights, and the amplitude
temporaries; the mesh contraction makes one component's (n, n, n)
intermediates at a time.  The cube is released before the contractions
onto the position mesh, which hold the weighted integrand only.
"""
from __future__ import annotations

from math import fsum

import numpy as np

from .minkowski import _block_slices
from .states import (MIN_COVERAGE, Grid, ShellCube, SpinWaveFunction, _as_sectors, _cube_product,
                     covering_grid, shell_weight_error)

TWO_PI_CUBED_SQRT = (2.0 * np.pi) ** 1.5

#: Default points per axis: momentum cube, position cube.  The momentum side
#: is effectively converged at 32 points (trapezoid aliasing far below the
#: position-side error); 18 position points leave the x-side aliasing near
#: 1e-4 so that one refinement level shows a clean accuracy gain.
DEFAULT_P_POINTS = 32
DEFAULT_X_POINTS = 18


def _coverage_check(w, grid: Grid) -> None:
    reach = grid.half_width - float(np.abs(w.center).max())
    cover = reach / w.width
    if cover < MIN_COVERAGE - 1e-9:
        raise ValueError(
            f"momentum grid covers only {cover:.2f} decay widths past the profile "
            f"center; need >= {MIN_COVERAGE:g} (pmax >= |center| + {MIN_COVERAGE:g} * width)")


def _position_coverage_check(widths, grid: Grid) -> None:
    # Spatial width of a Gaussian packet of momentum width w is 1/w.
    need = MIN_COVERAGE / min(widths)
    if grid.half_width < need * (1.0 - 1e-12):
        raise ValueError(
            f"position grid extent {grid.half_width:g} covers fewer than {MIN_COVERAGE:g} "
            f"spatial widths; need xmax >= {need:g}")


def _synthesis_core(cube: ShellCube, s, t: float) -> np.ndarray:
    """d3p/(2 omega) e^{-i eps omega t} psi(p) for one sector on the cube's
    points, shape (N, 4): the integrand of the synthesis before its phase
    in x.

    Each block's covariant values (a spin sector's contracted with the
    amplitude there) and its weighted phases are formed into the one
    result, with the weights the first operand of the complex product:
    numpy's complex multiply is not symmetric in its operands."""
    om, wts = cube.measure(s.mass)
    core = np.empty((len(om), 4), dtype=complex)
    spin = isinstance(s, SpinWaveFunction)
    for sl in _block_slices(len(om)):
        weights = (wts[sl] * np.exp(-1j * s.eps * om[sl] * t))[:, None]
        values = cube.contract(s, sl, core[sl]) if spin else cube.values(s)[sl]
        np.multiply(weights, values, out=core[sl])
    return core


def _mesh(cores, xgrid: Grid, pgrid: Grid) -> np.ndarray:
    """Contract (eps, core) pairs of `_synthesis_core` onto the position mesh,
    shape (n, n, n, 4).  The phase e^{i eps pvec.xvec} factorizes over axes,
    giving three dense contractions, over a, b and c, per component of each
    sector; the sectors are summed into the mesh in turn.

    Each component goes through the products of
    `einsum("abcd,aj,bk,cl->jkld", core, E, E, E, optimize=True)`, and
    agrees with it bit for bit.  One thing keeps it so: in the first
    product the component's n^2 columns (b, c) are padded with zeros to a
    multiple of four, as the four components' 4 n^2 columns are, since
    OpenBLAS's zgemm rounds a column left over past a multiple of four
    differently."""
    n, nx = pgrid.n, xgrid.n
    pa, xa = pgrid.axis(), xgrid.axis()
    cols = n * n
    plane = np.zeros((n, cols + -cols % 4), dtype=complex)  # one component's (a, bc) planes
    out = np.zeros((nx, nx, nx, 4), dtype=complex)
    for eps, core in cores:
        E = np.exp(1j * eps * np.outer(pa, xa))
        for d in range(4):
            plane[:, :cols] = core[:, d].reshape(n, cols)
            part = (E.T @ plane)[:, :cols]  # over a: (j, b c)
            part = part.reshape(nx, n, n).transpose(0, 2, 1).reshape(-1, n) @ E  # over b: (j c, k)
            part = part.reshape(nx, n, nx).transpose(0, 2, 1).reshape(-1, n) @ E  # over c: (j k, l)
            out[..., d] += part.reshape(nx, nx, nx)
    out /= TWO_PI_CUBED_SQRT
    return out


def _cores(cube: ShellCube, w, t: float) -> list:
    return [(s.eps, _synthesis_core(cube, s, t)) for s in _as_sectors(w)]


def synthesize_mesh(w, t: float, xgrid: Grid, pgrid: Grid) -> np.ndarray:
    """Position-space bispinor on the full tensor mesh of `xgrid` at time t.

    Returns shape (n, n, n, 4) indexed by the three position axes.  The cube
    (measure and values) is released before the contraction onto the mesh.
    """
    for s in _as_sectors(w):
        _coverage_check(s, pgrid)
    return _mesh(_cores(ShellCube(pgrid), w, t), xgrid, pgrid)


def position_product(psi_mesh: np.ndarray, phi_mesh: np.ndarray, xgrid: Grid) -> complex:
    """Quadrature of conj(Psi) gamma^0 Phi = Psi^+ Phi over the position cube,
    reduced with compensated summation."""
    w1 = xgrid.weights_1d()
    integrand = np.einsum("jkld,jkld,j,k,l->jkl", psi_mesh.conj(), phi_mesh, w1, w1, w1,
                          optimize=True).ravel()
    # fsum is correctly rounded, so a list (faster to iterate) gives the same sum
    return complex(fsum(integrand.real.tolist()) + 1j * fsum(integrand.imag.tolist()))


def default_grids(a, b, p_points: int = DEFAULT_P_POINTS,
                  x_points: int = DEFAULT_X_POINTS) -> tuple[Grid, Grid]:
    """Shared quadrature cubes for a pair of states: the momentum cube that
    covers every sector and a position cube of half-width
    MIN_COVERAGE / (smallest width)."""
    sectors = _as_sectors(a) + _as_sectors(b)
    widths = [s.width for s in sectors]
    return covering_grid(sectors, p_points), Grid(MIN_COVERAGE / min(widths), x_points)


def quadrature_range_error(pgrids, xgrids, m: float, t: float = 0.0,
                           peak2: float | None = None) -> str | None:
    """The first quantity of a Parseval check on these momentum and position
    cubes that leaves the float64 range, described, or None.

    From the cubes alone: every d3p/(2 omega) weight of the momentum cubes
    (the rule of `states.shell_weight_error`, which the scalar product
    applies too) and every d3x weight of the position cubes must be a normal
    float64 (a weight that underflows drops its sample, one that overflows
    turns the sum into inf or nan), and the phase arguments omega t and
    p_i x_i must be finite.  Given peak2, the largest |psitilde|^2 of the
    state, the position side is bounded too: since v^+ v = (omega / m) I,
    Cauchy-Schwarz gives |Psi(x)|^2 <= (2 pi)^-3 (V_p / 2m)^2 peak2 on a
    momentum cube of volume V_p, and that bound and its integral over the
    position cube must be finite.
    """
    problem = shell_weight_error(pgrids, m)
    if problem is not None:
        return problem
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    pmax = np.float64(max(g.half_width for g in pgrids))
    xmax = np.float64(max(g.half_width for g in xgrids))
    with np.errstate(over="ignore", under="ignore"):
        # (h / 2)^3 is a corner weight; an inner one is 8 times that
        corner_x = [(np.float64(g.half_width) / (g.n - 1)) ** 3 for g in xgrids]
        lo, hi = min(corner_x), 8.0 * max(corner_x)
        omega_max = np.sqrt(m * m + 3.0 * pmax * pmax)
        finite = {"the phase omega t": omega_max * abs(t), "the phase p x": pmax * xmax}
        if peak2 is not None:
            bound = (4.0 * pmax ** 3 / m * np.sqrt(peak2)) ** 2 / (2.0 * np.pi) ** 3
            finite["the bound on |Psi|^2"] = bound
            finite["the bound on its integral over x"] = bound * 8.0 * xmax ** 3
    if not (tiny <= lo and hi <= huge):
        return f"the d3x weights ({lo:.3g} to {hi:.3g}) outside the normal float64 range"
    for name, value in finite.items():
        if not value <= huge:
            return f"{name} ({value:.3g}) outside the float64 range"
    return None


def parseval_check(a, b, pgrid: Grid | None = None, xgrid: Grid | None = None,
                   t: float = 0.0) -> tuple[complex, complex, float]:
    """Compare the two routes to the invariant scalar product (a, b).

    lhs: sign-weighted momentum integral; rhs: 2m times the position integral
    of Psi^+ Phi on a fixed-time slice (see the module docstring for why the
    mass factor belongs there).  Returns (lhs, rhs, relerr) with relerr the
    mismatch relative to the larger magnitude.  Reducing either grid spacing
    (one `refined()` level) tightens the match until tail truncation floors it.
    Each sector is evaluated once for both sides, and when b is a (the same
    object), its position mesh is synthesized once.
    """
    if pgrid is None or xgrid is None:
        dp, dx = default_grids(a, b)
        pgrid = pgrid if pgrid is not None else dp
        xgrid = xgrid if xgrid is not None else dx
    sectors = _as_sectors(a) + _as_sectors(b)
    _position_coverage_check([s.width for s in sectors], xgrid)
    masses = [s.mass for s in sectors]
    if len(set(masses)) > 1:
        raise ValueError("parseval_check requires a common mass")
    for s in sectors:
        _coverage_check(s, pgrid)
    cube = ShellCube(pgrid)  # one measure, and each sector evaluated once, for both sides
    lhs = _cube_product(a, b, cube)
    cores = (_cores(cube, a, t), None if b is a else _cores(cube, b, t))
    del cube  # the measure and the values go before the contractions
    psi = _mesh(cores[0], xgrid, pgrid)
    phi = psi if b is a else _mesh(cores[1], xgrid, pgrid)
    rhs = 2.0 * masses[0] * position_product(psi, phi, xgrid)
    scale = max(abs(lhs), abs(rhs))
    relerr = abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)
    return lhs, rhs, float(relerr)
