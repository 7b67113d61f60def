"""Momentum-space wavefunctions, scalar products, Newton-Wigner shifts, and
Bloch-vector states.

A state on one mass shell is a two-component profile over spatial momentum:
either in the spin basis (components indexed by the rest-frame spin label)
or in the covariant basis (four bispinor components obtained by contracting
with the amplitude, psi = v^eps psitilde).  A Gaussian packet is held by
its parameters (spin pair, center, width, mass) and evaluated in numpy.
What the operators below make of a profile is held as a jet profile,
pts, order -> `jets.Jet`, which gives the profile's Taylor coefficients in p
to any total degree, so a Newton-Wigner application takes an exact
derivative.  Transformed states are plain callables, which have values
only.

Wavefunctions carry the bra-side index convention.  Consequences fixed here:
kets transform with the SU(2) Wigner matrix D, so spin-basis wavefunction
columns transform with its conjugate; and the one-parameter family of
Newton-Wigner shifts t -> shift(t a) has derivative -i (a . X) at t = 0,
with X the position operator X psi = i eps (grad - pvec/(2 omega^2)) psi.
D is `lorentz.wigner_d`, the closed form A(Lp)^{-1} A(L) A(p) with the
double-cover sign of `bispinor_rep(L)`, for both energy signs.

The invariant scalar product is (a, b) = sum_eps int d3p/(2 omega)
atilde^+ btilde = sum_eps eps int d3p/(2 omega) abar b, approximated by
tensor-product trapezoid quadrature on a centered cube.

Grids are evaluated in blocks and reduced whole.  `evaluate_on` fills one
(N, k) array by evaluating a profile on consecutive blocks of the N grid
points, so the per-point temporaries of a transported or basis-changed
profile (amplitudes, Wigner matrices) stay cache-sized; every sum over the
grid (scalar product, position synthesis) is then one whole-array
reduction, in the order it had without blocks.  On a `Grid` the points
themselves are made per block, from the axis (`Grid.block_points`), with
the bits of `Grid.points()`: no grid path here holds the (N, 3) array.
This relies on one contract, which every profile here keeps and a user
`fn` must keep too: a profile is pointwise, so row i of its output depends
only on row i of the points.  The blocks are those of
`minkowski._block_slices`, and every on-shell energy here, of a grid
point, a block or a packet's center, is `minkowski.shell_energy` (through
`on_shell` where a four-momentum is needed), so one point is lifted with
the same bits wherever it is lifted, and a momentum whose energy is not
finite is refused by name.

What a grid's products share is computed once per cube.  A `ShellCube`
holds whole what a whole-array reduction reads: the momentum cube's shell
measure (omega, d3p/(2 omega)) for each mass and each sector's values on
its points.  It makes per block what only a block needs: the points, and
the amplitude temporaries of a spin sector's covariant values, which are
its spin values contracted with the amplitude block by block
(`ShellCube.contract`) on the measure's omega and the block's points, never
a second evaluation.  The scalar product and the position synthesis of
`position.parseval_check` both read the cube.  A cube whose corner energy
or d3p/(2 omega) weights leave the float64 range (`shell_weight_error`),
or a center that puts them there (`covering_grid`), is refused by name.
Likewise what depends only on the transformation is built once per
`lorentz_transform`, not per block: the bispinor S(L), L^{-1} and the 16
matrices sigma_mu A(L) sigma_nu of the Wigner matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .amplitudes import _amplitude_planes, amplitude
from .clifford import GAMMA0, PAULI, energy_projector
from .jets import Jet, variables
from .lorentz import _wigner_product, _wigner_sandwich, bispinor_rep, wigner_rotation
from .minkowski import (METRIC, _block_slices, check_bloch_length, check_component,
                        check_energy_sign, check_mass, contract, lorentz_matrix, on_shell,
                        shell_energy)


#: Minimum decay widths the quadrature cubes must cover.
MIN_COVERAGE = 8.0


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product cube [-half_width, half_width]^3 with n points
    per axis: the momentum cube of the scalar product, the position cube of
    the Parseval check and the mesh of a sampled profile."""

    half_width: float
    n: int = 64

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not (np.isfinite(self.half_width) and self.half_width > 0) or self.n < 2:
            raise ValueError(f"need finite half_width > 0 and n >= 2, "
                             f"got half_width={self.half_width}, n={self.n}")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)

    def points(self) -> np.ndarray:
        """Flat list of grid points, shape (n^3, 3), axis-0 fastest last."""
        return self.block_points(slice(0, self.n ** 3))

    def block_points(self, sl: slice) -> np.ndarray:
        """Rows sl of `points()`, shape (rows, 3), built from the axis alone:
        the planes of axis 0 that the rows touch are filled and the rows cut
        from them, so a block's points are those of the whole array, bit for
        bit, and the whole array is never made."""
        n2 = self.n * self.n
        first, last = sl.start // n2, -(-sl.stop // n2)
        ax = self.axis()
        pts = np.empty((last - first, self.n, self.n, 3))
        pts[..., 0] = ax[first:last, None, None]
        pts[..., 1] = ax[:, None]
        pts[..., 2] = ax
        return pts.reshape(-1, 3)[sl.start - first * n2:sl.stop - first * n2]

    def weights_1d(self) -> np.ndarray:
        """Trapezoid weights along one axis, shape (n,)."""
        w1 = np.full(self.n, 2.0 * self.half_width / (self.n - 1))
        w1[0] *= 0.5
        w1[-1] *= 0.5
        return w1

    def weights(self) -> np.ndarray:
        """Flat trapezoid weights matching points(), shape (n^3,)."""
        w1 = self.weights_1d()
        return np.einsum("i,j,k->ijk", w1, w1, w1).ravel()

    def shell_measure(self, m: float) -> tuple[np.ndarray, np.ndarray]:
        """(omega, weights / (2 omega)): the on-shell energies of `points()`
        for mass m and the invariant measure d3p/(2 omega), both (n^3,),
        computed block by block from each block's points.  A cube's first
        point, a corner, has its largest |p|, so an energy that overflows is
        refused at sample 0 of the first block, as on the whole array."""
        size = self.n ** 3
        om, wts = np.empty(size), self.weights()
        for sl in _block_slices(size):
            om[sl] = shell_energy(m, self.block_points(sl))
            wts[sl] /= 2.0 * om[sl]
        return om, wts

    def refined(self) -> "Grid":
        """One refinement level: doubles the resolution on the same cube."""
        return Grid(self.half_width, 2 * self.n - 1)


def covering_grid(sectors, n: int = 64) -> Grid:
    """The momentum cube that reaches MIN_COVERAGE decay widths past the
    center of every sector: half-width max(|center| + MIN_COVERAGE width).
    A sector whose half-width, or corner energy squared 3 half_width^2,
    overflows is refused, naming its center, before any cube is sized."""
    with np.errstate(over="ignore"):  # refused below, not warned about
        half = [float(np.linalg.norm(s.center)) + MIN_COVERAGE * s.width for s in sectors]
    for s, h in zip(sectors, half):
        if not 3.0 * h * h <= np.finfo(float).max:
            raise ValueError(f"profile center ({', '.join(map(repr, s.center.tolist()))}) puts "
                             f"the momentum cube's corner energy squared outside the float64 range")
    return Grid(max(half), n)


class _ShellProfile:
    """Validation and default grid sizing shared by the wavefunction kinds,
    which carry eps, mass, width and center fields."""

    def __post_init__(self):
        check_energy_sign(self.eps)
        check_mass(self.mass)
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(f"profile width must be finite and positive, got {self.width}")
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,):
            raise ValueError(f"profile center must have shape (3,), got {center.shape}")
        if not np.isfinite(center).all():
            raise ValueError(f"profile center must be finite, got {center}")
        object.__setattr__(self, "center", center)

    def default_grid(self, n: int = 64) -> Grid:
        return covering_grid((self,), n)


@dataclass(frozen=True)
class SpinWaveFunction(_ShellProfile):
    """Spin-basis profile psitilde on the energy-sign-eps mass shell.

    One of three forms: a Gaussian packet (`spin`, the pair spin_s of
    `gaussian_packet`, with the decay `width` and `center`), a jet profile
    (`jet`, mapping points (..., 3) and an order to the `jets.Jet` of the
    components) or callable (`fn`, mapping points (..., 3) to components
    (..., 2)).  `width` and `center` describe the momentum-space decay for
    default grid sizing.  The operators below return jet profiles; `taylor`
    gives any form's jet, and a callable has values only, the order-0 jet.
    `fn` and `jet` must be pointwise, since grids are evaluated in blocks
    (`evaluate_on`).
    """

    eps: int
    mass: float
    width: float
    jet: Callable[[np.ndarray, int], Jet] | None = field(default=None, repr=False)
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    spin: tuple[complex, complex] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.spin is not None:
            spin = tuple(complex(s) for s in self.spin)
            if len(spin) != 2 or not np.isfinite(spin).all():
                raise ValueError(f"packet spin must be two finite numbers, got {self.spin}")
            object.__setattr__(self, "spin", spin)
            width = float(self.width)
            two_w2 = 2.0 * (width * width)
            if not (np.isfinite(two_w2) and two_w2 >= np.finfo(float).tiny):
                raise ValueError(f"width = {self.width!r} puts 2 width^2 = {two_w2!r} outside "
                                 f"the normal float64 range")
            object.__setattr__(self, "_two_w2", two_w2)
        elif self.fn is None and self.jet is None:
            raise ValueError("profile needs a packet spin, a jet or a callable")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.spin is not None:
            # the packet's jet at order 0, in its order of operations:
            # x0 = exp(k (p1 - c1)^2 + k (p2 - c2)^2 + k (p3 - c3)^2) with
            # k = -1 / (2 width^2), summed plane by plane, then x0 * spin_s
            k = -1.0 / self._two_w2
            x0 = np.subtract(pts[..., 0], self.center[0])
            np.square(x0, out=x0)
            x0 *= k
            term = np.empty_like(x0)
            for i in (1, 2):
                np.subtract(pts[..., i], self.center[i], out=term)
                np.square(term, out=term)
                term *= k
                x0 += term
            np.exp(x0, out=x0)
            out = np.empty(pts.shape[:-1] + (2,), dtype=complex)
            for s in range(2):
                np.multiply(x0, self.spin[s], out=out[..., s])
            return out
        return self.taylor(pts, 0).value

    def taylor(self, pts: np.ndarray, order: int) -> Jet:
        """The profile's jet to total degree `order` at the points (..., 3).

        A callable profile gives its values as the order-0 jet and refuses
        any higher order."""
        pts = np.asarray(pts, dtype=float)
        if self.spin is not None:
            k = -1.0 / self._two_w2
            d = [v - c for v, c in zip(variables(pts, order), self.center)]
            x0 = d[0] * d[0] * k + d[1] * d[1] * k + d[2] * d[2] * k
            return x0.exp() * np.array(self.spin)
        if self.jet is not None:
            return self.jet(pts, order)
        if order:
            raise ValueError("a callable profile has no derivatives; sample it and use "
                             "nw_apply_sampled")
        return Jet({(0, 0, 0): self.fn(pts)}, 0)


def _jet_profile(w: SpinWaveFunction, jet: Callable, **changes) -> SpinWaveFunction:
    """`w` with the jet profile `jet`, no longer a packet or a callable."""
    return replace(w, jet=jet, fn=None, spin=None, **changes)


@dataclass(frozen=True)
class CovariantWaveFunction(_ShellProfile):
    """Covariant-basis profile psi (four bispinor components) on one shell.

    `fn` maps points (..., 3) to components (..., 4) and must be pointwise,
    as for `SpinWaveFunction`: grids are evaluated in blocks of points.
    """

    eps: int
    mass: float
    width: float
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(pts, dtype=float))


def evaluate_on(profile, pts) -> np.ndarray:
    """A profile's values at the points (N, 3), or at the points of a `Grid`,
    shape (N, k), evaluated on the consecutive blocks of `_block_slices`.

    Since a profile is pointwise, the result is that of one
    `profile.evaluate(pts)` call; only its temporaries are smaller.  A
    grid's points are made block by block (`Grid.block_points`).
    """
    if isinstance(pts, Grid):
        size, rows = pts.n ** 3, pts.block_points
    else:
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        size, rows = len(pts), pts.__getitem__
    out = None
    for sl in _block_slices(size):
        vals = profile.evaluate(rows(sl))
        if out is None:  # the first block gives the width and dtype
            out = np.empty((size,) + vals.shape[1:], dtype=vals.dtype)
        out[sl] = vals
    return out


def gaussian_packet(eps: int, mass: float, width: float,
                    spin: Sequence[complex] = (1.0, 0.0),
                    center: Sequence[float] = (0.0, 0.0, 0.0)) -> SpinWaveFunction:
    """Gaussian profile

        psitilde_s(p) = spin_s * exp(-|p - center|^2 / (2 width^2)),

    held by its parameters and evaluated in numpy.  A width whose 2 width^2
    is not a finite normal float64 is refused, and so is a spin pair that is
    not finite.
    """
    return SpinWaveFunction(eps=eps, mass=mass, width=width, spin=spin, center=center)


# ---------------------------------------------------------------------------
# Basis changes and scalar products
# ---------------------------------------------------------------------------

def _contract_amplitude(eps: int, m: float, pts: np.ndarray, om: np.ndarray, vals: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """psi = v^eps(p) psitilde into out (n, 4), for spin values vals (n, 2)
    at on-shell momenta (om, pts); eps and m are taken as valid.

    The amplitude stays in its plane layout (4, 2, n) and the contraction
    runs over the planes; it rounds as the (n, 4, 2) row-wise one does."""
    np.einsum("abn,bn->an", _amplitude_planes(eps, om, pts, m), vals.T, out=out.T)
    return out


def to_covariant(w: SpinWaveFunction) -> CovariantWaveFunction:
    """Contract with the amplitude: psi(p) = v^eps(p) psitilde(p)."""
    def fn(pts: np.ndarray) -> np.ndarray:
        flat = pts.reshape(-1, 3)
        out = np.empty((len(flat), 4), dtype=complex)
        _contract_amplitude(w.eps, w.mass, flat, shell_energy(w.mass, flat), w.evaluate(flat), out)
        return out.reshape(pts.shape[:-1] + (4,))

    return CovariantWaveFunction(eps=w.eps, mass=w.mass, width=w.width, fn=fn, center=w.center)


def from_covariant(c: CovariantWaveFunction) -> SpinWaveFunction:
    """Invert the basis change: psitilde(p) = eps vbar^eps(p) psi(p)."""
    def fn(pts: np.ndarray) -> np.ndarray:
        flat = pts.reshape(-1, 3)
        v = amplitude(c.eps, on_shell(c.mass, flat), c.mass)
        vals = c.evaluate(flat)
        out = c.eps * np.einsum("nbs,bc,nc->ns", v.conj(), GAMMA0, vals)
        return out.reshape(pts.shape[:-1] + (2,))

    return SpinWaveFunction(eps=c.eps, mass=c.mass, width=c.width, fn=fn, center=c.center)


def dirac_residual(c: CovariantWaveFunction, pts: np.ndarray) -> float:
    """Max violation of the shell constraint Lambda_{-eps}(p) psi(p) = 0.

    The projected profile is pointwise too, so it is evaluated in blocks and
    the (N, 4, 4) projector is never held whole; the max is order-free."""
    def projected(block: np.ndarray) -> np.ndarray:
        proj = energy_projector(-c.eps, on_shell(c.mass, block), c.mass)
        return np.einsum("nab,nb->na", proj, c.evaluate(block))

    return float(np.abs(evaluate_on(replace(c, fn=projected), pts)).max())


def _as_sectors(x) -> tuple:
    if isinstance(x, (SpinWaveFunction, CovariantWaveFunction)):
        return (x,)
    return tuple(x)


def shell_weight_error(grid: Grid, m: float) -> str | None:
    """The d3p/(2 omega) weights of this momentum cube for mass m, described
    if they or its corner energy may leave the float64 range, or None.

    A weight that underflows drops its sample, and one that overflows turns
    the sum into inf or nan.  The bounds come from the cube alone: the
    smallest weight is a corner's, (h / 2)^3 / (2 omega) at the corner
    energy omega = sqrt(m^2 + 3 pmax^2), and the largest an inner one,
    8 (h / 2)^3 / (2m).
    """
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    pmax = np.float64(grid.half_width)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        corner = (pmax / (grid.n - 1)) ** 3
        omega = np.sqrt(m * m + 3.0 * pmax * pmax)
        lo, hi = corner / (2.0 * omega), 8.0 * corner / (2.0 * m)
    if not omega <= huge:
        return f"the corner energy sqrt(m^2 + 3 pmax^2) ({omega:.3g}) outside the float64 range"
    if not (tiny <= lo and hi <= huge):
        return f"the d3p/(2 omega) weights ({lo:.3g} to {hi:.3g}) outside the normal float64 range"
    return None


class ShellCube:
    """One momentum cube with what products and syntheses on it share: the
    shell measure (omega, d3p/(2 omega)) of each mass, and each sector's
    values on its points, each computed once and held until the cube is
    released.  The points themselves are not held: each block's are made
    from the grid's axis when a block needs them.  Sectors are told apart
    by identity, as in `scalar_product`."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._measures: dict[float, tuple] = {}
        self._values: dict[int, np.ndarray] = {}

    def measure(self, m: float) -> tuple[np.ndarray, np.ndarray]:
        """`Grid.shell_measure` for mass m; a cube whose corner energy or
        weights leave the float64 range (`shell_weight_error`) is refused."""
        if m not in self._measures:
            problem = shell_weight_error(self.grid, m)
            if problem is not None:
                raise ValueError(f"momentum cube {self.grid} puts {problem} (mass {m!r})")
            self._measures[m] = self.grid.shell_measure(m)
        return self._measures[m]

    def values(self, s) -> np.ndarray:
        """A sector's values in its own basis, (N, 2) or (N, 4)."""
        if id(s) not in self._values:
            self._values[id(s)] = evaluate_on(s, self.grid)
        return self._values[id(s)]

    def contract(self, s: SpinWaveFunction, sl: slice, out: np.ndarray) -> np.ndarray:
        """Rows sl of a spin sector's covariant values into out (rows, 4):
        its spin values contracted with the amplitude at the block's points
        and the measure's omega."""
        om = self.measure(s.mass)[0]
        return _contract_amplitude(s.eps, s.mass, self.grid.block_points(sl), om[sl],
                                   self.values(s)[sl], out)

    def covariant(self, s) -> np.ndarray:
        """A sector's covariant values (N, 4): a spin sector's values
        contracted block by block (`contract`) into a new array; a covariant
        sector's own values."""
        if not isinstance(s, SpinWaveFunction):
            return self.values(s)
        out = np.empty((self.grid.n ** 3, 4), dtype=complex)
        for sl in _block_slices(len(out)):
            self.contract(s, sl, out[sl])
        return out


def _sector_product(a, b, cube: ShellCube | None) -> complex:
    """(a, b) for one sector of each, on the cube, or on the pair's own
    covering cube when cube is None.  Both in the spin basis, the product is
    the spin contraction; otherwise it is the covariant one, eps psibar phi."""
    if a.eps != b.eps:
        return 0.0 + 0.0j
    if a.mass != b.mass:
        raise ValueError("scalar product requires equal masses")
    if cube is None:
        cube = ShellCube(covering_grid((a, b)))
    wts = cube.measure(a.mass)[1]
    if isinstance(a, SpinWaveFunction) and isinstance(b, SpinWaveFunction):
        return complex(np.einsum("n,ns,ns->", wts, cube.values(a).conj(), cube.values(b)))
    # the ket first, so that its evaluation's temporaries are not held next
    # to the bra's values
    ket = cube.covariant(b)
    bra = cube.covariant(a)
    if isinstance(a, SpinWaveFunction):
        np.conjugate(bra, out=bra)  # contracted into a new array for this product alone
    else:
        bra = bra.conj()  # the cube's held values
    return complex(a.eps * np.einsum("n,nb,bc,nc->", wts, bra, GAMMA0, ket))


def _cube_product(a, b, cube: ShellCube | None) -> complex:
    """`scalar_product` on a shared cube (None: each pair's covering cube)."""
    return sum(_sector_product(sa, sb, cube) for sa in _as_sectors(a) for sb in _as_sectors(b))


def scalar_product(a, b, grid: Grid | None = None) -> complex:
    """Invariant scalar product (a, b); antilinear in a.

    Accepts single sectors or sequences of sectors (one per energy sign);
    sectors with different energy signs are orthogonal.  On a given grid
    every sector is evaluated once (`ShellCube`), so a sector paired with
    itself, as in `norm`, is evaluated once.  A cube whose d3p/(2 omega)
    weights leave the normal float64 range is refused.
    """
    return _cube_product(a, b, None if grid is None else ShellCube(grid))


def norm(a, grid: Grid | None = None) -> float:
    """State norm sqrt((a, a))."""
    return float(np.sqrt(np.real(scalar_product(a, a, grid))))


def normalized(w: SpinWaveFunction, grid: Grid | None = None) -> SpinWaveFunction:
    """Scale a profile to unit norm.

    A packet stays a packet, with its spin pair multiplied by 1 / norm once;
    any other profile becomes the jet profile of its jet divided by the
    norm.  A profile whose norm is zero or not finite is refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        nrm = norm(w, grid)
    if not 0.0 < nrm < np.inf:
        raise ValueError(f"cannot normalize a profile of norm {nrm!r}")
    if w.spin is not None:
        inv = 1.0 / nrm
        return replace(w, spin=tuple(s * inv for s in w.spin))
    inner = w.taylor
    return _jet_profile(w, lambda pts, order: inner(pts, order) / nrm)


# ---------------------------------------------------------------------------
# Lorentz transport
# ---------------------------------------------------------------------------

def lorentz_transform(w, L: np.ndarray):
    """Transport a wavefunction to the frame reached by L.

    Covariant basis: psi'(p') = S(L) psi(p) with p = L^{-1} p'.  Spin basis:
    the columns pick up the conjugate Wigner matrix, psitilde'(p') =
    D(R(L, p))* psitilde(p).  Returns the same kind of object, callable-backed.
    """
    L = lorentz_matrix(L, proper=True)
    Linv = METRIC @ L.T @ METRIC
    m = w.mass
    new_center = (L @ on_shell(m, w.center))[1:]
    new_width = w.width * L[0, 0]

    if isinstance(w, CovariantWaveFunction):
        S = bispinor_rep(L)

        def fn(pts: np.ndarray) -> np.ndarray:
            flat = pts.reshape(-1, 3)
            pre = (on_shell(m, flat) @ Linv.T)[:, 1:]
            vals = w.evaluate(pre)
            return np.einsum("ab,nb->na", S, vals).reshape(pts.shape[:-1] + (4,))

        return CovariantWaveFunction(eps=w.eps, mass=m, width=new_width, fn=fn, center=new_center)

    if isinstance(w, SpinWaveFunction):
        sandwich = _wigner_sandwich(L)  # D's per-L factor, built once per transform

        def fn(pts: np.ndarray) -> np.ndarray:
            q4 = on_shell(m, pts.reshape(-1, 3))
            pre4 = q4 @ Linv.T
            pre4[:, 0] = shell_energy(m, pre4[:, 1:])  # the preimage, back on the shell
            vals = w.evaluate(pre4[:, 1:])
            D = _wigner_product(sandwich, pre4, q4, m)  # `wigner_d` on on-shell points
            return np.einsum("nse,ne->ns", D.conj(), vals).reshape(pts.shape[:-1] + (2,))

        return SpinWaveFunction(eps=w.eps, mass=m, width=new_width, fn=fn, center=new_center)

    raise TypeError(f"cannot transform {type(w).__name__}")


# ---------------------------------------------------------------------------
# Newton-Wigner position: shifts and the operator itself
# ---------------------------------------------------------------------------

def _omega2(pts: np.ndarray, m: float, order: int) -> Jet:
    """The jet of omega^2 = m^2 + |p|^2 at the points."""
    p = variables(pts, order)
    return m * m + p[0] * p[0] + p[1] * p[1] + p[2] * p[2]


def nw_shift(w: SpinWaveFunction, a3: np.ndarray) -> SpinWaveFunction:
    """Newton-Wigner shift by the spatial vector a:

        psitilde(p) -> N(p, eps a) psitilde(p + eps a),
        N(p, b) = sqrt(omega(p) / omega(p + b)).

    Shifts compose additively and exactly (the N factors telescope), and
    preserve the norm because d3p/omega is shifted along with the profile.
    """
    a3 = np.asarray(a3, dtype=float)
    if a3.shape != (3,):
        raise ValueError(f"shift a3 must have shape (3,), got {a3.shape}")
    eps, m, inner = w.eps, w.mass, w.taylor

    def jet(pts: np.ndarray, order: int) -> Jet:
        shifted = pts + eps * a3
        return (_omega2(pts, m, order) / _omega2(shifted, m, order)).sqrt().sqrt() * inner(shifted, order)

    return _jet_profile(w, jet, center=w.center - eps * a3)


def nw_apply(w: SpinWaveFunction, i: int) -> SpinWaveFunction:
    """Apply the Newton-Wigner position component X_i,

        (X_i psi)(p) = i eps (d/dp_i - p_i / (2 (|p|^2 + m^2))) psi(p).

    The derivative is exact: the inner profile's jet is taken one order
    higher and differentiated.  A callable profile, such as a transported
    one, has no derivatives and is refused; use `sample` plus
    `nw_apply_sampled` for it.  Components commute ([X_i, X_j] = 0) and are
    canonically conjugate to momentum ([X_i, P_j] = i delta_{ij}).
    """
    i = check_component(i, 3, "i")
    eps, m, inner = w.eps, w.mass, w.taylor
    inner(np.empty((0, 3)), 1)  # refuses a profile without derivatives now, not when evaluated

    def jet(pts: np.ndarray, order: int) -> Jet:
        f, p_i = inner(pts, order + 1), variables(pts, order)[i]
        return 1j * eps * (f.diff(i) - p_i / (2.0 * _omega2(pts, m, order)) * f.truncate(order))

    return _jet_profile(w, jet)


def momentum_apply(w: SpinWaveFunction, j: int) -> SpinWaveFunction:
    """Apply the momentum component P_j, which acts as multiplication by eps p_j."""
    j = check_component(j, 3, "j")
    eps, inner = w.eps, w.taylor
    return _jet_profile(w, lambda pts, order: eps * variables(pts, order)[j] * inner(pts, order))


def apply_spin(w: SpinWaveFunction, M2: np.ndarray) -> SpinWaveFunction:
    """Mix the two spin components with a 2x2 matrix acting on the column.

    For operator matrices stored in the ket-index convention pass their
    `column_action` first.
    """
    MT, inner = np.asarray(M2, dtype=complex).T, w.taylor
    return _jet_profile(w, lambda pts, order: inner(pts, order) @ MT)


@dataclass(frozen=True)
class SampledWaveFunction:
    """Spin-basis profile sampled on a `Grid` (grid route for Newton-Wigner
    applications to a profile without derivatives)."""

    eps: int
    mass: float
    grid: Grid
    values: np.ndarray  # shape (n, n, n, 2)

    def mesh(self, i: int) -> np.ndarray:
        shape = [1, 1, 1]
        shape[i] = self.grid.n
        return self.grid.axis().reshape(shape)


def sample(w: SpinWaveFunction, grid: Grid) -> SampledWaveFunction:
    """Evaluate a profile at the points of a grid."""
    values = evaluate_on(w, grid).reshape((grid.n,) * 3 + (2,))
    return SampledWaveFunction(eps=w.eps, mass=w.mass, grid=grid, values=values)


def nw_apply_sampled(s: SampledWaveFunction, i: int) -> SampledWaveFunction:
    """X_i on gridded data, with the derivative as a central difference."""
    deriv = np.gradient(s.values, s.grid.axis(), axis=i, edge_order=2)
    om2 = s.mass * s.mass + sum(s.mesh(k) ** 2 for k in range(3))
    vals = 1j * s.eps * (deriv - (s.mesh(i) / (2.0 * om2))[..., None] * s.values)
    return replace(s, values=vals)


# ---------------------------------------------------------------------------
# Sharp-momentum Bloch states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityState:
    """Positive-energy state of one mass, sharp at spatial momentum q, with
    Bloch vector xi: rho = (I + xi.sigma)/2 on the spin indices.  q (..., 3)
    and xi (..., 3) may also hold a stack of states of that mass, one per
    sample; a refused sample is named by its index.

    The mass labels the representation and is kept, not derived: q4 is
    `on_shell(mass, q)`, made once here, so a state lies on its shell by
    construction.  The Bloch vectors are checked (`check_bloch_length`)
    before the momenta are lifted.
    """

    mass: float
    q: np.ndarray
    xi: np.ndarray
    q4: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mass = check_mass(self.mass)
        q = np.asarray(self.q, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if q.shape[-1:] != (3,) or xi.shape != q.shape:
            raise ValueError(f"DensityState needs momenta q and Bloch vectors xi of one shape "
                             f"(..., 3), got {q.shape} and {xi.shape}")
        check_bloch_length(xi)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "q4", on_shell(mass, q))

    def density_matrix(self) -> np.ndarray:
        return (np.eye(2, dtype=complex) + contract(self.xi, PAULI)) / 2.0


def spin_expectations(s: DensityState) -> dict[str, np.ndarray]:
    """Expectation values of W^0, Wvec, and Svec in sharp Bloch states, one
    per sample of a stack: w0 (...), wvec and svec (..., 3); a single state
    gives a float w0 and (3,) vectors.

    Evaluated as tr(rho M_col) with M_col the coefficient-column action of
    the stored spin-basis matrices; closed forms are

        <W^0> = q.xi / 2,  <W_k> = (m xi + qvec (q.xi)/(q^0 + m))_k / 2,
        <S_k> = xi_k / 2.
    """
    from .spin_ops import column_action, pl_spin, spin_matrix

    rho = s.density_matrix()
    m = s.mass

    def expectation(M):
        return np.real(np.trace(rho @ column_action(M), axis1=-2, axis2=-1))

    w0 = expectation(pl_spin(0, 1, s.q4, m))
    wvec = np.stack([expectation(pl_spin(k + 1, 1, s.q4, m)) for k in range(3)], axis=-1)
    svec = np.stack([expectation(spin_matrix(k)) for k in range(3)], axis=-1)
    return {"w0": float(w0) if w0.ndim == 0 else w0, "wvec": wvec, "svec": svec}


def bloch_transform(s: DensityState, L: np.ndarray) -> DensityState:
    """Transport sharp Bloch states: q -> Lq and xi -> R(L, q) xi, for one L
    or a stack of them matching a stack of states.  The result is the state
    of the same mass at the spatial part of L q4, lifted back onto the shell.

    The Bloch vector rotates with the Wigner rotation, so its length is
    preserved; equivalently rho -> D rho D^+ with D the SU(2) lift.
    """
    L = lorentz_matrix(L, proper=True)
    R3 = wigner_rotation(L, s.q4, s.mass)
    q4 = (L @ s.q4[..., None])[..., 0]
    return DensityState(s.mass, q4[..., 1:], (R3 @ s.xi[..., None])[..., 0])
