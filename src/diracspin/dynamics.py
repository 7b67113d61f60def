"""Slow-motion momentum and polarization dynamics in a static magnetic field.

For a charge e in a magnetic field B(x), with g = 2 (the one value these
equations hold for, so a state carries no g), to leading order in velocity
and with no electric field, the mean momentum q, Bloch vector xi, and
position x evolve as

    dq/dt  = (e/m) q x B + (e/2m) grad-force(xi, dB),
    dxi/dt = (e/m) xi x B,
    dx/dt  = q/m.

The gradient (Stern-Gerlach) force admits two index readings when dB is not
symmetric; both are available, with the Stern-Gerlach reading
force_i = sum_j (d_i B_j) xi_j as the default.  Curl-free fields make the
readings coincide.  Integration is a fixed-step classical Runge-Kutta
scheme (RK4).

The equations are written once, in `_rate`, on plain Python floats: the
nine components of (q, xi, x) in, their nine derivatives out.  `_rate`
binds the field, the charge-to-mass ratio and the mass once per trajectory
and returns the rate function; `integrate` then keeps the state as nine
local floats through the four RK4 stages and the update, building no
tuple, array or state object per stage, and `rhs` is the single-state
wrapper.  A field is data:

- a uniform field binds B as a float triple and its gradient is zero;
- a linear (quadrupole) field binds G^T (B = x G) and the force matrix, G
  or G^T, as 18 floats, and a stage forms each component of B and of the
  force as the plain float sum (a_0 y_0 + a_1 y_1) + a_2 y_2.

So no stage calls numpy or BLAS.  A sum of IEEE products in one fixed order
has no fused multiply-add, so a trajectory rounds the same on every IEEE-754
machine, whatever kernel OpenBLAS picks for the CPU.  The cross products
keep np.cross's operation order, so a trajectory equals the 3-vector numpy
form written with these sums bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .minkowski import check_bloch_length, check_mass

#: Available index conventions for the gradient force.
GRADIENT_READINGS = ("stern-gerlach", "transposed")


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """Static magnetic field held as data, exactly one of:

    - `constant`: a uniform B, kept as a float triple;
    - `gradient`: the matrix G of the linear field B_j(x) = sum_i G_ij x_i,
      whose gradient d_i B_j = G_ij is constant.

    Shape, finiteness and "exactly one" are checked here, on construction.
    A field compares by identity, since G is an array.
    """

    constant: tuple[float, float, float] | None = None
    gradient: np.ndarray | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.gradient is None):
            raise ValueError("a field needs exactly one of constant (B) and gradient (G), got "
                             + ("neither" if self.constant is None else "both"))
        if self.gradient is None:
            b3 = np.asarray(self.constant, dtype=float)
            if b3.shape != (3,):
                raise ValueError(f"field must have shape (3,), got {b3.shape}")
            if not np.isfinite(b3).all():
                raise ValueError(f"field b3 must be finite, got {b3}")
            object.__setattr__(self, "constant", tuple(b3.tolist()))
            return
        G = np.array(self.gradient, dtype=float)
        if G.shape != (3, 3):
            raise ValueError(f"gradient matrix must have shape (3, 3), got {G.shape}")
        if not np.isfinite(G).all():
            raise ValueError(f"gradient matrix G must be finite, got {G.tolist()}")
        object.__setattr__(self, "gradient", G)


def uniform_field(b3: np.ndarray) -> FieldConfig:
    """Spatially constant field B."""
    return FieldConfig(constant=b3)


def quadrupole_field(G: np.ndarray) -> FieldConfig:
    """Linear field B_j(x) = sum_i G_ij x_i with constant gradient d_i B_j = G_ij.

    A symmetric traceless G gives a curl- and divergence-free field.
    """
    return FieldConfig(gradient=G)


@dataclass(frozen=True)
class ChargedState:
    """Mean momentum, Bloch vector, and position of a charged particle.

    The Bloch vector xi is refused by `minkowski.check_bloch_length`, as in
    `states.DensityState`, and a non-finite q, x or charge is refused.
    """

    q: np.ndarray
    xi: np.ndarray
    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    charge: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        check_mass(self.mass)
        for name in ("q", "xi", "x"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must have shape (3,)")
            if name != "xi" and not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if not math.isfinite(self.charge):
            raise ValueError(f"charge must be finite, got {self.charge}")
        check_bloch_length(self.xi)


def _transposed(reading: str) -> bool:
    """Whether `reading` is the transposed one; an unknown reading is refused."""
    if reading not in GRADIENT_READINGS:
        raise ValueError(f"unknown gradient reading {reading!r}; choose from {GRADIENT_READINGS}")
    return reading == "transposed"


def _field_terms(f: FieldConfig, transposed: bool) -> tuple:
    """What `_rate` reads B and the force matrix from, as (b, grad):

    - uniform field: b is B as a float triple and grad is None (dB = 0);
    - linear field: b is G^T (B = x G = G^T x) and grad the force matrix,
      G or G^T.
    """
    G = f.gradient
    if G is None:
        return f.constant, None
    return G.T, (G.T if transposed else G)


def _rate(b, grad, e_over_m: float, mass: float):
    """The equations of motion bound to one field and one particle: returns
    rate(q0, q1, q2, s0, s1, s2, x0, x1, x2), which takes the state
    (q, xi, x) as nine floats and gives (dq/dt, dxi/dt, dx/dt) as nine
    floats.  (b, grad) come from `_field_terms`.

    The field is bound once per trajectory, and `integrate` calls the rate
    once per stage on the nine local floats it steps.  A call reads the
    field through one branch: a uniform field's B and force are the bound
    floats; a linear field's B_j = (b_j0 x0 + b_j1 x1) + b_j2 x2 and force
    F_i = half ((M_i0 s0 + M_i1 s1) + M_i2 s2) are plain float sums in that
    order, with no BLAS call and no FMA.  The cross products follow
    np.cross's operation order, so each value equals the 3-vector numpy
    evaluation with these sums bit for bit.  The uniform field's force is
    (e/2m) 0.0, as numpy's product with the zero gradient gives for any
    finite xi: a zero whose sign follows the charge.
    """
    e_over_m, mass = float(e_over_m), float(mass)
    half = 0.5 * e_over_m
    if grad is None:
        uniform = (*b, half * 0.0, half * 0.0, half * 0.0)
    else:
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b.tolist()
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = grad.tolist()

    def rate(q0, q1, q2, s0, s1, s2, x0, x1, x2):
        if grad is None:
            b0, b1, b2, f0, f1, f2 = uniform
        else:
            b0 = (b00 * x0 + b01 * x1) + b02 * x2
            b1 = (b10 * x0 + b11 * x1) + b12 * x2
            b2 = (b20 * x0 + b21 * x1) + b22 * x2
            f0 = half * ((m00 * s0 + m01 * s1) + m02 * s2)
            f1 = half * ((m10 * s0 + m11 * s1) + m12 * s2)
            f2 = half * ((m20 * s0 + m21 * s1) + m22 * s2)
        return (e_over_m * (q1 * b2 - q2 * b1) + f0,
                e_over_m * (q2 * b0 - q0 * b2) + f1,
                e_over_m * (q0 * b1 - q1 * b0) + f2,
                e_over_m * (s1 * b2 - s2 * b1),
                e_over_m * (s2 * b0 - s0 * b2),
                e_over_m * (s0 * b1 - s1 * b0),
                q0 / mass, q1 / mass, q2 / mass)

    return rate


def rhs(s: ChargedState, f: FieldConfig, reading: str = "stern-gerlach") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq/dt, dxi/dt, dx/dt) at the state s."""
    rate = _rate(*_field_terms(f, _transposed(reading)), s.charge / s.mass, s.mass)
    d = rate(*s.q.tolist(), *s.xi.tolist(), *s.x.tolist())
    return np.array(d[:3]), np.array(d[3:6]), np.array(d[6:])


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record: arrays of length steps + 1."""

    t: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    x: np.ndarray
    include_position: bool

    def to_csv(self) -> str:
        """The rows t,qx,qy,qz,xix,xiy,xiz[,x,y,z] as CSV text."""
        cols = ["t", "qx", "qy", "qz", "xix", "xiy", "xiz"]
        data = [self.t, self.q, self.xi]
        if self.include_position:
            cols += ["x", "y", "z"]
            data.append(self.x)
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        return ",".join(cols) + "\n" + "".join([row % tuple(r) for r in np.column_stack(data).tolist()])


def integrate(s0: ChargedState, f: FieldConfig, t_final: float, steps: int,
              reading: str = "stern-gerlach") -> Trajectory:
    """Integrate the equations of motion with `steps` RK4 steps up to t_final.

    Raises RuntimeError with the failing step if the state stops being finite.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    transposed = _transposed(reading)
    h = float(t_final) / steps
    half, sixth = 0.5 * h, h / 6.0
    t = np.linspace(0.0, float(t_final), steps + 1)
    rate = _rate(*_field_terms(f, transposed), s0.charge / s0.mass, s0.mass)
    q0, q1, q2 = s0.q.tolist()
    xi0, xi1, xi2 = s0.xi.tolist()
    x0, x1, x2 = s0.x.tolist()
    rows = [(q0, q1, q2, xi0, xi1, xi2, x0, x1, x2)]

    # The stages' derivatives are a0..a8 (k1), b (k2), c (k3) and d (k4), in
    # the state's order.  Float arithmetic overflows to inf or nan without a
    # warning, and the finiteness check below catches it.
    for k in range(1, steps + 1):
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = rate(q0, q1, q2, xi0, xi1, xi2, x0, x1, x2)
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = rate(
            q0 + half * a0, q1 + half * a1, q2 + half * a2,
            xi0 + half * a3, xi1 + half * a4, xi2 + half * a5,
            x0 + half * a6, x1 + half * a7, x2 + half * a8)
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = rate(
            q0 + half * b0, q1 + half * b1, q2 + half * b2,
            xi0 + half * b3, xi1 + half * b4, xi2 + half * b5,
            x0 + half * b6, x1 + half * b7, x2 + half * b8)
        d0, d1, d2, d3, d4, d5, d6, d7, d8 = rate(
            q0 + h * c0, q1 + h * c1, q2 + h * c2,
            xi0 + h * c3, xi1 + h * c4, xi2 + h * c5,
            x0 + h * c6, x1 + h * c7, x2 + h * c8)
        row = (q0 + sixth * (a0 + 2 * b0 + 2 * c0 + d0),
               q1 + sixth * (a1 + 2 * b1 + 2 * c1 + d1),
               q2 + sixth * (a2 + 2 * b2 + 2 * c2 + d2),
               xi0 + sixth * (a3 + 2 * b3 + 2 * c3 + d3),
               xi1 + sixth * (a4 + 2 * b4 + 2 * c4 + d4),
               xi2 + sixth * (a5 + 2 * b5 + 2 * c5 + d5),
               x0 + sixth * (a6 + 2 * b6 + 2 * c6 + d6),
               x1 + sixth * (a7 + 2 * b7 + 2 * c7 + d7),
               x2 + sixth * (a8 + 2 * b8 + 2 * c8 + d8))
        if not all(map(math.isfinite, row)):
            raise RuntimeError(f"integration produced non-finite values at step {k}, t = {t[k]:.6g}")
        rows.append(row)
        q0, q1, q2, xi0, xi1, xi2, x0, x1, x2 = row

    table = np.array(rows)
    q, xi, x = (np.ascontiguousarray(table[:, i:i + 3]) for i in (0, 3, 6))
    return Trajectory(t=t, q=q, xi=xi, x=x, include_position=f.gradient is not None)


def larmor_solution(s0: ChargedState, b3: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic solution for a uniform field: q and xi rotate about B with
    angular velocity -e B / m (vectors with positive components about +B
    rotate clockwise when viewed from +B).  Returns (q(t), xi(t))."""
    b3 = np.asarray(b3, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    Bmag = np.linalg.norm(b3)
    if Bmag == 0.0:
        return np.tile(s0.q, (len(t), 1)), np.tile(s0.xi, (len(t), 1))
    n = b3 / Bmag
    ang = -(s0.charge * Bmag / s0.mass) * t

    def rotate(v):
        par = np.outer(np.full_like(t, v @ n), n)
        perp = v - (v @ n) * n
        cross = np.cross(n, v)
        return par + np.outer(np.cos(ang), perp) + np.outer(np.sin(ang), cross)

    return rotate(s0.q), rotate(s0.xi)
