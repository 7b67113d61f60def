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
nine components of (q, xi, x) in, their nine derivatives out.  `integrate`
steps those floats directly and `rhs` is the single-state wrapper, so no
state object is rebuilt per stage.  Where B and the force matrix come from
is chosen once per call, not per stage:

- `uniform_field` keeps B as a float triple and its gradient is zero, so a
  stage does no numpy at all;
- `quadrupole_field` keeps G, and a stage makes one BLAS product for B = x G
  and one for the force, G xi or G^T xi;
- a `FieldConfig` built from callables alone has b(x) and grad_b(x) called
  at every stage, at the stage position.

The arithmetic keeps numpy's operation order (np.cross, a matrix-vector
product for the force), so a trajectory equals the 3-vector numpy form bit
for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .minkowski import check_mass

#: Available index conventions for the gradient force.
GRADIENT_READINGS = ("stern-gerlach", "transposed")


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: B(x) and its gradient dB(x) with dB[i, j] = d_i B_j.

    `uniform_field` and `quadrupole_field` also keep the field as data, B as
    a float triple or the gradient G, which `integrate` and `rhs` read instead
    of calling b and grad_b at every stage.  A config built from callables
    alone has neither and is integrated through its callables.
    """

    b: Callable[[np.ndarray], np.ndarray]
    grad_b: Callable[[np.ndarray], np.ndarray]
    uniform: bool = False
    constant: tuple[float, float, float] | None = field(default=None, init=False, repr=False, compare=False)
    gradient: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def gradient_residual(self, pts: np.ndarray, h: float = 1e-6) -> float:
        """Self-check: max difference between grad_b and a central difference of b.

        NaN at any point propagates to the result (0.0 for no points).
        """
        residuals = []
        for x in np.asarray(pts, dtype=float).reshape(-1, 3):
            num = np.empty((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                num[i] = (self.b(x + e) - self.b(x - e)) / (2.0 * h)
            residuals.append(np.abs(num - self.grad_b(x)).max())
        return float(np.max(residuals, initial=0.0))


def uniform_field(b3: np.ndarray) -> FieldConfig:
    """Spatially constant field B."""
    b3 = np.asarray(b3, dtype=float).copy()
    if b3.shape != (3,):
        raise ValueError(f"field must have shape (3,), got {b3.shape}")
    zero = np.zeros((3, 3))
    f = FieldConfig(b=lambda x: b3, grad_b=lambda x: zero, uniform=True)
    object.__setattr__(f, "constant", tuple(b3.tolist()))
    return f


def quadrupole_field(G: np.ndarray) -> FieldConfig:
    """Linear field B_j(x) = sum_i G_ij x_i with constant gradient d_i B_j = G_ij.

    A symmetric traceless G gives a curl- and divergence-free field.
    """
    G = np.asarray(G, dtype=float).copy()
    if G.shape != (3, 3):
        raise ValueError(f"gradient matrix must have shape (3, 3), got {G.shape}")
    f = FieldConfig(b=lambda x: np.asarray(x, dtype=float) @ G, grad_b=lambda x: G, uniform=False)
    object.__setattr__(f, "gradient", G)
    return f


@dataclass(frozen=True)
class ChargedState:
    """Mean momentum, Bloch vector, and position of a charged particle.

    The Bloch vector xi is refused if |xi| > 1, as in `states.DensityState`.
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
            object.__setattr__(self, name, v)
        length = math.hypot(*self.xi.tolist())  # no overflow for finite entries
        if not length <= 1.0 + 1e-12:
            raise ValueError(f"Bloch vector must satisfy |xi| <= 1, got {length}")


def _transposed(reading: str) -> bool:
    """Whether `reading` is the transposed one; an unknown reading is refused."""
    if reading not in GRADIENT_READINGS:
        raise ValueError(f"unknown gradient reading {reading!r}; choose from {GRADIENT_READINGS}")
    return reading == "transposed"


def _field_terms(f: FieldConfig, transposed: bool) -> tuple:
    """What `_rate` reads B and the force matrix from, as (b, grad):

    - uniform data: b is B as a float triple and grad is None (dB = 0);
    - linear data: b is G^T (B = x G = G^T x) and grad the force matrix,
      G or G^T;
    - callables alone: b is f.b and grad gives the force matrix at a position.
    """
    if f.constant is not None:
        return f.constant, None
    if f.gradient is not None:
        G = f.gradient
        return G.T, (G.T if transposed else G)
    return f.b, ((lambda pos: f.grad_b(pos).T) if transposed else f.grad_b)


def _rate(y: tuple, b, grad, e_over_m: float, mass: float) -> tuple:
    """The equations of motion on plain floats: the state y = (q, xi, x) as
    nine floats in, (dq/dt, dxi/dt, dx/dt) as nine floats out.  (b, grad)
    come from `_field_terms`.

    B and dB are read once, at the position.  The cross products follow
    np.cross's operation order and the force is the matrix-vector product
    that numpy's matmul makes, so each value equals the 3-vector numpy
    evaluation bit for bit.  The uniform field's force is an exact +0.0, as
    numpy's product with the zero gradient gives for any finite xi.
    """
    q0, q1, q2, s0, s1, s2 = y[:6]
    if grad is None:
        b0, b1, b2 = b
        f0 = f1 = f2 = 0.0
    elif callable(grad):
        pos = np.array(y[6:])
        b0, b1, b2 = b(pos).tolist()
        f0, f1, f2 = (grad(pos) @ np.array(y[3:6])).tolist()
    else:
        b0, b1, b2 = b.dot(y[6:]).tolist()
        f0, f1, f2 = grad.dot(y[3:6]).tolist()
    half = 0.5 * e_over_m
    return (e_over_m * (q1 * b2 - q2 * b1) + half * f0,
            e_over_m * (q2 * b0 - q0 * b2) + half * f1,
            e_over_m * (q0 * b1 - q1 * b0) + half * f2,
            e_over_m * (s1 * b2 - s2 * b1),
            e_over_m * (s2 * b0 - s0 * b2),
            e_over_m * (s0 * b1 - s1 * b0),
            q0 / mass, q1 / mass, q2 / mass)


def rhs(s: ChargedState, f: FieldConfig, reading: str = "stern-gerlach") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq/dt, dxi/dt, dx/dt) at the state s."""
    d = _rate((*s.q.tolist(), *s.xi.tolist(), *s.x.tolist()), *_field_terms(f, _transposed(reading)),
              s.charge / s.mass, s.mass)
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
    consts = (*_field_terms(f, transposed), s0.charge / s0.mass, s0.mass)
    y = (*s0.q.tolist(), *s0.xi.tolist(), *s0.x.tolist())
    rows = [y]

    # Overflow is caught by the finiteness check below, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = _rate(y, *consts)
            k2 = _rate(tuple([a + half * d for a, d in zip(y, k1)]), *consts)
            k3 = _rate(tuple([a + half * d for a, d in zip(y, k2)]), *consts)
            k4 = _rate(tuple([a + h * d for a, d in zip(y, k3)]), *consts)
            y = tuple([a + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
                       for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)])
            if not all(map(math.isfinite, y)):
                raise RuntimeError(f"integration produced non-finite values at step {k}, t = {t[k]:.6g}")
            rows.append(y)

    table = np.array(rows)
    q, xi, x = (np.ascontiguousarray(table[:, i:i + 3]) for i in (0, 3, 6))
    return Trajectory(t=t, q=q, xi=xi, x=x, include_position=not f.uniform)


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
