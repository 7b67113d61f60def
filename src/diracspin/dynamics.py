"""Slow-motion momentum and polarization dynamics in a static magnetic field.

For a charge e with g = 2 in a magnetic field B(x), to leading order in
velocity and with no electric field, the mean momentum q, Bloch vector xi,
and position x evolve as

    dq/dt  = (e/m) q x B + (e/2m) grad-force(xi, dB),
    dxi/dt = (e/m) xi x B,
    dx/dt  = q/m.

The gradient (Stern-Gerlach) force admits two index readings when dB is not
symmetric; both are available, with the Stern-Gerlach reading
force_i = sum_j (d_i B_j) xi_j as the default.  Curl-free fields make the
readings coincide.  Integration is a fixed-step classical Runge-Kutta
scheme (RK4).
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .minkowski import check_mass

#: Available index conventions for the gradient force.
GRADIENT_READINGS = ("stern-gerlach", "transposed")


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: B(x) and its gradient dB(x) with dB[i, j] = d_i B_j."""

    b: Callable[[np.ndarray], np.ndarray]
    grad_b: Callable[[np.ndarray], np.ndarray]
    uniform: bool = False

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
    zero = np.zeros((3, 3))
    return FieldConfig(b=lambda x: b3, grad_b=lambda x: zero, uniform=True)


def quadrupole_field(G: np.ndarray) -> FieldConfig:
    """Linear field B_j(x) = sum_i G_ij x_i with constant gradient d_i B_j = G_ij.

    A symmetric traceless G gives a curl- and divergence-free field.
    """
    G = np.asarray(G, dtype=float).copy()
    if G.shape != (3, 3):
        raise ValueError(f"gradient matrix must have shape (3, 3), got {G.shape}")
    return FieldConfig(b=lambda x: np.asarray(x, dtype=float) @ G, grad_b=lambda x: G, uniform=False)


@dataclass(frozen=True)
class ChargedState:
    """Mean momentum, Bloch vector, and position of a charged particle."""

    q: np.ndarray
    xi: np.ndarray
    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    charge: float = 1.0
    mass: float = 1.0
    g: float = 2.0

    def __post_init__(self):
        check_mass(self.mass)
        if self.g != 2.0:
            raise ValueError("only g = 2 is supported by these equations of motion")
        for name in ("q", "xi", "x"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must have shape (3,)")
            object.__setattr__(self, name, v)


def rhs(s: ChargedState, f: FieldConfig, reading: str = "stern-gerlach") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq/dt, dxi/dt, dx/dt) at the state s."""
    if reading not in GRADIENT_READINGS:
        raise ValueError(f"unknown gradient reading {reading!r}; choose from {GRADIENT_READINGS}")
    e_over_m = s.charge / s.mass
    B = f.b(s.x)
    G = f.grad_b(s.x)
    force = G @ s.xi if reading == "stern-gerlach" else G.T @ s.xi
    dq = e_over_m * np.cross(s.q, B) + 0.5 * e_over_m * force
    dxi = e_over_m * np.cross(s.xi, B)
    dx = s.q / s.mass
    return dq, dxi, dx


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record: arrays of length steps + 1."""

    t: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    x: np.ndarray
    include_position: bool

    def to_csv(self, target=None) -> str | None:
        """Write rows t,qx,qy,qz,xix,xiy,xiz[,x,y,z]; returns the text when
        target is None, otherwise writes to the path or file object."""
        cols = ["t", "qx", "qy", "qz", "xix", "xiy", "xiz"]
        data = [self.t, *self.q.T, *self.xi.T]
        if self.include_position:
            cols += ["x", "y", "z"]
            data += [*self.x.T]
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for row in zip(*data):
            buf.write(",".join(format(v, ".17g") for v in row) + "\n")
        text = buf.getvalue()
        if target is None:
            return text
        if hasattr(target, "write"):
            target.write(text)
            return None
        with open(target, "w") as fh:
            fh.write(text)
        return None


def integrate(s0: ChargedState, f: FieldConfig, t_final: float, steps: int,
              reading: str = "stern-gerlach") -> Trajectory:
    """Integrate the equations of motion with `steps` RK4 steps up to t_final.

    Raises RuntimeError with the failing step if the state stops being finite.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    h = float(t_final) / steps
    n = steps + 1
    t = np.linspace(0.0, float(t_final), n)
    q = np.empty((n, 3))
    xi = np.empty((n, 3))
    x = np.empty((n, 3))
    q[0], xi[0], x[0] = s0.q, s0.xi, s0.x

    def deriv(qv, xv, pv):
        return rhs(replace(s0, q=qv, xi=xv, x=pv), f, reading)

    # Overflow is caught by the finiteness check below, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = deriv(q[k], xi[k], x[k])
            k2 = deriv(q[k] + 0.5 * h * k1[0], xi[k] + 0.5 * h * k1[1], x[k] + 0.5 * h * k1[2])
            k3 = deriv(q[k] + 0.5 * h * k2[0], xi[k] + 0.5 * h * k2[1], x[k] + 0.5 * h * k2[2])
            k4 = deriv(q[k] + h * k3[0], xi[k] + h * k3[1], x[k] + h * k3[2])
            q[k + 1] = q[k] + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            xi[k + 1] = xi[k] + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            x[k + 1] = x[k] + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            if not (np.isfinite(q[k + 1]).all() and np.isfinite(xi[k + 1]).all() and np.isfinite(x[k + 1]).all()):
                raise RuntimeError(f"integration produced non-finite values at step {k + 1}, t = {t[k + 1]:.6g}")

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
