"""Minkowski four-vectors and small complex-matrix helpers.

Conventions used throughout the package: metric g = diag(1, -1, -1, -1),
natural units (hbar = c = 1), totally antisymmetric symbol fixed by
eps^{0123} = +1.  Four-vectors are plain numpy arrays of shape (4,)
ordered (t, x, y, z); spatial vectors are arrays of shape (3,).
"""
from __future__ import annotations

import numpy as np

#: Metric tensor g_{mu nu} = diag(1, -1, -1, -1).
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

def check_energy_sign(eps: int) -> int:
    """Validate an energy-sign label, returning it as a plain int (+1 or -1)."""
    if eps not in (1, -1):
        raise ValueError(f"energy sign must be +1 or -1, got {eps!r}")
    return int(eps)


def check_mass(m: float) -> float:
    """Validate a strictly positive rest mass."""
    m = float(m)
    if not np.isfinite(m) or m <= 0.0:
        raise ValueError(f"mass must be positive and finite, got {m!r}")
    return m


def four_vector(t: float, x: float, y: float, z: float) -> np.ndarray:
    """Assemble a contravariant four-vector (t, x, y, z)."""
    return np.array([t, x, y, z], dtype=float)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Invariant product a.b = a^0 b^0 - avec.bvec."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0] * b[0] - a[1:] @ b[1:])


def on_shell(m: float, p3: np.ndarray) -> np.ndarray:
    """Lift a spatial momentum onto the mass-m shell: (omega(p), pvec).

    omega(p) = sqrt(|pvec|^2 + m^2) is always the positive root; the
    energy sign of a state lives in a separate label, never in p^0.
    """
    m = check_mass(m)
    p3 = np.asarray(p3, dtype=float)
    if p3.shape != (3,):
        raise ValueError(f"spatial momentum must have shape (3,), got {p3.shape}")
    return np.concatenate(([np.sqrt(m * m + p3 @ p3)], p3))


def spatial(p4: np.ndarray) -> np.ndarray:
    """Spatial part of a four-vector."""
    return np.asarray(p4, dtype=float)[1:]


def parity_flip(p4: np.ndarray) -> np.ndarray:
    """Space inversion of a four-vector: (p^0, -pvec)."""
    p4 = np.asarray(p4, dtype=float)
    return np.concatenate(([p4[0]], -p4[1:]))


def lorentz_residual(L: np.ndarray) -> float:
    """Max-entry residual of the defining relation L^T g L = g."""
    L = np.asarray(L, dtype=float)
    return float(np.abs(L.T @ METRIC @ L - METRIC).max())


def is_proper_orthochronous(L: np.ndarray) -> bool:
    """Check det L > 0 and L^0_0 > 0.

    Meaningful for matrices that already preserve the metric (which forces
    |det| = 1 and |L^0_0| >= 1), so plain sign checks stay reliable even for
    extreme boosts where a rounded determinant misses +-1 by a wide margin.
    """
    L = np.asarray(L, dtype=float)
    return bool(np.linalg.det(L) > 0.0 and L[0, 0] > 0.0)


def lorentz_matrix(L: np.ndarray, tol: float = 1e-10, proper: bool = False) -> np.ndarray:
    """Validate a 4x4 Lorentz matrix (L^T g L = g) and return it.

    The metric defect is compared against tol scaled by the squared entry
    magnitude, since rounding alone produces a defect of that order in
    L^T g L for large rapidities.  With proper=True additionally require a
    proper orthochronous element; discrete elements such as the parity
    matrix pass only the metric check.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4):
        raise ValueError(f"Lorentz matrix must have shape (4, 4), got {L.shape}")
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    r = lorentz_residual(L)
    if r >= tol * scale:
        raise ValueError(
            f"matrix does not preserve the metric: residual {r:.3e} >= {tol:.1e} * {scale:.3g}")
    if proper and not is_proper_orthochronous(L):
        raise ValueError("matrix is not proper orthochronous")
    return L


def parity_matrix() -> np.ndarray:
    """Vector realization of space inversion, diag(1, -1, -1, -1)."""
    return np.diag([1.0, -1.0, -1.0, -1.0])

