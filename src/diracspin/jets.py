"""Truncated multivariate Taylor jets in the spatial momentum (p1, p2, p3).

Arithmetic, `exp` and `sqrt` act on truncated Taylor series (Griewank and
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), so `diff(i)`
of an order-(k + 1) jet is the exact order-k jet of df/dp_i, up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ZERO = (0, 0, 0)


@dataclass(eq=False)
class Jet:
    """Taylor coefficients to total degree `order` at each of a set of
    points: coef[a] = d^a f / a! for the multi-index a = (a1, a2, a3), zero
    where not held.  Coefficients are arrays that broadcast together; a
    scalar or array operand is a constant."""

    coef: dict
    order: int

    __array_ufunc__ = None  # a numpy scalar or array operand defers to the jet's operators

    @property
    def value(self):
        """The order-0 coefficient: the function's values at the points."""
        return self.coef.get(_ZERO, 0.0)

    def truncate(self, order: int) -> Jet:
        return Jet({a: c for a, c in self.coef.items() if sum(a) <= order}, order)

    def __add__(self, other) -> Jet:
        other = other if isinstance(other, Jet) else Jet({_ZERO: other}, self.order)
        order = min(self.order, other.order)
        coef = self.truncate(order).coef
        for a, c in other.truncate(order).coef.items():
            coef[a] = coef[a] + c if a in coef else c
        return Jet(coef, order)

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        return self + other * -1.0

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            return Jet({a: c * other for a, c in self.coef.items()}, self.order)
        order, coef = min(self.order, other.order), {}
        for a, ca in self.coef.items():
            for b, cb in other.coef.items():
                if sum(a) + sum(b) <= order:
                    k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                    coef[k] = coef[k] + ca * cb if k in coef else ca * cb
        return Jet(coef, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        if isinstance(other, Jet):
            inv = 1.0 / other.value
            return self * other._series(inv, lambda k: -inv)
        return Jet({a: c / other for a, c in self.coef.items()}, self.order)

    def __matmul__(self, M: np.ndarray) -> Jet:
        """Each coefficient times the constant matrix M on the right."""
        return Jet({a: c @ M for a, c in self.coef.items()}, self.order)

    def diff(self, i: int) -> Jet:
        """The order - 1 jet of the derivative along p_i."""
        if self.order < 1:
            raise ValueError("an order-0 jet has no derivative")
        down = tuple(int(k == i) for k in range(3))
        return Jet({tuple(x - y for x, y in zip(a, down)): c * a[i]
                    for a, c in self.coef.items() if a[i]}, self.order - 1)

    def _series(self, f0, ratio) -> Jet:
        """f(self) by Horner's rule in self - c0, from f0 = f(c0) and the ratio
        ratio(k) of f's Taylor coefficients f^(k)(c0) / k! and of k - 1."""
        taylor = [f0]
        for k in range(1, self.order + 1):
            taylor.append(taylor[-1] * ratio(k))
        h = Jet({a: c for a, c in self.coef.items() if a != _ZERO}, self.order)
        out = Jet({_ZERO: taylor[-1]}, self.order)
        for t in reversed(taylor[:-1]):
            out = out * h + t
        return out

    def exp(self) -> Jet:
        return self._series(np.exp(self.value), lambda k: 1.0 / k)

    def sqrt(self) -> Jet:
        return self._series(np.sqrt(self.value), lambda k: (1.5 - k) / k / self.value)


def variables(pts: np.ndarray, order: int) -> tuple[Jet, Jet, Jet]:
    """The jets of p1, p2 and p3 at the points (..., 3).  Their values have
    shape (..., 1), so one of them times a spin pair (2,) is a jet of pairs."""
    pts = np.asarray(pts, dtype=float)
    return tuple(Jet({_ZERO: pts[..., i, None], tuple(int(k == i) for k in range(3)): 1.0},
                     order).truncate(order) for i in range(3))
