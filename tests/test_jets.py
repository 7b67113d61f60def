import math
from itertools import product

import numpy as np
import pytest

from diracspin.jets import variables


@pytest.mark.parametrize("name", ["exp", "sqrt", "quotient", "diff"])
def test_jet_coefficients_match_sympy(name, rng):
    # every coefficient to order 3 is d^a f / a! at the point, for
    # g = 2 + |p|^2 + p2 p3 - 0.3 p1 > 0 and functions of it
    sp = pytest.importorskip("sympy")
    P = sp.symbols("p1 p2 p3", real=True)
    pts = rng.normal(size=(16, 3))
    p = variables(pts, 3)
    g = 2.0 + p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[1] * p[2] - 0.3 * p[0]
    g_sym = 2 + P[0] ** 2 + P[1] ** 2 + P[2] ** 2 + P[1] * P[2] - 0.3 * P[0]
    jet, f = {"exp": ((g * 0.25).exp(), sp.exp(g_sym / 4)),
              "sqrt": (g.sqrt(), sp.sqrt(g_sym)),
              "quotient": (p[0] / g, P[0] / g_sym),
              "diff": ((g.sqrt() * p[2]).diff(1), sp.diff(sp.sqrt(g_sym) * P[2], P[1]))}[name]
    assert jet.order == (2 if name == "diff" else 3)
    assert max(map(sum, jet.coef)) <= jet.order
    for a in product(range(jet.order + 1), repeat=3):
        if sum(a) > jet.order:
            continue
        d = sp.diff(f, *[P[i] for i in range(3) for _ in range(a[i])]) if sum(a) else f
        ref = np.broadcast_to(sp.lambdify(P, d, modules="numpy")(*pts.T), len(pts))
        ref = ref / math.prod(math.factorial(k) for k in a)
        got = np.broadcast_to(np.asarray(jet.coef.get(a, 0.0)), (len(pts), 1))[:, 0]
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), a
