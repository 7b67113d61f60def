"""Minkowski four-vectors and small complex-matrix helpers.

Conventions used throughout the package: metric g = diag(1, -1, -1, -1),
natural units (hbar = c = 1), totally antisymmetric symbol fixed by
eps^{0123} = +1.  Four-vectors are plain numpy arrays of shape (4,)
ordered (t, x, y, z); spatial vectors are arrays of shape (3,).

Kernels are batch-first: leading axes are sample axes, and a single input
is the case with none.  A validator that refuses part of a batch raises
`SampleRefused` naming the first refused sample.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: The diagonal of the metric, which lowers an index: p_mu = _LOWER[mu] p^mu.
_LOWER = np.array([1.0, -1.0, -1.0, -1.0])
#: Metric tensor g_{mu nu} = diag(1, -1, -1, -1).
METRIC = np.diag(_LOWER)

#: Metric defect |L^T g L - g| that `lorentz_matrix` accepts, per unit of
#: the squared largest entry.
METRIC_TOL = 1e-10


class SampleRefused(ValueError):
    """A validator refused an input; `index` is the first refused sample,
    counted in C order over the batch axes (0 for a single input)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def refuse_first(*checks: tuple[np.ndarray, Callable[[int], str]]) -> None:
    """Raise `SampleRefused` at the first sample that fails any check.

    Each check is (bad, message): bad holds one flag per sample (a single
    flag for a single input), and message(i) gives the text for sample i.
    The text is that of the first check the sample fails; a batch adds the
    sample index to it.
    """
    flags = [np.asarray(bad) for bad, _ in checks]
    if not any(f.any() for f in flags):
        return
    batched = any(f.ndim for f in flags)
    table = np.stack(np.broadcast_arrays(*flags)).reshape(len(checks), -1)
    i = int(np.argmax(table.any(axis=0)))
    j = int(np.argmax(table[:, i]))
    raise SampleRefused(checks[j][1](i) + (f" (sample {i})" if batched else ""), i)


def check_energy_sign(eps):
    """Validate an energy-sign label, returning it as a plain int (+1 or -1);
    an array of labels, one per sample, is returned as an int array."""
    if np.ndim(eps) == 0:
        if eps not in (1, -1):
            raise ValueError(f"energy sign must be +1 or -1, got {eps!r}")
        return int(eps)
    eps = np.asarray(eps)
    refuse_first(((eps != 1) & (eps != -1),
                  lambda i: f"energy sign must be +1 or -1, got {eps.reshape(-1)[i]!r}"))
    return eps.astype(int)


def check_component(i, n: int, name: str) -> int:
    """Validate a component index, an integer (not a bool) in range(n), as an
    int: a negative index is refused, not aliased to another component."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise ValueError(f"{name} must be an integer in range({n}), got {i!r}")
    return int(i)


def four_momentum_checks(name: str, p4: np.ndarray) -> list:
    """The `refuse_first` checks of four-momenta p4 (..., 4) called `name`:
    finite entries, then a positive p^0, printed as a float when refused."""
    p0 = p4[..., 0]
    return [(~np.isfinite(p4).all(axis=-1), lambda i: f"{name} must have finite entries"),
            (~(p0 > 0.0),
             lambda i: f"{name} needs a positive energy, got {float(np.ravel(p0)[i])!r}")]


#: Smallest positive normal float64; a mass whose square falls below it
#: leaves omega(0) = sqrt(m^2) at zero or subnormal.
_TINY = float(np.finfo(float).tiny)


def check_mass(m: float) -> float:
    """Validate a strictly positive rest mass whose square is a normal float64."""
    m = float(m)
    if not np.isfinite(m) or m <= 0.0:
        raise ValueError(f"mass must be positive and finite, got {m!r}")
    if m * m < _TINY:
        raise ValueError(f"mass = {m!r} underflows the mass squared: mass^2 is below "
                         f"the smallest normal float64, {_TINY:.4g}")
    return m


def check_bloch_length(xi) -> None:
    """Refuse Bloch vectors xi (..., 3) with a non-finite entry, or longer
    than 1 beyond rounding, |xi| > 1 + 1e-12, naming the first such sample."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        length = np.sqrt(np.vecdot(xi, xi))
    if not (length <= 1.0 + 1e-12).all():  # a NaN or inf entry fails this too
        refuse_first((~np.isfinite(xi).all(axis=-1), lambda i: "xi must have finite entries"),
                     (length > 1.0 + 1e-12,
                      lambda i: f"Bloch vector must satisfy |xi| <= 1, got {length.reshape(-1)[i]}"))


def max_entry(X: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of a (..., a, b) stack; NaN propagates."""
    return np.abs(X).max(axis=(-2, -1))


# The two-term rule.  A product with a fixed Clifford or Pauli tensor is
# exact, and so rounds the same in every summation order, with or without
# fused multiply-adds, when each real output component is a sum of at most
# two terms, each an input times an entry in {0, +-1, +-1/2}: each term is
# then exact and the sum rounds once.  `contract` relies on it, and so do
# the monomial gathers (`conj_gather` with `clifford.GAMMA0_ROWS`,
# `gather_columns`, and `lorentz._sigma_trace`), which read the one term of
# each component directly instead of multiplying by a fixed matrix.

def contract(x: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_i x_i T_i for real vectors x (..., k) and one fixed complex tensor
    T (k, ...), shape x.shape[:-1] + T.shape[1:]; C-contiguous.

    Runs as one real (rows, k) @ (k, 2 T[0].size) product with the
    (re, im) pairs of T's entries side by side.  When T obeys the two-term
    rule above (every real output component at most two terms, entries in
    {0, +-1, +-1/2}), the result equals `np.einsum("...i,iab->...ab", x, T)`
    bit for bit, sign bits of zeros included, and a sample with a NaN or
    inf entry is non-finite exactly where the einsum's is (numpy warns of
    the inf * 0 terms, which the einsum did not).  For a subnormal x a
    halved term is inexact, and a fused sum may round it differently.
    """
    x = np.asarray(x, dtype=float)
    k = len(T)
    out = x.reshape(-1, k) @ T.reshape(k, -1).view(float)
    return out.view(complex).reshape(x.shape[:-1] + T.shape[1:])


def conj_gather(X: np.ndarray, index: np.ndarray) -> np.ndarray:
    """conj(X_flat[..., index]) for a stack X (..., a, b), X_flat holding
    each matrix row by row (entry (i, j) at i b + j), and a table of
    positions index (r, s): shape (..., r, s), C-contiguous, with every
    zero component +0.  A product of X^+ with permutation matrices is such
    a gather, and this one equals it bit for bit: the product's BLAS sums
    of one exact term and exact zeros round a zero to +0 as well."""
    X = np.asarray(X)
    out = np.take(X.reshape(X.shape[:-2] + (-1,)), index, axis=-1)
    np.conjugate(out, out=out)
    out += 0.0
    return out


def gather_columns(X: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """X @ M for a stack X (..., a, b) and a matrix M (b, c) whose column j holds
    phases[j] in row rows[j] alone (`clifford.column_tables`): shape (..., a, c),
    C-contiguous, every zero +0.  Equal to the dense product bit for bit but
    for the sign of a zero, which BLAS leaves to its kernel; each column of X
    is read, so a sample with a NaN or inf entry is non-finite there too."""
    out = np.take(X, rows, axis=-1)
    out *= phases
    out += 0.0
    return out


def row_blocks(X: np.ndarray, k: int) -> np.ndarray:
    """The k column blocks of each (a, k b) matrix of a stack, stacked as row
    blocks: shape (..., k a, b).  A family of products A_i B that shares its
    right factor B is then one product, row_blocks(A_1 | ... | A_k) @ B."""
    *batch, a, kb = X.shape
    blocks = np.swapaxes(X.reshape(*batch, a, k, kb // k), -3, -2)
    return blocks.reshape(*batch, k * a, kb // k)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Invariant product a.b = a^0 b^0 - avec.bvec."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0] * b[0] - a[1:] @ b[1:])


#: Points per block of a grid walked block by block (`Grid.shell_measure`,
#: `states.evaluate_on`, the `ShellCube` contractions, the position
#: synthesis).  A block's temporaries (Wigner matrices, amplitudes, outer
#: products; a few hundred bytes per point) then stay within cache; on a
#: 64^3 grid 8192-32768 did equally well and 2048 was slower.
_BLOCK = 16384


def _block_slices(n: int):
    """Consecutive slices of n points, at most `_BLOCK` each: the near-equal
    parts of `np.array_split`, so none is a small remainder."""
    k = max(1, -(-n // _BLOCK))
    q, r = divmod(n, k)
    lo = 0
    for i in range(k):
        hi = lo + q + (i < r)
        yield slice(lo, hi)
        lo = hi


def shell_energy(m: float, p3: np.ndarray) -> np.ndarray:
    """On-shell energies omega(p) = sqrt(|pvec|^2 + m^2) for spatial momenta
    (..., 3), shape (...).

    This is the package's one float64 mass-shell lift.  |p|^2 is summed as
    (p1^2 + p3^2) + p2^2, the order in which `np.einsum("...i,...i->...")`
    rounds it, with each square the IEEE product x * x.  A batch is summed
    whole; the callers that walk a grid hand it one block at a time.  A
    momentum whose energy is not finite (a non-finite entry, or |p|^2 + m^2
    overflowing) is refused, naming the first such sample.
    """
    m = check_mass(m)
    p3 = np.asarray(p3, dtype=float)
    if p3.shape[-1:] != (3,):
        raise ValueError(f"spatial momentum must have shape (3,), got {p3.shape}")
    if p3.ndim == 1:  # one momentum, in Python floats: the same IEEE operations
        x, y, z = p3.tolist()
        om = np.float64(math.sqrt((x * x + z * z) + y * y + m * m))
        finite = math.isfinite(om)
    else:
        x, y, z = p3[..., 0], p3[..., 1], p3[..., 2]
        with np.errstate(over="ignore"):  # refused below, not warned about
            om = np.sqrt((x * x + z * z) + y * y + m * m)
        finite = np.isfinite(om).all()
    if not finite:
        refuse_first((~np.isfinite(p3).all(axis=-1), lambda i: "momentum must have finite entries"),
                     (~np.isfinite(om), lambda i: f"momentum with mass = {m!r} overflows the "
                                                  f"on-shell energy squared, |p|^2 + mass^2"))
    return om


def on_shell(m: float, p3: np.ndarray) -> np.ndarray:
    """Lift spatial momenta (..., 3) onto the mass-m shell: (omega(p), pvec),
    shape (..., 4), with the energies of `shell_energy`.

    omega(p) is always the positive root; the energy sign of a state lives
    in a separate label, never in p^0.
    """
    p3 = np.asarray(p3, dtype=float)
    return np.concatenate([shell_energy(m, p3)[..., None], p3], axis=-1)


def parity_flip(p4: np.ndarray) -> np.ndarray:
    """Space inversion of four-vectors (..., 4): (p^0, -pvec)."""
    p4 = np.asarray(p4, dtype=float)
    return np.concatenate([p4[..., :1], -p4[..., 1:]], axis=-1)


def lorentz_residual(L: np.ndarray) -> float:
    """Max-entry residual of the defining relation L^T g L = g, per matrix
    of a (..., 4, 4) stack."""
    L = np.asarray(L, dtype=float)
    return np.abs(np.swapaxes(L, -1, -2) * _LOWER @ L - METRIC).max(axis=(-2, -1))


def is_proper_orthochronous(L: np.ndarray) -> bool:
    """Check L^0_0 > 0 and that the rotation part R has det R = +1, per
    matrix of a (..., 4, 4) stack of matrices that preserve the metric.

    Such an L with L^0_0 >= 1 is diag(1, R) B, B the pure boost whose row 0
    is that of L, so its spatial block is R (I + b b^T / (1 + L^0_0)) with
    b = L[0, 1:], and det R = det L[1:, 1:] / L^0_0 exactly.  This ratio
    takes no difference of the order-gamma entries, unlike det L (an LU
    determinant that cancels to 0 for boosts from p/m ~ 1e12) or R itself
    (whose entries cancel from p/m ~ 1e16), so a boost along an axis passes
    at any rapidity.  det R must lie within 0.5 of +1: a rotation part that
    rounding has moved that far is refused, whatever its sign.  The test is
    |det L[1:, 1:] - L^0_0| < 0.5 L^0_0, which needs no division.
    """
    L = np.asarray(L, dtype=float)
    l00 = L[..., 0, 0]
    return (l00 > 0.0) & (np.abs(np.linalg.det(L[..., 1:, 1:]) - l00) < 0.5 * l00)


def lorentz_matrix(L: np.ndarray, proper: bool = False) -> np.ndarray:
    """Validate a 4x4 Lorentz matrix (L^T g L = g), or a (..., 4, 4) stack of
    them, and return it.

    The metric defect is compared against METRIC_TOL scaled by the squared entry
    magnitude, since rounding alone produces a defect of that order in
    L^T g L for large rapidities.  With proper=True additionally require a
    proper orthochronous element; discrete elements such as the parity
    matrix pass only the metric check.  The check fails closed: a matrix
    with a NaN or inf entry, or one whose squared entries overflow (so that
    neither the scale nor the residual is finite), is refused.
    """
    L = np.asarray(L, dtype=float)
    if L.shape[-2:] != (4, 4):
        raise ValueError(f"Lorentz matrix must have shape (4, 4), got {L.shape}")
    big = max_entry(L)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, big * big)
        r = lorentz_residual(L)
        checks = [(~np.isfinite(big), lambda i: "matrix has a non-finite entry"),
                  (~(np.isfinite(scale) & np.isfinite(r)),
                   lambda i: (f"matrix entries up to {big.reshape(-1)[i]:.3g} overflow the "
                              f"metric check L^T g L")),
                  (~(r < METRIC_TOL * scale),
                   lambda i: (f"matrix does not preserve the metric: residual "
                              f"{r.reshape(-1)[i]:.3e} >= {METRIC_TOL:.1e} * "
                              f"{scale.reshape(-1)[i]:.3g}"))]
        if proper:
            checks.append((~is_proper_orthochronous(L),
                           lambda i: "matrix is not proper orthochronous"))
    refuse_first(*checks)
    return L

