"""Randomized identity-residual sweeps with deterministic, serializable reports.

Each named identity draws its own sample stream from a `SeedSequence` spawned
off the run seed and the identity's position in the sorted registry, so adding
samples to one identity never disturbs another and a fixed seed reproduces the
report byte for byte.  Residuals are max-norm deviations of the checked
relation; an identity passes when its worst sample stays below tolerance.
The reduction propagates NaN, so a NaN or inf residual fails its identity.

Reports serialize to JSON (canonical; floats printed with 17 significant
digits by a small writer that keeps key order fixed) or CSV (one line per
identity); a non-finite worst residual is written as null (JSON) or nan (CSV).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .amplitudes import (amplitude, dirac_bar, dirac_residual, orthogonality_residual,
                         parity_residual, projector_residual, sandwich_formula_residual,
                         weinberg_residual)
from .clifford import GAMMA, GAMMA5, PAULI, energy_projector
from .lorentz import (VMAX_HARD, bispinor_inverse, bispinor_rep, boost_from_velocity,
                      random_lorentz, random_momentum, random_rotation, random_velocity,
                      standard_boost, su2_from_so3, wigner_rotation, wigner_rotation_closed)
from .minkowski import METRIC, check_mass
from .spin_ops import (casimir_spin, fw_residual, hamiltonian_covariant, pl_covariant,
                       pl_spin, spin_covariant, spin_from_pl, spin_matrix,
                       spin_transform_closed, spin_transform_wigner)
from .states import DensityState, bloch_transform

#: Wigner angle for boost speed 1/2 along x against a particle moving with
#: speed 1/2 along y (unit mass); pinned from an independent high-precision
#: evaluation of arctan of the rotation matrix entries.
PERPENDICULAR_WIGNER_ANGLE = 0.14334756890536535


@dataclass(frozen=True)
class RunConfig:
    """Resolved sweep configuration; everything that affects the report."""

    seed: int = 42
    samples: int = 200
    mass: float = 1.0
    pmax_over_m: float = 10.0
    vmax: float = 0.99
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        check_mass(self.mass)
        if not (np.isfinite(self.pmax_over_m) and self.pmax_over_m > 0):
            raise ValueError(f"pmax_over_m must be positive and finite, got {self.pmax_over_m!r}")
        m = float(self.mass)
        pmax = m * float(self.pmax_over_m)
        if not np.isfinite(m * m + pmax * pmax):
            raise ValueError(f"mass = {self.mass!r} with pmax_over_m = {self.pmax_over_m!r} "
                             f"overflows the largest on-shell energy squared, "
                             f"mass^2 (1 + pmax_over_m^2)")
        if not 0.0 < self.vmax < 1.0:
            raise ValueError("vmax must lie strictly between 0 and 1")
        if self.vmax > VMAX_HARD:
            raise ValueError(f"vmax must not exceed {VMAX_HARD}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance overrides: {sorted(unknown)}")
        bad = sorted(k for k, v in self.tolerances.items() if not (np.isfinite(v) and v > 0))
        if bad:
            raise ValueError(f"tolerance overrides must be positive and finite: {bad}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


@dataclass(frozen=True)
class IdentityResult:
    name: str
    samples: int
    tolerance: float
    max_residual: float
    passed: bool


def _rand_p4(cfg: RunConfig, rng) -> np.ndarray:
    return random_momentum(rng, cfg.mass, cfg.pmax_over_m)


def _rand_eps(rng) -> int:
    return int(rng.choice((-1, 1)))


def _worst(residuals: list) -> float:
    """Largest residual, NaN if any is NaN (the builtin max drops a NaN that
    is not its first argument)."""
    return float(np.max(residuals))


# --- identity runners: (cfg, rng) -> one residual per sample ---------------

def _momenta(cfg, rng, residual):
    """One momentum per sample, yielding residual(p4, m)."""
    for _ in range(cfg.samples):
        yield residual(_rand_p4(cfg, rng), cfg.mass)


def _shells(cfg, rng, residual):
    """One momentum per sample, yielding the worse shell of residual(eps, p4, m)."""
    return _momenta(cfg, rng, lambda p4, m: _worst([residual(e, p4, m) for e in (1, -1)]))


def _clifford_anticommutation(cfg, rng):
    yield _worst([np.abs(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                         - 2.0 * METRIC[mu, nu] * np.eye(4)).max()
                  for mu in range(4) for nu in range(4)])


def _clifford_gamma5(cfg, rng):
    yield _worst([np.abs(GAMMA5 @ GAMMA5 - np.eye(4)).max(),
                  np.abs(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]).max(),
                  np.abs(GAMMA5.conj().T - GAMMA5).max(),
                  *(np.abs(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5).max() for mu in range(4))])


def _energy_projector(p4, m):
    plus = energy_projector(1, p4, m)
    minus = energy_projector(-1, p4, m)
    return _worst([np.abs(plus @ plus - plus).max(), np.abs(plus + minus - np.eye(4)).max(),
                   np.abs(plus @ minus).max(), abs(np.trace(plus).real - 2.0)])


def _bispinor_covariance(cfg, rng):
    for _ in range(cfg.samples):
        L = random_lorentz(rng, cfg.vmax)
        S = bispinor_rep(L)
        Sinv = bispinor_inverse(S)
        yield _worst([np.abs(Sinv @ GAMMA[mu] @ S - np.einsum("n,nab->ab", L[mu], GAMMA)).max()
                      for mu in range(4)])


def _bispinor_inverse_structure(cfg, rng):
    for _ in range(cfg.samples):
        S = bispinor_rep(random_lorentz(rng, cfg.vmax))
        yield float(np.abs(bispinor_inverse(S) @ S - np.eye(4)).max())


def _standard_boost(cfg, rng):
    q = np.array([cfg.mass, 0.0, 0.0, 0.0])
    for _ in range(cfg.samples):
        p4 = _rand_p4(cfg, rng)
        L = standard_boost(p4, cfg.mass)
        yield _worst([np.abs(L @ q - p4).max() / max(1.0, float(p4[0])),
                      np.abs(L - boost_from_velocity(-p4[1:] / p4[0])).max()])


def _wigner_closed_form(cfg, rng):
    for _ in range(cfg.samples):
        v3 = random_velocity(rng, cfg.vmax)
        p4 = _rand_p4(cfg, rng)
        R3, _ = wigner_rotation(boost_from_velocity(v3), p4, cfg.mass)
        yield float(np.abs(R3 - wigner_rotation_closed(v3, p4, cfg.mass)).max())


def _wigner_cocycle(cfg, rng):
    # The sampled L1, L2, p are the exact data; their products are formed in
    # extended precision so the comparison probes the cocycle identity rather
    # than rounding in L2 @ L1.
    for _ in range(cfg.samples):
        L1 = random_lorentz(rng, cfg.vmax).astype(np.longdouble)
        L2 = random_lorentz(rng, cfg.vmax).astype(np.longdouble)
        p4 = _rand_p4(cfg, rng).astype(np.longdouble)
        R21, _ = wigner_rotation(L2 @ L1, p4, cfg.mass)
        Ra, _ = wigner_rotation(L2, L1 @ p4, cfg.mass)
        Rb, _ = wigner_rotation(L1, p4, cfg.mass)
        yield float(np.abs(R21 - Ra @ Rb).max())


def _wigner_perpendicular_oracle(cfg, rng):
    # Boost along x at speed 1/2; unit-mass particle moving at speed 1/2 along y.
    m = 1.0
    gamma = 1.0 / np.sqrt(1.0 - 0.25)
    p4 = np.array([gamma * m, 0.0, gamma * m * 0.5, 0.0])
    R3 = wigner_rotation_closed(np.array([0.5, 0.0, 0.0]), p4, m)
    angle = np.arccos((np.trace(R3) - 1.0) / 2.0)
    yield abs(float(angle) - PERPENDICULAR_WIGNER_ANGLE)


def _su2_lift(cfg, rng):
    for _ in range(cfg.samples):
        R3 = random_rotation(rng)
        D = su2_from_so3(R3)
        yield _worst([np.abs(D @ D.conj().T - np.eye(2)).max(), abs(np.linalg.det(D) - 1.0),
                      *(np.abs(D @ PAULI[i] @ D.conj().T - np.einsum("j,jab->ab", R3[:, i], PAULI)).max()
                        for i in range(3))])


def _amplitude_completeness(p4, m):
    total = np.zeros((4, 4), dtype=complex)
    for e in (1, -1):
        v = amplitude(e, p4, m)
        total += e * v @ dirac_bar(v)
    return float(np.abs(total - np.eye(4)).max())


def _weinberg_condition(cfg, rng):
    for _ in range(cfg.samples):
        L = random_lorentz(rng, cfg.vmax)
        p4 = _rand_p4(cfg, rng)
        yield weinberg_residual(L, _rand_eps(rng), p4, cfg.mass)


def _hamiltonian_square(eps, p4, m):
    H = hamiltonian_covariant(eps, p4, m)
    return float(np.abs(H @ H - p4[0] ** 2 * np.eye(4)).max()) / p4[0] ** 2


def _pl_sandwich(eps, p4, m):
    v = amplitude(eps, p4, m)
    vb = dirac_bar(v)
    return _worst([np.abs(eps * (vb @ pl_covariant(mu, eps, p4, m) @ v) - pl_spin(mu, eps, p4, m)).max()
                   for mu in range(4)])


def _pl_reconstruction(eps, p4, m):
    S = spin_from_pl(eps, p4, m)
    return _worst([np.abs(S[i] - spin_matrix(i)).max() for i in range(3)])


def _casimir_sandwich(eps, p4, m):
    return float(np.abs(casimir_spin(eps, p4, m) - 0.75 * np.eye(2)).max())


def _spin_covariant_sandwich(eps, p4, m):
    v = amplitude(eps, p4, m)
    vb = dirac_bar(v)
    return _worst([np.abs(eps * (vb @ spin_covariant(i, eps, p4, m) @ v) - spin_matrix(i)).max()
                   for i in range(3)])


def _spin_transform_equivalence(cfg, rng):
    for _ in range(cfg.samples):
        v3 = random_velocity(rng, cfg.vmax)
        p4 = _rand_p4(cfg, rng)
        closed = spin_transform_closed(v3, p4, cfg.mass)
        rotated = spin_transform_wigner(v3, p4, cfg.mass)
        yield float(np.abs(closed - rotated).max())


def _bloch_rotation(cfg, rng):
    for _ in range(cfg.samples):
        L = random_lorentz(rng, cfg.vmax)
        p4 = _rand_p4(cfg, rng)
        u = rng.normal(size=3)
        xi = rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)
        s = DensityState(q4=p4, xi=xi)
        s2 = bloch_transform(s, L)
        R3, _ = wigner_rotation(L, p4, cfg.mass)
        D = su2_from_so3(R3)
        lhs = np.einsum("i,iab->ab", s2.xi, PAULI)
        rhs = D @ np.einsum("i,iab->ab", s.xi, PAULI) @ D.conj().T
        yield _worst([abs(np.linalg.norm(s2.xi) - np.linalg.norm(s.xi)), np.abs(lhs - rhs).max()])


#: Registry: name -> (runner, default tolerance).  A runner yields one
#: residual per sample (the worst of that sample's checks).  Report order is
#: the sorted name order; the spawn index of each identity's rng is its
#: position here.  The lambdas look their residual up when called, so a
#: function rebound at module level (a test double, a tracer) is the one run.
IDENTITY_RUNNERS: dict[str, tuple[Callable, float]] = dict(sorted({
    "amplitude_completeness": (lambda c, r: _momenta(c, r, _amplitude_completeness), 1e-12),
    "amplitude_dirac": (lambda c, r: _shells(c, r, dirac_residual), 1e-12),
    "amplitude_orthogonality": (lambda c, r: _shells(c, r, orthogonality_residual), 1e-12),
    "amplitude_parity": (lambda c, r: _shells(c, r, parity_residual), 1e-12),
    "amplitude_projector": (lambda c, r: _shells(c, r, projector_residual), 1e-12),
    "bispinor_covariance": (_bispinor_covariance, 1e-10),
    "bispinor_inverse_structure": (_bispinor_inverse_structure, 1e-10),
    "bloch_rotation": (_bloch_rotation, 1e-11),
    "casimir_sandwich": (lambda c, r: _shells(c, r, _casimir_sandwich), 1e-12),
    "clifford_anticommutation": (_clifford_anticommutation, 1e-14),
    "clifford_gamma5": (_clifford_gamma5, 1e-14),
    "energy_projector": (lambda c, r: _momenta(c, r, _energy_projector), 1e-13),
    "fw_diagonalization": (lambda c, r: _shells(c, r, fw_residual), 1e-11),
    "hamiltonian_square": (lambda c, r: _shells(c, r, _hamiltonian_square), 1e-13),
    "pauli_lubanski_reconstruction": (lambda c, r: _shells(c, r, _pl_reconstruction), 1e-12),
    "pauli_lubanski_sandwich": (lambda c, r: _shells(c, r, _pl_sandwich), 1e-12),
    "sandwich_formulas": (lambda c, r: _shells(c, r, sandwich_formula_residual), 1e-12),
    "spin_covariant_sandwich": (lambda c, r: _shells(c, r, _spin_covariant_sandwich), 1e-12),
    "spin_transform_equivalence": (_spin_transform_equivalence, 1e-10),
    "standard_boost": (_standard_boost, 1e-11),
    "su2_lift": (_su2_lift, 1e-12),
    "weinberg_condition": (_weinberg_condition, 1e-9),
    "wigner_closed_form": (_wigner_closed_form, 1e-10),
    "wigner_cocycle": (_wigner_cocycle, 1e-10),
    "wigner_perpendicular_oracle": (_wigner_perpendicular_oracle, 1e-12),
}.items()))

DEFAULT_TOLERANCES = {name: tol for name, (_, tol) in IDENTITY_RUNNERS.items()}


def identity_rng(cfg: RunConfig, name: str) -> np.random.Generator:
    """Per-identity generator, stable under changes to other identities."""
    index = list(IDENTITY_RUNNERS).index(name)
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))


def run_identity(name: str, cfg: RunConfig) -> IdentityResult:
    """Run one identity.  The reduction propagates NaN, and a NaN or inf
    residual never compares below the tolerance, so it fails.  A sample
    whose kernel refuses an intermediate it computed itself (a ValueError,
    say a Wigner rotation too far from orthogonal to lift at high rapidity)
    gets a NaN residual and ends the run; `samples` counts the samples run."""
    if name not in IDENTITY_RUNNERS:
        raise KeyError(f"unknown identity {name!r}")
    runner, _ = IDENTITY_RUNNERS[name]
    residuals = []
    try:
        for r in runner(cfg, identity_rng(cfg, name)):
            residuals.append(r)
    except ValueError:  # cfg was validated up front, so a kernel refused
        residuals.append(np.nan)
    residual = float(np.max(residuals))
    tol = cfg.tolerance(name)
    return IdentityResult(name=name, samples=len(residuals), tolerance=tol,
                          max_residual=residual, passed=bool(residual < tol))


def run_all(cfg: RunConfig) -> dict:
    """Full sweep; returns the report as a plain dict ready for serialization."""
    results = [run_identity(name, cfg) for name in IDENTITY_RUNNERS]
    return {
        "version": __version__,
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "mass": cfg.mass,
            "pmax_over_m": cfg.pmax_over_m,
            "vmax": cfg.vmax,
            "tolerances": {r.name: r.tolerance for r in results},
        },
        "identities": [
            {"name": r.name, "samples": r.samples, "tolerance": r.tolerance,
             "max_residual": r.max_residual if np.isfinite(r.max_residual) else None,
             "passed": r.passed}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }


# --- deterministic serialization ------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits; enough to round-trip any double, and stable."""
    if not np.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(float(x), ".17g")


def _write_json(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad}  "{k}": ')
            _write_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _write_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(report) -> str:
    out: list[str] = []
    _write_json(report, out, 0)
    out.append("\n")
    return "".join(out)


def to_csv(report: dict) -> str:
    lines = ["name,samples,tolerance,max_residual,passed"]
    for r in report["identities"]:
        lines.append(",".join([r["name"], str(r["samples"]), format_float(r["tolerance"]),
                               "nan" if r["max_residual"] is None else format_float(r["max_residual"]),
                               "true" if r["passed"] else "false"]))
    return "\n".join(lines) + "\n"


def complex_matrix_payload(M: np.ndarray) -> list:
    """Row-major [re, im] pairs for JSON reports of complex matrices."""
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def real_matrix_payload(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=float)
    return [[float(x) for x in row] for row in M]
