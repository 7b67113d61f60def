"""Randomized identity-residual sweeps with deterministic, serializable reports.

Each named identity draws its own sample stream from a `SeedSequence` spawned
off the run seed and the stream index frozen in its registry entry, so adding
samples to one identity never disturbs another and a fixed seed reproduces the
report byte for byte.  Residuals are max-norm deviations of the checked
relation; an identity passes when its worst sample stays below tolerance.
The reduction propagates NaN, so a NaN or inf residual fails its identity.

An identity is a list of sample kinds and an evaluator, which `evaluate_at`
runs on given samples; the sweep and the CLI's point subcommands both call
it, so each residual has one definition.  A kind is a width of standard
normals (`lorentz.BALL`, ...) and a builder.  The sweep draws each chunk of
at most `CHUNK` samples in one call, an (n, width) array of normals with a
sample's kinds side by side, builds each kind from its columns at once and
evaluates the identity over the chunk, one residual per sample, in memory
independent of the sample count.  A kernel that refuses a sample (say a
Wigner rotation too far from orthogonal to lift at high rapidity) raises
`SampleRefused` with the index of the first refused sample; the samples
before it are evaluated again (a later kernel may refuse an earlier
sample), the refused sample gets a NaN residual and the run ends there, so
`samples` counts the samples up to and including the first refused one.

Reports serialize to JSON (canonical; floats printed with 17 significant
digits by a small writer that keeps key order fixed) or CSV (one line per
identity); a non-finite worst residual is written as null (JSON) or nan (CSV).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import __version__
from .amplitudes import (amplitude, dirac_bar, dirac_residual, orthogonality_residual,
                         parity_residual, projector_residual, sandwich_formula_residual,
                         weinberg_residual)
from .clifford import GAMMA, GAMMA5, PAULI, column_tables, energy_projector
from .lorentz import (BALL, LORENTZ, ROTATION, bispinor_inverse, bispinor_rep,
                      boost_from_velocity, check_vmax, lorentz_from_draws, momenta_from_draws,
                      rotation_angle, rotations_from_draws, standard_boost, su2_from_so3,
                      velocities_from_draws, wigner_rotation, wigner_rotation_closed)
from .minkowski import (METRIC, SampleRefused, check_mass, contract, gather_columns, max_entry,
                        row_blocks)
from .spin_ops import (casimir_spin, fw_residual, hamiltonian_covariant, pl_covariant,
                       pl_spin, spin_covariant, spin_from_pl, spin_matrix,
                       spin_transform_closed, spin_transform_wigner)
from .states import DensityState, bloch_transform

#: Wigner angle for boost speed 1/2 along x against a particle moving with
#: speed 1/2 along y (unit mass); pinned from an independent high-precision
#: evaluation of arctan of the rotation matrix entries.
PERPENDICULAR_WIGNER_ANGLE = 0.14334756890536535

#: Samples drawn and evaluated per batch.
CHUNK = 4096


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
        check_vmax(self.vmax)
        resolve_tolerances(self.tolerances, DEFAULT_TOLERANCES)

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


@dataclass(frozen=True)
class IdentityResult:
    name: str
    samples: int
    tolerance: float
    max_residual: float
    passed: bool


# --- sample kinds: (width, batched builder) --------------------------------
# Each builder gets the config and its kind's columns of the chunk's draws.

_MOMENTUM = (BALL, lambda cfg, d: momenta_from_draws(d, cfg.mass, cfg.pmax_over_m))
_VELOCITY = (BALL, lambda cfg, d: velocities_from_draws(d, cfg.vmax))
_LORENTZ = (LORENTZ, lambda cfg, d: lorentz_from_draws(d, cfg.vmax))
_ROTATION = (ROTATION, lambda cfg, d: rotations_from_draws(d))
#: Energy sign: -1 where the normal is negative, else +1.
_SIGN = (1, lambda cfg, d: np.where(d[:, 0] < 0.0, -1, 1))
#: Bloch vector: the direction of g[:3] times |g[3]| / |g[3:6]|, a length
#: uniform in [0, 1] (Archimedes: a uniform point's height on the sphere).
_BLOCH = (6, lambda cfg, d: (np.abs(d[:, 3]) / np.sqrt(np.vecdot(d[:, 3:], d[:, 3:]))
                             / np.sqrt(np.vecdot(d[:, :3], d[:, :3])))[:, None] * d[:, :3])


def _worst(residuals: list) -> np.ndarray:
    """Per-sample worst of several residual arrays, NaN if any is NaN."""
    return np.max(np.stack(residuals), axis=0)


# --- identity evaluators: (m, *samples) -> one residual per sample ---------

def _shells(residual: Callable[[], Callable]) -> Callable:
    """Evaluator (m, p4, eps=None) of a per-shell residual(eps, p4, m): the
    shell eps (+1 or -1) when given, else the worse of both shells per
    momentum.  `residual` returns the function, so it is looked up when
    the evaluator is called."""
    def evaluate(m, p4, eps=None):
        f = residual()
        return f(eps, p4, m) if eps is not None else np.maximum(f(1, p4, m), f(-1, p4, m))
    return evaluate


def _late(evaluator: Callable[[], Callable]) -> Callable:
    """Evaluator (m, *samples) that calls the function `evaluator` returns,
    so it is looked up when the evaluator is called."""
    return lambda m, *samples: evaluator()(m, *samples)


def _clifford_anticommutation(m):
    return np.max([max_entry(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                             - 2.0 * METRIC[mu, nu] * np.eye(4))
                   for mu in range(4) for nu in range(4)], keepdims=True)


def _clifford_gamma5(m):
    return np.max([max_entry(GAMMA5 @ GAMMA5 - np.eye(4)),
                   max_entry(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]),
                   max_entry(GAMMA5.conj().T - GAMMA5),
                   *(max_entry(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5) for mu in range(4))],
                  keepdims=True)


def _energy_projector(m, p4):
    plus = energy_projector(1, p4, m)
    minus = energy_projector(-1, p4, m)
    return _worst([max_entry(plus @ plus - plus), max_entry(plus + minus - np.eye(4)),
                   max_entry(plus @ minus),
                   np.abs(np.trace(plus, axis1=-2, axis2=-1).real - 2.0)])


#: The `column_tables` of gamma^0 .. gamma^3 and of sigma_1 .. sigma_3, each side by side.
_GAMMA_COLUMNS, _PAULI_COLUMNS = column_tables(GAMMA), column_tables(PAULI)


def _bispinor_covariance(m, L):
    S = bispinor_rep(L)
    # the four S^-1 gamma^mu as row blocks of one factor, one product with S
    conjugated = row_blocks(gather_columns(bispinor_inverse(S), *_GAMMA_COLUMNS), 4) @ S
    # the four targets L^mu_nu gamma^nu as row blocks, like the products
    targets = contract(L, GAMMA).reshape(conjugated.shape)
    return max_entry(conjugated - targets)


def _bispinor_inverse_structure(m, L):
    S = bispinor_rep(L)
    return max_entry(bispinor_inverse(S) @ S - np.eye(4))


def _standard_boost(m, p4):
    q = np.array([m, 0.0, 0.0, 0.0])
    L = standard_boost(p4, m)
    return _worst([np.abs(L @ q - p4).max(axis=-1) / np.maximum(1.0, p4[..., 0]),
                   max_entry(L - boost_from_velocity(-p4[..., 1:] / p4[..., :1]))])


def _wigner_closed_form(m, v3, p4):
    """The half-angle closed form against its brute-force partner, the
    product L_{Lp}^{-1} L L_p on the rounded L = boost_from_velocity(v).
    At high rapidity the brute-force side is the less accurate one: the
    product amplifies L's rounding by about (p^0/m)^2, where the closed form
    errs by about gamma eps."""
    R3, _ = wigner_rotation(boost_from_velocity(v3), p4, m)
    return max_entry(R3 - wigner_rotation_closed(v3, p4, m))


def _wigner_cocycle(m, L1, L2, p4):
    # The sampled L1, L2, p are the exact data; their products are formed in
    # extended precision so the comparison probes the cocycle identity rather
    # than rounding in L2 @ L1.
    L1, L2, p4 = (x.astype(np.longdouble) for x in (L1, L2, p4))
    R21, _ = wigner_rotation(L2 @ L1, p4, m)
    Ra, _ = wigner_rotation(L2, (L1 @ p4[..., None])[..., 0], m)
    Rb, _ = wigner_rotation(L1, p4, m)
    return max_entry(R21 - Ra @ Rb)


def _wigner_perpendicular_oracle(_):
    # Boost along x at speed 1/2; unit-mass particle moving at speed 1/2 along y.
    gamma = 1.0 / np.sqrt(1.0 - 0.25)
    p4 = np.array([gamma, 0.0, gamma * 0.5, 0.0])
    R3 = wigner_rotation_closed(np.array([0.5, 0.0, 0.0]), p4, 1.0)
    return np.array([abs(float(rotation_angle(R3)) - PERPENDICULAR_WIGNER_ANGLE)])


def _su2_lift(m, R3):
    D = su2_from_so3(R3)
    Dh = np.swapaxes(D.conj(), -1, -2)
    det = np.linalg.det(D)
    # the three D sigma_i as row blocks of one factor, one product with D^+
    rotated = row_blocks(gather_columns(D, *_PAULI_COLUMNS), 3) @ Dh
    # the three targets R_ji sigma_j as row blocks, like the products
    targets = contract(np.swapaxes(R3, -1, -2), PAULI).reshape(rotated.shape)
    return _worst([max_entry(D @ Dh - np.eye(2)), np.hypot(det.real - 1.0, det.imag),
                   max_entry(rotated - targets)])


def _amplitude_completeness(m, p4):
    total = np.zeros(p4.shape[:-1] + (4, 4), dtype=complex)
    for e in (1, -1):
        v = amplitude(e, p4, m)
        total += e * v @ dirac_bar(v)
    return max_entry(total - np.eye(4))


def _weinberg_condition(m, L, p4, eps):
    return weinberg_residual(L, eps, p4, m)


def _hamiltonian_square(eps, p4, m):
    H = hamiltonian_covariant(eps, p4, m)
    p0_sq = p4[..., 0] * p4[..., 0]
    return max_entry(H @ H - p0_sq[..., None, None] * np.eye(4)) / p0_sq


def _sandwiches(eps, p4, m, ops) -> np.ndarray:
    """eps vbar O v for each (..., 4, 4) operator O of ops, stacked as row
    blocks, shape (..., 2 len(ops), 2): the operators side by side make one
    product with vbar and the left factors one product with v."""
    v = amplitude(eps, p4, m)
    left = row_blocks(dirac_bar(v) @ np.concatenate(ops, axis=-1), len(ops))
    return eps * (left @ v)


def _pl_sandwich(eps, p4, m):
    W = [pl_covariant(mu, eps, p4, m) for mu in range(4)]
    targets = [pl_spin(mu, eps, p4, m) for mu in range(4)]
    return max_entry(_sandwiches(eps, p4, m, W) - np.concatenate(targets, axis=-2))


def _pl_reconstruction(eps, p4, m):
    S = spin_from_pl(eps, p4, m)
    return _worst([max_entry(S[..., i, :, :] - spin_matrix(i)) for i in range(3)])


def _casimir_sandwich(eps, p4, m):
    return max_entry(casimir_spin(eps, p4, m) - 0.75 * np.eye(2))


def _spin_covariant_sandwich(eps, p4, m):
    S = [spin_covariant(i, eps, p4, m) for i in range(3)]
    return max_entry(_sandwiches(eps, p4, m, S) - np.concatenate([spin_matrix(i) for i in range(3)]))


def _spin_transform_equivalence(m, v3, p4):
    # two formulas: spin_transform_closed's expansion of S' against the
    # half-angle rotation applied to the spin triple
    closed = spin_transform_closed(v3, p4, m)
    rotated = spin_transform_wigner(v3, p4, m)
    return np.abs(closed - rotated).max(axis=(-3, -2, -1))


def _bloch_rotation(m, L, p4, xi):
    s = DensityState(m, p4[..., 1:], xi)
    s2 = bloch_transform(s, L)
    R3, _ = wigner_rotation(L, p4, m)
    D = su2_from_so3(R3)
    lhs = contract(s2.xi, PAULI)
    rhs = D @ contract(s.xi, PAULI) @ np.swapaxes(D.conj(), -1, -2)
    norm = np.sqrt(np.vecdot(s2.xi, s2.xi)) - np.sqrt(np.vecdot(s.xi, s.xi))
    return _worst([np.abs(norm), max_entry(lhs - rhs)])


_P = (_MOMENTUM,)

#: Registry: name -> (sample kinds, evaluator, default tolerance, rng stream).
#: Each sample draws one of each kind, in the order listed; an identity with
#: no kinds is a fixed check, evaluated once as one sample.  The evaluator
#: takes the mass and one array per kind, batch axis first or none for a
#: point, and returns one residual per sample (the worst of that sample's
#: checks); a per-shell identity also takes an optional sign, +1 or -1, for
#: one shell alone.  Report order is the sorted name order.  The stream is the
#: spawn index of the identity's rng, frozen per name so that adding or
#: removing an identity re-seeds no other: 0-24 are the sorted positions the
#: reports pinned under tests/data were made with, and a new identity takes
#: the next unused integer.  Every evaluator, and the residual inside each
#: `_shells` entry, is looked up when called, so a function rebound at module
#: level (a test double, a mutant, a tracer) is the one run.
IDENTITY_RUNNERS: dict[str, tuple[tuple, Callable, float, int]] = dict(sorted({
    "amplitude_completeness": (_P, _late(lambda: _amplitude_completeness), 1e-12, 0),
    "amplitude_dirac": (_P, _shells(lambda: dirac_residual), 1e-12, 1),
    "amplitude_orthogonality": (_P, _shells(lambda: orthogonality_residual), 1e-12, 2),
    "amplitude_parity": (_P, _shells(lambda: parity_residual), 1e-12, 3),
    "amplitude_projector": (_P, _shells(lambda: projector_residual), 1e-12, 4),
    "bispinor_covariance": ((_LORENTZ,), _late(lambda: _bispinor_covariance), 1e-10, 5),
    "bispinor_inverse_structure": ((_LORENTZ,), _late(lambda: _bispinor_inverse_structure), 1e-10, 6),
    "bloch_rotation": ((_LORENTZ, _MOMENTUM, _BLOCH), _late(lambda: _bloch_rotation), 1e-11, 7),
    "casimir_sandwich": (_P, _shells(lambda: _casimir_sandwich), 1e-12, 8),
    "clifford_anticommutation": ((), _late(lambda: _clifford_anticommutation), 1e-14, 9),
    "clifford_gamma5": ((), _late(lambda: _clifford_gamma5), 1e-14, 10),
    "energy_projector": (_P, _late(lambda: _energy_projector), 1e-13, 11),
    "fw_diagonalization": (_P, _shells(lambda: fw_residual), 1e-11, 12),
    "hamiltonian_square": (_P, _shells(lambda: _hamiltonian_square), 1e-13, 13),
    "pauli_lubanski_reconstruction": (_P, _shells(lambda: _pl_reconstruction), 1e-12, 14),
    "pauli_lubanski_sandwich": (_P, _shells(lambda: _pl_sandwich), 1e-12, 15),
    "sandwich_formulas": (_P, _shells(lambda: sandwich_formula_residual), 1e-12, 16),
    "spin_covariant_sandwich": (_P, _shells(lambda: _spin_covariant_sandwich), 1e-12, 17),
    "spin_transform_equivalence": ((_VELOCITY, _MOMENTUM), _late(lambda: _spin_transform_equivalence), 1e-10, 18),
    "standard_boost": (_P, _late(lambda: _standard_boost), 1e-11, 19),
    "su2_lift": ((_ROTATION,), _late(lambda: _su2_lift), 1e-12, 20),
    "weinberg_condition": ((_LORENTZ, _MOMENTUM, _SIGN), _late(lambda: _weinberg_condition), 1e-9, 21),
    "wigner_closed_form": ((_VELOCITY, _MOMENTUM), _late(lambda: _wigner_closed_form), 1e-10, 22),
    "wigner_cocycle": ((_LORENTZ, _LORENTZ, _MOMENTUM), _late(lambda: _wigner_cocycle), 1e-10, 23),
    "wigner_perpendicular_oracle": ((), _late(lambda: _wigner_perpendicular_oracle), 1e-12, 24),
}.items()))

DEFAULT_TOLERANCES = {name: tol for name, (_, _, tol, _) in IDENTITY_RUNNERS.items()}


def identity_rng(cfg: RunConfig, name: str) -> np.random.Generator:
    """Per-identity generator, stable under changes to other identities."""
    stream = IDENTITY_RUNNERS[name][3]
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(stream,)))


def resolve_tolerances(overrides: dict, defaults: dict) -> dict:
    """The defaults map (name -> tolerance) with the overrides applied, in
    the defaults' order.  An override of a name not in defaults, or one that
    is not positive and finite, is refused."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown tolerance overrides: {sorted(unknown)} "
                         f"(choose from {sorted(defaults)})")
    bad = sorted(k for k, v in overrides.items() if not (np.isfinite(v) and v > 0))
    if bad:
        raise ValueError(f"tolerance overrides must be positive and finite: {bad}")
    return {**defaults, **overrides}


def evaluate_at(name: str, m: float, *samples) -> np.ndarray:
    """Residuals of a registered identity at mass m on given samples, one
    per sample: one array per sample kind, batch axis first, and for a
    per-shell identity an optional sign.  A point is the n = 1 case, given
    without the batch axis as the kernels take it; it gives one residual,
    equal bit for bit to the one the same sample gets in a batch.  A kernel
    that refuses a sample raises `SampleRefused` naming the first one."""
    if name not in IDENTITY_RUNNERS:
        raise KeyError(f"unknown identity {name!r}")
    return IDENTITY_RUNNERS[name][1](m, *samples)


def _evaluate(name: str, m: float, samples: tuple) -> tuple[np.ndarray, bool]:
    """Residuals of a chunk, and whether a sample was refused.  On a refusal
    the samples before the refused one are evaluated again, since a later
    kernel may refuse one of them; the residuals then end with NaN for the
    first refused sample."""
    n, refused = len(samples[0]), False
    while n:
        try:
            residuals = evaluate_at(name, m, *(s[:n] for s in samples))
            break
        except SampleRefused as exc:
            n, refused = exc.index, True
    else:
        residuals = np.empty(0)
    return (np.append(residuals, np.nan) if refused else residuals), refused


def sample_residuals(name: str, cfg: RunConfig) -> Iterator[np.ndarray]:
    """Per-sample residuals of one identity in draw order, one array per
    chunk of at most CHUNK samples.  A refused sample ends the run: its
    residual is NaN and it is the last one."""
    if name not in IDENTITY_RUNNERS:
        raise KeyError(f"unknown identity {name!r}")
    kinds = IDENTITY_RUNNERS[name][0]
    if not kinds:
        yield evaluate_at(name, cfg.mass)
        return
    rng = identity_rng(cfg, name)
    widths, builders = zip(*kinds)
    ends = np.cumsum(widths)[:-1]
    for start in range(0, cfg.samples, CHUNK):
        draws = rng.standard_normal((min(CHUNK, cfg.samples - start), sum(widths)))
        samples = tuple(build(cfg, d) for build, d in zip(builders, np.split(draws, ends, axis=1)))
        residuals, refused = _evaluate(name, cfg.mass, samples)
        yield residuals
        if refused:
            return


def run_identity(name: str, cfg: RunConfig) -> IdentityResult:
    """Run one identity.  The reduction propagates NaN, and a NaN or inf
    residual never compares below the tolerance, so it fails; so does a
    refused sample (see `sample_residuals`), and `samples` counts the
    samples run."""
    samples, worst = 0, []
    for residuals in sample_residuals(name, cfg):
        samples += residuals.size
        worst.append(residuals.max())
    residual = float(np.max(worst))
    tol = cfg.tolerance(name)
    return IdentityResult(name=name, samples=samples, tolerance=tol,
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
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(x, ".17g")


def _write_dict(obj: dict, out: list, pad: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = "{\n"
    for k, v in obj.items():
        out.append(f'{sep}{inner}"{k}": ')
        _write_json(v, out, inner)
        sep = ",\n"
    out.append(f"\n{pad}}}")


def _write_list(obj, out: list, pad: str) -> None:
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n"
    for v in obj:
        out.append(sep + inner)
        _write_json(v, out, inner)
        sep = ",\n"
    out.append(f"\n{pad}]")


def _write_str(obj: str, out: list, pad: str) -> None:
    escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
    out.append(f'"{escaped}"')


def _write_bool(obj, out: list, pad: str) -> None:
    out.append("true" if obj else "false")


def _write_int(obj, out: list, pad: str) -> None:
    out.append(str(int(obj)))


def _write_float(obj, out: list, pad: str) -> None:
    out.append(format_float(obj))


def _write_null(obj, out: list, pad: str) -> None:
    out.append("null")


#: The writer of each exact type a report holds; any other subclass of these
#: kinds is matched by `_writer`.
_WRITERS = {dict: _write_dict, list: _write_list, tuple: _write_list, str: _write_str,
            bool: _write_bool, np.bool_: _write_bool, int: _write_int, float: _write_float,
            np.float64: _write_float, type(None): _write_null}
_KINDS = ((dict, _write_dict), ((list, tuple), _write_list), ((bool, np.bool_), _write_bool),
          ((int, np.integer), _write_int), ((float, np.floating), _write_float), (str, _write_str))


def _writer(obj):
    for kind, write in _KINDS:
        if isinstance(obj, kind):
            return write
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(obj, out: list, pad: str) -> None:
    """Append obj as JSON to out, nested lines indented by pad plus two spaces."""
    (_WRITERS.get(type(obj)) or _writer(obj))(obj, out, pad)


def to_json(report) -> str:
    out: list[str] = []
    _write_json(report, out, "")
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
