"""Command-line interface.

Subcommands
-----------
verify          randomized identity-residual sweep, JSON/CSV report
wigner          Wigner rotation for one (velocity, momentum) pair
boost           velocity or standard boost matrix with diagnostics
amplitude       bispinor amplitude at one momentum with identity residuals
spin-transform  Bloch-vector and spin-matrix transport under a pure boost
precess         magnetic precession trajectory as CSV
fourier-check   momentum vs position scalar-product comparison

Exit codes: 0 success, 1 a checked identity exceeded tolerance (a NaN or
inf residual counts as exceeding it), 2 bad usage or configuration,
including non-finite numeric arguments and a precession run whose state
or conservation summary overflows; such runs write nothing to stdout.
Reports are deterministic for a fixed seed;
complex matrices serialize row-major as [re, im] pairs.  `wigner`,
`amplitude` and `spin-transform` take every residual they report from the
`verify` registry (`verify.evaluate_at`), at their one sample.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .amplitudes import amplitude
from .dynamics import GRADIENT_READINGS, ChargedState, integrate, quadrupole_field, uniform_field
from .lorentz import (boost_from_velocity, rotation_angle, standard_boost, su2_from_so3,
                      wigner_rotation_closed)
from .minkowski import check_bloch_length, lorentz_residual, on_shell
from .position import default_grids, parseval_check
from .spin_ops import spin_transform_closed
from .states import gaussian_packet, normalized
from .verify import (DEFAULT_TOLERANCES, RunConfig, complex_matrix_payload, evaluate_at,
                     format_float, real_matrix_payload, resolve_tolerances, run_all, to_csv,
                     to_json)


def _number(text: str) -> float:
    """A finite float; nan and inf are refused before any computation."""
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return np.array([_number(x) for x in parts])


def _mat3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 9:
        raise argparse.ArgumentTypeError(
            f"expected nine comma-separated numbers (row-major 3x3), got {len(parts)}")
    return np.array([_number(x) for x in parts]).reshape(3, 3)


def _spin2(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated complex numbers")
    try:
        spin = np.array([complex(x) for x in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not np.isfinite(spin).all():
        raise argparse.ArgumentTypeError(f"expected finite components, got {text!r}")
    return spin


def _tol_pair(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, _number(value)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_point(args, names, *sample) -> tuple[dict, dict, bool]:
    """Tolerances, residuals and verdict of the registered identities `names`
    at one sample (a point, without a batch axis)."""
    tols = resolve_tolerances(dict(args.tol), {name: DEFAULT_TOLERANCES[name] for name in names})
    residuals = {name: float(evaluate_at(name, args.mass, *sample)) for name in names}
    return tols, residuals, all(residuals[name] < tols[name] for name in names)


# --- subcommand handlers ---------------------------------------------------

def cmd_verify(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples, mass=args.mass,
                    pmax_over_m=args.pmax, vmax=args.vmax, tolerances=dict(args.tol))
    report = run_all(cfg)
    _emit(to_csv(report) if args.format == "csv" else to_json(report), args)
    if not report["all_pass"]:
        failed = [r["name"] for r in report["identities"] if not r["passed"]]
        print(f"{len(failed)} identity check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_wigner(args) -> int:
    v3, p4 = args.velocity, on_shell(args.mass, args.momentum)
    tols, residuals, passed = _check_point(args, ["wigner_closed_form"], v3, p4)
    closed = wigner_rotation_closed(v3, p4, args.mass)
    # Rotation axis from the antisymmetric part; the zero vector where that
    # part is exactly zero (R = I, as v parallel to p gives).
    w = np.array([closed[2, 1] - closed[1, 2], closed[0, 2] - closed[2, 0],
                  closed[1, 0] - closed[0, 1]])
    norm = np.linalg.norm(w)
    axis = (w / norm).tolist() if norm > 0.0 else [0.0, 0.0, 0.0]
    report = {
        "version": __version__,
        "config": {"velocity": list(map(float, v3)), "momentum": list(map(float, args.momentum)),
                   "mass": args.mass, "tolerance": tols["wigner_closed_form"]},
        "rotation": real_matrix_payload(closed),
        "axis": axis,
        "angle": float(rotation_angle(closed)),
        "brute_force_residual": residuals["wigner_closed_form"],
        "passed": passed,
    }
    _emit(to_json(report), args)
    return 0 if passed else 1


def cmd_boost(args) -> int:
    if (args.velocity is None) == (args.momentum is None):
        raise ValueError("give exactly one of --velocity or --momentum")
    if args.velocity is not None:
        L = boost_from_velocity(args.velocity)
        config = {"velocity": list(map(float, args.velocity)), "gamma": float(L[0, 0])}
    else:
        p4 = on_shell(args.mass, args.momentum)
        L = standard_boost(p4, args.mass)
        config = {"momentum": list(map(float, args.momentum)), "mass": args.mass,
                  "energy": float(p4[0])}
    report = {
        "version": __version__,
        "config": config,
        "matrix": real_matrix_payload(L),
        "metric_residual": lorentz_residual(L),
    }
    _emit(to_json(report), args)
    return 0


def cmd_amplitude(args) -> int:
    p4 = on_shell(args.mass, args.momentum)
    names = ["amplitude_dirac", "amplitude_orthogonality", "amplitude_parity",
             "amplitude_projector"]
    tols, residuals, passed = _check_point(args, names, p4, args.eps)
    report = {
        "version": __version__,
        "config": {"eps": args.eps, "momentum": list(map(float, args.momentum)),
                   "mass": args.mass, "tolerances": tols},
        "amplitude": complex_matrix_payload(amplitude(args.eps, p4, args.mass)),
        "residuals": residuals,
        "passed": passed,
    }
    _emit(to_json(report), args)
    return 0 if passed else 1


def cmd_spin_transform(args) -> int:
    check_bloch_length(args.xi)  # as precess refuses it
    v3, p4 = args.velocity, on_shell(args.mass, args.momentum)
    tols, residuals, passed = _check_point(args, ["spin_transform_equivalence"], v3, p4)
    closed = spin_transform_closed(v3, p4, args.mass)
    R3 = wigner_rotation_closed(v3, p4, args.mass)
    report = {
        "version": __version__,
        "config": {"velocity": list(map(float, v3)), "momentum": list(map(float, args.momentum)),
                   "mass": args.mass, "xi": list(map(float, args.xi)),
                   "tolerance": tols["spin_transform_equivalence"]},
        "rotation": real_matrix_payload(R3),
        "su2": complex_matrix_payload(su2_from_so3(R3)),
        "xi_out": [float(x) for x in R3 @ args.xi],
        "transformed_spin": [complex_matrix_payload(closed[i]) for i in range(3)],
        "equivalence_residual": residuals["spin_transform_equivalence"],
        "passed": passed,
    }
    _emit(to_json(report), args)
    return 0 if passed else 1


def cmd_precess(args) -> int:
    if args.field == "uniform":
        if args.b is None:
            raise ValueError("uniform field needs --b Bx,By,Bz")
        field = uniform_field(args.b)
    else:
        if args.gradient is None:
            raise ValueError("quadrupole field needs --gradient with nine entries")
        field = quadrupole_field(args.gradient)
    state = ChargedState(q=args.q, xi=args.xi, x=args.x0, charge=args.charge, mass=args.mass)
    try:
        traj = integrate(state, field, args.t_final, args.steps, reading=args.reading)
    except RuntimeError as exc:  # the state overflowed; report it like bad input
        raise ValueError(str(exc)) from None

    # The summary is checked before anything is written, so an overflowing
    # run leaves no partial CSV behind.
    with np.errstate(over="ignore", invalid="ignore"):
        xi_norm = np.linalg.norm(traj.xi, axis=1)
        xi_drift = float(np.abs(xi_norm - xi_norm[0]).max())
        q_norm = np.linalg.norm(traj.q, axis=1)
        q_drift = float(np.abs(q_norm - q_norm[0]).max())
        xiq = np.einsum("ni,ni->n", traj.xi, traj.q)
        xiq_drift = float(np.abs(xiq - xiq[0]).max())
    drifts = {"xi_drift": xi_drift, "q_norm_drift": q_drift, "xi_dot_q_drift": xiq_drift}
    overflowed = [name for name, value in drifts.items() if not np.isfinite(value)]
    if overflowed:
        raise ValueError(f"conservation summary overflows float64 ({', '.join(overflowed)} "
                         f"not finite); reduce --q, --xi or the field")
    _emit(traj.to_csv(), args)
    summary = " ".join(f"{name}={format_float(value)}" for name, value in drifts.items())
    print(f"# steps={args.steps} t_final={format_float(args.t_final)} {summary}",
          file=sys.stderr)
    return 0


def cmd_fourier_check(args) -> int:
    tol = resolve_tolerances(dict(args.tol), {"parseval": 1e-3})["parseval"]
    packet = gaussian_packet(args.eps, args.mass, args.width, spin=args.spin, center=args.center)
    pgrid, xgrid = default_grids(packet, packet)
    levels = ((pgrid, xgrid), (pgrid.refined(), xgrid.refined()))
    packet = normalized(packet)
    (lhs, rhs, relerr), (_, _, relerr2) = (parseval_check(packet, packet, p, x, t=args.time)
                                           for p, x in levels)
    passed = relerr < tol and relerr2 < relerr
    report = {
        "version": __version__,
        "config": {"eps": args.eps, "mass": args.mass, "width": args.width,
                   "center": list(map(float, args.center)),
                   "spin": [[float(s.real), float(s.imag)] for s in args.spin],
                   "time": args.time, "tolerance": tol,
                   "momentum_grid": {"pmax": pgrid.half_width, "points": pgrid.n},
                   "position_grid": {"xmax": xgrid.half_width, "points": xgrid.n}},
        "momentum_side": [float(lhs.real), float(lhs.imag)],
        "position_side": [float(rhs.real), float(rhs.imag)],
        "relative_error": relerr,
        "refined_relative_error": relerr2,
        "refinement_decreases": relerr2 < relerr,
        "passed": passed,
    }
    _emit(to_json(report), args)
    return 0 if passed else 1


# --- parser ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Array-valued defaults
    are strings, which argparse converts with the option's type on every
    parse, so no parse shares an array with another."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mass", type=_number, default=1.0, help="particle mass")
    common.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")
    # for the subcommands that check a tolerance; "append" copies the default
    # before appending, so the shared empty list stays empty
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--tol", metavar="NAME=VALUE", type=_tol_pair, action="append",
                         default=[], help="tolerance override, repeatable")

    p = argparse.ArgumentParser(prog="diracspin",
                                description="Numerical checks for relativistic spin-1/2 "
                                            "kinematics: Wigner rotations, bispinor "
                                            "amplitudes, spin operators, precession.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    defaults = RunConfig()
    sp = sub.add_parser("verify", parents=[common, checked], help="run the identity-residual sweep")
    sp.add_argument("--seed", type=int, default=defaults.seed, help="sweep RNG seed")
    sp.add_argument("--samples", type=int, default=defaults.samples, help="samples per identity")
    sp.add_argument("--pmax", type=_number, default=defaults.pmax_over_m,
                    help="momentum sampling radius in units of the mass")
    sp.add_argument("--vmax", type=_number, default=defaults.vmax, help="velocity sampling radius")
    sp.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("wigner", parents=[common, checked], help="Wigner rotation for one case")
    sp.add_argument("--velocity", type=_vec3, required=True, metavar="VX,VY,VZ")
    sp.add_argument("--momentum", type=_vec3, default="0,0,0", metavar="PX,PY,PZ")
    sp.set_defaults(func=cmd_wigner)

    sp = sub.add_parser("boost", parents=[common], help="boost matrix with diagnostics")
    sp.add_argument("--velocity", type=_vec3, default=None, metavar="VX,VY,VZ")
    sp.add_argument("--momentum", type=_vec3, default=None, metavar="PX,PY,PZ",
                    help="standard boost for this spatial momentum")
    sp.set_defaults(func=cmd_boost)

    sp = sub.add_parser("amplitude", parents=[common, checked], help="bispinor amplitude at one momentum")
    sp.add_argument("--eps", type=int, default=1, help="energy sign, +1 or -1")
    sp.add_argument("--momentum", type=_vec3, default="0,0,0", metavar="PX,PY,PZ")
    sp.set_defaults(func=cmd_amplitude)

    sp = sub.add_parser("spin-transform", parents=[common, checked],
                        help="spin transport under a pure boost")
    sp.add_argument("--velocity", type=_vec3, required=True, metavar="VX,VY,VZ")
    sp.add_argument("--momentum", type=_vec3, default="0,0,0", metavar="PX,PY,PZ")
    sp.add_argument("--xi", type=_vec3, default="0,0,1",
                    metavar="X,Y,Z", help="Bloch vector to rotate, |xi| <= 1")
    sp.set_defaults(func=cmd_spin_transform)

    sp = sub.add_parser("precess", parents=[common], help="integrate magnetic precession")
    sp.add_argument("--field", choices=("uniform", "quadrupole"), default="uniform")
    sp.add_argument("--b", type=_vec3, default=None, metavar="BX,BY,BZ",
                    help="uniform field components")
    sp.add_argument("--gradient", type=_mat3, default=None, metavar="G11,...,G33",
                    help="row-major field gradient (d_i B_j) for quadrupole")
    sp.add_argument("--q", type=_vec3, default="0,0,0", metavar="QX,QY,QZ",
                    help="initial momentum")
    sp.add_argument("--xi", type=_vec3, default="1,0,0", metavar="X,Y,Z",
                    help="initial polarization (Bloch vector, |xi| <= 1)")
    sp.add_argument("--x0", type=_vec3, default="0,0,0", metavar="X,Y,Z",
                    help="initial position")
    sp.add_argument("--charge", type=_number, default=1.0)
    sp.add_argument("--t-final", type=_number, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--reading", choices=GRADIENT_READINGS,
                    default="stern-gerlach", help="index reading of the gradient force")
    sp.set_defaults(func=cmd_precess)

    sp = sub.add_parser("fourier-check", parents=[common, checked],
                        help="compare momentum and position scalar products")
    sp.add_argument("--eps", type=int, default=1)
    sp.add_argument("--width", type=_number, default=0.4, help="momentum-space Gaussian width")
    sp.add_argument("--center", type=_vec3, default="0,0,0", metavar="PX,PY,PZ")
    sp.add_argument("--spin", type=_spin2, default="1,0",
                    metavar="A,B", help="spin components (complex literals)")
    sp.add_argument("--time", type=_number, default=0.0, help="slice time for the position side")
    sp.set_defaults(func=cmd_fourier_check)
    for sp in sub.choices.values():  # leftover flags are reported with the subcommand's usage
        sp.set_defaults(error=sp.error)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the top-level parser takes no values, so a token before the
        # subcommand is a leftover of its own
        argv = sys.argv[1:] if argv is None else list(argv)
        error = parser.error if argv.index(args.command) else args.error
        error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
