#!/usr/bin/env python3
"""Spin precession in a uniform magnetic field, integrated vs closed form.

Writes the RK4 trajectory to CSV, prints the deviation from the rigid
rotation solution and a small step-halving table that should show fourth
order convergence.

    python3 scripts/precession_demo.py --b 0,0,2 --periods 1.5 --out traj.csv
"""
import argparse
import sys

import numpy as np

from diracspin.cli import _vec3 as vec3  # three finite numbers, else a usage error
from diracspin.dynamics import ChargedState, integrate, larmor_solution, uniform_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b", type=vec3, default=np.array([0.0, 0.0, 2.0]))
    ap.add_argument("--q", type=vec3, default=np.array([1.0, 0.0, 0.0]))
    ap.add_argument("--xi", type=vec3, default=np.array([1.0, 0.0, 0.0]))
    ap.add_argument("--periods", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    if args.steps < 1:
        ap.error(f"--steps must be at least 1, got {args.steps}")
    if not np.isfinite(args.periods):
        ap.error(f"--periods must be finite, got {args.periods}")
    bnorm = np.linalg.norm(args.b)
    if bnorm == 0.0:
        sys.exit("need a nonzero field for a finite period")
    try:
        state = ChargedState(q=args.q, xi=args.xi)
    except ValueError as exc:
        ap.error(str(exc))
    t_final = args.periods * 2.0 * np.pi / bnorm  # e = m = 1
    try:
        traj = integrate(state, uniform_field(args.b), t_final, args.steps)
    except RuntimeError as exc:  # the run overflowed: too long for --steps
        ap.error(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(traj.to_csv())
        print(f"wrote {len(traj.t)} rows to {args.out}")

    q_exact, xi_exact = larmor_solution(state, args.b, traj.t)
    print(f"max |q - q_exact|   = {np.abs(traj.q - q_exact).max():.3e}")
    print(f"max |xi - xi_exact| = {np.abs(traj.xi - xi_exact).max():.3e}")
    xi_norm = np.linalg.norm(traj.xi, axis=1)
    print(f"|xi| drift          = {np.abs(xi_norm - xi_norm[0]).max():.3e}")

    print("\nstep-halving (endpoint error):")
    prev = None
    for steps in (125, 250, 500, 1000):
        try:
            tr = integrate(state, uniform_field(args.b), t_final, steps)
        except RuntimeError:  # too few steps for t_final: RK4 is unstable there
            print(f"  n={steps:5d}  diverged")
            prev = None
            continue
        qe, _ = larmor_solution(state, args.b, tr.t[-1:])
        err = np.abs(tr.q[-1] - qe[0]).max()
        rate = f"  order {np.log2(prev / err):.2f}" if prev else ""
        print(f"  n={steps:5d}  err={err:.3e}{rate}")
        prev = err


if __name__ == "__main__":
    main()
