#!/usr/bin/env python3
"""Scan of the Wigner rotation angle for perpendicular boost/momentum pairs.

For a boost with speed v along x and a particle moving along y with speed
u, prints the rotation angle against the closed form
tan(angle) = gv gu v u / (gv + gu) and optionally dumps a CSV scan.

    python3 scripts/wigner_angle_scan.py --speeds 0.1 0.5 0.9 --out scan.csv
"""
import argparse

import numpy as np

from diracspin.lorentz import rotation_angle, wigner_rotation_closed
from diracspin.minkowski import on_shell


def angle_of(v, u, m=1.0):
    gu = 1.0 / np.sqrt(1.0 - u * u)
    p4 = on_shell(m, [0.0, gu * m * u, 0.0])
    R = wigner_rotation_closed(np.array([v, 0.0, 0.0]), p4, m)
    return rotation_angle(R)


def closed_form(v, u):
    gv = 1.0 / np.sqrt(1.0 - v * v)
    gu = 1.0 / np.sqrt(1.0 - u * u)
    return np.arctan(gv * gu * v * u / (gv + gu))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--speeds", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    ap.add_argument("--out", default=None, help="write the full v x u scan as CSV")
    args = ap.parse_args()

    print("v      u      angle(lib)     angle(closed)  diff")
    for v in args.speeds:
        for u in args.speeds:
            a, c = angle_of(v, u), closed_form(v, u)
            print(f"{v:5.2f}  {u:5.2f}  {a:13.10f}  {c:13.10f}  {abs(a - c):.1e}")

    if args.out:
        grid = np.linspace(0.01, 0.99, 99)
        with open(args.out, "w") as fh:
            fh.write("v,u,angle\n")
            for v in grid:
                for u in grid:
                    fh.write(f"{v:.4f},{u:.4f},{angle_of(v, u):.12f}\n")
        print(f"wrote {len(grid) ** 2} rows to {args.out}")


if __name__ == "__main__":
    main()
