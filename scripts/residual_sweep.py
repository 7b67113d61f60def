#!/usr/bin/env python3
"""Margin study for the identity-residual sweep.

Runs every registered identity at increasing sample counts and prints how
the worst residual grows toward its tolerance, which is how the default
tolerances in diracspin.verify were chosen in the first place.  The last
column is the wall time of each identity at the largest count, which also
gives the smaller counts, and the peak resident memory of the process is
printed at the end.

    python3 scripts/residual_sweep.py --seed 7 --samples 200 800
"""
import argparse
import resource
import time

import numpy as np

from diracspin.verify import DEFAULT_TOLERANCES, IDENTITY_RUNNERS, RunConfig, sample_residuals


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--samples", type=int, nargs="+", default=[100, 400, 1600])
    ap.add_argument("--vmax", type=float, default=0.99)
    ap.add_argument("--pmax", type=float, default=10.0)
    args = ap.parse_args()

    counts = sorted(args.samples)
    header = ("identity".ljust(32) + "".join(f"n={n}".rjust(12) for n in counts)
              + "  tol/worst" + f"t(n={counts[-1]})".rjust(14))
    print(header)
    print("-" * len(header))
    for name in IDENTITY_RUNNERS:
        # the first n samples of a longer run are the n-sample run, so one
        # run at the largest count gives every column as a running maximum
        cfg = RunConfig(seed=args.seed, samples=counts[-1], vmax=args.vmax, pmax_over_m=args.pmax)
        start = time.perf_counter()
        running = np.maximum.accumulate(np.concatenate(list(sample_residuals(name, cfg))))
        seconds = time.perf_counter() - start
        residuals = [running[min(n, len(running)) - 1] for n in counts]
        tol = DEFAULT_TOLERANCES[name]
        margin = tol / residuals[-1] if residuals[-1] != 0 else np.inf  # NaN stays NaN
        cells = "".join(f"{r:12.2e}" for r in residuals)
        print(f"{name.ljust(32)}{cells}  {margin:9.1f}x{seconds:12.2f} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
