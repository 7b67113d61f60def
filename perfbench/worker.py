"""Benchmark child process: one fresh interpreter running one workload.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --seconds S
                                [--trace] [--setup-only] [--toy]

It imports diracspin from DIR/src (and refuses any other copy), warms the
workload up and prints "READY".  With --setup-only it exits there; the
parent times spawn-to-READY as the set-up cost.  Otherwise it runs the
closed loop -- one caller, the next operation only after the previous one
and its checks completed -- for S seconds and prints one JSON result line.
With --trace it first runs S/2 seconds untraced, then installs the span
tracer and runs S/2 seconds traced, so the two throughputs compare the same
warm process.  Between operations it runs the reference kernel of
calibrate.py, untimed by the operations.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import calibrate

PHASE_KEYS = ("latencies_ns", "cycles_ns", "marks")
MODULES = ("minkowski", "clifford", "lorentz", "amplitudes", "spin_ops", "states",
           "dynamics", "position", "verify", "cli")


def import_package(root: str) -> SimpleNamespace:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import diracspin

    if os.path.dirname(os.path.abspath(diracspin.__file__)) != os.path.join(src, "diracspin"):
        raise ImportError(f"diracspin imported from {diracspin.__file__}, not from {src}")
    for name in MODULES:
        # a plain import statement, so that -X importtime reports the module
        __import__(f"diracspin.{name}")
    return SimpleNamespace(package=diracspin, **{m: sys.modules[f"diracspin.{m}"] for m in MODULES})


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def numeric_environment() -> dict:
    """Versions, extended precision, BLAS and its thread cap, CPU and caches,
    and the computed working set of one `packet` operation."""
    import numpy as np
    import scipy
    import sympy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                      if ln.startswith("model name")), "")
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if index.startswith("index"):
            caches.append({k: _read(os.path.join(base, index, k))
                           for k in ("level", "type", "size")})
    # One 64^3 packet operation: the arrays alive inside wigner_d_batch on the
    # transported state's grid -- preimage points (n,3) and on-shell momenta
    # (n,4) in float64; two amplitude batches (n,4,2), the product and its
    # inverse (n,2,2), profile values and result (n,2) in complex128.
    n = 64 ** 3
    amplitude_batch = n * 4 * 2 * 16
    working_set = n * (3 * 8 + 4 * 8) + 2 * amplitude_batch + n * (2 * 4 * 16 + 2 * 2 * 16)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "packet_working_set_bytes_computed": working_set,
        "packet_amplitude_batch_bytes_computed": amplitude_batch,
    }


def closed_loop(wl, seconds: float, first: int, tracer=None) -> dict:
    """Run whole cycles of operations until `seconds` have elapsed; an
    operation's latency covers the library call(s), not the checks, and its
    cycle adds the checks.  The reference kernel runs between operations
    (see calibrate.py) and `marks` records (index of the next operation,
    kernel ms); its time is not in any latency or cycle."""
    latencies, cycles, failures, marks = [], [], [], []
    first_output = None
    i = first
    last_mark = -math.inf
    t_begin = time.perf_counter()
    while not latencies or time.perf_counter() - t_begin < seconds:
        for _ in range(wl.group):
            since_mark = time.perf_counter() - last_mark
            if since_mark >= calibrate.EVERY_S:
                marks.append((len(latencies), calibrate.mark_ms(since_mark)))
                last_mark = time.perf_counter()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter_ns()
            try:
                out = wl.op(i)
            except Exception:  # an operation that raises is a counted failure
                out, reason = None, traceback.format_exc(limit=3)
            latencies.append(time.perf_counter_ns() - t0)
            if tracer is not None:
                tracer.op = -1
            if out is not None:
                try:
                    reason = wl.check(out)
                except Exception:
                    reason = "check raised: " + traceback.format_exc(limit=3)
            if reason is not None:
                failures.append(f"op {i}: {reason}")
            cycles.append(time.perf_counter_ns() - t0)
            if i == first:
                first_output = out
            i += 1
    marks.append((len(latencies), calibrate.mark_ms(time.perf_counter() - last_mark)))
    return {"latencies_ns": latencies, "cycles_ns": cycles, "marks": marks,
            "failures": failures, "first_output": first_output, "next": i}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    ds = import_package(args.root)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ds, args.seed, toy=args.toy)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"env": numeric_environment()}
    phase_s = args.seconds / 2 if args.trace else args.seconds
    untraced = closed_loop(wl, phase_s, 0)
    runs = [untraced]
    if args.trace:
        import numpy as np
        from tracer import Tracer, layer_metrics

        identities = list(ds.verify.IDENTITY_RUNNERS)
        tracer = Tracer()
        result["wrapped_functions"] = tracer.install(ds.package, [getattr(ds, m) for m in MODULES],
                                                     identities)
        traced = closed_loop(wl, phase_s, untraced["next"], tracer)
        runs.append(traced)
        spans = tracer.arrays()
        result["spans"] = len(spans["start"])
        result["layers"] = layer_metrics(spans, len(traced["latencies_ns"]), identities)
        result["traced"] = {k: traced[k] for k in PHASE_KEYS}
        out_dir = os.path.join(args.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        np.savez(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"), **spans)

    failures = [f for r in runs for f in r["failures"]]
    if hasattr(wl, "replay"):
        reason = wl.replay(untraced["first_output"])
        if reason is not None:
            failures.append(f"op 0: {reason}")
    result.update({
        **{k: untraced[k] for k in PHASE_KEYS},
        "attempted": sum(len(r["latencies_ns"]) for r in runs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
