"""diracspin benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,packet,precess,single} --seed N
                             --seconds S --trace {0,1}

Run from the root of a diracspin checkout; the library is imported from its
`src/` directory, never from an installed copy.  Workloads, their reasons
and the metric predictions are in perfbench/predictions.json.

Set-up: SETUP_STARTS fresh interpreters import diracspin and warm the
workload up (sympy lambdify, first calls); each start is timed from spawn
to ready.  `setup_s` is their median.

Operation times are reported at the reference speed of calibrate.py: each
is scaled by the reference kernel's time around it, which takes out the
host's speed drift.  Set-up starts, which that kernel does not track, are
reported as measured.  The as-measured operation metrics are printed next
to the reported ones.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the same child with S/2 seconds untraced then S/2 seconds traced, and
reports the per-layer metrics plus the tracing overhead; an extra start
under `python -X importtime` gives each module's import time.

Every operation's output is checked.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Earlier lines give
the numeric environment, each metric with its unit, the tail percentile
and sample count, and fail_ratio.  The full record, and the spans of a
traced run, are written under .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import import_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 4
#: Seconds a set-up start may take, and seconds the measuring child may take
#: beyond the measured phase, before it is killed; together they keep a run
#: under three minutes.
SETUP_TIMEOUT_S = 30.0
CHILD_GRACE_S = 60.0
#: The tail is the highest of these percentiles that leaves TAIL_BEYOND
#: samples beyond it.  A fixed ladder, rather than the n-dependent order
#: statistic, keeps rare hiccups (a gen-2 collection every ~1600 `single`
#: operations, host jitter) from deciding the value.  It stops at p99: with
#: p99.9 a `single` run switched percentile as its count crossed 10000, and
#: the tail's spread over ten runs rose to 0.41.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def child_env(root: str) -> dict:
    """One caller per process; BLAS pools capped at the usable CPU count."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(root: str, args, extra: list[str], python_flags=(), **popen) -> subprocess.Popen:
    cmd = [sys.executable, *python_flags, WORKER, "--root", root, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.toy:
        cmd.append("--toy")
    return subprocess.Popen(cmd, env=child_env(root), stdout=subprocess.PIPE, text=True,
                            **popen)


def wait_ready(proc: subprocess.Popen, t_spawn: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"benchmark child failed before ready (got {line!r})")
    return time.perf_counter() - t_spawn


def finish(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    """Wait for a child (killing it on timeout); its (stdout, stderr) rest."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark child timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return out, err


def setup_start(root: str, args) -> float:
    t0 = time.perf_counter()
    proc = spawn(root, args, ["--setup-only"])
    try:
        return wait_ready(proc, t0)
    finally:
        finish(proc, SETUP_TIMEOUT_S)


def import_times(root: str, args) -> dict:
    proc = spawn(root, args, ["--setup-only"], python_flags=("-X", "importtime"),
                 stderr=subprocess.PIPE)
    return import_metrics(finish(proc, SETUP_TIMEOUT_S)[1])


def tail(latencies_ms: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, samples, samples beyond) at the highest of
    TAIL_PERCENTILES that leaves at least TAIL_BEYOND samples beyond it; the
    lowest of them when the run is too short for that."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND),
               TAIL_PERCENTILES[-1])
    k = max(math.ceil(pct / 100.0 * n) - 1, 0)
    return ordered[k], pct, n, n - 1 - k


def phase_times(phase: dict, normalized: bool) -> tuple[list[float], float]:
    """(latency of each operation in ms, seconds of all operation cycles),
    at the reference speed when `normalized`, else as measured."""
    lat_ms = [ns / 1e6 for ns in phase["latencies_ns"]]
    cyc_s = [ns / 1e9 for ns in phase["cycles_ns"]]
    if normalized:
        f = calibrate.factors(len(lat_ms), phase["marks"])
        lat_ms = [t * x for t, x in zip(lat_ms, f)]
        cyc_s = [t * x for t, x in zip(cyc_s, f)]
    return lat_ms, sum(cyc_s)


def end_to_end(child: dict, setups: list[float], normalized: bool) -> tuple[dict, str]:
    lat_ms, busy_s = phase_times(child, normalized)
    tail_ms, pct, n, beyond = tail(lat_ms)
    metrics = {
        "ops_per_s": (len(lat_ms) / busy_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    return metrics, f"op_tail_ms is p{pct:g} of {n} operations ({beyond} beyond)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny operations, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diracspin", "__init__.py")):
        print(f"error: no diracspin source under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2

    try:
        setups = [setup_start(root, args) for _ in range(1 if args.toy else SETUP_STARTS)]
        imports = import_times(root, args) if args.trace else {}
        proc = spawn(root, args, ["--trace"] if args.trace else [])
        try:
            wait_ready(proc, 0.0)
        finally:
            out, _ = finish(proc, args.seconds + CHILD_GRACE_S)
        child = json.loads(out.splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = child["attempted"], len(child["failures"])
    e2e, tail_note = end_to_end(child, setups, True)
    raw, _ = end_to_end(child, setups, False)
    if args.trace:
        untraced_rate = e2e["ops_per_s"][0]
        traced_lat, traced_busy = phase_times(child["traced"], True)
        traced_rate = len(traced_lat) / traced_busy
        metrics = {
            **child["layers"],
            **imports,
            "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
            "trace.ops_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0), "%"),
        }
    else:
        metrics = e2e

    print("# env " + json.dumps(child["env"]))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# {args.workload} {tail_note}")
    print(f"# {args.workload} operation times are at the reference speed of "
          "perfbench/calibrate.py; as measured: "
          + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in raw.items() if k.startswith("op")))
    if args.trace:
        print(f"# {args.workload} traced run: {child['wrapped_functions']} functions wrapped, "
              f"{child['spans']} spans recorded")
    print(f"# {args.workload} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for reason in child["failures"][:10]:
        print(f"# FAILED {reason}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_starts_s": setups, "tail": tail_note,
        "as_measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "fail_ratio": failed / attempted, "failures": child["failures"], "env": child["env"],
        "latencies_ms": [ns / 1e6 for ns in child["latencies_ns"]],
        "kernel_marks": child["marks"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    path = os.path.join(root, ".bench_out",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
