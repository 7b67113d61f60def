"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py        (from the checkout root)

1. Runs every workload at toy size with --trace 0 and --trace 1 and checks
   that the last line is the result object, that the run is correct, and that
   exactly the metrics BENCHMARK.json lists are printed, each with its unit.
2. Feeds tampered outputs (a non-finite residual, a flipped `passed`, ...)
   to every workload's checks and requires each to be counted as a failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files and requires a nonzero exit without a result.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed_metrics(bench: dict) -> None:
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exit 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: every listed metric printed with its unit"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {[k for k in want if k in got and got[k] != want[k]]})"))
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{tag}: values are finite numbers")
            expect(any("fail_ratio" in ln for ln in lines), f"{tag}: fail_ratio printed")
            if trace == 0:
                expect(any("op_tail_ms is p" in ln for ln in lines),
                       f"{tag}: tail percentile and sample count printed")


def check_tampering() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    from diracspin import cli, dynamics

    import workloads as wl

    rc, text = wl.run_cli(cli, ["verify", "--seed", "3", "--samples", "3"])
    expect(wl.check_verify_report(rc, text) is None, "sweep: genuine report passes")

    def tampered(edit):
        report = json.loads(text)
        edit(report)
        return json.dumps(report)

    def nan_residual(r):
        r["identities"][4]["max_residual"] = float("nan")

    def flip_passed(r):
        r["identities"][0]["passed"] = not r["identities"][0]["passed"]

    def flip_all_pass(r):
        r["all_pass"] = False

    for name, edit in (("non-finite residual", nan_residual), ("flipped passed", flip_passed),
                       ("all_pass false", flip_all_pass)):
        expect(wl.check_verify_report(0, tampered(edit)) is not None, f"sweep: {name} fails")
    expect(wl.check_verify_report(1, text) is not None, "sweep: nonzero exit fails")
    expect(wl.check_verify_report(0, text[: len(text) // 2]) is not None,
           "sweep: truncated report fails")

    fourier = json.dumps({"passed": True, "relative_error": 2e-4, "refined_relative_error": 1e-5})
    good = {"norm": 1.0 + 1e-12, "fourier_rc": 0, "fourier_text": fourier}
    expect(wl.check_packet(good) is None, "packet: genuine output passes")
    for name, change in (("non-finite norm", {"norm": float("nan")}),
                         ("norm off by 1e-3", {"norm": 1.001}),
                         ("fourier-check exit 1", {"fourier_rc": 1}),
                         ("non-finite Parseval error", {"fourier_text": fourier.replace(
                             "0.0002", "NaN")}),
                         ("refinement not decreasing", {"fourier_text": fourier.replace(
                             "1e-05", "0.0003")}),
                         ("flipped passed", {"fourier_text": fourier.replace("true", "false")})):
        expect(wl.check_packet({**good, **change}) is not None, f"packet: {name} fails")

    q, xi, b = np.array([0.1, 0.2, 0.0]), np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.3, 1.0])
    inputs = {"field": "uniform", "b": b, "q": q, "xi": xi}
    argv = ["precess", f"--b={wl._vec(b)}", f"--q={wl._vec(q)}", f"--xi={wl._vec(xi)}",
            "--t-final", "1", "--steps", "200"]
    rc, csv = wl.run_cli(cli, argv)
    expect(wl.check_uniform(rc, csv, inputs, dynamics) is None,
           "precess: genuine trajectory passes")
    rows = csv.splitlines()
    bad_row = rows[:50] + [",".join(["nan"] * 7)] + rows[51:]
    expect(wl.check_uniform(rc, "\n".join(bad_row), inputs, dynamics) is not None,
           "precess: non-finite row fails")
    shifted = rows[:100] + [rows[100].rsplit(",", 1)[0] + ",0.5"] + rows[101:]
    expect(wl.check_uniform(rc, "\n".join(shifted), inputs, dynamics) is not None,
           "precess: trajectory off the Larmor solution fails")
    expect(wl.check_quadrupole(rc, csv) is not None, "precess: missing position columns fail")

    rc, text = wl.run_cli(cli, ["wigner", "--velocity=0.3,0.1,0.2", "--momentum=1,2,3"])
    expect(wl.check_single("wigner", rc, text) is None, "single: genuine report passes")
    expect(wl.check_single("wigner", rc, text.replace('"passed": true', '"passed": false'))
           is not None, "single: flipped passed fails")
    expect(wl.check_single("wigner", 2, text) is not None, "single: nonzero exit fails")
    rc, text = wl.run_cli(cli, ["boost", "--velocity=0.3,0.1,0.2"])
    expect(wl.check_single("boost", rc, text) is None, "single: genuine boost passes")
    bad = json.loads(text)
    bad["metric_residual"] = float("inf")
    expect(wl.check_single("boost", rc, json.dumps(bad)) is not None,
           "single: non-finite boost residual fails")


def check_bare_directory() -> None:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "single", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "bare directory: nonzero exit and no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_tampering()
    check_bare_directory()
    check_printed_metrics(bench)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
