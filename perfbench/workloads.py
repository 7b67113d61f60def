"""The four benchmark workloads: input generation, one operation, output checks.

Each workload draws its inputs from a numpy Generator seeded by the
benchmark's --seed; the library receives only those generated inputs.  An
operation returns its raw outputs, and `check` turns them into a failure
reason (None when every check passes).  Checks fail closed: a missing key,
a non-finite number or an unparsable report is a failure, never a pass.

Checks run after an operation's timer stops; in a traced run their spans
(the Larmor reference of `precess` calls the library) carry operation id -1
and are left out of the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

#: |norm - 1| bound for the transported packet on the default 64^3 grid.
#: The grid is sized from the boosted width, so its spacing grows with gamma
#: while the transverse width does not; boost speeds are capped at
#: PACKET_VMAX to keep the narrowest packets resolved.  At |v| = 0.8 and
#: width 0.25 the worst |norm - 1| seen is 2.5e-10; at |v| = 0.9 it
#: reaches 1.6e-6.
NORM_BOUND = 1e-6
PACKET_VMAX = 0.8
PACKET_WIDTHS = (0.25, 0.6)
#: Parseval relative error bound (the fourier-check default tolerance).
PARSEVAL_BOUND = 1e-3
#: Uniform-field RK4 trajectory against dynamics.larmor_solution (observed
#: worst ~1e-9 at 2000 steps over t = 10, |B| <= 2).
LARMOR_BOUND = 1e-8
#: |xi| drift bound for the quadrupole trajectory (observed <= 1e-8 at
#: ||G||_F = 0.5 over t = 10).
XI_DRIFT_BOUND = 1e-6
#: Metric residual bound for `boost` reports (|v| <= 0.9, gamma <= 2.3).
BOOST_RESIDUAL_BOUND = 1e-12

PRECESS_STEPS = 2000
#: Time per RK4 step, fixed so that toy runs (fewer steps) keep the accuracy.
PRECESS_DT = 0.005
SINGLE_VMAX = 0.9
PMAX_OVER_M = 10.0
SINGLE_COMMANDS = ("wigner", "boost", "amplitude", "spin-transform")

N_IDENTITIES = 25


def run_cli(cli, argv) -> tuple[int, str]:
    """One in-process `diracspin` call; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in np.ravel(v))


def _unit(rng) -> np.ndarray:
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def _in_ball(rng, radius) -> np.ndarray:
    return radius * rng.uniform() ** (1.0 / 3.0) * _unit(rng)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class Workload:
    """One closed-loop workload: `op(i)` runs operation i, `check(out)` judges it.

    `group` is the number of consecutive operations that form one full cycle
    of the input mix; timed phases always end on a whole cycle so the mix,
    and with it the latency percentiles, is the same in every run.
    """

    group = 1

    def __init__(self, ds, seed: int, toy: bool = False):
        self.ds = ds
        self.rng = np.random.default_rng(seed)

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> str | None:
        raise NotImplementedError


# --- sweep ---------------------------------------------------------------------

def check_verify_report(rc: int, text: str) -> str | None:
    """Exit code 0, all_pass, every residual finite and consistent with `passed`."""
    if rc != 0:
        return f"verify exit code {rc}"
    try:
        report = json.loads(text)
        identities = report["identities"]
        if report["all_pass"] is not True:
            return "all_pass is not true"
        if len(identities) != N_IDENTITIES:
            return f"expected {N_IDENTITIES} identities, got {len(identities)}"
        for r in identities:
            res, tol = r["max_residual"], r["tolerance"]
            if not (_finite(res) and _finite(tol)):
                return f"{r['name']}: non-finite residual or tolerance"
            if r["passed"] is not (res < tol):
                return f"{r['name']}: passed={r['passed']} but residual {res} vs tolerance {tol}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify report: {exc!r}"
    return None


class Sweep(Workload):
    """One default `diracspin verify` run (25 identities x 200 samples), fresh seed each."""

    def __init__(self, ds, seed, toy=False):
        super().__init__(ds, seed, toy)
        self.samples = ["--samples", "5"] if toy else []
        self.seeds: list[int] = []

    def _argv(self, s: int) -> list[str]:
        return ["verify", "--seed", str(s), *self.samples]

    def warm_up(self):
        run_cli(self.ds.cli, ["verify", "--seed", "0", "--samples", "1"])

    def op(self, i):
        s = int(self.rng.integers(2 ** 31 - 1))
        self.seeds.append(s)
        return run_cli(self.ds.cli, self._argv(s))

    def check(self, out):
        return check_verify_report(*out)

    def replay(self, first_out) -> str | None:
        """Re-run the first operation's seed; the report must match byte for byte."""
        rc, text = run_cli(self.ds.cli, self._argv(self.seeds[0]))
        if (rc, text) != first_out:
            return "replayed verify report differs from the first run"
        return None


# --- packet --------------------------------------------------------------------

def check_packet(out: dict) -> str | None:
    try:
        dev = abs(out["norm"] - 1.0)
        if not (math.isfinite(dev) and dev < NORM_BOUND):
            return f"|norm - 1| = {dev!r} not below {NORM_BOUND}"
        rc, report = out["fourier_rc"], json.loads(out["fourier_text"])
        rel, rel2 = report["relative_error"], report["refined_relative_error"]
        if rc != 0 or report["passed"] is not True:
            return f"fourier-check exit code {rc}, passed={report['passed']}"
        if not (_finite(rel) and _finite(rel2) and rel < PARSEVAL_BOUND and rel2 < rel):
            return f"Parseval relative errors {rel!r} -> {rel2!r} (bound {PARSEVAL_BOUND})"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable packet output: {exc!r}"
    return None


class Packet(Workload):
    """Gaussian packet: normalize, transport by random_lorentz, norm on 64^3, fourier-check.

    Toy runs keep the full size: a coarser grid would miss NORM_BOUND.
    """

    def _study(self, eps, width, spin, L, grid_n=64):
        states = self.ds.states
        w = states.normalized(states.gaussian_packet(eps, 1.0, width, spin=spin))
        moved = states.lorentz_transform(w, L)
        return states.norm(moved, moved.default_grid(grid_n))

    def warm_up(self):
        states, lorentz, position = self.ds.states, self.ds.lorentz, self.ds.position
        L = lorentz.random_lorentz(np.random.default_rng(0), PACKET_VMAX)
        self._study(1, 0.5, (1.0, 0.5j), L, 8)
        w = states.gaussian_packet(-1, 1.0, 0.5)
        pgrid, xgrid = position.default_grids(w, w, p_points=8, x_points=6)
        position.parseval_check(w, w, pgrid, xgrid)

    def op(self, i):
        rng = self.rng
        eps = int(rng.choice((-1, 1)))
        width = float(rng.uniform(*PACKET_WIDTHS))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        spin = tuple(complex(c) for c in z / np.linalg.norm(z))
        L = self.ds.lorentz.random_lorentz(rng, PACKET_VMAX)
        nrm = self._study(eps, width, spin, L)
        spin_arg = ",".join(f"{c.real!r}{c.imag:+.17g}j" for c in spin)
        rc, text = run_cli(self.ds.cli, ["fourier-check", f"--eps={eps}", f"--width={width!r}",
                                         f"--spin={spin_arg}"])
        return {"norm": nrm, "fourier_rc": rc, "fourier_text": text}

    def check(self, out):
        return check_packet(out)


# --- precess -------------------------------------------------------------------

def parse_trajectory(text: str, columns: int) -> np.ndarray:
    lines = text.splitlines()
    header = lines[0].split(",")
    if len(header) != columns:
        raise ValueError(f"expected {columns} CSV columns, got {header}")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.ndim != 2 or data.shape[1] != columns:
        raise ValueError(f"malformed trajectory table, shape {data.shape}")
    return data


def check_uniform(rc: int, text: str, inputs: dict, dynamics) -> str | None:
    if rc != 0:
        return f"precess exit code {rc}"
    try:
        data = parse_trajectory(text, 7)
    except (ValueError, IndexError) as exc:
        return f"unreadable trajectory: {exc!r}"
    if not np.isfinite(data).all():
        return "non-finite uniform-field trajectory"
    s0 = dynamics.ChargedState(q=inputs["q"], xi=inputs["xi"])
    q_ref, xi_ref = dynamics.larmor_solution(s0, inputs["b"], data[:, 0])
    err = max(float(np.abs(data[:, 1:4] - q_ref).max()), float(np.abs(data[:, 4:7] - xi_ref).max()))
    if not err < LARMOR_BOUND:
        return f"uniform trajectory deviates from larmor_solution by {err:.3g}"
    return None


def check_quadrupole(rc: int, text: str) -> str | None:
    if rc != 0:
        return f"precess exit code {rc}"
    try:
        data = parse_trajectory(text, 10)
    except (ValueError, IndexError) as exc:
        return f"unreadable trajectory: {exc!r}"
    if not np.isfinite(data).all():
        return "non-finite quadrupole trajectory"
    xi_norm = np.linalg.norm(data[:, 4:7], axis=1)
    drift = float(np.abs(xi_norm - xi_norm[0]).max())
    if not drift < XI_DRIFT_BOUND:
        return f"|xi| drift {drift:.3g} not below {XI_DRIFT_BOUND}"
    return None


class Precess(Workload):
    """One `diracspin precess` trajectory of 2000 RK4 steps; fields alternate
    between uniform and symmetric traceless quadrupole."""

    group = 2

    def __init__(self, ds, seed, toy=False):
        super().__init__(ds, seed, toy)
        self.steps = 200 if toy else PRECESS_STEPS

    def _timing(self, steps):
        return ["--t-final", repr(steps * PRECESS_DT), "--steps", str(steps)]

    def warm_up(self):
        cli = self.ds.cli
        run_cli(cli, ["precess", "--b=0,0,1", *self._timing(10)])
        run_cli(cli, ["precess", "--field", "quadrupole", "--gradient=1,0,0,0,-1,0,0,0,0",
                      *self._timing(10)])

    def op(self, i):
        rng = self.rng
        q, xi = _in_ball(rng, 1.0), _unit(rng)
        common = [f"--q={_vec(q)}", f"--xi={_vec(xi)}", *self._timing(self.steps)]
        if i % 2 == 0:
            b = _unit(rng) * rng.uniform(0.5, 2.0)
            argv = ["precess", "--field", "uniform", f"--b={_vec(b)}", *common]
            inputs = {"field": "uniform", "b": b, "q": q, "xi": xi}
        else:
            A = rng.normal(size=(3, 3))
            G = (A + A.T) / 2.0
            G -= np.trace(G) / 3.0 * np.eye(3)
            G *= 0.5 / np.linalg.norm(G)
            argv = ["precess", "--field", "quadrupole", f"--gradient={_vec(G)}",
                    f"--x0={_vec(_in_ball(rng, 1.0))}", *common]
            inputs = {"field": "quadrupole"}
        rc, text = run_cli(self.ds.cli, argv)
        return rc, text, inputs

    def check(self, out):
        rc, text, inputs = out
        if inputs["field"] == "uniform":
            return check_uniform(rc, text, inputs, self.ds.dynamics)
        return check_quadrupole(rc, text)


# --- single --------------------------------------------------------------------

def check_single(command: str, rc: int, text: str) -> str | None:
    if rc != 0:
        return f"{command} exit code {rc}"
    try:
        report = json.loads(text)
        if command == "boost":
            res = report["metric_residual"]
            if not (_finite(res) and res < BOOST_RESIDUAL_BOUND):
                return f"boost metric residual {res!r} not below {BOOST_RESIDUAL_BOUND}"
        elif report["passed"] is not True:
            return f"{command} reports passed={report['passed']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {command} report: {exc!r}"
    return None


class Single(Workload):
    """One in-process call of wigner, boost, amplitude or spin-transform, cycled."""

    group = len(SINGLE_COMMANDS)

    def _argv(self, command: str, rng) -> list[str]:
        v = f"--velocity={_vec(_in_ball(rng, SINGLE_VMAX))}"
        p = f"--momentum={_vec(_in_ball(rng, PMAX_OVER_M))}"
        if command == "wigner":
            return [command, v, p]
        if command == "boost":
            return [command, v]
        if command == "amplitude":
            return [command, f"--eps={int(rng.choice((-1, 1)))}", p]
        return [command, v, p, f"--xi={_vec(_unit(rng))}"]

    def warm_up(self):
        rng = np.random.default_rng(0)
        for command in SINGLE_COMMANDS:
            run_cli(self.ds.cli, self._argv(command, rng))

    def op(self, i):
        command = SINGLE_COMMANDS[i % self.group]
        return (command, *run_cli(self.ds.cli, self._argv(command, self.rng)))

    def check(self, out):
        return check_single(*out)


WORKLOADS = {"sweep": Sweep, "packet": Packet, "precess": Precess, "single": Single}
