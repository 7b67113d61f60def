import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_array_equal

from diracspin import __version__
from diracspin import amplitudes, clifford, lorentz, spin_ops, verify
from diracspin.cli import main
from diracspin.lorentz import VMAX_HARD, velocities_from_draws
from diracspin.minkowski import SampleRefused
from diracspin.verify import (DEFAULT_TOLERANCES, IDENTITY_RUNNERS, RunConfig,
                              complex_matrix_payload, evaluate_at, format_float, identity_rng,
                              real_matrix_payload, resolve_tolerances, run_all, run_identity,
                              to_csv, to_json)
from _reference import EXACT_BATCHES, assert_same_bits, dense_contract

CFG = RunConfig(samples=25)


def test_registry_is_sorted_and_complete():
    names = list(IDENTITY_RUNNERS)
    assert names == sorted(names)
    assert set(DEFAULT_TOLERANCES) == set(names)
    assert len(names) >= 20


def test_identity_rng_reproducible():
    a = identity_rng(CFG, "wigner_closed_form").normal(size=4)
    b = identity_rng(CFG, "wigner_closed_form").normal(size=4)
    assert np.array_equal(a, b)
    c = identity_rng(CFG, "wigner_cocycle").normal(size=4)
    assert not np.array_equal(a, c)


def test_every_identity_has_its_own_rng_stream():
    streams = [stream for *_, stream in IDENTITY_RUNNERS.values()]
    assert sorted(streams) == list(range(len(IDENTITY_RUNNERS)))
    with pytest.raises(KeyError):
        identity_rng(CFG, "not_registered")


def test_new_identity_reseeds_no_other(monkeypatch):
    # A name that sorts first would have shifted every registry position,
    # which once was each identity's spawn index.
    cfg = RunConfig(samples=30, seed=11)
    before = {name: _residual_stream(name, cfg) for name in IDENTITY_RUNNERS}
    runners = {**IDENTITY_RUNNERS,
               "aaa_dummy": ((verify._MOMENTUM,), lambda c, p: np.zeros(len(p)), 1e-12,
                             len(IDENTITY_RUNNERS))}
    monkeypatch.setattr(verify, "IDENTITY_RUNNERS", dict(sorted(runners.items())))
    assert list(verify.IDENTITY_RUNNERS)[0] == "aaa_dummy"
    assert _residual_stream("aaa_dummy", cfg).shape == (30,)
    for name, residuals in before.items():
        assert np.array_equal(_residual_stream(name, cfg), residuals, equal_nan=True), name


def test_run_identity_passes_defaults():
    r = run_identity("amplitude_orthogonality", CFG)
    assert r.passed
    assert r.samples == 25
    assert 0.0 <= r.max_residual < r.tolerance


def test_run_identity_respects_override():
    tight = RunConfig(samples=10, tolerances={"bloch_rotation": 1e-30})
    r = run_identity("bloch_rotation", tight)
    assert not r.passed and r.tolerance == 1e-30


def test_run_identity_unknown_name():
    with pytest.raises(KeyError):
        run_identity("no_such_identity", CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(vmax=1.0)
    with pytest.raises(ValueError):
        RunConfig(mass=-1.0)
    with pytest.raises(ValueError):
        RunConfig(tolerances={"bogus": 1e-9})


@pytest.mark.parametrize("vmax", [0.0, -0.5, 0.9999995, 1.0, 1.5, float("nan"), float("inf")])
def test_sampling_radius_has_one_rule(vmax):
    # the sweep's configuration refuses a radius as the velocity sampler does
    with pytest.raises(ValueError, match=r"^vmax must lie in \(0, 0\.999999\], got ") as exc:
        RunConfig(vmax=vmax)
    with pytest.raises(ValueError, match=re.escape(str(exc.value))):
        velocities_from_draws(np.ones(5), vmax)


def test_sampling_radius_reaches_vmax_hard():
    assert RunConfig(vmax=VMAX_HARD).vmax == VMAX_HARD
    assert_array_equal(velocities_from_draws(np.ones(5), VMAX_HARD),
                       np.full(3, VMAX_HARD / np.sqrt(5.0)))


def test_resolve_tolerances():
    defaults = {"b": 1e-9, "a": 1e-12}
    resolved = resolve_tolerances({"a": 2e-12}, defaults)
    assert list(resolved.items()) == [("b", 1e-9), ("a", 2e-12)]
    assert resolve_tolerances({}, defaults) == defaults
    with pytest.raises(ValueError, match=r"unknown tolerance overrides: \['c'\] \(choose from"):
        resolve_tolerances({"c": 1.0}, defaults)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"positive and finite: \['a'\]"):
            resolve_tolerances({"a": bad}, defaults)


#: Identities checked on each mass shell; a sign selects one.
SHELL_IDENTITIES = ["amplitude_dirac", "amplitude_orthogonality", "amplitude_parity",
                    "amplitude_projector", "casimir_sandwich", "fw_diagonalization",
                    "hamiltonian_square", "pauli_lubanski_reconstruction",
                    "pauli_lubanski_sandwich", "sandwich_formulas", "spin_covariant_sandwich"]


def test_evaluate_at_one_shell_or_both():
    m = 1.7
    p4 = verify.momenta_from_draws(np.random.default_rng(2).standard_normal((6, verify.BALL)),
                                   m, 10.0)
    for name in SHELL_IDENTITIES:
        plus, minus = evaluate_at(name, m, p4, 1), evaluate_at(name, m, p4, -1)
        assert plus.shape == minus.shape == (6,)
        assert np.array_equal(evaluate_at(name, m, p4), np.maximum(plus, minus)), name
    with pytest.raises(KeyError, match="no_such_identity"):
        evaluate_at("no_such_identity", m, p4)


@pytest.mark.parametrize("kwargs", [{"pmax_over_m": 1e300}, {"mass": 1e300},
                                    {"mass": 1e155, "pmax_over_m": 1e5}])
def test_config_refuses_overflowing_energy(kwargs):
    with pytest.raises(ValueError, match="pmax_over_m"):
        RunConfig(**kwargs)


@pytest.mark.parametrize("mass", [1e-155, 1e-200, 1e-300])
def test_config_refuses_mass_whose_square_underflows(mass):
    with pytest.raises(ValueError, match=f"mass = {mass!r} underflows"):
        RunConfig(mass=mass)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_config_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        RunConfig(pmax_over_m=bad)
    with pytest.raises(ValueError):
        RunConfig(vmax=bad)
    with pytest.raises(ValueError):
        RunConfig(mass=bad)
    with pytest.raises(ValueError):
        RunConfig(tolerances={"su2_lift": bad})


def test_report_schema_and_pass():
    report = run_all(CFG)
    assert report["version"] == __version__
    assert report["all_pass"] is True
    assert [r["name"] for r in report["identities"]] == sorted(IDENTITY_RUNNERS)
    cfg = report["config"]
    assert cfg["seed"] == 42 and cfg["samples"] == 25
    assert set(cfg["tolerances"]) == set(IDENTITY_RUNNERS)


def test_report_json_byte_stable():
    a = to_json(run_all(CFG))
    b = to_json(run_all(CFG))
    assert a == b
    # and it parses as ordinary JSON with the same content
    parsed = json.loads(a)
    assert parsed["config"]["samples"] == 25


def test_report_json_seed_sensitivity():
    a = to_json(run_all(RunConfig(samples=10, seed=1)))
    b = to_json(run_all(RunConfig(samples=10, seed=2)))
    assert a != b


def test_report_csv_contract():
    text = to_csv(run_all(CFG))
    lines = text.strip().split("\n")
    assert lines[0] == "name,samples,tolerance,max_residual,passed"
    assert len(lines) == len(IDENTITY_RUNNERS) + 1
    first = lines[1].split(",")
    assert first[0] == sorted(IDENTITY_RUNNERS)[0]
    assert first[-1] in {"true", "false"}


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrip(x):
    assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.json")),
                         ids=lambda p: p.name)
def test_pinned_reports_come_out_of_the_writer_byte_for_byte(path):
    text = path.read_text()
    assert to_json(json.loads(text)) == text


def test_to_json_writes_each_kind():
    # numpy scalars are written as the Python ones; a subclass of a kind goes
    # to that kind's writer, and anything else is refused
    report = {"f": [np.float64(0.1), np.float32(0.5), 2.5], "i": (np.int64(-3), 4),
              "b": [np.bool_(True), False], "s": 'a"b\\c', "n": None, "e": [{}, []]}
    assert to_json(report) == (
        '{\n  "f": [\n    0.10000000000000001,\n    0.5,\n    2.5\n  ],\n'
        '  "i": [\n    -3,\n    4\n  ],\n  "b": [\n    true,\n    false\n  ],\n'
        '  "s": "a\\"b\\\\c",\n  "n": null,\n  "e": [\n    {},\n    []\n  ]\n}\n')
    with pytest.raises(TypeError, match="cannot serialize complex"):
        to_json({"z": 1j})
    with pytest.raises(ValueError, match="non-finite"):
        to_json([np.float32("nan")])


def test_matrix_payloads():
    M = np.array([[1.0 + 2.0j, 0.0], [0.0, -1.5j]])
    got = complex_matrix_payload(M)
    assert got == [[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.5]]]
    R = np.array([[1.0, 0.5], [-0.25, 2.0]])
    assert real_matrix_payload(R) == [[1.0, 0.5], [-0.25, 2.0]]


def test_failure_marks_report():
    cfg = RunConfig(samples=10, tolerances={"weinberg_condition": 1e-30})
    report = run_all(cfg)
    assert report["all_pass"] is False
    bad = [r for r in report["identities"] if r["name"] == "weinberg_condition"][0]
    assert bad["passed"] is False
    assert report["config"]["tolerances"]["weinberg_condition"] == 1e-30


def test_kernel_refusal_fails_the_identity(monkeypatch):
    # A batched kernel that refuses its own intermediate at sample 1 gives
    # that sample a NaN residual; the run stops there and the identity fails.
    calls = []
    real = verify.su2_from_so3

    def refusing(R3):
        calls.append(len(R3))
        if len(R3) > 1:
            raise SampleRefused("matrix is not a proper rotation (sample 1)", 1)
        return real(R3)

    monkeypatch.setattr(verify, "su2_from_so3", refusing)
    r = run_identity("su2_lift", RunConfig(samples=5))
    assert r.samples == 2 and np.isnan(r.max_residual) and r.passed is False
    assert calls == [5, 1]  # the samples before the refused one are evaluated again


def test_refusal_at_the_first_sample_fails_the_identity(monkeypatch):
    # With sample 0 refused there is nothing before it to evaluate again:
    # the run is that one sample, with a NaN residual.
    calls = []

    def refusing(R3):
        calls.append(len(R3))
        raise SampleRefused("matrix is not a proper rotation (sample 0)", 0)

    monkeypatch.setattr(verify, "su2_from_so3", refusing)
    r = run_identity("su2_lift", RunConfig(samples=5))
    assert r.samples == 1 and np.isnan(r.max_residual) and r.passed is False
    assert calls == [5]


def test_nan_residual_fails_closed(monkeypatch, capsys):
    # A NaN at sample 1 must survive the reduction: the builtin max would
    # keep sample 0's finite value and pass the identity.
    real = verify.bispinor_rep

    def poisoned(L):
        S = real(L)
        if len(S) > 1:
            S[1] = np.nan
        return S

    monkeypatch.setattr(verify, "bispinor_rep", poisoned)
    cfg = RunConfig(samples=5)
    r = run_identity("bispinor_inverse_structure", cfg)
    assert np.isnan(r.max_residual) and r.passed is False
    assert r.samples == 5

    report = run_all(cfg)
    assert report["all_pass"] is False
    parsed = json.loads(to_json(report))
    bad = [x for x in parsed["identities"] if x["name"] == "bispinor_covariance"][0]
    assert bad["max_residual"] is None and bad["passed"] is False
    row = [line for line in to_csv(report).splitlines() if line.startswith("bispinor_covariance,")][0]
    assert row.split(",")[3:] == ["nan", "false"]

    assert main(["verify", "--samples", "5"]) == 1
    assert "bispinor_covariance" in capsys.readouterr().err


def test_nan_in_one_check_of_a_sample_fails(monkeypatch):
    # standard_boost checks two relations per sample; a NaN in only one of
    # them, at sample 1, must still make that sample's residual NaN.
    real = verify.boost_from_velocity

    def poisoned(v3):
        L = real(v3)
        if len(L) > 1:
            L[1] = np.nan
        return L

    monkeypatch.setattr(verify, "boost_from_velocity", poisoned)
    residuals = _residual_stream("standard_boost", RunConfig(samples=5))
    assert np.isnan(residuals).tolist() == [False, True, False, False, False]
    r = run_identity("standard_boost", RunConfig(samples=5))
    assert np.isnan(r.max_residual) and r.passed is False

    # likewise a NaN on one mass shell only
    real_dirac = verify.dirac_residual

    def one_shell(eps, p4, m):
        r = real_dirac(eps, p4, m)
        if eps == -1:
            r[1] = np.nan
        return r

    monkeypatch.setattr(verify, "dirac_residual", one_shell)
    residuals = _residual_stream("amplitude_dirac", RunConfig(samples=5))
    assert np.isnan(residuals).tolist() == [False, True, False, False, False]


@pytest.mark.parametrize("name, evaluator", [("standard_boost", "_standard_boost"),
                                              ("casimir_sandwich", "_casimir_sandwich")])
def test_rebound_evaluator_is_the_one_run(monkeypatch, name, evaluator):
    # a direct entry and a `_shells` entry both look their function up when called
    monkeypatch.setattr(verify, evaluator, lambda *args: np.full(len(args[1]), 7.0))
    assert run_identity(name, RunConfig(samples=5)).max_residual == 7.0


def _residual_stream(name, cfg):
    return np.concatenate(list(verify.sample_residuals(name, cfg)))


@pytest.mark.parametrize("chunk, sizes", [(1, [1] * 10), (4, [4, 4, 2])])
def test_chunks_continue_one_stream(monkeypatch, chunk, sizes):
    # Drawing and evaluating in chunks gives every identity the same
    # per-sample residuals, in the same order, as one chunk of all 10; with
    # chunks of 1 that is the sample-by-sample loop.
    cfg = RunConfig(samples=10, seed=3, mass=2.5)
    whole = {name: _residual_stream(name, cfg) for name in IDENTITY_RUNNERS}
    monkeypatch.setattr(verify, "CHUNK", chunk)
    for name in IDENTITY_RUNNERS:
        chunked = list(verify.sample_residuals(name, cfg))
        assert [len(c) for c in chunked] == ([1] if len(whole[name]) == 1 else sizes)
        assert np.array_equal(np.concatenate(chunked), whole[name]), name


def test_shorter_run_is_a_prefix_of_a_longer_one(monkeypatch):
    # The margin study (`verify --samples N` for several N) rests on this: the
    # first n samples of a longer run are the n-sample run, on either side of
    # a chunk boundary.
    monkeypatch.setattr(verify, "CHUNK", 4)
    for name in IDENTITY_RUNNERS:
        stream = _residual_stream(name, RunConfig(samples=11, seed=5))
        for n in (3, 4, 5, 8, 9):
            worst = run_identity(name, RunConfig(samples=n, seed=5)).max_residual
            assert worst == stream[:n].max(), (name, n)


def test_nan_and_refusal_cross_the_chunk_boundary(monkeypatch):
    # With chunks of 4, sample 5 is sample 1 of the second chunk: a NaN
    # there fails the identity although both other chunks are finite, and a
    # refusal there ends the run after 6 samples.
    monkeypatch.setattr(verify, "CHUNK", 4)
    cfg = RunConfig(samples=10)
    calls = []
    real_rep, real_lift = verify.bispinor_rep, verify.su2_from_so3

    def poisoned(L):
        calls.append(len(L))
        S = real_rep(L)
        if len(calls) == 2:
            S[1] = np.nan
        return S

    monkeypatch.setattr(verify, "bispinor_rep", poisoned)
    r = run_identity("bispinor_inverse_structure", cfg)
    assert calls == [4, 4, 2]
    assert r.samples == 10 and np.isnan(r.max_residual) and r.passed is False
    calls.clear()
    chunks = list(verify.sample_residuals("bispinor_inverse_structure", cfg))
    assert [np.isnan(c).tolist() for c in chunks] == [[False] * 4, [False, True, False, False],
                                                       [False] * 2]

    calls.clear()

    def refusing(R3):
        calls.append(len(R3))
        if len(calls) == 2:
            raise SampleRefused("matrix is not a proper rotation (sample 1)", 1)
        return real_lift(R3)

    monkeypatch.setattr(verify, "su2_from_so3", refusing)
    r = run_identity("su2_lift", cfg)
    assert calls == [4, 4, 1]
    assert r.samples == 6 and np.isnan(r.max_residual) and r.passed is False


def test_refusal_reports_the_first_refused_sample(monkeypatch):
    # A kernel refusing sample 3 runs before one refusing sample 1; the
    # report still names sample 1, the first sample any kernel refuses.
    real_rep, real_inverse = verify.bispinor_rep, verify.bispinor_inverse

    def refusing_late(S):
        if len(S) > 1:
            raise SampleRefused("refused (sample 1)", 1)
        return real_inverse(S)

    def refusing_early(L):
        if len(L) > 3:
            raise SampleRefused("refused (sample 3)", 3)
        return real_rep(L)

    monkeypatch.setattr(verify, "bispinor_rep", refusing_early)
    monkeypatch.setattr(verify, "bispinor_inverse", refusing_late)
    r = run_identity("bispinor_inverse_structure", RunConfig(samples=8))
    assert r.samples == 2 and np.isnan(r.max_residual) and r.passed is False


@pytest.mark.parametrize("batch", EXACT_BATCHES)
@pytest.mark.parametrize("name", ["bispinor_covariance", "su2_lift", "bloch_rotation"])
def test_contracted_targets_are_the_einsums_bit_for_bit(name, batch, monkeypatch):
    kinds = IDENTITY_RUNNERS[name][0]
    rng = np.random.default_rng(15)
    n = batch[0] if batch else 1
    samples = [build(CFG, rng.standard_normal((n, width))) for width, build in kinds]
    if not batch:
        samples = [s[0] for s in samples]
    got = evaluate_at(name, CFG.mass, *samples)
    assert got.shape == batch
    monkeypatch.setattr(verify, "contract", dense_contract)
    assert_same_bits(got, evaluate_at(name, CFG.mass, *samples))


@pytest.mark.parametrize("module, kernel, name", [
    (verify, "contract", "bispinor_covariance"), (verify, "contract", "su2_lift"),
    (verify, "contract", "bloch_rotation"), (amplitudes, "contract", "sandwich_formulas"),
    (spin_ops, "contract", "pauli_lubanski_sandwich"), (spin_ops, "contract", "fw_diagonalization"),
    (spin_ops, "contract", "spin_transform_equivalence"), (clifford, "contract", "amplitude_dirac"),
    (amplitudes, "conj_gather", "amplitude_orthogonality"),
    (lorentz, "conj_gather", "bispinor_inverse_structure"), (lorentz, "_sigma_trace", "su2_lift"),
    (verify, "gather_columns", "bispinor_covariance"), (verify, "gather_columns", "su2_lift"),
    (amplitudes, "gather_columns", "sandwich_formulas")])
def test_nan_from_a_flat_product_or_gather_fails_its_identity(module, kernel, name, monkeypatch):
    real = getattr(module, kernel)

    def poisoned(*args):
        out = real(*args)
        out[1] = np.nan
        return out

    monkeypatch.setattr(module, kernel, poisoned)
    with np.errstate(invalid="ignore"):  # the lift's complex division by a NaN warns
        r = run_identity(name, RunConfig(samples=5))
    assert r.samples == 5 and np.isnan(r.max_residual) and r.passed is False
