"""The sweep's chunk draws against a literal per-sample drawer, and the
distributions the all-normal sample kinds give.

Every sample kind is a number of standard normals.  The reference below
takes each sample's numbers one sample and one kind at a time, one
`standard_normal(width)` call each.  A sweep chunk, drawn in one call, must
hold the same numbers, bit for bit, and leave the generator where the
reference leaves it; so must every one-at-a-time sampler, since callers
interleave them with their own draws.  A swept sample evaluated on its own
must give its swept residual, bit for bit, since the CLI's point reports
evaluate one sample through the same entry point.
"""
import numpy as np
import pytest
from scipy import stats
from scipy.spatial.transform import Rotation

from diracspin import verify
from diracspin.lorentz import (BALL, LORENTZ, ROTATION, lorentz_from_draws, momenta_from_draws,
                               random_lorentz, random_momentum, random_rotation, random_velocity,
                               rotations_from_draws, velocities_from_draws)
from diracspin.verify import (CHUNK, IDENTITY_RUNNERS, RunConfig, evaluate_at, identity_rng,
                              sample_residuals)

#: The reference width of each sample kind of the registry.  A width fixes
#: which numbers every later sample of a stream takes, so changing one moves
#: the pinned reports.
REFERENCE = [(verify._MOMENTUM, 5), (verify._VELOCITY, 5), (verify._LORENTZ, 9),
             (verify._ROTATION, 4), (verify._BLOCH, 6), (verify._SIGN, 1)]

SAMPLED = [name for name, (kinds, *_) in IDENTITY_RUNNERS.items() if kinds]


def reference_draws(rng, kinds, n):
    """n samples' numbers, sample by sample and kind by kind, one row each."""
    rows = [np.concatenate([rng.standard_normal(width) for width, _ in kinds]) for _ in range(n)]
    return np.array(rows).reshape(n, -1)


def build_samples(cfg, kinds, rows):
    """The samples of each kind, built from their columns of the rows."""
    samples, col = [], 0
    for width, build in kinds:
        samples.append(build(cfg, rows[:, col:col + width]))
        col += width
    return tuple(samples)


def reference_residuals(name, cfg):
    """The residual stream of `sample_residuals`, from reference draws."""
    kinds = IDENTITY_RUNNERS[name][0]
    rng, stream = identity_rng(cfg, name), []
    for start in range(0, cfg.samples, CHUNK):
        rows = reference_draws(rng, kinds, min(CHUNK, cfg.samples - start))
        residuals, refused = verify._evaluate(name, cfg.mass, build_samples(cfg, kinds, rows))
        stream.append(residuals)
        if refused:
            break
    return np.concatenate(stream)


def swept(name, cfg):
    return np.concatenate(list(sample_residuals(name, cfg)))


def assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_every_sample_kind_has_a_reference():
    kinds = {id(k) for name in SAMPLED for k in IDENTITY_RUNNERS[name][0]}
    assert kinds == {id(kind) for kind, _ in REFERENCE}
    assert all(kind[0] == width for kind, width in REFERENCE)


@pytest.mark.parametrize("seed", [42, 7, 3])
@pytest.mark.parametrize("name", SAMPLED)
def test_fill_takes_the_reference_numbers(name, seed):
    cfg = RunConfig(seed=seed)
    kinds = IDENTITY_RUNNERS[name][0]
    a, b = identity_rng(cfg, name), identity_rng(cfg, name)
    chunk = a.standard_normal((cfg.samples, sum(width for width, _ in kinds)))
    assert_same_bits(chunk, reference_draws(b, kinds, cfg.samples))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("cfg", [RunConfig(samples=CHUNK + 3),
                                 RunConfig(samples=200, pmax_over_m=1000.0)],
                         ids=["chunk_boundary", "refusals"])
def test_sweep_residuals_equal_the_reference_stream(cfg):
    refused = []
    for name in SAMPLED:
        residuals = swept(name, cfg)
        assert_same_bits(residuals, reference_residuals(name, cfg))
        if np.isnan(residuals[-1]):
            refused.append(name)
    # the second run takes the refusal path: a NaN residual ends the stream
    assert bool(refused) == (cfg.pmax_over_m == 1000.0)


@pytest.mark.parametrize("sampler, width, build", [
    (lambda rng: random_momentum(rng, 1.7, 30.0), BALL,
     lambda d: momenta_from_draws(d, 1.7, 30.0)),
    (lambda rng: random_velocity(rng, 0.5), BALL, lambda d: velocities_from_draws(d, 0.5)),
    (random_rotation, ROTATION, rotations_from_draws),
    (lambda rng: random_lorentz(rng, 0.9), LORENTZ, lambda d: lorentz_from_draws(d, 0.9)),
], ids=["momentum", "velocity", "rotation", "lorentz"])
def test_samplers_leave_the_generator_where_the_reference_does(sampler, width, build):
    # the reference takes one standard_normal(width) per sample, and an
    # n-row draw takes the same numbers
    a, b, c = (np.random.default_rng(5) for _ in range(3))
    samples = [sampler(a) for _ in range(12)]
    for sample in samples:
        assert_same_bits(sample, build(b.standard_normal(width)))
    assert_same_bits(np.array(samples), build(c.standard_normal((12, width))))
    assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(seed=7, pmax_over_m=30.0, vmax=0.999)],
                         ids=["default", "high_boost"])
@pytest.mark.parametrize("name", SAMPLED)
def test_one_sample_alone_equals_the_sweep(name, cfg):
    kinds, n = IDENTITY_RUNNERS[name][0], 50
    samples = build_samples(cfg, kinds, reference_draws(identity_rng(cfg, name), kinds, n))
    residuals = swept(name, cfg)[:n]
    # a point (no batch axis), as the CLI passes it, and a batch of one
    points = np.array([evaluate_at(name, cfg.mass, *(s[i] for s in samples)) for i in range(n)])
    batches = np.concatenate([evaluate_at(name, cfg.mass, *(s[i:i + 1] for s in samples))
                              for i in range(n)])
    assert_same_bits(points, residuals)
    assert_same_bits(batches, residuals)


class CountingGenerator:
    """A generator whose method calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def test_sweep_draws_each_chunk_in_one_call(monkeypatch):
    # the per-sample, per-kind generator calls were the sweep's hot spot
    real, generators = verify.identity_rng, {}
    monkeypatch.setattr(verify, "identity_rng", lambda cfg, name: generators.setdefault(
        name, CountingGenerator(real(cfg, name))))
    cfg = RunConfig(samples=CHUNK + 3)
    for name in SAMPLED:
        assert swept(name, cfg).size == CHUNK + 3
    assert {name: g.calls for name, g in generators.items()} == {name: 2 for name in SAMPLED}


# --- distributions, at a fixed seed ----------------------------------------

DRAWS = 10 ** 5


def test_ball_points_are_uniform_in_the_ball():
    p = momenta_from_draws(np.random.default_rng(11).standard_normal((DRAWS, BALL)), 1.0, 1.0)
    r = np.sqrt(np.vecdot(p[:, 1:], p[:, 1:]))
    assert r.max() <= 1.0
    assert stats.kstest(r ** 3, "uniform").pvalue > 1e-3
    # the direction is isotropic: its height is uniform in [-1, 1]
    assert stats.kstest(p[:, 3] / r, stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3


def test_bloch_length_is_uniform():
    xi = verify._BLOCH[1](RunConfig(), np.random.default_rng(12).standard_normal((DRAWS, 6)))
    length = np.sqrt(np.vecdot(xi, xi))
    assert length.max() <= 1.0
    assert stats.kstest(length, "uniform").pvalue > 1e-3


def test_sign_is_balanced():
    signs = verify._SIGN[1](RunConfig(), np.random.default_rng(13).standard_normal((DRAWS, 1)))
    assert set(signs.tolist()) == {-1, 1}
    assert stats.binomtest(int((signs > 0).sum()), DRAWS).pvalue > 1e-3


def test_rotations_are_scipys_and_haar():
    q = np.random.default_rng(14).standard_normal((DRAWS, ROTATION))
    R = rotations_from_draws(q)
    assert np.array_equal(R, Rotation.from_quat(q).as_matrix())
    # a Haar rotation takes a fixed axis to a uniform direction
    assert stats.kstest(R[:, 2, 2], stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3
