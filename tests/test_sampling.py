"""The sweep's in-place fill against a literal per-sample drawer.

The reference below takes each sample's random numbers with the calls the
samplers were first written with, one sample and one kind at a time.  The
fill must take the same numbers, bit for bit and sign bits included, and
leave the generator where the reference leaves it; so must every
one-at-a-time sampler, since callers interleave them with their own draws.
A swept sample evaluated on its own must give its swept residual, bit for
bit, since the CLI's point reports evaluate one sample through the same
entry point.
"""
import numpy as np
import pytest

from diracspin import verify
from diracspin.lorentz import (fill_draws, lorentz_from_draws, momenta_from_draws,
                               random_lorentz, random_momentum, random_rotation, random_velocity,
                               rotations_from_draws, velocities_from_draws)
from diracspin.verify import (CHUNK, IDENTITY_RUNNERS, RunConfig, evaluate_at, identity_rng,
                              sample_residuals)


def ball(rng):
    return [*rng.normal(size=3), rng.uniform() ** (1.0 / 3.0)]


def rotation(rng):
    return [*rng.normal(size=4)]


def lorentz(rng):
    return rotation(rng) + ball(rng)


def bloch(rng):
    return [*rng.normal(size=3), rng.uniform(0.0, 1.0)]


def sign(rng):
    return [rng.integers(0, 2)]


#: The reference drawer of each sample kind of the registry.
REFERENCE = [(verify._MOMENTUM, ball), (verify._VELOCITY, ball), (verify._LORENTZ, lorentz),
             (verify._ROTATION, rotation), (verify._BLOCH, bloch), (verify._SIGN, sign)]

SAMPLED = [name for name, (kinds, *_) in IDENTITY_RUNNERS.items() if kinds]


def reference_draws(rng, kinds, n):
    """n samples' numbers, sample by sample and kind by kind, one row each."""
    drawers = [next(draw for kind, draw in REFERENCE if kind is k) for k in kinds]
    return np.array([[x for draw in drawers for x in draw(rng)] for _ in range(n)], dtype=float)


def build_samples(cfg, kinds, rows):
    """The samples of each kind, built from their columns of the rows."""
    samples, col = [], 0
    for layout, build in kinds:
        samples.append(build(cfg, rows[:, col:col + len(layout)]))
        col += len(layout)
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


def assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_every_sample_kind_has_a_reference():
    kinds = {id(k) for name in SAMPLED for k in IDENTITY_RUNNERS[name][0]}
    assert kinds == {id(kind) for kind, _ in REFERENCE}


@pytest.mark.parametrize("seed", [42, 7, 3])
@pytest.mark.parametrize("name", SAMPLED)
def test_fill_takes_the_reference_numbers(name, seed):
    cfg = RunConfig(seed=seed)
    kinds = IDENTITY_RUNNERS[name][0]
    a, b = identity_rng(cfg, name), identity_rng(cfg, name)
    layout = "".join(layout for layout, _ in kinds)
    assert_same_bits(fill_draws(a, layout, cfg.samples), reference_draws(b, kinds, cfg.samples))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("cfg", [RunConfig(samples=CHUNK + 3),
                                 RunConfig(samples=200, pmax_over_m=1000.0)],
                         ids=["chunk_boundary", "refusals"])
def test_sweep_residuals_equal_the_reference_stream(cfg):
    refused = []
    for name in SAMPLED:
        swept = np.concatenate(list(sample_residuals(name, cfg)))
        assert_same_bits(swept, reference_residuals(name, cfg))
        if np.isnan(swept[-1]):
            refused.append(name)
    # the second run takes the refusal path: a NaN residual ends the stream
    assert bool(refused) == (cfg.pmax_over_m == 1000.0)


@pytest.mark.parametrize("sampler, draw, build", [
    (lambda rng: random_momentum(rng, 1.7, 30.0), ball,
     lambda d: momenta_from_draws(d, 1.7, 30.0)),
    (lambda rng: random_velocity(rng, 0.5), ball, lambda d: velocities_from_draws(d, 0.5)),
    (random_rotation, rotation, rotations_from_draws),
    (lambda rng: random_lorentz(rng, 0.9), lorentz, lambda d: lorentz_from_draws(d, 0.9)),
], ids=["momentum", "velocity", "rotation", "lorentz"])
def test_samplers_leave_the_generator_where_the_reference_does(sampler, draw, build):
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(12):
        sample = sampler(a)
        assert_same_bits(sample, build(np.array(draw(b))))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(seed=7, pmax_over_m=30.0, vmax=0.999)],
                         ids=["default", "high_boost"])
@pytest.mark.parametrize("name", SAMPLED)
def test_one_sample_alone_equals_the_sweep(name, cfg):
    kinds, n = IDENTITY_RUNNERS[name][0], 50
    samples = build_samples(cfg, kinds, reference_draws(identity_rng(cfg, name), kinds, n))
    swept = np.concatenate(list(sample_residuals(name, cfg)))[:n]
    # a point (no batch axis), as the CLI passes it, and a batch of one
    points = np.array([evaluate_at(name, cfg.mass, *(s[i] for s in samples)) for i in range(n)])
    batches = np.concatenate([evaluate_at(name, cfg.mass, *(s[i:i + 1] for s in samples))
                              for i in range(n)])
    assert_same_bits(points, swept)
    assert_same_bits(batches, swept)
