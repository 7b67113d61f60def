import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.transform import Rotation

from diracspin import lorentz
from diracspin.amplitudes import amplitude
from diracspin.clifford import GAMMA, PAULI
from diracspin.lorentz import (_LIFT, VMAX_HARD, _sigma_trace, _sl2c_lift, bispinor_inverse,
                               bispinor_rep, boost_from_velocity, lorentz_from_draws,
                               lorentz_gamma, random_lorentz, random_momentum, random_rotation,
                               random_velocity, rotation_angle, rotations_from_draws,
                               standard_boost, su2_from_so3, wigner_d, wigner_rotation,
                               wigner_rotation_closed)
from diracspin.minkowski import (METRIC, SampleRefused, is_proper_orthochronous, lorentz_matrix,
                                 lorentz_residual, minkowski_dot, on_shell)
from diracspin.verify import evaluate_at
from _reference import (EXACT_BATCHES, amplitude_via_boost, assert_same_bits,
                        bispinor_from_params, boost_params, dense_bispinor_inverse,
                        dense_sigma_trace, lorentz_from_params, rotation_params)

# Frozen reference: boost v = 0.5 x, momentum along y with |p| = gamma/2 and
# m = 1 rotates the spin frame about z by arctan(sqrt(3)/12).
PERP_ANGLE = 0.14334756890536535

small_v = st.floats(-0.95, 0.95)


def test_boost_frozen_example():
    L = boost_from_velocity([0.6, 0.0, 0.0])
    expect = np.array([[1.25, -0.75, 0, 0],
                       [-0.75, 1.25, 0, 0],
                       [0, 0, 1, 0],
                       [0, 0, 0, 1]])
    assert_allclose(L, expect, atol=1e-15)


def test_gamma_factor():
    assert lorentz_gamma(np.zeros(3)) == 1.0
    assert lorentz_gamma([0.6, 0, 0]) == pytest.approx(1.25)


@given(small_v, small_v)
def test_boost_inverse_pairs(vx, vy):
    v = np.array([vx, vy, 0.0])
    if np.linalg.norm(v) >= 0.99:
        return
    L = boost_from_velocity(v)
    assert_allclose(L @ boost_from_velocity(-v), np.eye(4), atol=1e-12)


def test_extreme_speed_boosts_are_proper_lorentz_matrices(rng):
    # `lorentz_gamma` is the boost's one check; every boost it lets through,
    # up to |v|^2 = 1 - 1e-16 (gamma ~ 1e8), is a proper orthochronous
    # Lorentz matrix within `lorentz_matrix`'s metric tolerance
    n = rng.standard_normal((4000, 3))
    speed2 = 1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 4000)
    v = n / np.linalg.norm(n, axis=1, keepdims=True) * np.sqrt(speed2)[:, None]
    v = v[np.vecdot(v, v) < 1.0]
    assert len(v) > 3900
    L = boost_from_velocity(v)
    assert L[:, 0, 0].max() > 1e7
    lorentz_matrix(L, proper=True)
    for row in (0, np.argmax(L[:, 0, 0])):
        lorentz_matrix(boost_from_velocity(v[row]), proper=True)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        boost_from_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        boost_from_velocity([0.8, 0.8, 0.0])


def test_vmax_hard_is_subluminal():
    assert 0.0 < VMAX_HARD < 1.0


def test_standard_boost_first_column(momenta):
    for p4 in momenta:
        L = standard_boost(p4, 1.0)
        assert_allclose(L[:, 0], p4, rtol=1e-12)
        assert lorentz_residual(L) < 1e-10 * max(1.0, np.abs(L).max() ** 2)


def test_standard_boost_uses_given_energy(momenta):
    # the caller's p^0 is used as given, not recomputed from the spatial part:
    # with p^0 nudged off shell by ~1e-13 the matrix is still the closed form
    # built from that p^0, bit for bit
    m = 1.3
    for p4 in momenta[:10] * m:
        p4[0] *= 1.0 + 1e-13
        p0, pv = p4[0], p4[1:]
        ref = np.eye(4)
        ref[0, 0] = p0 / m
        ref[0, 1:] = ref[1:, 0] = pv / m
        ref[1:, 1:] += np.outer(pv, pv) / (m * (m + p0))
        assert np.array_equal(standard_boost(p4, m), ref)


def test_standard_boost_velocity_reading(momenta):
    # the rest frame of p moves with velocity -p/p0 relative to the lab
    for p4 in momenta[:10]:
        assert_allclose(standard_boost(p4, 1.0),
                        boost_from_velocity(-p4[1:] / p4[0]), atol=2e-11)


def test_standard_boost_rest_identity():
    assert_allclose(standard_boost(on_shell(3.0, np.zeros(3)), 3.0), np.eye(4), atol=0)


def test_standard_boost_refuses_overflow_up_front():
    # a finite p^0/m, m (m + p^0) or pvec (x) pvec that overflows used to
    # raise a RuntimeWarning in the build, and p^0 = -m an invalid 0/0
    stack = on_shell(1.0, np.zeros((3, 3)))
    stack[1] = [1e200, 1e199, 0.0, 0.0]
    cases = [(np.array([1e308, 0.0, 0.0, 0.0]), 1e-100,
              r"^p4 energy 1e\+308 overflows p\^0/m for mass = 1e-100$"),
             (np.array([1e200, 0.0, 0.0, 0.0]), 1e200,
              r"^p4 energy 1e\+200 overflows m \(m \+ p\^0\) for mass = 1e\+200$"),
             (stack, 1.0, r"^p4 momentum entries up to 1e\+199 overflow pvec/m or pvec \(x\) "
                          r"pvec / \(m \(m \+ p\^0\)\) for mass = 1.0 \(sample 1\)$"),
             (np.array([-1.0, 0.0, 0.0, 0.0]), 1.0, r"^matrix has a non-finite entry$")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p4, m, message in cases:
            with pytest.raises(SampleRefused, match=message):
                standard_boost(p4, m)
    assert_array_equal(standard_boost(stack[::2], 1.0), np.eye(4)[None].repeat(2, axis=0))


def test_wigner_rotation_is_a_rotation(rng):
    L = random_lorentz(rng)
    p4 = random_momentum(rng, 1.0)
    R3 = wigner_rotation(L, p4, 1.0)
    assert R3.shape == (3, 3)
    assert_allclose(R3 @ R3.T, np.eye(3), atol=4e-15)
    assert np.linalg.det(R3) == pytest.approx(1.0, abs=4e-15)


def test_wigner_closed_matches_brute(rng):
    # the registry's closed form against its brute-force triple product: the
    # split of wigner_rotation would give the closed form itself for a boost
    V = np.array([random_velocity(rng) for _ in range(300)])
    P = np.array([random_momentum(rng, 1.0) for _ in range(300)])
    assert evaluate_at("wigner_closed_form", 1.0, V, P).max() < 1e-10


def test_wigner_batch_matches_single(rng):
    # a stack of momenta is the same computation as one call per momentum
    L = random_lorentz(rng)
    P = np.array([random_momentum(rng, 1.0) for _ in range(17)])
    R3 = wigner_rotation(L, P, 1.0)
    assert R3.shape == (17, 3, 3)
    for k in range(len(P)):
        assert np.array_equal(R3[k], wigner_rotation(L, P[k], 1.0))
    # a (2, 3, 4) stack keeps its leading shape, and the closed form against
    # the brute-force product does too
    v3, P6 = random_velocity(rng), P[:6].reshape(2, 3, 4)
    assert wigner_rotation(boost_from_velocity(v3), P6, 1.0).shape == (2, 3, 3, 3)
    residuals = evaluate_at("wigner_closed_form", 1.0, v3, P6)
    assert residuals.shape == (2, 3) and (residuals < 1e-10).all()


def test_wigner_rotation_of_an_off_shell_energy_is_a_rotation(rng):
    # the split takes p^0 as given: an input energy off shell by a relative
    # 1e-9 moves the half-angle t by about that much, and R stays a rotation
    # to roundoff
    L = random_lorentz(rng)
    for p4 in (random_momentum(rng, 1.0) for _ in range(10)):
        R3 = wigner_rotation(L, p4 * np.array([1.0 + 1e-9, 1.0, 1.0, 1.0]), 1.0)
        assert np.abs(R3 @ R3.T - np.eye(3)).max() < 4e-15
        assert np.abs(R3 - wigner_rotation(L, p4, 1.0)).max() < 1e-8


@pytest.mark.parametrize("bad, message", [
    ("p4-nan", r"p4 must have finite entries"),
    ("p4-energy", r"p4 needs a positive energy, got -3.0"),
    ("L-nan", r"L must have finite entries"),
    ("mass-nan", r"mass must be positive and finite, got nan"),
    ("mass-zero", r"mass must be positive and finite, got 0.0"),
    ("mass-negative", r"mass must be positive and finite, got -1.0"),
    ("mass-underflow", r"mass = 1e-160 underflows the mass squared: .*"),
    ("L-time", r"L needs L\^0_0 >= 1, got -1.0"),
])
def test_wigner_rotation_refuses_bad_samples(rng, bad, message):
    # each used to return NaN rotations, warn ("invalid value encountered in
    # divide", "overflow encountered in cast") or accept p^0 < 0; each is
    # refused naming the first bad sample, with no warning.  The mass is one
    # scalar, refused by check_mass before any sample is looked at.
    Ls = np.stack([random_lorentz(rng, 0.5) for _ in range(5)])
    p4 = np.array([random_momentum(rng, 1.0) for _ in range(5)])
    m = 1.0
    if bad == "p4-nan":
        p4[3, 2] = p4[4, 1] = np.nan
    elif bad == "p4-energy":
        p4[3, 0], p4[4, 0] = -3.0, 0.0
    elif bad == "L-nan":
        Ls[3, 1, 2] = Ls[4, 0, 0] = np.nan
    elif bad == "L-time":
        Ls[3], Ls[4] = -np.eye(4), np.diag([0.5, 1.0, 1.0, 1.0])
    else:
        m = {"mass-nan": np.nan, "mass-zero": 0.0, "mass-negative": -1.0,
             "mass-underflow": 1e-160}[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((Ls, p4, m), (Ls[3], p4[3], m)):
                with pytest.raises(ValueError, match=rf"^{message}$") as exc:
                    wigner_rotation(*args)
                assert not isinstance(exc.value, SampleRefused)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=rf"^{message} \(sample 3\)$") as exc:
            wigner_rotation(Ls, p4, m)
        assert exc.value.index == 3
        # a single sample is refused with the same text; broadcast against a
        # single L or p4, the stack keeps its sample index
        with pytest.raises(SampleRefused, match=rf"^{message}$"):
            wigner_rotation(Ls[3], p4[3], m)
        broadcast = {"p4": (Ls[0], p4, m), "L-": (Ls, p4[0], m)}
        for prefix, args in broadcast.items():
            if bad.startswith(prefix):
                with pytest.raises(SampleRefused, match=rf"^{message} \(sample 3\)$"):
                    wigner_rotation(*args)


def test_wigner_perpendicular_frozen_angle():
    gamma = 1.0 / np.sqrt(0.75)
    v3 = np.array([0.5, 0.0, 0.0])
    p4 = np.array([gamma, 0.0, gamma / 2.0, 0.0])
    R = wigner_rotation_closed(v3, p4, 1.0)
    angle = rotation_angle(R)
    assert angle == pytest.approx(PERP_ANGLE, abs=1e-14)
    # independent closed form for perpendicular configurations:
    # tan(angle) = gv gu v u / (gv + gu), here both gammas are 2/sqrt(3)
    assert angle == pytest.approx(np.arctan(np.sqrt(3.0) / 12.0), abs=1e-14)
    # rotation happens in the v-p plane, about +z for this orientation
    assert R[2, 2] == pytest.approx(1.0, abs=1e-15)
    # Over a grid of speeds the closed form equals R_z(angle) entry by entry,
    # and the registry's brute-force product equals the closed form.
    v, u, angles = _perpendicular_speeds()
    Rz = Rotation.from_euler("z", angles[:, None]).as_matrix()
    v3, p4 = _perpendicular_samples(v, u)
    assert np.abs(wigner_rotation_closed(v3, p4, 1.0) - Rz).max() <= 1e-15
    assert evaluate_at("wigner_closed_form", 1.0, v3, p4).max() <= 1e-12


def _perpendicular_speeds():
    """Every pair (v, u) of speeds from 1e-4 to 0.99, with the angle of the
    independent perpendicular form tan(angle) = gv gu v u / (gv + gu)."""
    speeds = np.array([1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    v, u = (a.ravel() for a in np.meshgrid(speeds, speeds, indexing="ij"))
    gv, gu = 1.0 / np.sqrt(1.0 - v * v), 1.0 / np.sqrt(1.0 - u * u)
    return v, u, np.arctan(gv * gu * v * u / (gv + gu))


def _perpendicular_samples(v, u):
    """A boost at speed v along x and a unit-mass momentum at speed u along y."""
    gu, zero = 1.0 / np.sqrt(1.0 - u * u), np.zeros_like(v)
    return np.stack([v, zero, zero], -1), np.stack([gu, zero, gu * u, zero], -1)


def test_rotation_angle_matches_the_perpendicular_form_at_every_scale():
    # every digit down to the 5e-9 angle at v = u = 1e-4, where the cosine
    # (tr R - 1) / 2 alone rounds to 1
    v, u, angles = _perpendicular_speeds()
    got = rotation_angle(wigner_rotation_closed(*_perpendicular_samples(v, u), 1.0))
    assert got.shape == angles.shape and (got > 0.0).all()
    assert_allclose(got, angles, rtol=1e-14, atol=0)
    # a stack keeps its shape; the identity and a half-turn read 0 and pi
    assert rotation_angle(np.eye(3)) == 0.0
    assert rotation_angle(np.diag([1.0, -1.0, -1.0])) == np.pi
    assert rotation_angle(np.stack([np.eye(3)] * 4).reshape(2, 2, 3, 3)).shape == (2, 2)


#: (|v|, |p|/m) from moderate to extreme rapidity.
RAPIDITY_LADDER = [(0.7, 2.0), (0.9, 10.0), (0.999, 30.0), (0.99999, 1e4), (0.9999999, 1e4),
                   (0.9999999, 1e10)]


def test_wigner_parallel_gives_identity():
    # v x p = 0 exactly gives R = I bit for bit at every rapidity, parallel
    # or antiparallel
    n = np.array([0.48, -0.6, 0.64])
    for speed, pm in RAPIDITY_LADDER:
        samples = []
        for i in range(3):
            v3, pv = np.zeros(3), np.zeros(3)
            v3[i], pv[i] = speed, pm
            samples.append((v3, pv))
        # a generic direction, with p a power of two times v, so that v x p
        # is exactly zero in float arithmetic
        v3 = speed * n / np.sqrt(np.vecdot(n, n))
        samples.append((v3, 2.0 ** np.round(np.log2(pm / speed)) * v3))
        for v3, pv in samples:
            for sign in (1.0, -1.0):
                R = wigner_rotation_closed(v3, on_shell(1.0, sign * pv), 1.0)
                assert np.array_equal(R, np.eye(3)), (speed, pm, v3, sign)


#: The rows of the forward-error probe: (|v|, |p|/m).
FORWARD_ERROR_ROWS = [(0.999, 30.0), (0.99999, 1e4), (0.9999999, 1e10), (0.999999999, 1e6)]


def _exact_wigner(mp, v3, p4, m):
    """R = L_{Lp}^{-1} L L_p at the working precision of mp, for float v3
    and the float spatial momentum of p4, with L = boost_from_velocity(v3)
    and every energy on the shell."""
    v = [mp.mpf(float(x)) for x in v3]
    g = 1 / mp.sqrt(1 - sum(x * x for x in v))
    L = mp.matrix(4, 4)
    L[0, 0] = g
    for i in range(3):
        L[0, i + 1] = L[i + 1, 0] = -g * v[i]
        for j in range(3):
            L[i + 1, j + 1] = (i == j) + g * g / (1 + g) * v[i] * v[j]

    def standard(k, inverse):
        k0 = mp.sqrt(m * m + sum(x * x for x in k))
        B = mp.matrix(4, 4)
        B[0, 0] = k0 / m
        for i in range(3):
            B[0, i + 1] = B[i + 1, 0] = (-k[i] if inverse else k[i]) / m
            for j in range(3):
                B[i + 1, j + 1] = (i == j) + k[i] * k[j] / (m * (m + k0))
        return B, k0

    pv = [mp.mpf(float(x)) for x in p4[1:]]
    Lp, p0 = standard(pv, False)
    q = L * mp.matrix([p0] + pv)
    R = standard([q[1], q[2], q[3]], True)[0] * L * Lp
    return np.array([[float(R[i, j]) for j in range(1, 4)] for i in range(1, 4)])


@pytest.mark.parametrize("speed, pm", FORWARD_ERROR_ROWS)
def test_wigner_closed_forward_error_against_50_digits(speed, pm):
    # against the 50-digit product on the same float v and p, the half-angle
    # form errs by at most a few gamma eps and stays orthogonal to a few eps
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    n = rng.standard_normal((20, 2, 3))
    n[:4, 1] = n[:4, 0]  # four near-collinear samples
    n /= np.sqrt(np.vecdot(n, n))[..., None]
    v3, p4 = speed * n[:, 0], on_shell(1.0, pm * n[:, 1])
    R = wigner_rotation_closed(v3, p4, 1.0)
    u = np.finfo(float).eps / 2.0
    gamma = lorentz_gamma(v3)
    with mpmath.workdps(50):
        exact = np.array([_exact_wigner(mpmath.mp, v3[k], p4[k], mpmath.mpf(1)) for k in range(20)])
    error = np.abs(R - exact).max(axis=(-2, -1))
    assert (error <= 8.0 * gamma * u).all(), (error / (gamma * u)).max()
    orthogonality = np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3)).max(axis=(-2, -1))
    assert (orthogonality <= 16.0 * u).all(), orthogonality.max() / u


def test_wigner_zero_velocity_identity(momenta):
    for p4 in momenta[:5]:
        assert_allclose(wigner_rotation_closed(np.zeros(3), p4, 1.0), np.eye(3), atol=1e-14)


def test_wigner_cocycle(rng):
    # R(L2 L1, p) = R(L2, L1 p) R(L1, p), with L2 L1 formed in float64
    worst = 0.0
    for _ in range(60):
        L1 = random_lorentz(rng)
        L2 = random_lorentz(rng)
        p4 = random_momentum(rng, 1.0)
        R21 = wigner_rotation(L2 @ L1, p4, 1.0)
        Ra = wigner_rotation(L1, p4, 1.0)
        Rb = wigner_rotation(L2, L1 @ p4, 1.0)
        worst = max(worst, np.abs(R21 - Rb @ Ra).max())
    assert worst < 1e-10


def _random_so3(rng):
    return Rotation.random(rng=rng).as_matrix()


def test_rotations_from_draws_match_scipy_bit_for_bit():
    q = np.random.default_rng(4).normal(size=(100_000, 4))
    assert np.array_equal(rotations_from_draws(q), Rotation.from_quat(q).as_matrix())
    assert np.array_equal(rotations_from_draws(q[7]), Rotation.from_quat(q[7]).as_matrix())


def test_su2_lift_adjoint(rng):
    for _ in range(50):
        R = _random_so3(rng)
        U = su2_from_so3(R)
        assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
        adj = np.array([[0.5 * np.trace(_pauli(i) @ U @ _pauli(j) @ U.conj().T).real
                         for j in range(3)] for i in range(3)])
        assert_allclose(adj, R, atol=1e-12)


def _pauli(i):
    from diracspin.clifford import PAULI
    return PAULI[i]


def test_su2_lift_identity_branch():
    assert_allclose(su2_from_so3(np.eye(3)), np.eye(2), atol=0)


def test_su2_lift_half_turn():
    # half turn about z has trace -1; the lift must still be a valid cover
    R = Rotation.from_rotvec([0.0, 0.0, np.pi]).as_matrix()
    U = su2_from_so3(R)
    adj = np.array([[0.5 * np.trace(_pauli(i) @ U @ _pauli(j) @ U.conj().T).real
                     for j in range(3)] for i in range(3)])
    assert_allclose(adj, R, atol=1e-12)


def test_su2_rejects_non_rotation():
    with pytest.raises(ValueError):
        su2_from_so3(np.diag([1.0, 1.0, -1.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_su2_refuses_non_finite_rotation_without_warning(entry):
    R = random_rotation(np.random.default_rng(4))
    R[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (R, np.full((3, 3), entry)):
            with pytest.raises(SampleRefused, match=r"^matrix entries must be finite$") as exc:
                su2_from_so3(point)
            assert exc.value.index == 0
        # in a stack the first refused sample is named, whichever check it fails
        Rs = rotations_from_draws(np.random.default_rng(5).standard_normal((4, 4)))
        Rs[1] = R
        with pytest.raises(SampleRefused, match=r"finite \(sample 1\)$") as exc:
            su2_from_so3(Rs)
        assert exc.value.index == 1
        Rs[0] *= -1.0
        with pytest.raises(SampleRefused, match=r"proper rotation \(sample 0\)$") as exc:
            su2_from_so3(Rs)
        assert exc.value.index == 0


def _wigner_d_inputs(rng, n=5):
    L = random_lorentz(rng)
    p4 = np.array([random_momentum(rng, 1.0) for _ in range(n)])
    return L, p4, on_shell(1.0, (p4 @ L.T)[:, 1:])


def test_wigner_d_refuses_parity(rng):
    _, p4, _ = _wigner_d_inputs(rng)
    P = np.diag([1.0, -1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="not proper orthochronous"):
        wigner_d(P, p4, p4 @ P.T, 1.0)


def test_wigner_d_refuses_zero_mass(rng):
    L, p4, q4 = _wigner_d_inputs(rng)
    with pytest.raises(ValueError, match="mass must be positive"):
        wigner_d(L, p4, q4, 0.0)


@pytest.mark.parametrize("which", ["p4", "q4"])
@pytest.mark.parametrize("bad, reason", [(np.nan, "must have finite entries"),
                                         (np.inf, "must have finite entries"),
                                         ("energy", "needs a positive energy")])
def test_wigner_d_refuses_bad_samples_up_front(rng, which, bad, reason):
    # a NaN used to pass through as NaN, and an inf entry or p^0 = -3m to
    # raise a RuntimeWarning; each is refused naming the first bad sample
    L, p4, q4 = _wigner_d_inputs(rng)
    k4 = {"p4": p4, "q4": q4}[which]
    if bad == "energy":
        k4[3, 0] = -3.0
        k4[4, 0] = 0.0
        reason += ", got -3.0"  # printed as a float, not np.float64(-3.0)
    else:
        k4[3, 1] = k4[4, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=rf"^{which} {reason} \(sample 3\)$") as exc:
            wigner_d(L, p4, q4, 1.0)
    assert exc.value.index == 3
    with pytest.raises(SampleRefused, match=rf"^{which} {reason}$"):
        wigner_d(L, p4[3], q4[3], 1.0)


@pytest.mark.parametrize("which", ["p4", "q4"])
def test_wigner_d_refuses_overflowing_norm_up_front(rng, which):
    # 2m (m + k^0) of a finite k^0 near the float64 maximum used to raise
    # "overflow encountered in multiply" in the product
    L, p4, q4 = _wigner_d_inputs(rng)
    {"p4": p4, "q4": q4}[which][2, 0] = 1e308
    reason = rf"{which} energy 1e\+308 overflows 2m \(m \+ {which[0]}\^0\) for mass = 1.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=rf"^{reason} \(sample 2\)$") as exc:
            wigner_d(L, p4, q4, 1.0)
        assert exc.value.index == 2
        one = {"p4": ([1e308, 0, 0, 0], [1.0, 0, 0, 0]), "q4": ([1.0, 0, 0, 0], [1e308, 0, 0, 0])}
        with pytest.raises(SampleRefused, match=rf"^{reason}$"):
            wigner_d(np.eye(4), *one[which], 1.0)


def test_wigner_d_refuses_overflowing_product():
    # with a tiny mass, 2m (m + p^0) is finite but the product's outer
    # products b (x) a overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SampleRefused, match=r"^the Wigner matrix overflows float64 for "
                                                r"mass = 1e-150$"):
            wigner_d(np.eye(4), [1e300, 0, 0, 0], [1e300, 0, 0, 0], 1e-150)


def test_wigner_d_single_point_is_batch_row(rng):
    # one real matrix product per call; BLAS may round a one-row product
    # differently from a batch, so rows agree to rounding
    L, p4, q4 = _wigner_d_inputs(rng)
    D = wigner_d(L, p4, q4, 1.0)
    assert D.shape == (5, 2, 2)
    for k in range(5):
        assert_allclose(wigner_d(L, p4[k], q4[k], 1.0), D[k], rtol=0, atol=1e-14)


def test_params_boost_roundtrip():
    eta = np.array([0.3, -0.4, 0.5])
    speed = np.tanh(np.linalg.norm(eta))
    v3 = speed * eta / np.linalg.norm(eta)
    assert_allclose(lorentz_from_params(boost_params(eta)), boost_from_velocity(v3), atol=1e-13)


def test_params_rotation_roundtrip():
    theta = np.array([0.2, 0.1, -0.7])
    L = lorentz_from_params(rotation_params(theta))
    assert_allclose(L[0], [1, 0, 0, 0], atol=1e-15)
    assert_allclose(L[1:, 1:], Rotation.from_rotvec(theta).as_matrix(), atol=1e-13)


def test_params_generator_is_minus_metric_times_omega():
    # (i/2) omega_ab (J^ab)^mu_nu with (J^ab)^mu_nu = i (g^{a mu} delta^b_nu -
    # g^{b mu} delta^a_nu), contracted in full, is -g omega to the last bit,
    # the generator lorentz_from_params exponentiates
    eye = np.eye(4)
    J = 1j * (np.einsum("am,bn->abmn", METRIC, eye) - np.einsum("bm,an->abmn", METRIC, eye))
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal((4, 4))
        omega = a - a.T
        gen = 0.5j * np.einsum("ab,abmn->mn", omega, J)
        assert np.array_equal(gen, -METRIC @ omega)


def test_params_antisymmetry_required():
    with pytest.raises(ValueError):
        lorentz_from_params(np.ones((4, 4)))


def test_bispinor_rep_identity():
    assert_allclose(bispinor_rep(np.eye(4)), np.eye(4), atol=0)


def test_bispinor_covariance(rng):
    # S(L)^{-1} gamma^mu S(L) = L^mu_nu gamma^nu
    for _ in range(25):
        L = random_lorentz(rng)
        S = bispinor_rep(L)
        Sinv = bispinor_inverse(S)
        for mu in range(4):
            lhs = Sinv @ GAMMA[mu] @ S
            rhs = np.einsum("n,nab->ab", L[mu], GAMMA)
            assert_allclose(lhs, rhs, atol=1e-10)


def test_bispinor_inverse_is_inverse(rng):
    L = random_lorentz(rng)
    S = bispinor_rep(L)
    assert_allclose(bispinor_inverse(S) @ S, np.eye(4), atol=1e-11)


def _covariance_residual(L, S):
    Sinv = bispinor_inverse(S)
    return max(np.abs(Sinv @ GAMMA[mu] @ S - np.einsum("n,nab->ab", L[mu], GAMMA)).max()
               for mu in range(4))


def _branch_key(A):
    """First nonzero of (Re c0, Re w1, Re w2, Re w3) for A = c0 I - i w.sigma;
    the documented sign rule makes it positive."""
    c0 = np.trace(A) / 2.0
    w = np.array([0.5j * np.trace(PAULI[k] @ A) for k in range(3)])
    key = np.concatenate(([c0.real], w.real))
    return key[np.flatnonzero(key)[0]]


def test_bispinor_exp_matches_closed_lift():
    # The exponential is the brute-force reference.  The closed-form lift
    # agrees with it up to the double-cover sign, chosen so Re tr A >= 0;
    # a rotation by 4 rad > pi exponentiates onto the other branch.
    cases = [(boost_params([0.2, 0.0, -0.3]), 1.0),
             (rotation_params([0.2, 0.1, -0.7]), 1.0),
             (boost_params([0.2, 0.0, -0.3]) + rotation_params([0.5, -0.4, 0.3]), 1.0),
             (rotation_params([0.0, 4.0, 0.0]), -1.0)]
    for omega, sign in cases:
        S = bispinor_rep(lorentz_from_params(omega))
        assert_allclose(bispinor_from_params(omega), sign * S, atol=1e-13)
        assert np.trace(S[:2, :2]).real > 0.0


@pytest.mark.parametrize("p_over_m", [1e3, 1e4, 1e6])
def test_bispinor_rep_high_rapidity(p_over_m):
    # L^T g L - g of the float standard boost is of order (p0/m)^2 eps, so the
    # covariance bound is scaled by that condition number; the observed
    # residuals stay orders of magnitude below it.
    rng = np.random.default_rng(1206)
    eps, m = np.finfo(float).eps, 1.5
    for _ in range(20):
        u = rng.normal(size=3)
        p4 = on_shell(m, m * p_over_m * u / np.linalg.norm(u))
        gamma = p4[0] / m
        L = standard_boost(p4, m)
        S = bispinor_rep(L)
        assert _covariance_residual(L, S) <= gamma ** 2 * eps
        # the off-shell rounding of the float p4 itself moves the two
        # constructions apart by a relative gamma eps
        for e in (1, -1):
            v = amplitude(e, p4, m)
            assert np.abs(amplitude_via_boost(e, p4, m) - v).max() <= 2.0 * gamma * eps * np.abs(v).max()


_AXES = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
         np.array([0.48, -0.6, 0.64])]


@pytest.mark.parametrize("n", _AXES, ids=["x", "y", "z", "oblique"])
def test_half_turn_lift(n):
    R = 2.0 * np.outer(n, n) - np.eye(3)
    L = np.eye(4)
    L[1:, 1:] = R
    assert _covariance_residual(L, bispinor_rep(L)) < 1e-14
    D = su2_from_so3(R)
    adj = np.array([[0.5 * np.trace(PAULI[i] @ D @ PAULI[j] @ D.conj().T).real
                     for j in range(3)] for i in range(3)])
    assert_allclose(adj, R, atol=1e-15)
    # the sign rule: a half-turn about n lifts to -i n.sigma, n's first
    # nonzero component positive
    assert _branch_key(D) > 0.0
    assert_allclose(D, -1j * np.einsum("i,iab->ab", n, PAULI), atol=1e-15)
    assert_allclose(bispinor_rep(L)[:2, :2], D, atol=0)


def test_lift_sign_rule_random(rng):
    for _ in range(50):
        L = random_lorentz(rng)
        assert _branch_key(bispinor_rep(L)[:2, :2]) > 0.0
        assert _branch_key(su2_from_so3(random_rotation(rng))) > 0.0
        # half-turn about a random axis: tr D is zero up to rounding, so the
        # branch is whichever the rounding picks, and the rule still holds
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        D = su2_from_so3(2.0 * np.outer(n, n) - np.eye(3))
        assert _branch_key(D) > 0.0
        half = -1j * np.einsum("i,iab->ab", n, PAULI)
        assert min(np.abs(D - half).max(), np.abs(D + half).max()) < 1e-15


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_sampler_contracts(seed):
    rng = np.random.default_rng(seed)
    p4 = random_momentum(rng, 2.0, pmax_over_m=5.0)
    assert np.linalg.norm(p4[1:]) <= 10.0
    assert minkowski_dot(p4, p4) == pytest.approx(4.0, rel=1e-10)
    v3 = random_velocity(rng, vmax=0.9)
    assert np.linalg.norm(v3) <= 0.9
    L = random_lorentz(rng)
    assert is_proper_orthochronous(L)
    assert lorentz_residual(L) < 1e-10 * max(1.0, np.abs(L).max() ** 2)


def test_random_rotation_is_so3(rng):
    R = random_rotation(rng)
    assert R.shape == (3, 3)
    assert_allclose(R @ R.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-13)


def test_dot_invariance_under_random_lorentz(rng):
    for _ in range(50):
        L = random_lorentz(rng)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert minkowski_dot(L @ a, L @ b) == pytest.approx(minkowski_dot(a, b), abs=1e-8)


def test_metric_congruence(rng):
    L = random_lorentz(rng)
    assert_allclose(L.T @ METRIC @ L, METRIC, atol=1e-10 * max(1.0, np.abs(L).max() ** 2))


# --- monomial gathers against the dense products they replaced ---------------

def _lorentz_draws(batch, seed=12):
    return lorentz_from_draws(np.random.default_rng(seed).standard_normal(batch + (9,)), 0.99)


@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_bispinor_inverse_is_the_gamma0_product_bit_for_bit(batch):
    rng = np.random.default_rng(13)
    S = bispinor_rep(_lorentz_draws(batch))
    # bispinor_rep leaves exact zeros off the diagonal blocks; add signed ones
    noisy = S + rng.standard_normal(S.shape) * (rng.random(S.shape) < 0.5)
    noisy.real[rng.random(S.shape) < 0.2] = -0.0
    for X in (S, noisy):
        got = bispinor_inverse(X)
        assert got.flags.c_contiguous
        assert_same_bits(got, dense_bispinor_inverse(X))


def test_bispinor_inverse_keeps_each_samples_non_finiteness():
    S = bispinor_rep(_lorentz_draws((6,)))
    S[1, 2, 3] = np.nan
    S[4, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        dense = dense_bispinor_inverse(S)
    finite = np.isfinite(bispinor_inverse(S)).all(axis=(-2, -1))
    assert_array_equal(finite, np.isfinite(dense).all(axis=(-2, -1)))
    assert_array_equal(finite, [True, False, True, True, False, True])


def _largest_lift_terms(L):
    """The k and M_k that `_sl2c_lift` takes the sigma_k trace of."""
    M = (L.reshape(-1, 1, 16) @ _LIFT).reshape(-1, 4, 2, 2)
    k = np.abs(M).reshape(-1, 16).argmax(axis=-1) // 4
    return k, M[np.arange(len(M)), k]


@pytest.mark.parametrize("batch", EXACT_BATCHES)
def test_sigma_trace_is_the_stacked_product_bit_for_bit(batch, monkeypatch):
    L = _lorentz_draws(batch)
    k, Mk = _largest_lift_terms(L)
    assert_same_bits(_sigma_trace(k, Mk), dense_sigma_trace(k, Mk))
    # every k, on complex normals
    rng = np.random.default_rng(14)
    k = np.arange(4 * 50) % 4
    Mk = rng.standard_normal((len(k), 2, 2)) + 1j * rng.standard_normal((len(k), 2, 2))
    assert_same_bits(_sigma_trace(k, Mk), dense_sigma_trace(k, Mk))
    # and so the lift itself
    A = _sl2c_lift(L)
    monkeypatch.setattr(lorentz, "_sigma_trace", dense_sigma_trace)
    assert_same_bits(A, _sl2c_lift(L))


def test_sigma_trace_lift_keeps_each_samples_non_finiteness(monkeypatch):
    L = _lorentz_draws((6,))
    L[1, 2, 3] = np.nan
    L[4, 0, 0] = np.inf
    with np.errstate(all="ignore"):
        gathered = _sl2c_lift(L)
        monkeypatch.setattr(lorentz, "_sigma_trace", dense_sigma_trace)
        dense = _sl2c_lift(L)
    finite = np.isfinite(gathered).all(axis=(-2, -1))
    assert_array_equal(finite, np.isfinite(dense).all(axis=(-2, -1)))
    assert_array_equal(finite, [True, False, True, True, False, True])
    # The trace skips the components it does not read, but the lift divides
    # all of M_k by it: per sample, the trace and M_k together are
    # non-finite exactly where the dense trace is.
    k, Mk = _largest_lift_terms(_lorentz_draws((4,)))
    unread = [position for position in range(8) if position not in lorentz._TRACE_POSITIONS[k[2]]]
    Mk.view(float).reshape(-1, 8)[2, unread[0]] = np.nan
    with np.errstate(invalid="ignore"):
        dense = dense_sigma_trace(k, Mk)
    assert_array_equal(dense, np.where(np.arange(4) == 2, np.nan, _sigma_trace(k, Mk)))
    assert_array_equal(np.isfinite(_sigma_trace(k, Mk)) & np.isfinite(Mk).all(axis=(-2, -1)),
                       np.isfinite(dense))
