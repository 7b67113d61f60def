
import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracspin.dynamics import (GRADIENT_READINGS, ChargedState, FieldConfig, Trajectory, integrate,
                                larmor_solution, quadrupole_field, rhs, uniform_field)


def larmor_setup(b=2.0):
    state = ChargedState(q=np.array([1.0, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0]))
    return state, uniform_field(np.array([0.0, 0.0, b]))


def test_uniform_field_is_flagged():
    f = uniform_field(np.array([0.0, 0.0, 1.0]))
    assert f.uniform
    pts = np.zeros((1, 3))
    assert f.gradient_residual(pts) == 0.0


def test_quadrupole_field_linear_profile():
    G = np.array([[1.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
    f = quadrupole_field(G)
    assert not f.uniform
    x = np.array([1.0, 2.0, -1.0])
    assert_allclose(f.b(x), x @ G)
    assert f.gradient_residual(np.array([x, 2 * x])) < 1e-9


def test_gradient_residual_propagates_nan_at_later_point():
    # NaN only at the second of two points must not fold away to 0.0
    f = FieldConfig(b=lambda x: np.full(3, np.nan) if x[0] > 0.5 else np.zeros(3),
                    grad_b=lambda x: np.zeros((3, 3)))
    assert f.gradient_residual(np.zeros((1, 3))) == 0.0
    assert not np.isfinite(f.gradient_residual(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])))


def test_quadrupole_rejects_bad_shape():
    with pytest.raises(ValueError):
        quadrupole_field(np.eye(2))


def test_state_requires_g_two():
    # g = 2 is built into the equations of motion; the state takes no g
    with pytest.raises(TypeError):
        ChargedState(q=np.zeros(3), xi=np.zeros(3), g=2.1)


def test_rhs_hand_example():
    # e = m = 1, q = x, B = z: dq = q x B = -y, and position moves with q/m
    s = ChargedState(q=np.array([1.0, 0.0, 0.0]), xi=np.array([0.0, 1.0, 0.0]))
    dq, dxi, dx = rhs(s, uniform_field(np.array([0.0, 0.0, 1.0])))
    assert_allclose(dq, [0.0, -1.0, 0.0])
    assert_allclose(dxi, [1.0, 0.0, 0.0])
    assert_allclose(dx, s.q)


def test_rhs_gradient_force_readings():
    G = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s = ChargedState(q=np.zeros(3), xi=np.array([0.0, 1.0, 0.0]), x=np.zeros(3))
    dq_sg, _, _ = rhs(s, quadrupole_field(G), reading="stern-gerlach")
    dq_t, _, _ = rhs(s, quadrupole_field(G), reading="transposed")
    # G xi = (1, 0, 0)/2 force; G^T xi = 0 here
    assert_allclose(dq_sg, [0.5, 0.0, 0.0])
    assert_allclose(dq_t, [0.0, 0.0, 0.0])


def test_integrate_matches_larmor():
    state, field = larmor_setup(b=2.0)
    # angular speed eB/m = 2, quarter period pi/4
    traj = integrate(state, field, np.pi / 4.0, 400)
    q_exact, xi_exact = larmor_solution(state, np.array([0.0, 0.0, 2.0]), traj.t)
    assert np.abs(traj.q - q_exact).max() < 1e-9
    assert np.abs(traj.xi - xi_exact).max() < 1e-9


def test_larmor_rotation_sense():
    # positive charge in B = +z: q rotates clockwise in the xy plane
    state, _ = larmor_setup(b=1.0)
    q, _ = larmor_solution(state, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.1]))
    assert q[1, 1] < 0.0


def test_integrate_fourth_order_convergence():
    state, field = larmor_setup()
    b3 = np.array([0.0, 0.0, 2.0])

    def endpoint_error(steps, t_final):
        traj = integrate(state, field, t_final, steps)
        q_exact, _ = larmor_solution(state, b3, traj.t[-1:])
        return np.abs(traj.q[-1] - q_exact[0]).max()

    # an eighth of a period, and one full period (2 pi / |B|) halved three times
    for t_final, steps in ((np.pi / 4.0, (40, 80)), (np.pi, (125, 250, 500, 1000))):
        errors = [endpoint_error(n, t_final) for n in steps]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((3.8 < orders) & (orders < 4.2)), orders


def test_integration_conserves_geometry():
    state, field = larmor_setup()
    traj = integrate(state, field, 2.0, 1500)
    q_norm = np.linalg.norm(traj.q, axis=1)
    xi_norm = np.linalg.norm(traj.xi, axis=1)
    assert np.abs(q_norm - q_norm[0]).max() < 1e-11
    assert np.abs(xi_norm - xi_norm[0]).max() < 1e-11
    # longitudinal component along B stays put
    assert np.abs(traj.q[:, 2]).max() == 0.0


def test_zero_field_free_motion():
    s = ChargedState(q=np.array([0.5, 0.0, 0.0]), xi=np.array([0.0, 1.0, 0.0]),
                     x=np.array([1.0, 0.0, 0.0]))
    traj = integrate(s, uniform_field(np.zeros(3)), 4.0, 10)
    assert_allclose(traj.q, np.broadcast_to(s.q, traj.q.shape), atol=0)
    assert_allclose(traj.xi, np.broadcast_to(s.xi, traj.xi.shape), atol=0)


def test_quadrupole_trajectory_tracks_position():
    G = np.diag([1.0, 1.0, -2.0])
    s = ChargedState(q=np.array([0.1, 0.0, 0.0]), xi=np.array([0.0, 0.0, 1.0]))
    traj = integrate(s, quadrupole_field(G), 1.0, 200)
    assert traj.include_position
    assert traj.x.shape == (201, 3)
    # x follows q/m, so x stays near the origin at these scales
    assert np.abs(traj.x).max() < 1.0


def test_readings_agree_for_symmetric_gradient():
    G = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.0], [0.0, 0.0, -0.1]])
    s = ChargedState(q=np.array([0.2, 0.1, 0.0]), xi=np.array([0.0, 0.6, 0.8]))
    a = integrate(s, quadrupole_field(G), 2.0, 300, reading="stern-gerlach")
    b = integrate(s, quadrupole_field(G), 2.0, 300, reading="transposed")
    assert np.abs(a.q - b.q).max() < 1e-13


def test_readings_differ_for_asymmetric_gradient():
    G = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s = ChargedState(q=np.zeros(3), xi=np.array([0.5, 0.5, 0.0]))
    a = integrate(s, quadrupole_field(G), 1.0, 100, reading="stern-gerlach")
    b = integrate(s, quadrupole_field(G), 1.0, 100, reading="transposed")
    assert np.abs(a.q - b.q).max() > 1e-3


def test_unknown_reading_rejected():
    s, f = larmor_setup()
    with pytest.raises(ValueError):
        integrate(s, f, 1.0, 10, reading="sideways")


def test_csv_contract_uniform():
    state, field = larmor_setup()
    traj = integrate(state, field, 1.0, 8)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,qx,qy,qz,xix,xiy,xiz"
    assert len(lines) == 10  # header + steps + 1
    # 17 significant digits round-trip exactly
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert_allclose(parsed[:, 1:4], traj.q, atol=0)


def test_csv_contract_with_position():
    G = np.diag([0.1, 0.1, -0.2])
    s = ChargedState(q=np.zeros(3), xi=np.array([1.0, 0.0, 0.0]))
    traj = integrate(s, quadrupole_field(G), 0.5, 4)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "t,qx,qy,qz,xix,xiy,xiz,x,y,z"


def test_csv_text_is_format_17g():
    # -0, a subnormal and values needing all 17 digits print as format(v, ".17g")
    t = np.array([0.0, 5e-324])
    q = np.array([[-0.0, 1.0 / 3.0, 1e300], [2.2250738585072014e-308, -1e-310, 0.1]])
    xi = np.array([[0.6, -0.0, 0.8], [1.0, 2.0, -3.5]])
    x = np.array([[1e-5, 123456789.0, -0.0], [4e-320, 0.0, 1.5]])
    for include_position, cols in ((False, 7), (True, 10)):
        traj = Trajectory(t=t, q=q, xi=xi, x=x, include_position=include_position)
        rows = np.column_stack([t, q, xi, x])[:, :cols]
        body = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        lines = traj.to_csv().split("\n", 1)
        assert lines[1] == body
        assert ",-0," in body and "4.9406564584124654e-324" in body


def test_divergent_run_aborts_with_context():
    s = ChargedState(q=np.array([1e150, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0]))
    f = quadrupole_field(np.eye(3) * 1e160)
    with pytest.raises(RuntimeError) as exc:
        integrate(s, f, 1e6, 5)
    assert str(exc.value) == "integration produced non-finite values at step 1, t = 200000"


def test_divergent_run_names_first_bad_step():
    # RK4 amplifies a rotation with omega h = 4 by ~7.6 per step, so the
    # state grows until a step overflows part-way through the run.
    s = ChargedState(q=np.array([1.0, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0]))
    f = uniform_field(np.array([0.0, 0.0, 4.0]))
    with pytest.raises(RuntimeError) as exc:
        integrate(s, f, 400.0, 400)
    assert str(exc.value) == "integration produced non-finite values at step 349, t = 349"


def test_large_finite_state_is_not_refused():
    # Every entry is finite although their sum overflows float64.  The
    # entries sit in the position, since a Bloch vector has |xi| <= 1.
    s = ChargedState(q=np.zeros(3), xi=np.array([1.0, 0.0, 0.0]), x=np.full(3, 1e308))
    traj = integrate(s, uniform_field(np.zeros(3)), 1.0, 4)
    assert (traj.x == 1e308).all()


@pytest.mark.parametrize("xi", [[2.0, 0.0, 0.0], [1e308, 1e308, 0.0], [np.nan, 0.0, 0.0]])
def test_state_refuses_non_bloch_vector(xi):
    with pytest.raises(ValueError, match=r"\|xi\| <= 1"):
        ChargedState(q=np.zeros(3), xi=np.array(xi))


def test_state_accepts_unit_bloch_vector_up_to_rounding():
    xi = np.array([0.6, 0.8, 0.0]) * (1.0 + 1e-13)
    assert (ChargedState(q=np.zeros(3), xi=xi).xi == xi).all()


def test_trajectory_type():
    state, field = larmor_setup()
    traj = integrate(state, field, 0.1, 2)
    assert isinstance(traj, Trajectory)
    assert traj.t.shape == (3,)
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(0.1)


# --- the plain-float stages against the 3-vector numpy form ---------------------
# The reference below is RK4 written on numpy 3-vectors, as the stages were
# before `_rate` went to plain floats: np.cross for the rotations and a matmul
# G @ xi for the force, with B and dB read from callables at every stage.
# `integrate` and `rhs` must give its bytes exactly, for every field kind.

def _reference_rate(y, b_at, grad_at, e_over_m, mass):
    q, xi, x = y[:3], y[3:6], y[6:]
    B = b_at(x)
    half = 0.5 * e_over_m
    return np.concatenate([e_over_m * np.cross(q, B) + half * (grad_at(x) @ xi),
                           e_over_m * np.cross(xi, B), q / mass])


def _reference_integrate(s0, b_at, grad_at, t_final, steps):
    h = float(t_final) / steps
    half, sixth = 0.5 * h, h / 6.0
    t = np.linspace(0.0, float(t_final), steps + 1)
    consts = (b_at, grad_at, s0.charge / s0.mass, s0.mass)
    y = np.concatenate([s0.q, s0.xi, s0.x])
    rows = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = _reference_rate(y, *consts)
            k2 = _reference_rate(y + half * k1, *consts)
            k3 = _reference_rate(y + half * k2, *consts)
            k4 = _reference_rate(y + h * k3, *consts)
            y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(y).all():
                raise RuntimeError(f"integration produced non-finite values at step {k}, t = {t[k]:.6g}")
            rows.append(y)
    table = np.array(rows)
    return t, table[:, :3], table[:, 3:6], table[:, 6:]


def _reference_field(kind, data, reading):
    """(b_at, grad_at) of the numpy form for a uniform B or a gradient G."""
    if kind == "uniform":
        zero = np.zeros((3, 3))
        return (lambda x: data), (lambda x: zero)
    M = data.T if reading == "transposed" else data
    return (lambda x: x @ data), (lambda x: M)


def _signed_zeros(rng, v):
    """v with about one entry in five replaced by -0.0."""
    v = np.array(v, dtype=float)
    v[rng.random(v.shape) < 0.2] = -0.0
    return v


def _random_config(rng, i):
    kind = ("uniform", "symmetric", "general")[i % 3]
    reading = GRADIENT_READINGS[(i // 3) % 2]
    xi = rng.standard_normal(3)
    xi *= rng.uniform(0.0, 1.0) / np.linalg.norm(xi)
    s = ChargedState(q=_signed_zeros(rng, rng.standard_normal(3)), xi=_signed_zeros(rng, xi),
                     x=_signed_zeros(rng, rng.standard_normal(3)),
                     charge=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)),
                     mass=float(rng.uniform(0.2, 5.0)))
    if kind == "uniform":
        data = _signed_zeros(rng, rng.standard_normal(3) * rng.uniform(0.1, 5.0))
        f = uniform_field(data)
    else:
        data = rng.standard_normal((3, 3))
        if kind == "symmetric":
            data = data + data.T
        data = _signed_zeros(rng, data)
        f = quadrupole_field(data)
        kind = "quadrupole"
    return s, f, _reference_field(kind, data, reading), reading


def _trajectory_bytes(traj):
    return [a.tobytes() for a in (traj.t, traj.q, traj.xi, traj.x)]


def _outcome(run):
    """The bytes a run returns, or the text of the RuntimeError it raises."""
    try:
        return run()
    except RuntimeError as exc:
        return str(exc)


def test_integrate_and_rhs_equal_numpy_form_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for i in range(300):
        s, f, (b_at, grad_at), reading = _random_config(rng, i)
        t_final, steps = float(rng.uniform(0.1, 10.0)), int(rng.integers(1, 40))
        assert _outcome(lambda: _trajectory_bytes(integrate(s, f, t_final, steps, reading=reading))) == \
            _outcome(lambda: [a.tobytes() for a in _reference_integrate(s, b_at, grad_at, t_final, steps)]), i
        ref = _reference_rate(np.concatenate([s.q, s.xi, s.x]), b_at, grad_at, s.charge / s.mass, s.mass)
        assert np.concatenate(rhs(s, f, reading=reading)).tobytes() == ref.tobytes(), i


@pytest.mark.parametrize("kind, data, s, t_final, steps", [
    ("uniform", np.array([0.0, 0.0, 4.0]),
     ChargedState(q=np.array([1.0, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0])), 400.0, 400),
    ("quadrupole", np.eye(3) * 1e160,
     ChargedState(q=np.array([1e150, 0.0, 0.0]), xi=np.array([1.0, 0.0, 0.0])), 1e6, 5),
])
def test_divergent_run_raises_where_numpy_form_does(kind, data, s, t_final, steps):
    f = uniform_field(data) if kind == "uniform" else quadrupole_field(data)
    for reading in GRADIENT_READINGS:
        with pytest.raises(RuntimeError) as exc:
            integrate(s, f, t_final, steps, reading=reading)
        with pytest.raises(RuntimeError) as ref:
            _reference_integrate(s, *_reference_field(kind, data, reading), t_final, steps)
        assert str(exc.value) == str(ref.value)


def test_callables_alone_integrate_like_the_factory_fields():
    # A FieldConfig without data goes through b and grad_b at every stage,
    # and lands on the same bytes as the factory field with the same data.
    rng = np.random.default_rng(7)
    for i in range(24):
        s, made, _, reading = _random_config(rng, i)
        if made.uniform:
            b3, zero = made.constant, np.zeros((3, 3))
            plain = FieldConfig(b=lambda x: np.array(b3), grad_b=lambda x: zero, uniform=True)
        else:
            G = made.gradient
            plain = FieldConfig(b=lambda x: x @ G, grad_b=lambda x: G)
        assert plain.constant is None and plain.gradient is None
        a = integrate(s, made, 3.0, 25, reading=reading)
        b = integrate(s, plain, 3.0, 25, reading=reading)
        assert _trajectory_bytes(a) == _trajectory_bytes(b), i
        assert a.include_position == b.include_position
        assert np.concatenate(rhs(s, made, reading)).tobytes() == np.concatenate(rhs(s, plain, reading)).tobytes()


def test_uniform_field_refuses_bad_shape():
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        uniform_field(np.zeros(2))
