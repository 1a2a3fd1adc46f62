"""Moser/Levi-Civita regularization: charts, f/b/M, Q, constrained flow,
and the closed-form Kepler oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sectionscope.cr3bp import EARTH_MOON_MU, hamiltonian, lagrange_points, \
    sample_shell_states
from sectionscope.errors import (ConfigError, NorthPoleError,
                                 SecondaryCollisionError, ZeroVError)
from sectionscope import flows
from sectionscope.regularize import (MoserChart, _q_gradient, chart_rows,
                                     chart_to_stereo, constraint_residual,
                                     kepler_oracles, levi_civita,
                                     project_constraints,
                                     project_constraints_jacobian,
                                     q_field_jacobian_rows, q_rhs_rows,
                                     stereo_to_chart)

from oracles import central_jacobian, lc_hamiltonian


def random_moser_states(rng, n):
    for _ in range(n):
        xi = rng.normal(size=4)
        xi /= np.linalg.norm(xi)
        eta = rng.normal(size=4) * 2.0
        eta -= (eta @ xi) * xi
        yield xi, eta


def test_stereo_south_pole_value():
    xi = np.array([-1.0, 0.0, 0.0, 0.0])
    eta = np.array([0.0, 1.0, 0.0, 0.0])
    x, y = stereo_to_chart(xi, eta)
    assert np.allclose(x, 0.0, atol=1e-15)
    assert np.allclose(y, [2.0, 0.0, 0.0], atol=1e-15)


def test_chart_at_zero_x():
    y = np.array([0.3, -0.7, 1.1])
    xi, eta = chart_to_stereo(np.zeros(3), y)
    assert np.allclose(xi, [-1, 0, 0, 0], atol=1e-15)
    assert eta[0] == 0.0
    assert np.allclose(eta[1:], y / 2.0, atol=1e-15)


def test_round_trips_both_directions():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3) * 2.0
        y = rng.normal(size=3) * 2.0
        xi, eta = chart_to_stereo(x, y)
        assert constraint_residual(xi, eta) < 1e-12
        x2, y2 = stereo_to_chart(xi, eta)
        worst = max(worst, np.max(np.abs(x2 - x)), np.max(np.abs(y2 - y)))
    for xi, eta in random_moser_states(rng, 1000):
        if abs(1.0 - xi[0]) < 1e-6:
            continue
        x, y = stereo_to_chart(xi, eta)
        xi2, eta2 = chart_to_stereo(x, y)
        worst = max(worst, np.max(np.abs(xi2 - xi)),
                    np.max(np.abs(eta2 - eta)))
    assert worst < 1e-12


def test_projection_identities():
    # 2/(|x|^2+1) = 1 - xi0 and |y| = (1 - xi0)|eta|
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.normal(size=3) * 3.0
        y = rng.normal(size=3) * 3.0
        xi, eta = chart_to_stereo(x, y)
        s = float(x @ x)
        assert 2.0 / (s + 1.0) == pytest.approx(1.0 - xi[0], rel=1e-13)
        assert np.linalg.norm(y) == pytest.approx(
            (1.0 - xi[0]) * np.linalg.norm(eta), rel=1e-12)


def test_north_pole_raises():
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    eta = np.array([0.0, 0.5, 0.0, 0.0])
    with pytest.raises(NorthPoleError):
        stereo_to_chart(xi, eta)


def test_fbM_consistency_identity():
    rng = np.random.default_rng(2)
    for xi, eta in random_moser_states(rng, 300):
        f, b, M = MoserChart(EARTH_MOON_MU).fbM(xi, eta, -1.7)
        assert f == pytest.approx(1.0 + (1.0 - xi[0]) * b + M, abs=1e-13)


def test_fbM_heavy_limit():
    # mu=1 regularizes the whole mass: the other-primary terms vanish
    rng = np.random.default_rng(3)
    c = -1.3
    for xi, eta in random_moser_states(rng, 100):
        f, b, M = MoserChart(1.0).fbM(xi, eta, c)
        assert b == pytest.approx(-(c + 0.5), abs=1e-14)
        w = xi[2] * eta[1] - xi[1] * eta[2]
        assert M == pytest.approx((1.0 - xi[0]) * w, abs=1e-13)


def test_intermediate_hamiltonian_pullback():
    # |eta| f - nu = (H - c) |q_loc| evaluated in the rotating frame
    rng = np.random.default_rng(4)
    mu, c = EARTH_MOON_MU, -1.7
    ch = MoserChart(mu, "moon")
    for _ in range(200):
        state = rng.normal(size=6)
        q_loc = np.linalg.norm(state[:3] - [mu - 1.0, 0.0, 0.0])
        if q_loc < 0.05 or np.linalg.norm(state[:3] - [mu, 0, 0]) < 0.05:
            continue
        xi, eta = ch.from_physical(state)
        f, _, _ = ch.fbM(xi, eta, c)
        lhs = np.linalg.norm(eta) * f - ch.nu
        rhs = (hamiltonian(state, mu) - c) * q_loc
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_q_level_iff_energy_level():
    rng = np.random.default_rng(5)
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.1
    ch = MoserChart(mu, "moon")
    pts = sample_shell_states(mu, c, 100, rng, component="moon",
                              min_primary_dist=0.01)
    for s in pts:
        xi, eta = ch.from_physical(s)
        assert abs(ch.Q(xi, eta, c) - ch.q_level()) < 1e-10
    # off-level states are off the Q level too (the Q deviation is
    # (H - c)|q_loc|(|eta| f + g)/... ~ small near the primary, so only
    # a margin above the on-level tolerance is asserted)
    for s in pts[:20]:
        s2 = s.copy()
        s2[3] += 1.0
        xi, eta = ch.from_physical(s2)
        assert abs(ch.Q(xi, eta, c) - ch.q_level()) > 1e-7


def test_zero_eta_gives_zero_q():
    xi = np.array([0.0, 1.0, 0.0, 0.0])
    eta = np.zeros(4)
    assert MoserChart(0.3).Q(xi, eta, -1.7) == 0.0


def fd_gradient_q(xi, eta, c, mu, primary="moon", h=1e-6):
    """Central finite-difference ambient gradient (dQ/dxi, dQ/deta)."""
    Q = MoserChart(mu, primary).Q
    gx = np.empty(4)
    ge = np.empty(4)
    for i in range(4):
        d = np.zeros(4)
        d[i] = h
        gx[i] = (Q(xi + d, eta, c) - Q(xi - d, eta, c)) / (2 * h)
        ge[i] = (Q(xi, eta + d, c) - Q(xi, eta - d, c)) / (2 * h)
    return gx, ge


def test_regularized_gradient_vs_fd():
    rng = np.random.default_rng(6)
    mu, c = EARTH_MOON_MU, -1.7
    for xi, eta in random_moser_states(rng, 50):
        grad = _q_gradient(np.concatenate([xi, eta]).tolist(), c, mu)[0]
        gx, ge = np.array(grad[:4]), np.array(grad[4:])
        scale = max(1.0, np.linalg.norm(gx), np.linalg.norm(ge))
        fx, fe = fd_gradient_q(xi, eta, c, mu)
        assert np.max(np.abs(gx - fx)) < 1e-6 * scale
        assert np.max(np.abs(ge - fe)) < 1e-6 * scale


def test_constrained_flow_preserves_constraints_and_level():
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.1
    ch = MoserChart(mu, "moon")
    rng = np.random.default_rng(7)
    s = sample_shell_states(mu, c, 1, rng, component="moon",
                            min_primary_dist=0.01)[0]
    xi, eta = ch.from_physical(s)

    def rhs(t, z):
        return ch.field(z, c)[:8]

    sol = solve_ivp(rhs, (0.0, 10.0), np.concatenate([xi, eta]),
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    for t in np.linspace(0, 10, 40):
        z = sol.sol(t)
        assert constraint_residual(z[:4], z[4:8]) < 1e-9
        assert abs(ch.Q(z[:4], z[4:8], c) - ch.q_level()) < 1e-10
        # chart image stays on the physical energy level
        if abs(1.0 - z[0]) > 1e-3:
            st = ch.to_physical(z[:4], z[4:8])
            assert abs(hamiltonian(st, mu) - c) < 1e-8


def test_round_field_generates_great_circles():
    # Hamiltonian field of |eta|^2/2 constrained to T*S^3
    rng = np.random.default_rng(8)
    xi = rng.normal(size=4)
    xi /= np.linalg.norm(xi)
    eta = rng.normal(size=4)
    eta -= (eta @ xi) * xi

    def rhs(t, z):
        x, e = z[:4], z[4:8]
        nsq = float(e @ e)
        return np.concatenate([e, -nsq * x])

    sol = solve_ivp(rhs, (0.0, 10.0), np.concatenate([xi, eta]),
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    pts = np.array([sol.sol(t)[:4] for t in np.linspace(0, 10, 200)])
    sv = np.linalg.svd(pts, compute_uv=False)
    assert sv[2] < 1e-8  # trajectory spans only a 2-plane: a great circle


def test_levi_civita_structure():
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = complex(rng.normal(), rng.normal())
        v = complex(rng.normal(), rng.normal())
        if abs(v) < 0.1:
            continue
        p1, q1 = levi_civita(u, v)
        p2, q2 = levi_civita(-u, -v)
        assert p1 == p2 and q1 == q2
        assert q1 == pytest.approx(2.0 * v * v, rel=1e-14)
    # unit-circle v with u = v: |p| = 1
    v = complex(math.cos(0.4), math.sin(0.4))
    p, q = levi_civita(v, v)
    assert abs(p) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ZeroVError):
        levi_civita(1.0, 0.0)


def test_lc_level_maps_to_kepler_level():
    # on Q = (|u|^2 + |v|^2 - 1)/2 = 0 the image has Kepler energy -1/2:
    # (|p|^2/2 - 1/|q|) + 1/2 = Q / |v|^2 scaled; verify numerically
    rng = np.random.default_rng(10)
    for _ in range(100):
        v = complex(rng.normal(), rng.normal())
        if abs(v) < 0.2 or abs(v) > 0.95:
            continue
        phase = rng.uniform(0, 2 * math.pi)
        u = math.sqrt(1.0 - abs(v) ** 2) * complex(math.cos(phase),
                                                   math.sin(phase))
        assert lc_hamiltonian(u, v) == pytest.approx(0.0, abs=1e-14)
        p, q = levi_civita(u, v)
        energy = 0.5 * abs(p) ** 2 - 1.0 / abs(q)
        assert energy == pytest.approx(-0.5, abs=1e-12)


def test_kepler_oracles_pass():
    rep = kepler_oracles(seed=0)
    assert rep.passed
    assert rep.k_flow_planarity < 1e-8
    assert rep.lc_period_spread < 1e-8 * rep.lc_period_mean
    assert rep.circular_max_xi0 < 1e-10


def test_moser_chart_roundtrip_and_energy():
    rng = np.random.default_rng(11)
    for primary in ("moon", "earth"):
        ch = MoserChart(EARTH_MOON_MU, primary)
        for _ in range(100):
            s = rng.normal(size=6)
            xi, eta = ch.from_physical(s)
            assert constraint_residual(xi, eta) < 1e-12
            back = ch.to_physical(xi, eta)
            assert np.allclose(back, s, atol=1e-12)


def test_massless_chart_rejected():
    with pytest.raises(ConfigError):
        MoserChart(0.0, "moon")
    MoserChart(0.0, "earth")  # heavy primary keeps full mass at mu=0


# --- the packed Moser field, property-based ---

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def ts3_states(draw, eta_scale=2.0, off_fiber=False):
    """(xi, eta) on T*S^3; off_fiber keeps xi0 <= 0.99 (away from the
    collision fiber xi0 = 1, which has no physical image)."""
    xi = np.array(draw(st.tuples(_unit, _unit, _unit, _unit)))
    if np.linalg.norm(xi) < 0.1:
        xi[1] += 0.5
    xi /= np.linalg.norm(xi)
    if off_fiber and xi[0] > 0.99:
        xi = np.array([0.0, 1.0, 0.0, 0.0])
    eta = eta_scale * np.array(draw(st.tuples(_unit, _unit, _unit, _unit)))
    eta -= (eta @ xi) * xi
    return xi, eta


def _chart_field(primary, mu, c, xi, eta):
    """(chart, packed field) -- None where the state sits on the other
    primary's singularity."""
    ch = MoserChart(mu, primary)
    try:
        return ch, ch.field(np.concatenate([xi, eta, [0.0]]), c)
    except SecondaryCollisionError:
        return ch, None


FIELD_CASES = dict(
    state=ts3_states(),
    primary=st.sampled_from(["moon", "earth"]),
    mu=st.sampled_from([EARTH_MOON_MU, 0.1, 0.3]),
    c=st.sampled_from([-2.0, -1.7, -1.5, -1.2]),
)


@settings(max_examples=150, deadline=None)
@given(**FIELD_CASES)
def test_field_tangent_to_constraints(state, primary, mu, c):
    xi, eta = state
    _, z = _chart_field(primary, mu, c, xi, eta)
    if z is None:
        return
    scale = max(1.0, np.linalg.norm(z[:8]))
    # d/ds |xi|^2/2 and d/ds <xi, eta>
    assert abs(xi @ z[:4]) < 1e-13 * scale
    assert abs(z[:4] @ eta + xi @ z[4:8]) < 1e-13 * scale * max(
        1.0, np.linalg.norm(eta))


@settings(max_examples=150, deadline=None)
@given(**FIELD_CASES)
def test_field_conserves_q_and_matches_dirac(state, primary, mu, c):
    xi, eta = state
    # central differences lose their accuracy next to the other primary's
    # singularity at chart position y = (1, 0, 0); flights use the chart
    # only within 0.1 of its own primary, where that distance is near 1
    y = eta[0] * xi[1:] + (1.0 - xi[0]) * eta[1:]
    assume(np.linalg.norm(y - [1.0, 0.0, 0.0]) > 0.5)
    _, z = _chart_field(primary, mu, c, xi, eta)
    gx, ge = fd_gradient_q(xi, eta, c, mu, primary)
    scale = np.linalg.norm(z[:8]) * max(1.0, np.linalg.norm(gx),
                                       np.linalg.norm(ge))
    assert abs(gx @ z[:4] + ge @ z[4:8]) < 1e-7 * max(1.0, scale)
    # the Dirac-constrained field built from the finite-difference gradient
    lam1 = -(ge @ xi)
    lam2 = gx @ xi - ge @ eta
    dirac = np.concatenate([ge + lam1 * xi, -gx - lam1 * eta + lam2 * xi])
    assert np.linalg.norm(z[:8] - dirac) <= 1e-9 * max(
        np.linalg.norm(dirac), 1.0)


@settings(max_examples=150, deadline=None)
@given(**FIELD_CASES)
def test_field_clock_row(state, primary, mu, c):
    xi, eta = state
    ch, z = _chart_field(primary, mu, c, xi, eta)
    if z is None:
        return
    clock = ch.nu * (1.0 - xi[0]) * np.linalg.norm(eta)
    assert z[8] == pytest.approx(clock, rel=1e-14, abs=1e-300)
    assert z[8] == pytest.approx(ch.nu * ch.physical_radius(xi, eta),
                                 rel=1e-14, abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(x=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       primary=st.sampled_from(["moon", "earth"]),
       mu=st.sampled_from([EARTH_MOON_MU, 0.3]),
       c=st.sampled_from([-1.7, -1.5]))
def test_field_raises_at_other_primary(x, primary, mu, c):
    # the other primary sits at chart position y = (1, 0, 0)
    xi, eta = chart_to_stereo(np.array(x), np.array([1.0, 0.0, 0.0]))
    ch = MoserChart(mu, primary)
    with pytest.raises(SecondaryCollisionError):
        ch.field(np.concatenate([xi, eta, [0.0]]), c)


_stage_coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(
           ts3_states().map(lambda s: tuple(np.concatenate(s))),
           st.tuples(*[_stage_coord] * 8)), min_size=1, max_size=20),
       t=_stage_coord, primary=st.sampled_from(["moon", "earth"]),
       mu=st.sampled_from([EARTH_MOON_MU, 0.1, 0.3]),
       c=st.sampled_from([-2.0, -1.7, -1.5, -1.2]))
def test_float_field_rows_are_the_bits_of_the_array_field(rows, t, primary,
                                                          mu, c):
    # flight Jacobians take a Moser group's stage field row by row on
    # floats, and a dense-output fill's array pass takes it on arrays
    # (q_rhs_rows): the same operations, so the same bits, signed zeros
    # included, and the array form's mask marks the rows where the floats
    # raise.  Stage states lie near T*S^3, not on it
    nu = MoserChart(mu, primary).nu
    Y = np.array([list(r) + [t] for r in rows])
    want, collided = q_rhs_rows(Y.T, c, nu)
    want = want.T
    try:
        got = flows._moser_field_rows(Y, c, nu)
    except SecondaryCollisionError:
        assert collided.any()
        reject()        # on the other primary, where a flight stops first
    assert not collided.any()
    assert got.shape == want.shape == Y.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(states=st.lists(ts3_states(eta_scale=5.0, off_fiber=True),
                       min_size=1, max_size=8),
       primary=st.sampled_from(["moon", "earth"]))
def test_array_to_physical_matches_columns(states, primary):
    ch = MoserChart(EARTH_MOON_MU, primary)
    xi = np.column_stack([s[0] for s in states])
    eta = np.column_stack([s[1] for s in states])
    out = ch.to_physical(xi, eta)
    assert out.shape == (6, len(states))
    cols = np.column_stack([ch.to_physical(a, b) for a, b in states])
    assert np.array_equal(out, cols)
    assert ch.to_physical(xi[:, 0], eta[:, 0]).shape == (6,)


@settings(max_examples=200, deadline=None)
@given(states=st.lists(ts3_states(eta_scale=5.0, off_fiber=True),
                       min_size=1, max_size=8),
       gaps=st.lists(st.floats(1e-11, 1e-3), max_size=4),
       primary=st.sampled_from(["moon", "earth"]),
       rows=st.lists(st.integers(0, 5), min_size=1, max_size=6,
                     unique=True))
def test_physical_rows_are_the_bits_of_to_physical(states, gaps, primary,
                                                   rows):
    # columns near the collision fiber too, at xi0 = 1 - gap; the chart
    # rows outside chart_rows(rows) are None, so they are never read
    cols = list(states)
    for k, gap in enumerate(gaps):
        xi = np.zeros(4)
        xi[0], xi[1 + k % 3] = 1.0 - gap, math.sqrt(gap * (2.0 - gap))
        eta = states[k % len(states)][1].copy()
        eta -= (eta @ xi) * xi
        cols.append((xi, eta))
    ch = MoserChart(EARTH_MOON_MU, primary)
    z = np.vstack([np.column_stack([s[0] for s in cols]),
                   np.column_stack([s[1] for s in cols])])
    want = ch.to_physical(z[:4], z[4:])
    read = [None] * 8
    for r in chart_rows(rows):
        read[r] = z[r]
    got = ch.physical_rows(read, rows)
    assert len(got) == len(rows)
    for r, v in zip(rows, got):
        assert v.tobytes() == want[r].tobytes()


def test_array_to_physical_rejects_fiber_column():
    ch = MoserChart(EARTH_MOON_MU, "moon")
    xi = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    eta = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(NorthPoleError):
        ch.to_physical(xi, eta)
    with pytest.raises(NorthPoleError):
        ch.to_physical(xi[:, 1], eta[:, 1])


@settings(max_examples=300, deadline=None)
@given(state=ts3_states(eta_scale=5.0))
def test_spatial_stereo_to_chart_matches_column_code_bitwise(state):
    xi, eta = state
    if abs(1.0 - xi[0]) < 1e-11:
        xi = np.array([1.0, 0.0, 0.0, 0.0])     # exactly on the fiber
    try:
        x_col, y_col = stereo_to_chart(xi[:, None], eta[:, None])
    except NorthPoleError:
        with pytest.raises(NorthPoleError):
            stereo_to_chart(xi, eta)
        return
    x, y = stereo_to_chart(xi, eta)
    assert np.array_equal(x, x_col[:, 0]) and np.array_equal(y, y_col[:, 0])


# --- derivatives of the field and of the chart maps ---


@settings(max_examples=60, deadline=None)
@given(**FIELD_CASES)
# 0.0039 from the other primary: the central difference is 2.2e-7 off
@example(state=(np.array([0.0, 0.0, 0.0, 1.0]),
                np.array([0.0, 1.00390625, 0.0, 0.0])),
         primary="moon", mu=EARTH_MOON_MU, c=-2.0)
def test_complex_step_field_jacobian_matches_central_differences(
        state, primary, mu, c):
    # away from the other primary, at chart position y = (1, 0, 0), where
    # the field is smooth on the scale of the difference step (as in
    # test_field_conserves_q_and_matches_dirac), and off eta = 0, where
    # the clock row nu (1 - xi0) |eta| has no derivative
    xi, eta = state
    ch, z = _chart_field(primary, mu, c, xi, eta)
    assume(z is not None and np.linalg.norm(eta) > 0.1)
    y = eta[0] * xi[1:] + (1.0 - xi[0]) * eta[1:]
    assume(np.linalg.norm(y - [1.0, 0.0, 0.0]) > 0.5)
    v = np.concatenate([xi, eta, [0.3]])
    field, jac = q_field_jacobian_rows(v[None], c, ch.nu)
    np.testing.assert_allclose(field[0], z, rtol=0.0,
                               atol=1e-13 * max(1.0, np.abs(z).max()))
    fd = central_jacobian(lambda w: ch.field(w[:9], w[9]),
                          np.append(v, c), 1e-6)
    scale = max(1.0, np.abs(fd).max())
    np.testing.assert_allclose(jac[0], fd, rtol=0.0, atol=1e-7 * scale)


@settings(max_examples=60, deadline=None)
@given(state=ts3_states(eta_scale=3.0, off_fiber=True),
       primary=st.sampled_from(["moon", "earth"]))
def test_chart_map_jacobians_match_central_differences(state, primary):
    xi, eta = state
    ch = MoserChart(0.1, primary)
    z = np.concatenate([xi, eta])
    x = ch.to_physical(xi, eta)
    to_fd = central_jacobian(lambda w: ch.to_physical(w[:4], w[4:]), z, 1e-7)
    from_fd = central_jacobian(lambda y: np.concatenate(ch.from_physical(y)),
                               x, 1e-7)
    proj_fd = central_jacobian(
        lambda w: np.concatenate(project_constraints(w[:4], w[4:])),
        1.01 * z, 1e-7)
    for got, fd in ((ch.to_physical_jacobian(xi, eta), to_fd),
                    (ch.from_physical_jacobian(x), from_fd),
                    (project_constraints_jacobian(1.01 * xi, 1.01 * eta),
                     proj_fd)):
        scale = max(1.0, np.abs(fd).max())
        np.testing.assert_allclose(got, fd, rtol=0.0, atol=1e-6 * scale)
    # on T*S^3 the two chart maps invert each other
    np.testing.assert_allclose(
        ch.to_physical_jacobian(xi, eta) @ ch.from_physical_jacobian(x),
        np.eye(6), atol=1e-8 * max(1.0, np.abs(to_fd).max()) ** 2)
