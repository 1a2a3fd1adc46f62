"""Rotating-frame dynamics, Lagrange points, Hill regions, Stark-Zeeman
structure checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sectionscope.cr3bp import (EARTH_MOON_MU, _rot_rhs,
                                _triangular_point,
                                check_assumptions, cr3bp_stark_zeeman,
                                effective_potential,
                                equilibrium_momentum, hamiltonian,
                                hamiltonian_gradient, hill_components,
                                hill_membership, lagrange_points, primaries,
                                sample_page_states, sample_shell_states,
                                validate_mu, vector_field_ode)
from sectionscope.errors import CollisionError, ConfigError
from sectionscope.flows import _rot_field_rows

from oracles import central_jacobian

# Collinear points of the Earth-Moon ratio, frozen from a 40-digit
# bisection of the axis equation (independent of the library's solver).
L1_X_ORACLE = -0.8369151258197125
L2_X_ORACLE = -1.1556821654078692
L3_X_ORACLE = 1.0050626458062681
H_L1_ORACLE = -1.5941705588302462
H_L2_ORACLE = -1.5860802304462839
H_L3_ORACLE = -1.5060735753354430


def test_hamiltonian_hand_values():
    # mu=0 circular-orbit state: 1/2 - 1 - 1 = -3/2
    s = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert hamiltonian(s, 0.0) == pytest.approx(-1.5, abs=1e-15)
    # equal masses, satellite on the q3 axis, at rest
    s = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    expected = -0.5 / math.sqrt(1.25) - 0.5 / math.sqrt(1.25)
    assert hamiltonian(s, 0.5) == pytest.approx(expected, rel=1e-15)


def test_hamiltonian_at_l1_matches_bisection_oracle():
    lp = lagrange_points(EARTH_MOON_MU)
    assert lp.points[0][0] == pytest.approx(L1_X_ORACLE, abs=1e-12)
    assert lp.points[1][0] == pytest.approx(L2_X_ORACLE, abs=1e-12)
    assert lp.points[2][0] == pytest.approx(L3_X_ORACLE, abs=1e-12)
    assert lp.energies[0] == pytest.approx(H_L1_ORACLE, abs=1e-12)
    assert lp.energies[1] == pytest.approx(H_L2_ORACLE, abs=1e-12)
    assert lp.energies[2] == pytest.approx(H_L3_ORACLE, abs=1e-12)
    q = lp.points[0]
    s = np.concatenate([q, equilibrium_momentum(q)])
    assert hamiltonian(s, EARTH_MOON_MU) == pytest.approx(H_L1_ORACLE,
                                                          abs=1e-12)


def test_vector_field_matches_fd_gradient():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(200):
        mu = rng.uniform(0.0, 1.0)
        s = rng.normal(size=6) * 1.5
        if min(np.linalg.norm(s[:3] - p) for p in primaries(mu)) < 0.2:
            continue
        field = vector_field_ode(0.0, s, mu)
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[i] = (hamiltonian(s + e, mu) - hamiltonian(s - e, mu)) / (2 * h)
        expected = np.concatenate([fd[3:], -fd[:3]])
        assert np.linalg.norm(field - expected) < 1e-6 * max(
            1.0, np.linalg.norm(field))


def test_field_vanishes_at_lagrange_points():
    for mu in (0.1, 0.3, EARTH_MOON_MU):
        lp = lagrange_points(mu)
        for q in lp.points:
            s = np.concatenate([q, equilibrium_momentum(q)])
            assert np.linalg.norm(vector_field_ode(0.0, s, mu)) < 1e-10


def test_circular_orbit_stays_on_unit_circle():
    s0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    sol = solve_ivp(vector_field_ode, (0.0, 2 * math.pi), s0, args=(0.0,),
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    for t in np.linspace(0, 2 * math.pi, 50):
        q = sol.sol(t)[:3]
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9


def test_effective_potential_values_and_bound():
    assert effective_potential(np.array([0.0, 0.0, 0.0]), 0.5) == \
        pytest.approx(-2.0, rel=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = rng.uniform(0.05, 0.95)
        q = rng.normal(size=3) * 2
        if min(np.linalg.norm(q - p) for p in primaries(mu)) < 0.1:
            continue
        p = rng.normal(size=3)
        s = np.concatenate([q, p])
        assert hamiltonian(s, mu) >= effective_potential(q, mu) - 1e-12
    # the bound is attained at the equilibrium momentum
    q = np.array([0.4, -0.3, 0.2])
    s = np.concatenate([q, equilibrium_momentum(q)])
    assert hamiltonian(s, 0.3) == pytest.approx(
        effective_potential(q, 0.3), abs=1e-14)


def _grad_u(q, mu):
    """grad U(q): the q-rows of grad H at the equilibrium momentum."""
    return hamiltonian_gradient(
        np.concatenate([q, equilibrium_momentum(q)]), mu)[:3]


def test_effective_potential_gradient_fd():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        q = rng.normal(size=3) * 1.5
        mu = rng.uniform(0.1, 0.9)
        if min(np.linalg.norm(q - p) for p in primaries(mu)) < 0.2:
            continue
        g = _grad_u(q, mu)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (effective_potential(q + e, mu)
                  - effective_potential(q - e, mu)) / (2 * h)
            assert abs(g[i] - fd) < 1e-6 * max(1.0, abs(g[i]))


def test_lagrange_symmetric_case():
    lp = lagrange_points(0.5)
    assert np.linalg.norm(lp.points[0]) < 1e-10


def test_lagrange_ordering_and_triangular_equality():
    for mu in (0.1, 0.2, 0.3, 0.4):
        lp = lagrange_points(mu)
        e = lp.energies
        assert e[0] < e[1] < e[2] < e[3]
        assert abs(e[3] - e[4]) < 1e-12
        assert lp.ordering_ok
        assert max(lp.gradient_norms) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-30.0, math.log10(0.5)))
def test_collinear_points_bracketed_down_to_tiny_mu(log_mu):
    # L1 and L2 straddle the Moon at about its Hill radius (mu/3)^(1/3),
    # which for mu < 3e-27 is closer than the 1e-9 bracket offset
    mu = 10.0 ** log_mu
    lp = lagrange_points(mu)
    x1, x2, x3 = lp.points[:3, 0]
    moon = mu - 1.0
    assert x2 < moon < x1 < mu < x3
    hill = (mu / 3.0) ** (1.0 / 3.0)
    for x in (x1, x2):
        assert 0.5 < abs(x - moon) / hill < 1.5


def test_lagrange_rejects_degenerate_mu():
    with pytest.raises(ConfigError):
        lagrange_points(0.0)
    with pytest.raises(ConfigError):
        lagrange_points(1.0)
    # L1 and L2 would round onto the Moon (a ZeroDivisionError before)
    with pytest.raises(ConfigError):
        lagrange_points(1e-98)
    with pytest.raises(ConfigError):
        validate_mu(1.5)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.5, exclude_min=True))
def test_triangular_points_are_critical_points(mu):
    # L4/L5 are the equilateral points in closed form: grad U vanishes
    # there to rounding, with no Newton polish
    for sign in (1.0, -1.0):
        q = _triangular_point(mu, sign)
        assert np.linalg.norm(_grad_u(q, mu)) <= 1e-14


def test_hill_membership():
    mu = 0.3
    lp = lagrange_points(mu)
    c = lp.energies[0] - 0.05
    e, m = primaries(mu)
    assert hill_membership(e + np.array([1e-4, 0, 0]), c, mu)
    assert not hill_membership(lp.points[0], c, mu)


def test_hill_components_three_then_two():
    mu = EARTH_MOON_MU
    lp = lagrange_points(mu)
    low = hill_components(lp.energies[0] - 0.1, mu, n=256)
    assert low.count == 3
    assert low.bounded_count == 2
    assert len(low.unbounded) == 1
    mid = hill_components((lp.energies[0] + lp.energies[1]) / 2, mu, n=256)
    assert mid.count == 2


def test_hill_components_deep_energy_wells():
    # c = -10 proxy for c -> -inf: a tiny well around each primary; the
    # outer region starts at |q| ~ sqrt(20), beyond the [-2,2] box, so
    # the grid sees exactly the two bounded wells
    comp = hill_components(-10.0, 0.3, n=512)
    assert comp.count == 2
    assert comp.bounded_count == 2
    assert hill_membership(np.array([5.0, 0.0, 0.0]), -10.0, 0.3)


def test_hill_components_carry_the_potential_grid():
    comp = hill_components(-1.6, 0.3, n=33, stability_check=False)
    q1, q2 = np.meshgrid(*comp.axes, indexing="ij")
    scalar = [effective_potential(np.array([a, b, 0.0]), 0.3)
              for a, b in zip(q1.ravel(), q2.ravel())]
    np.testing.assert_allclose(comp.potential.ravel(), scalar, rtol=1e-14)
    assert np.array_equal(comp.labels > 0, comp.potential <= -1.6)
    # mu = 0: -inf on the Earth node, finite on the massless Moon's node
    comp = hill_components(-1.6, 0.0, n=33, stability_check=False)
    with np.errstate(divide="ignore"):
        closed = -1.0 / np.hypot(q1, q2) - 0.5 * (q1 ** 2 + q2 ** 2)
    np.testing.assert_allclose(comp.potential, closed, rtol=1e-14)
    assert comp.potential[8, 16] == -1.5   # the node (-1, 0)
    assert comp.potential[16, 16] == -np.inf


def test_hill_components_coarse_grid_warns():
    # at n=16 the thin deep wells of c=-10 are not grid-stable
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        hill_components(-10.0, 0.3, n=16)
    assert any("grid too coarse" in str(x.message) for x in w)


def test_planar_states_stay_planar():
    s0 = np.array([0.5, 0.2, 0.0, -0.1, 0.8, 0.0])
    sol = solve_ivp(vector_field_ode, (0.0, 100.0), s0,
                    args=(EARTH_MOON_MU,), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    for t in np.linspace(0, min(100.0, sol.t[-1]), 100):
        s = sol.sol(t)
        assert abs(s[2]) + abs(s[5]) < 1e-10


def test_stark_zeeman_cr3bp_assumptions():
    for primary in ("moon", "earth"):
        sys = cr3bp_stark_zeeman(EARTH_MOON_MU, -1.8, primary)
        rep = check_assumptions(sys, samples=150, seed=2)
        assert rep.passed
        assert rep.min_F > 0


def test_stark_zeeman_constructed_violations():
    base = cr3bp_stark_zeeman(0.3, -1.8, "moon")
    # odd potential breaks the reflection symmetry (A2)
    from sectionscope.cr3bp import StarkZeemanSystem
    odd = StarkZeemanSystem(
        g=base.g, V1=lambda q: q[2], grad_V1=lambda q: np.array([0, 0, 1.0]),
        A=base.A, c=base.c, name="odd-V1")
    rep = check_assumptions(odd, samples=50, seed=0)
    assert not rep.passed
    assert any(a.startswith("A2") for a, _ in rep.failures)
    # strongly concave vertical potential flips the sign of F (A3)
    bad = StarkZeemanSystem(
        g=1e-4,
        V1=lambda q: -1e6 * q[2] ** 2,
        grad_V1=lambda q: np.array([0.0, 0.0, -2e6 * q[2]]),
        A=base.A, c=base.c, name="bad-F")
    rep = check_assumptions(bad, samples=50, seed=0)
    assert not rep.passed
    assert any(a.startswith("A3") for a, _ in rep.failures)


def test_stark_zeeman_F_identity_cr3bp():
    # (1/q3) dV1/dq3 equals the closed-form (1-nu)/|q - other|^3
    sys = cr3bp_stark_zeeman(EARTH_MOON_MU, -1.8, "moon")
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = rng.normal(size=3)
        if np.linalg.norm(q) < 0.1 or np.linalg.norm(q - [1, 0, 0]) < 0.1:
            continue
        other = np.linalg.norm(q - np.array([1.0, 0.0, 0.0]))
        expected = sys.g / np.linalg.norm(q) ** 3 \
            + (1 - EARTH_MOON_MU) / other ** 3
        assert sys.F(q) == pytest.approx(expected, rel=1e-10)


def test_shell_sampler_hits_energy_level():
    rng = np.random.default_rng(4)
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.02
    pts = sample_shell_states(mu, c, 50, rng, component="moon",
                              min_primary_dist=0.03)
    for s in pts:
        assert hamiltonian(s, mu) == pytest.approx(c, abs=1e-12)


class _CountingRng:
    """A numpy Generator that counts its draws."""

    def __init__(self, seed):
        self._rng, self.draws = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            self.draws += 1
            return method(*args, **kwargs)
        return draw


@pytest.mark.parametrize("sample", [sample_shell_states, sample_page_states])
def test_shell_sampling_gives_up_after_draws_independent_of_n(sample):
    # just below H(L1) at mu = 1e-3 the sampling ball around the Moon
    # (radius 0.063) barely exceeds min_primary_dist (0.06): no draw is
    # accepted
    mu = 1e-3
    c = lagrange_points(mu).energies[0] - 0.01
    draws = []
    for n in (1, 400):
        rng = _CountingRng(0)
        with pytest.raises(ConfigError):
            sample(mu, c, n, rng, component="moon")
        draws.append(rng.draws)
    assert draws[0] == draws[1]


def test_sampling_budget_grows_with_accepted_states(monkeypatch):
    # about 27% of these page draws are accepted: 400 states need ~1,100
    # rejections, far more than 10, but never 10 per state accepted so far
    c = lagrange_points(EARTH_MOON_MU).energies[0] - 0.001
    want = sample_page_states(EARTH_MOON_MU, c, 400,
                              np.random.default_rng(0))
    monkeypatch.setattr("sectionscope.cr3bp._MAX_REJECTIONS", 10)
    got = sample_page_states(EARTH_MOON_MU, c, 400, np.random.default_rng(0))
    assert np.array_equal(got, want)


def test_page_sampling_shares_the_rejection_budget():
    # shell states are accepted, but none reaches min_binding: the page
    # filter's rejections count towards the same budget, so sampling
    # stops instead of drawing forever
    with pytest.raises(ConfigError):
        sample_page_states(1e-3, -1.7, 5, np.random.default_rng(0),
                           component="earth", min_binding=10.0)


# --- central differences ---


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_central_jacobian_of_a_linear_map_is_the_matrix(entries, x):
    # a non-square linear map R^3 -> R^2: exact up to rounding
    a = np.array(entries).reshape(2, 3)
    jac = central_jacobian(lambda v: a @ v, np.array(x), 1e-3)
    assert jac.shape == (2, 3)
    np.testing.assert_allclose(jac, a, rtol=0.0, atol=1e-11)


def test_central_jacobian_is_exact_on_a_quadratic():
    # second-order terms cancel in a central difference, so even a coarse
    # step gives the exact Jacobian of a quadratic map
    def f(v):
        return np.array([v[0] ** 2 + 3.0 * v[0] * v[1], v[1] ** 2 - v[0]])

    x = np.array([0.7, -1.3])
    exact = np.array([[2.0 * x[0] + 3.0 * x[1], 3.0 * x[0]],
                      [-1.0, 2.0 * x[1]]])
    np.testing.assert_allclose(central_jacobian(f, x, 0.5), exact,
                               rtol=0.0, atol=1e-14)


def test_central_jacobian_evaluation_order():
    # plus point, then minus point, column by column
    calls = []

    def f(v):
        calls.append(v.tolist())
        return v

    central_jacobian(f, np.zeros(2), 0.5)
    assert calls == [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]


# --- the rotating field on Python floats ---


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
       st.floats(0.0, 1.0), st.integers(1, 100), st.integers(0, 2 ** 32 - 1))
@example([0.5, 0.0, -0.0, 0.0, 0.9, 0.0], 0.0, 100, 0)
def test_vector_field_matches_lane_rows_bitwise(state, mu, width, seed):
    # the field on a list (a lone leg's) and on an array are the
    # lockstep lane's row, bit for bit
    state = np.array(state)
    if min(np.linalg.norm(state[:3] - p) for p in primaries(mu)) >= 1e-3:
        rows, collided = _rot_field_rows(state[:, None], mu)
        assert not collided[0]
        assert vector_field_ode(0.0, state, mu).tobytes() == \
            rows[:, 0].tobytes()
        as_list = vector_field_ode(0.0, state.tolist(), mu)
        assert type(as_list) is list
        assert np.array(as_list).tobytes() == rows[:, 0].tobytes()
    # and in a batch of lane rows (the state among them): planar rows with
    # signed zeros in q3 and p3, rows around a primary, some within the
    # collision threshold, and a NaN row.  The mask is set exactly where
    # the float field raises, so never on the NaN row; mu = 0 has km = 0
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-3.0, 3.0, (width, 6))
    Y[0] = state
    planar = np.flatnonzero(rng.random(width) < 0.3)
    Y[planar[:, None], [2, 5]] = rng.choice([0.0, -0.0], (len(planar), 2))
    near = np.flatnonzero(rng.random(width) < 0.2)
    u = rng.normal(size=(len(near), 3))
    Y[near, :3] = (np.c_[rng.choice([mu, mu - 1.0], len(near)),
                         np.zeros((len(near), 2))]
                   + u / np.linalg.norm(u, axis=1)[:, None]
                   * 10 ** rng.uniform(-12.0, -8.0, (len(near), 1)))
    Y[rng.integers(width)] = np.nan
    with np.errstate(all="ignore"):
        field, collided = _rot_field_rows(np.ascontiguousarray(Y.T), mu)
    for y, f, hit in zip(Y.tolist(), field.T, collided):
        try:
            want = _rot_rhs(y, mu)[0]
        except CollisionError:
            assert hit
            continue
        assert not hit
        assert np.array(want).tobytes() == f.tobytes()
