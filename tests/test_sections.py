"""Open-book angles, transversality, return maps and their structural
properties, ellipsoid/Hopf oracles, involution, leaf labels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sectionscope.cr3bp import (EARTH_MOON_MU, central_jacobian, hamiltonian,
                                lagrange_points, sample_page_states,
                                sample_shell_states)
from sectionscope.errors import BindingError, ConfigError, OffSurfaceError
from sectionscope.flows import IntegratorConfig, integrate
from sectionscope.regularize import MoserChart
from sectionscope.sections import (BINDING_REFINE_BELOW, OMEGA4,
                                   SectionSpec, ellipsoid_flow,
                                   ellipsoid_page_point, ellipsoid_return,
                                   ellipsoid_return_jacobian,
                                   exactness_loop_check, geodesic_angle,
                                   hopf_map, involution, involution_moser,
                                   leaf_label, leaf_label_physical,
                                   page_circle_loop, page_embed, page_frame,
                                   page_coords, physical_angle, return_map,
                                   return_map_iter, return_map_jacobian,
                                   transversality_value)

C_TEST = -1.7
VERTICAL_APEX = np.array([0.0, 0.0, 10.0 / 17.0, 0.0, 0.0, 0.0])


def test_physical_angle_values_and_binding():
    s = np.zeros(6)
    s[2] = 1.0
    assert physical_angle(s) == 0.0
    s = np.zeros(6)
    s[5] = 1.0
    assert physical_angle(s) == pytest.approx(math.pi / 2, rel=1e-15)
    with pytest.raises(BindingError):
        physical_angle(np.zeros(6))


def test_transversality_collapses_to_one_at_q3_zero():
    s = np.array([0.5, 0.3, 0.0, 0.1, -0.2, 0.7])
    assert transversality_value(s, 0.3) == pytest.approx(1.0, rel=1e-14)


def test_transversality_positive_on_shell_samples():
    rng = np.random.default_rng(20)
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.02
    pts = sample_shell_states(mu, c, 2000, rng, component="earth",
                              min_primary_dist=0.06)
    for s in pts:
        if s[2] ** 2 + s[5] ** 2 < 1e-12:
            continue
        assert transversality_value(s, mu) > 0.0


def test_angle_rate_equals_minus_transversality():
    # numerical d/dt of the angle along a flow equals -transversality
    mu = EARTH_MOON_MU
    rng = np.random.default_rng(21)
    c = lagrange_points(mu).energies[0] - 0.05
    s0 = sample_shell_states(mu, c, 1, rng, component="earth")[0]
    cfg = IntegratorConfig(max_time=10.0)
    traj = integrate(s0, mu, cfg, 3.0, c=c)
    h = 1e-6
    for t in np.linspace(0.1, 2.9, 25):
        sm, sp = traj.state(t - h), traj.state(t + h)
        s = traj.state(t)
        if s is None or sm is None or sp is None:
            continue
        if s[2] ** 2 + s[5] ** 2 < 1e-4:
            continue
        dth = (math.atan2(sp[5], sp[2]) - math.atan2(sm[5], sm[2]))
        dth = (dth + math.pi) % (2 * math.pi) - math.pi
        rate = dth / (2 * h)
        assert -rate == pytest.approx(transversality_value(s, mu),
                                      rel=1e-4)


def test_geodesic_angle_unit_rate():
    # round geodesic flow: xi' = eta_hat ... angle atan2(xi_n, eta_n)
    # advances at unit rate on the |eta| = 1 level
    from scipy.integrate import solve_ivp
    rng = np.random.default_rng(22)
    xi = rng.normal(size=4)
    xi /= np.linalg.norm(xi)
    eta = rng.normal(size=4)
    eta -= (eta @ xi) * xi
    eta /= np.linalg.norm(eta)

    def rhs(t, z):
        x, e = z[:4], z[4:8]
        return np.concatenate([e, -float(e @ e) * x])

    sol = solve_ivp(rhs, (0.0, 2.0), np.concatenate([xi, eta]),
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    ts = np.linspace(0.0, 2.0, 21)
    prev = geodesic_angle(sol.sol(ts[0])[:4], sol.sol(ts[0])[4:8])
    for t in ts[1:]:
        cur = geodesic_angle(sol.sol(t)[:4], sol.sol(t)[4:8])
        step = (cur - prev) % (2 * math.pi)
        assert step == pytest.approx(0.1, abs=1e-8)
        prev = cur
    with pytest.raises(BindingError):
        geodesic_angle(np.array([0.0, 1.0, 0, 0]), np.array([0.0, 0, 1, 0]))


def test_vertical_fixed_point_of_return_map():
    cfg = IntegratorConfig(max_time=5.0)
    s = return_map(VERTICAL_APEX, 0.0, c=C_TEST, cfg=cfg)
    assert np.linalg.norm(s.fx - VERTICAL_APEX) < 1e-8
    assert s.tau == pytest.approx(1.0022163715043540, abs=1e-9)
    assert s.crossings == 1  # one opposite-page crossing at the low apex
    assert s.energy == pytest.approx(C_TEST, abs=1e-9)


def test_return_map_energy_and_page_invariants():
    rng = np.random.default_rng(23)
    cfg = IntegratorConfig(max_time=20.0)
    pts = sample_page_states(0.0, C_TEST, 5, rng, component="earth")
    for x in pts:
        s = return_map(x, 0.0, c=C_TEST, cfg=cfg)
        assert s.energy == pytest.approx(C_TEST, abs=1e-9)
        assert s.angle_err < 1e-10
        assert s.tau > 0
        # iterating stays on the page
        s2 = return_map(s.fx, 0.0, c=C_TEST, cfg=cfg)
        assert s2.angle_err < 1e-10


def test_return_map_refuses_binding_start():
    x = np.array([0.9, 0.0, 0.0, 0.0, 0.8, 0.0])
    with pytest.raises(BindingError):
        return_map(x, 0.0, cfg=IntegratorConfig(max_time=5.0))


def test_return_map_jacobian_symplectic_and_reciprocal():
    rng = np.random.default_rng(24)
    cfg = IntegratorConfig(max_time=20.0)
    x = sample_page_states(0.0, C_TEST, 1, rng, component="earth")[0]
    jr = return_map_jacobian(x, 0.0, c=C_TEST, cfg=cfg)
    assert jr.symplecticity_residual < 1e-6
    assert jr.reciprocal_residual < 1e-6
    assert np.linalg.norm(jr.J.T @ OMEGA4 @ jr.J - OMEGA4) == \
        jr.symplecticity_residual


def test_page_frame_is_darboux():
    rng = np.random.default_rng(25)
    x = sample_page_states(0.0, C_TEST, 1, rng, component="earth")[0]
    B = page_frame(x, 0.0)

    def omega(u, v):
        return u[:3] @ v[3:] - u[3:] @ v[:3]

    G = np.array([[omega(B[:, i], B[:, j]) for j in range(4)]
                  for i in range(4)])
    assert np.linalg.norm(G - OMEGA4) < 1e-10


def test_page_embed_restores_constraints():
    rng = np.random.default_rng(26)
    x = sample_page_states(0.0, C_TEST, 1, rng, component="earth")[0]
    B = page_frame(x, 0.0)
    y = page_embed(x, B, np.array([1e-3, -2e-3, 5e-4, 1e-3]), 0.0,
                   C_TEST, 0.0)
    assert hamiltonian(y, 0.0) == pytest.approx(C_TEST, abs=1e-11)
    assert abs(math.sin(physical_angle(y))) < 1e-11


def test_exactness_on_small_loops():
    rng = np.random.default_rng(27)
    cfg = IntegratorConfig(max_time=20.0)
    x = sample_page_states(0.0, C_TEST, 1, rng, component="earth")[0]
    for plane in ((0, 1), (2, 3)):
        loop = page_circle_loop(x, 0.0, c=C_TEST, n_points=32,
                                radius=2e-3, plane=plane)
        resid, length = exactness_loop_check(loop, 0.0, c=C_TEST, cfg=cfg)
        assert resid < 1e-6 * length


def test_involution_properties():
    rng = np.random.default_rng(28)
    s = rng.normal(size=6)
    assert np.allclose(involution(involution(s)), s)
    a1 = physical_angle(s)
    a2 = physical_angle(involution(s))
    assert (a2 - a1) % (2 * math.pi) == pytest.approx(math.pi, rel=1e-12)
    planar = s.copy()
    planar[2] = planar[5] = 0.0
    assert np.allclose(involution(planar), planar)
    xi, eta = MoserChart(0.3, "moon").from_physical(s)
    xi2, eta2 = involution_moser(xi, eta)
    assert xi2[3] == -xi[3] and eta2[3] == -eta[3]


@settings(max_examples=12, deadline=None)
@given(mu=st.sampled_from((0.0, 1e-3, EARTH_MOON_MU)),
       seed=st.integers(0, 2 ** 32 - 1), near=st.booleans())
@example(mu=0.0, seed=0, near=True)
def test_involution_commutes_with_flow(mu, seed, near):
    # every operation of a flight is odd or even in (q3, p3), in both
    # charts, so the mirrored flight is the mirror image bit for bit; a
    # near start lies within 0.08 of the Earth and mostly enters its chart
    kw = {"max_radius": 0.08, "min_primary_dist": 0.01} if near else {}
    s0 = sample_shell_states(mu, C_TEST, 1, np.random.default_rng(seed),
                             component="earth", **kw)[0]
    cfg = IntegratorConfig(max_time=20.0)
    a = integrate(s0, mu, cfg, 5.0, c=C_TEST)
    b = integrate(involution(s0), mu, cfg, 5.0, c=C_TEST)
    assert np.array_equal(involution(a.final_state()), b.final_state())
    assert a.chart_switches == b.chart_switches


def test_leaf_label_zero_section():
    xi = np.array([0.6, 0.8, 0.0, 0.0])
    z0 = leaf_label(xi, np.zeros(4))
    assert z0 == pytest.approx(0.6 + 0j, abs=1e-15)


def test_leaf_label_invariant_at_mu_zero():
    rng = np.random.default_rng(30)
    cfg = IntegratorConfig(max_time=20.0)
    pts = sample_page_states(0.0, C_TEST, 10, rng, component="earth")
    for x in pts:
        s = return_map(x, 0.0, c=C_TEST, cfg=cfg)
        dz = abs(leaf_label_physical(s.fx, 0.0) - leaf_label_physical(x, 0.0))
        assert dz < 1e-6


# --- ellipsoid closed-form oracle ---


def test_ellipsoid_rotation_pairs():
    for a, b in ((1.0, 1.0), (1.0, 2.0), (1.0, math.sqrt(2.0)),
                 (2.0, 3.0), (1.0, (1 + math.sqrt(5)) / 2)):
        _, tau, rot = ellipsoid_return(a, b, ellipsoid_page_point(a, b))
        assert abs(rot - 2 * math.pi * a / b) < 1e-8
        assert abs(tau - 1.0 / b) < 1e-11


def test_ellipsoid_equal_axes_identity_and_hopf_fibers():
    z0 = ellipsoid_page_point(1.0, 1.0)
    z_ret, tau, rot = ellipsoid_return(1.0, 1.0, z0)
    assert np.max(np.abs(z_ret - z0)) < 1e-10  # return map = identity
    assert tau == pytest.approx(1.0, abs=1e-10)
    # Hopf projection is constant along each orbit
    base = hopf_map(z0)
    for t in np.linspace(0.0, 1.0, 17):
        assert np.linalg.norm(hopf_map(ellipsoid_flow(1.0, 1.0, t, z0))
                              - base) < 1e-10


def test_ellipsoid_irrational_ratio_only_axis_orbits_close():
    a, b = 1.0, math.sqrt(2.0)
    # axis orbits are periodic with periods 1/a and 1/b
    z_ax1 = np.array([complex(math.sqrt(a / math.pi), 0.0), 0.0])
    z_ax2 = np.array([0.0, complex(math.sqrt(b / math.pi), 0.0)])
    assert np.max(np.abs(ellipsoid_flow(a, b, 1.0 / a, z_ax1) - z_ax1)) \
        < 1e-12
    assert np.max(np.abs(ellipsoid_flow(a, b, 1.0 / b, z_ax2) - z_ax2)) \
        < 1e-12
    # a generic orbit does not close at either candidate period
    z = ellipsoid_page_point(a, b)
    assert np.max(np.abs(ellipsoid_flow(a, b, 1.0 / a, z) - z)) > 1e-3
    assert np.max(np.abs(ellipsoid_flow(a, b, 1.0 / b, z) - z)) > 1e-3


def test_ellipsoid_jacobian_rigid_rotation():
    J, resid = ellipsoid_return_jacobian(1.0, 2.0)
    assert resid < 1e-8
    # rotation by 2 pi / 2 = pi is minus the identity
    assert np.linalg.norm(J + np.eye(2)) < 1e-6


def test_ellipsoid_off_surface_error():
    with pytest.raises(OffSurfaceError):
        ellipsoid_flow(1.0, 2.0, 0.1, np.array([1.0 + 0j, 1.0 + 0j]))


def test_return_map_rejects_other_angle_functions():
    with pytest.raises(ConfigError):
        return_map(VERTICAL_APEX, 0.0, c=C_TEST,
                   cfg=IntegratorConfig(max_time=5.0),
                   spec=SectionSpec(angle_fn="geodesic"))


def _oracle_binding_min(traj, n=200_000):
    """Minimum of q3^2 + p3^2 over n evenly spaced samples per segment (at
    least 240 per unit of regularized time in a Moser segment), read in
    pieces of 20,000 samples."""
    best = math.inf
    for seg in traj.segments:
        lo, hi = float(seg.nodes[0]), float(seg.nodes[-1])
        m = n if seg.chart == "rot" else max(n, math.ceil(240 * (hi - lo)))
        for s in np.array_split(np.linspace(lo, hi, m), max(1, m // 20000)):
            z = seg.sol(s)
            if seg.chart != "rot":
                keep = 1.0 - z[0] >= 1e-9
                if not keep.any():
                    continue
                z = seg.moser.to_physical(z[:4, keep], z[4:8, keep])
            best = min(best, float(np.min(z[2] ** 2 + z[5] ** 2)))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_binding_min_of_long_chart_stays(seed):
    # section-scan's draws and config in the Moon's Hill component, where a
    # return stays about 700 units of regularized time in the Moon chart:
    # the sampled binding_min stays within 2x of a reading at least 8x as
    # dense (one evenly spaced reading of the whole stay is 30-1,500x off)
    mu = EARTH_MOON_MU
    c = float(lagrange_points(mu).energies[0]) - 0.05
    cfg = IntegratorConfig(tol=1e-12, max_time=50.0)
    x = sample_page_states(mu, c, 1, np.random.default_rng(seed),
                           component="moon")[0]
    sample, (lead, traj) = return_map(x, mu, c=c, cfg=cfg, return_traj=True)
    assert sum(float(seg.nodes[-1] - seg.nodes[0]) for seg in traj.segments
               if seg.chart == "moser-moon") > 100.0
    oracle = min(_oracle_binding_min(lead), _oracle_binding_min(traj))
    assert sample.binding_min <= 2.0 * oracle


def test_binding_min_refines_a_close_approach_between_samples():
    # lunar CLI seed 10: the sampled minimum (4.61e-7) misses the close
    # approach by 6x; refined on the dense output it meets the oracle
    mu = EARTH_MOON_MU
    c = float(lagrange_points(mu).energies[0]) - 0.05
    cfg = IntegratorConfig(tol=1e-12, max_time=50.0)
    x = sample_page_states(mu, c, 1, np.random.default_rng(10),
                           component="moon")[0]
    sample, (lead, traj) = return_map(x, mu, c=c, cfg=cfg, return_traj=True)
    oracle = min(_oracle_binding_min(lead), _oracle_binding_min(traj))
    assert oracle < 1e-7
    assert sample.binding_min <= 1.05 * oracle
    # the binding read evaluates the rows of q3 and p3 alone, refinement
    # included; a read of the full state gives the same bits

    def binding(s):
        return s[2] ** 2 + s[5] ** 2

    sampled = min(t.min_over(binding) for t in (lead, traj))
    full = min(t.min_over(binding, refine_below=BINDING_REFINE_BELOW)
               for t in (lead, traj))
    assert sample.binding_min < sampled
    assert sample.binding_min == full


# --- return-map Jacobians from the flights' own steps ---


def _fd_page_map_jacobian(x, mu, c, cfg):
    """Central difference of the page map: the independent oracle of
    return_map_jacobian."""
    fx = return_map_iter(x, 1, mu, c=c, cfg=cfg)[0]
    frame0, frame1 = page_frame(x, mu), page_frame(fx, mu)

    def page_map(u):
        y = page_embed(x, frame0, u, mu, c, 0.0)
        return page_coords(fx, frame1, return_map_iter(y, 1, mu, c=c,
                                                       cfg=cfg)[0])

    return central_jacobian(page_map, np.zeros(4), 3e-7)


def test_page_map_jacobian_matches_central_differences():
    # ac08-type points (mu = 0, c = -1.7, around the Earth), some of whose
    # returns pass through the Earth chart, and one return that hits the
    # page inside the chart (a tight circular Kepler orbit)
    cfg = IntegratorConfig(max_time=20.0)
    pts = list(sample_page_states(0.0, C_TEST, 24, np.random.default_rng(103),
                                  component="earth"))
    r = 0.03
    q = r * np.array([0.0, math.cos(0.6), math.sin(0.6)])
    tight = np.concatenate([q, np.array([-math.sqrt(1.0 / r), 0.0, 0.0])
                            + np.array([-q[1], q[0], 0.0])])
    cases = [(x, C_TEST) for x in pts] + [(tight, hamiltonian(tight, 0.0))]
    charted = 0
    for x, c in cases:
        _, _, _, flights = return_map_iter(x, 1, 0.0, c=c, cfg=cfg)
        charted += any(seg.chart != "rot" for pair in flights
                       for traj in pair for seg in traj.segments)
        got = return_map_jacobian(x, 0.0, c=c, cfg=cfg).J
        fd = _fd_page_map_jacobian(x, 0.0, c, cfg)
        assert np.abs(got - fd).max() < 1e-5 * np.abs(fd).max()
    assert charted >= 5


def test_page_map_jacobians_symplectic_to_integrator_precision():
    # the 100 Jacobians of ac08 (which bounds |J^T Omega J - Omega| by
    # 1e-6): relative to |J|^2, the scale of J^T Omega J, the residual
    # peaked at 7.7e-10 (1.1e-8 by central differences); the absolute
    # one at 8.4e-8, where |J| = 240
    cfg = IntegratorConfig(max_time=20.0)
    pts = sample_page_states(0.0, C_TEST, 100, np.random.default_rng(103),
                             component="earth")
    worst = 0.0
    for x in pts:
        jr = return_map_jacobian(x, 0.0, c=C_TEST, cfg=cfg)
        worst = max(worst, jr.symplecticity_residual
                    / np.linalg.norm(jr.J) ** 2)
    assert worst < 2e-9
