"""End-to-end acceptance suite: quantitative properties with tolerances
and wall-clock budgets."""

import math
import time

import numpy as np
import pytest

from sectionscope.cr3bp import (EARTH_MOON_MU, hamiltonian, hill_components,
                                lagrange_points, sample_page_states,
                                sample_shell_states)
from sectionscope.errors import SectionScopeError
from sectionscope.flows import IntegratorConfig, integrate, integrate_many
from sectionscope.orbits import (continue_family, find_periodic_point,
                                 floquet_multipliers,
                                 reciprocal_pair_residual, vertical_seed)
from sectionscope.regularize import (MoserChart, chart_to_stereo,
                                     kepler_oracles, stereo_to_chart)
from sectionscope.sections import (SectionSpec, ellipsoid_page_rotation,
                                   exactness_loop_check, involution,
                                   leaf_label_physical, page_circle_loop,
                                   return_map, return_map_jacobian,
                                   return_map_many, transversality_value)


class Budget:
    """Context manager asserting the block stays within its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.seconds


def test_ac01_lagrange_ordering():
    with Budget(1.0):
        for mu in (0.1, 0.2, 0.3, 0.4):
            e = lagrange_points(mu).energies
            assert e[0] < e[1] < e[2] < e[3]
            assert abs(e[3] - e[4]) < 1e-12


def test_ac02_hill_component_counts():
    with Budget(10.0):
        mu = EARTH_MOON_MU
        lp = lagrange_points(mu)
        low = hill_components(lp.energies[0] - 0.1, mu, n=256)
        assert low.count == 3
        mid = hill_components((lp.energies[0] + lp.energies[1]) / 2, mu,
                              n=256)
        assert mid.count == 2


def test_ac03_chart_round_trips_and_identities():
    with Budget(1.0):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(10000):
            x = rng.normal(size=3) * 2.0
            y = rng.normal(size=3) * 2.0
            xi, eta = chart_to_stereo(x, y)
            # the two stereographic identities
            s = float(x @ x)
            worst = max(worst, abs(2.0 / (s + 1.0) - (1.0 - xi[0])))
            worst = max(worst, abs(np.linalg.norm(y)
                                   - (1.0 - xi[0]) * np.linalg.norm(eta)))
            x2, y2 = stereo_to_chart(xi, eta)
            worst = max(worst, float(np.max(np.abs(x2 - x))),
                        float(np.max(np.abs(y2 - y))))
            if abs(1.0 - xi[0]) > 1e-6:
                xi2, eta2 = chart_to_stereo(*stereo_to_chart(xi, eta))
                worst = max(worst, float(np.max(np.abs(xi2 - xi))),
                            float(np.max(np.abs(eta2 - eta))))
        assert worst < 1e-12


def test_ac04_regularization_correspondence():
    with Budget(30.0):
        mu = EARTH_MOON_MU
        c = lagrange_points(mu).energies[0] - 0.1
        ch = MoserChart(mu, "moon")
        rng = np.random.default_rng(101)
        pts = sample_shell_states(mu, c, 100, rng, component="moon",
                                  min_primary_dist=0.01)
        for s in pts:
            xi, eta = ch.from_physical(s)
            assert abs(ch.Q(xi, eta, c) - 0.5 * mu * mu) < 1e-10
        # one regularized-chart flight against one physical flight over a
        # section return, compared at matched physical times
        x = sample_page_states(mu, c, 1, rng, component="moon",
                               min_primary_dist=0.03)[0]
        cfg = IntegratorConfig(max_time=30.0)
        sample = return_map(x, mu, c=c, cfg=cfg)
        tau = sample.tau
        phys = integrate(x, mu, cfg, tau, c=c)
        cfg_reg = IntegratorConfig(max_time=30.0, switching=False)
        xi, eta = ch.from_physical(x)
        reg = integrate((xi, eta), mu, cfg_reg, tau, c=c,
                        start_chart="moon")
        dist = 0.0
        for t in np.linspace(0.0, tau, 200):
            a, b = phys.state(t), reg.state(t)
            if a is None or b is None:
                continue
            dist = max(dist, float(np.linalg.norm(a - b)))
        assert dist < 1e-6


def test_ac05_kepler_oracles():
    with Budget(10.0):
        rep = kepler_oracles(seed=5)
        assert rep.passed
        assert rep.k_flow_planarity < 1e-8
        assert rep.lc_period_spread < 1e-8 * rep.lc_period_mean


def test_ac06_ellipsoid_rotation():
    with Budget(5.0):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        for a, b in ((1.0, 1.0), (1.0, 2.0), (1.0, math.sqrt(2.0)),
                     (2.0, 3.0), (1.0, phi)):
            rot = ellipsoid_page_rotation(a, b)
            assert abs(rot - 2.0 * math.pi * a / b) < 1e-8


def test_ac07_transversality_everywhere_positive():
    with Budget(30.0):
        mu = EARTH_MOON_MU
        c = lagrange_points(mu).energies[0] - 0.02
        rng = np.random.default_rng(102)
        n_checked = 0
        for component, dist in (("earth", 0.06), ("moon", 0.03)):
            pts = sample_shell_states(mu, c, 50000, rng,
                                      component=component,
                                      min_primary_dist=dist)
            for s in pts:
                if s[2] ** 2 + s[5] ** 2 < 1e-12:
                    continue
                assert transversality_value(s, mu) > 0.0
                n_checked += 1
        assert n_checked >= 99000


def test_ac08_symplecticity_and_exactness():
    with Budget(60.0):
        rng = np.random.default_rng(103)
        cfg = IntegratorConfig(max_time=20.0)
        c = -1.7
        pts = sample_page_states(0.0, c, 100, rng, component="earth")
        for x in pts:
            jr = return_map_jacobian(x, 0.0, c=c, cfg=cfg)
            assert jr.symplecticity_residual < 1e-6
        for x in pts[:10]:
            loop = page_circle_loop(x, 0.0, c=c, n_points=24, radius=2e-3)
            resid, _ = exactness_loop_check(loop, 0.0, c=c, cfg=cfg)
            assert resid < 1e-6


def test_ac09_integrable_leaf_invariance_and_vertical_fixed_points():
    with Budget(60.0):
        rng = np.random.default_rng(104)
        cfg = IntegratorConfig(max_time=20.0)
        c = -1.7
        pts = sample_page_states(0.0, c, 1000, rng, component="earth")
        for x, s in zip(pts, return_map_many(pts, 0.0, c=c, cfg=cfg)):
            if isinstance(s, SectionScopeError):
                raise s
            dz = abs(leaf_label_physical(s.fx, 0.0)
                     - leaf_label_physical(x, 0.0))
            assert dz < 1e-6
        # both vertical collision fixed points, one per page orientation
        up = find_periodic_point(vertical_seed(0.0, c), k=1, mu=0.0, c=c,
                                 cfg=cfg)
        assert up.residual < 1e-10
        down = find_periodic_point(involution(vertical_seed(0.0, c)), k=1,
                                   mu=0.0, c=c, cfg=cfg,
                                   spec=SectionSpec(theta=math.pi))
        assert down.residual < 1e-10
        assert up.period == pytest.approx(down.period, abs=1e-9)


def test_ac10_perturbed_recurrence_distribution():
    with Budget(60.0):
        mu = 1e-3
        c = -1.7
        rng = np.random.default_rng(105)
        cfg = IntegratorConfig(max_time=20.0)
        pts = sample_page_states(mu, c, 1000, rng, component="earth")
        deltas = []
        for x, s in zip(pts, return_map_many(pts, mu, c=c, cfg=cfg)):
            if isinstance(s, SectionScopeError):
                continue
            deltas.append(abs(leaf_label_physical(s.fx, mu)
                              - leaf_label_physical(x, mu)))
        deltas = np.array(deltas)
        assert len(deltas) > 900
        assert np.min(deltas) < 1e-3  # near-recurrent leaves survive
        # the full distribution, for the record
        qs = np.percentile(deltas, [0, 25, 50, 75, 100])
        print("leaf-delta percentiles (0/25/50/75/100):", qs)
        assert np.all(np.isfinite(qs))


def test_ac11_continued_vertical_orbit_floquet():
    with Budget(60.0):
        cfg = IntegratorConfig(max_time=5.0)
        c = -1.7
        seed = find_periodic_point(vertical_seed(0.0, c), k=1, mu=0.0,
                                   c=c, cfg=cfg)
        members = continue_family(seed, "mu", 1e-2, 1e-3, cfg=cfg)
        orbit = members[-1]
        assert orbit.mu == pytest.approx(1e-2, abs=1e-14)
        traj = integrate(orbit.representative, orbit.mu, cfg, orbit.period,
                         c=c)
        assert np.linalg.norm(traj.final_state()
                              - orbit.representative) < 1e-8
        mult = floquet_multipliers(orbit)
        assert reciprocal_pair_residual(mult) < 1e-6


def test_ac12_energy_conservation():
    with Budget(30.0):
        mu = EARTH_MOON_MU
        c = lagrange_points(mu).energies[0] - 0.05
        rng = np.random.default_rng(106)
        cfg = IntegratorConfig(tol=1e-12, max_time=150.0)
        pts = sample_shell_states(mu, c, 10, rng, component="earth")
        for traj in integrate_many(pts, mu, cfg, [100.0] * len(pts),
                                   [c] * len(pts)):
            assert traj.energy_drift() < 1e-9 * abs(c)
