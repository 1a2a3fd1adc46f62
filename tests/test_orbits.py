"""Periodic-orbit shooting, symmetric planar orbits, continuation, Floquet."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectionscope.cr3bp import (EARTH_MOON_MU, hamiltonian,
                                hamiltonian_gradient, lagrange_points)
from sectionscope.errors import (ConfigError, ConvergenceError, FoldDetected,
                                 JacobianSingularError, MaxTimeExceeded)
from sectionscope import orbits
from sectionscope.flows import IntegratorConfig, flight_jacobian, integrate
from sectionscope.orbits import (_classify_spatial, _half_orbit_p1,
                                 continue_family, find_periodic_point,
                                 find_symmetric_planar_orbit,
                                 floquet_multipliers,
                                 reciprocal_pair_residual, vertical_seed)
from sectionscope.sections import return_map_iter

from oracles import central_jacobian

C_TEST = -1.7
VERTICAL_PERIOD = 1.0022163715043540  # 2 pi (-1/(2c))^{3/2} at c = -1.7


def test_vertical_seed_exact_at_zero_mass_ratio():
    x = vertical_seed(0.0, C_TEST)
    assert np.allclose(x, [0.0, 0.0, 10.0 / 17.0, 0.0, 0.0, 0.0],
                       atol=1e-12)
    assert hamiltonian(x, 0.0) == pytest.approx(C_TEST, abs=1e-13)


def test_vertical_fixed_point_newton():
    cfg = IntegratorConfig(max_time=5.0)
    # start off the exact point to give Newton something to do
    x0 = vertical_seed(0.0, C_TEST)
    x0[0] += 2e-3
    x0[4] += 1e-3
    from sectionscope.sections import page_embed, page_frame
    x0 = page_embed(x0, page_frame(x0, 0.0), np.zeros(4), 0.0, C_TEST, 0.0)
    orbit = find_periodic_point(x0, k=1, mu=0.0, c=C_TEST, cfg=cfg)
    assert orbit.residual < 1e-10
    assert orbit.period == pytest.approx(VERTICAL_PERIOD, abs=1e-8)
    assert orbit.symmetry == "vertical-collision"
    # quadratic contraction in the recorded history
    hist = orbit.newton_history
    assert hist[-1] < 1e-10
    for r0, r1 in zip(hist[:-2], hist[1:-1]):
        if r0 > 1e-7:  # above FD noise the contraction is quadratic
            assert r1 < 10.0 * r0 ** 2 + 1e-12


def test_classification_stops_at_the_first_spatial_flight(monkeypatch):
    # the label reads a return's flights lead first and stops at the first
    # one labelled 'spatial', which settles it: at mu > 0 the lead does,
    # and the main flight is not read.  Over the shoot workload's (mu, c)
    # box the label is the one that every main flight, read in full,
    # gives: their one label, else 'spatial'
    read = []

    def counted(traj, _orig=orbits._classify_spatial):
        read.append(traj)
        return _orig(traj)
    monkeypatch.setattr(orbits, "_classify_spatial", counted)
    for mu in (0.0, 2e-3, 6e-3, 1e-2):
        for c in (-1.80, -1.75, -1.70):
            read.clear()
            orbit = find_periodic_point(vertical_seed(mu, c), mu=mu, c=c,
                                        tol=1e-10)
            (lead, main), = orbit.flights
            assert read == ([lead] if mu > 0 else [lead, main])
            tags = {_classify_spatial(traj) for _, traj in orbit.flights}
            assert orbit.symmetry == (tags.pop() if len(tags) == 1
                                      else "spatial")
            assert orbit.symmetry == ("spatial" if mu > 0
                                      else "vertical-collision")


def test_orbit_closes_under_reintegration():
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                                c=C_TEST, cfg=cfg)
    traj = integrate(orbit.representative, 0.0, cfg, orbit.period, c=C_TEST)
    assert np.linalg.norm(traj.final_state() - orbit.representative) < 1e-8


def test_continued_vertical_orbit_small_mass_ratio():
    cfg = IntegratorConfig(max_time=5.0)
    mu = 1e-3
    orbit = find_periodic_point(vertical_seed(mu, C_TEST), k=1, mu=mu,
                                c=C_TEST, cfg=cfg)
    assert orbit.residual < 1e-9
    traj = integrate(orbit.representative, mu, cfg, orbit.period, c=C_TEST)
    assert np.linalg.norm(traj.final_state() - orbit.representative) < 1e-8


def test_find_periodic_point_has_no_ellipsoid_switch():
    seed = vertical_seed(0.0, C_TEST)
    with pytest.raises(TypeError):
        find_periodic_point(seed, mu=0.0, system="ellipsoid")
    with pytest.raises(TypeError):
        find_periodic_point(seed, mu=0.0, ab=(1.0, 2.0))


def test_symmetric_planar_circular_orbit_kepler():
    # mu=0, c=-1.5: the retrograde circular orbit has q1=1/4, p2=-2 and
    # rotating-frame period 2 pi / 9 (Kepler n=8, period 2 pi / (n+1))
    cfg = IntegratorConfig(max_time=3.0)
    orbit = find_symmetric_planar_orbit(-1.5, 0.0, 0.3, branch=-1, cfg=cfg)
    assert orbit.representative[0] == pytest.approx(0.25, abs=1e-10)
    assert orbit.representative[4] == pytest.approx(-2.0, abs=1e-9)
    assert orbit.period == pytest.approx(2.0 * math.pi / 9.0, abs=1e-9)
    assert orbit.residual < 1e-8


def test_symmetric_orbit_x_axis_invariance():
    # the orbit is invariant under (q2, p1) -> (-q2, -p1) with t -> -t
    cfg = IntegratorConfig(max_time=3.0)
    orbit = find_symmetric_planar_orbit(-1.5, 0.0, 0.3, branch=-1, cfg=cfg)
    traj = integrate(orbit.representative, 0.0, cfg, orbit.period, c=-1.5)
    for t in np.linspace(0.0, orbit.period, 17):
        s = traj.state(t)
        sm = traj.state(orbit.period - t)
        mirror = np.array([sm[0], -sm[1], sm[2], -sm[3], sm[4], sm[5]])
        assert np.linalg.norm(s - mirror) < 1e-8


def test_earth_moon_branches_retrograde_and_direct():
    cfg = IntegratorConfig(max_time=3.0)
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.05
    m1 = mu - 1.0
    retro = find_symmetric_planar_orbit(c, mu, m1 + 0.05, branch=-1, cfg=cfg)
    direct = find_symmetric_planar_orbit(c, mu, m1 + 0.05, branch=+1, cfg=cfg)
    assert retro.residual < 1e-9 and direct.residual < 1e-9
    assert abs(retro.period - direct.period) > 0.1  # genuinely distinct


def _symmetric_seeds():
    """(c, mu, q1, branch) of the mu = 0 circular orbit and of the
    Earth-Moon retrograde and direct orbits around the Moon."""
    mu = EARTH_MOON_MU
    c = lagrange_points(mu).energies[0] - 0.05
    return [(-1.5, 0.0, 0.3, -1), (c, mu, mu - 1.0 + 0.05, -1),
            (c, mu, mu - 1.0 + 0.05, 1)]


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_shooting_slope_matches_central_difference(seed):
    # dp1/dq1 from the half orbit's own flights, along the start tangent
    # that keeps H = c, against a central difference of whole half orbits
    c, mu, q1, branch = _symmetric_seeds()[seed]
    cfg = IntegratorConfig(max_time=3.0)
    _, _, x, (lead, traj) = _half_orbit_p1(q1, c, mu, branch, cfg)
    grad = hamiltonian_gradient(x, mu)
    v = np.zeros((6, 1))
    v[0], v[4] = 1.0, -grad[0] / grad[4]
    got = flight_jacobian(traj, flight_jacobian(lead, v)[0])[0][3, 0]
    fd = central_jacobian(
        lambda q: np.array([_half_orbit_p1(q[0], c, mu, branch, cfg)[0]]),
        [q1], 1e-7)[0, 0]
    assert abs(got - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_shooting_flies_each_half_orbit_once(seed, monkeypatch):
    # two flights per half orbit (the lead off the axis, then the half
    # orbit) and one full-period flight at the end: no finite-difference
    # flights, and an accepted trial's half orbit is not flown again
    from sectionscope import flows
    calls = []
    fly = flows.integrate_many

    def counted(*args, **kwargs):
        calls.append(args)
        return fly(*args, **kwargs)

    monkeypatch.setattr(flows, "integrate_many", counted)
    c, mu, q1, branch = _symmetric_seeds()[seed]
    orbit = find_symmetric_planar_orbit(c, mu, q1, branch=branch,
                                        cfg=IntegratorConfig(max_time=3.0))
    steps = len(orbit.newton_history) - 1
    # every Newton step on these seeds is a full one: no Armijo halvings,
    # so the bound 2 + 2 (steps + halvings) + 1 is met with equality
    assert len(calls) == 2 + 2 * steps + 1


def test_continuation_to_small_mass_ratio():
    cfg = IntegratorConfig(max_time=5.0)
    seed = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                               c=C_TEST, cfg=cfg)
    members = continue_family(seed, "mu", 5e-3, 1e-3, cfg=cfg)
    assert len(members) == 6
    assert members[-1].mu == pytest.approx(5e-3, abs=1e-14)
    for m in members:
        assert m.residual < 1e-9
    # the family moves continuously
    reps = np.array([m.representative for m in members])
    steps = np.linalg.norm(np.diff(reps, axis=0), axis=1)
    assert np.all(steps < 0.05)


def test_continuation_requires_converged_seed():
    cfg = IntegratorConfig(max_time=5.0)
    seed = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                               c=C_TEST, cfg=cfg)
    bad = type(seed)(representative=seed.representative + 1e-3,
                     period=seed.period, energy=seed.energy, mu=seed.mu,
                     residual=1e-3)
    with pytest.raises(ConfigError):
        continue_family(bad, "mu", 1e-2, 1e-3, cfg=cfg)


@pytest.mark.parametrize("step", [0.0, math.nan])
def test_continuation_refuses_a_step_that_cannot_move(step):
    # a zero step would re-solve the same member forever
    seed = orbits.PeriodicOrbit(representative=np.zeros(6), period=1.0,
                                energy=C_TEST, mu=0.0, residual=0.0)
    with pytest.raises(ConfigError, match="step"):
        continue_family(seed, "mu", 1e-2, step)


def _timing_out_corrector(monkeypatch, failures):
    """Patch the corrector continue_family calls to raise MaxTimeExceeded
    at its first ``failures`` calls; returns the mu of every call."""
    tried = []

    def corrector(x, mu, **kwargs):
        tried.append(mu)
        if len(tried) <= failures:
            raise MaxTimeExceeded("no page return within max_time")
        return find_periodic_point(x, mu=mu, **kwargs)
    monkeypatch.setattr(orbits, "find_periodic_point", corrector)
    return tried


def test_continuation_halves_the_step_when_a_corrector_times_out(
        monkeypatch):
    # a corrector flight without a page return within max_time is a
    # corrector failure like any other: the step is halved
    cfg = IntegratorConfig(max_time=5.0)
    seed = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                               c=C_TEST, cfg=cfg)
    tried = _timing_out_corrector(monkeypatch, 1)
    members = continue_family(seed, "mu", 1e-3, 1e-3, cfg=cfg)
    assert tried == [1e-3, 5e-4, 1e-3]
    assert [m.mu for m in members] == [0.0, 5e-4, 1e-3]
    assert all(m.residual < 1e-9 for m in members)


def test_continuation_reraises_a_timeout_below_the_minimum_step(
        monkeypatch):
    # a corrector that always times out halves the step below min_step:
    # its MaxTimeExceeded propagates, not FoldDetected
    cfg = IntegratorConfig(max_time=5.0)
    seed = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                               c=C_TEST, cfg=cfg)
    tried = _timing_out_corrector(monkeypatch, math.inf)
    with pytest.raises(MaxTimeExceeded, match="no page return"):
        continue_family(seed, "mu", 1e-2, 1e-3, cfg=cfg, min_step=2e-4)
    assert tried == [1e-3, 5e-4, 2.5e-4]


def test_continuation_giant_step_never_silently_wrong():
    # an absurd single step to mu = 0.5 either fails loudly or delivers a
    # member that genuinely closes at the new mass ratio
    cfg = IntegratorConfig(max_time=5.0)
    seed = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                               c=C_TEST, cfg=cfg)
    try:
        members = continue_family(seed, "mu", 0.5, 0.5, min_step=0.01,
                                  cfg=cfg, max_iter=8)
    except (FoldDetected, ConvergenceError, JacobianSingularError,
            MaxTimeExceeded):
        return
    last = members[-1]
    assert last.mu == pytest.approx(0.5, abs=1e-14)
    assert last.residual < 1e-9
    traj = integrate(last.representative, 0.5, cfg, last.period, c=C_TEST)
    assert np.linalg.norm(traj.final_state() - last.representative) < 1e-7


def test_floquet_reciprocal_pairs_and_unit_multipliers():
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                                c=C_TEST, cfg=cfg)
    mult = floquet_multipliers(orbit)
    assert len(mult) == 6
    assert reciprocal_pair_residual(mult) < 1e-6
    # the trivial pair along the orbit/energy directions sits at 1 (the
    # exact pair is checked by the property test below)
    assert np.sum(np.abs(mult - 1.0) < 1e-3) >= 2


def test_floquet_symmetric_orbit():
    # the closure flight's monodromy reduced to the transversal at the
    # representative: its four eigenvalues are the 6x6 monodromy's
    # nontrivial ones, and the trivial pair, which the monodromy splits by
    # up to 2.6e-5, is exactly 1
    cfg = IntegratorConfig(max_time=3.0)
    for c, mu, q1 in [(-1.5, 0.0, 0.3), (-1.6, 1e-3, 0.3),
                      (-1.5, EARTH_MOON_MU, 0.25)]:
        orbit = find_symmetric_planar_orbit(c, mu, q1, branch=-1, cfg=cfg)
        mult = floquet_multipliers(orbit)
        assert len(mult) == 6 and mult[4] == mult[5] == 1.0
        monodromy, _ = flight_jacobian(
            orbit.flights, np.eye(6),
            hamiltonian_gradient(orbit.representative, mu))
        flown = np.linalg.eigvals(monodromy)
        trivial = np.argsort(np.abs(flown - 1.0))[:2]
        for lam in np.delete(flown, trivial):
            assert np.abs(mult[:4] - lam).min() < 1e-9
        assert reciprocal_pair_residual(mult) < 1e-9


def test_floquet_refuses_unconverged_orbit():
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                                c=C_TEST, cfg=cfg)
    orbit.residual = 1e-6
    with pytest.raises(ConfigError):
        floquet_multipliers(orbit)


def test_floquet_refuses_orbit_without_flights():
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                                c=C_TEST, cfg=cfg)
    orbit.flights = []
    with pytest.raises(ConfigError):
        floquet_multipliers(orbit)


def test_floquet_flies_nothing(monkeypatch):
    # the multipliers come from the flights the search already flew
    from sectionscope import flows, orbits
    cfg = IntegratorConfig(max_time=5.0)
    found = [find_periodic_point(vertical_seed(3e-3, C_TEST), k=1, mu=3e-3,
                                 c=C_TEST, cfg=cfg),
             find_symmetric_planar_orbit(-1.5, 0.0, 0.3, branch=-1, cfg=cfg)]
    calls = []
    for owner, name in ((flows, "solve_ivp"), (orbits, "integrate")):
        def counted(*args, _orig=getattr(owner, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for orbit in found:
            assert len(floquet_multipliers(orbit)) == 6
    assert calls == []


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.0, 1e-2), c=st.floats(-1.80, -1.70))
def test_vertical_multipliers_pair_up_with_an_exact_unit_pair(mu, c):
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(mu, c), k=1, mu=mu, c=c,
                                cfg=cfg)
    mult = floquet_multipliers(orbit)
    assert reciprocal_pair_residual(mult) <= 1e-10
    assert mult[4] == 1.0 and mult[5] == 1.0


def test_orbit_json_round_trip():
    import json
    cfg = IntegratorConfig(max_time=5.0)
    orbit = find_periodic_point(vertical_seed(0.0, C_TEST), k=1, mu=0.0,
                                c=C_TEST, cfg=cfg)
    d = json.loads(json.dumps(orbit.to_json()))
    assert d["symmetry"] == "vertical-collision"
    assert d["period"] == pytest.approx(orbit.period, rel=1e-15)
    assert len(d["representative"]) == 6


# --- shooting matrix and monodromy from the flights' own steps ---


@pytest.mark.parametrize("mu", [0.0, 3e-3, 1e-2])
def test_shooting_matrix_and_monodromy_match_central_differences(mu):
    from sectionscope.sections import (page_coords, page_embed, page_frame,
                                       page_map_derivative, return_map_iter)
    cfg = IntegratorConfig(max_time=50.0)
    c = -1.75
    # the shooting matrix at the Newton seed, as find_periodic_point builds
    # it, against the central difference of its closure
    x = vertical_seed(mu, c)
    _, _, _, flights = return_map_iter(x, 1, mu, c=c, cfg=cfg)
    frame = page_frame(x, mu)
    got = page_map_derivative(flights, frame, frame) - np.eye(4)

    def closure(u):
        y = page_embed(x, frame, u, mu, c, 0.0)
        return page_coords(x, frame, return_map_iter(y, 1, mu, c=c,
                                                     cfg=cfg)[0]) - u

    fd = central_jacobian(closure, np.zeros(4), 1e-6)
    assert np.abs(got - fd).max() < 1e-5 * np.abs(fd).max()
    # the monodromy of the converged orbit, against the central difference
    # of the full-period flow map (each start at its own energy)
    orbit = find_periodic_point(x, mu=mu, c=c, cfg=cfg)
    x, period = orbit.representative, orbit.period
    monodromy, _ = flight_jacobian(integrate(x, mu, cfg, period), np.eye(6),
                                   hamiltonian_gradient(x, mu))
    fd = central_jacobian(
        lambda y: integrate(y, mu, cfg, period).final_state(), x, 1e-7)
    assert np.abs(monodromy - fd).max() < 1e-5 * np.abs(fd).max()
    mult = floquet_multipliers(orbit)
    # the page map's four multipliers are the monodromy's nontrivial ones;
    # the trivial pair, which the monodromy splits, is exactly 1
    flown = np.linalg.eigvals(monodromy)
    trivial = np.argsort(np.abs(flown - 1.0))[:2]
    for lam in np.delete(flown, trivial):
        assert np.abs(mult[:4] - lam).min() < 1e-10
    assert np.count_nonzero(mult == 1.0) == 2
    assert reciprocal_pair_residual(mult) < 1e-9


_VERTICAL_CASES = [(0.0, -1.75), (3e-3, -1.72), (8e-3, -1.78)]


@pytest.mark.parametrize("mu,c", _VERTICAL_CASES)
def test_two_return_derivative_is_the_product_of_one_return_ones(mu, c):
    # one flight_jacobian pass over both returns' flights equals the
    # product of the one-return derivatives, each in its own page frames
    from sectionscope.sections import (page_embed, page_frame,
                                       page_map_derivative, return_map_iter)
    cfg = IntegratorConfig(max_time=50.0)
    x = vertical_seed(mu, c)
    x = page_embed(x, page_frame(x, mu), np.array([1e-3, 0.0, 5e-4, 0.0]),
                   mu, c, 0.0)
    fx, _, samples, flights = return_map_iter(x, 2, mu, c=c, cfg=cfg)
    frames = [page_frame(y, mu) for y in (x, samples[0].fx, fx)]
    both = page_map_derivative(flights, frames[0], frames[2])
    first = page_map_derivative(flights[:1], frames[0], frames[1])
    second = page_map_derivative(flights[1:], frames[1], frames[2])
    assert np.abs(both - second @ first).max() <= 1e-10 * np.abs(both).max()


@pytest.mark.parametrize("mu,c", _VERTICAL_CASES)
def test_monodromy_of_vertical_orbits_is_symplectic(mu, c):
    # the full-period flow map differentiated from its own steps keeps the
    # symplectic form at integrator precision
    cfg = IntegratorConfig(max_time=50.0)
    orbit = find_periodic_point(vertical_seed(mu, c), mu=mu, c=c, cfg=cfg)
    x = orbit.representative
    M, _ = flight_jacobian(integrate(x, mu, cfg, orbit.period), np.eye(6),
                           hamiltonian_gradient(x, mu))
    omega = np.block([[np.zeros((3, 3)), np.eye(3)],
                      [-np.eye(3), np.zeros((3, 3))]])
    assert np.linalg.norm(M.T @ omega @ M - omega) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(mu=st.sampled_from([0.0, 3e-3]), c=st.floats(-1.8, -1.7))
def test_vertical_orbits_lie_on_the_krein_parabola_only_at_mu_zero(mu, c):
    # Broucke's stability point (A, B) of the page map J: the integrable
    # problem has a double pair of multipliers, which puts it on the Krein
    # collision parabola A^2 - 4B + 8 = 0; the Moon moves it off
    from sectionscope.sections import page_frame, page_map_derivative
    orbit = find_periodic_point(vertical_seed(mu, c), mu=mu, c=c,
                                cfg=IntegratorConfig(max_time=50.0))
    frame = page_frame(orbit.representative, mu)
    J = page_map_derivative(orbit.flights, frame, frame)
    A = np.trace(J)
    B = (A * A - np.trace(J @ J)) / 2
    krein = abs(A * A - 4 * B + 8)
    if mu == 0.0:
        assert krein <= 1e-9
    else:
        assert krein > 1e-6


def _steps_holding(seg, times):
    """Indices of seg's steps whose span holds one of the physical times
    (ends included)."""
    sol = seg.sol
    if seg.chart == "rot":
        lo, hi = sol.ts[:-1], sol.ts[1:]
    else:       # the clock, row 8, at the start of each step
        lo = sol.y_old[:, 8]
        hi = np.append(lo[1:], seg.t1)
    return {int(k) for t in times for k in np.flatnonzero((lo <= t)
                                                          & (t <= hi))}


def test_newton_trial_flights_fill_only_event_steps_and_ends(monkeypatch):
    # a trial return map's flights are read at their event roots, filled
    # in the flight, and at the end of each segment (the next leg's
    # start, the return's burn-in end, flight_jacobian); every other
    # step's interpolant is never computed
    mu, c = 3e-3, -1.72
    flown = []

    def recording(*args, **kwargs):
        out = return_map_iter(*args, **kwargs)
        flown.extend(out[3])
        return out

    monkeypatch.setattr(orbits, "return_map_iter", recording)
    orbit = find_periodic_point(vertical_seed(mu, c), mu=mu, c=c,
                                cfg=IntegratorConfig(max_time=50.0),
                                tol=1e-10)
    final = {id(traj) for pair in orbit.flights for traj in pair}
    trials = [traj for pair in flown for traj in pair
              if id(traj) not in final]
    assert len(orbit.newton_history) >= 2 and trials
    pending = steps = 0
    for traj in trials:
        hits = [t for _, t, _ in traj.event_hits]
        for seg in traj.segments:
            sol = seg.sol
            n = len(sol.h)
            filled = (np.ones(n, dtype=bool) if sol._pending is None
                      else ~sol._pending)
            allowed = _steps_holding(seg, hits) | {n - 1}
            assert set(np.flatnonzero(filled).tolist()) <= allowed
            pending += n - int(filled.sum())
            steps += n
    assert pending > 0.5 * steps


def _classify_reading_everything(traj):
    """_classify_spatial without stop_below: both maxima over the whole
    flight."""
    planar = -traj.min_over(lambda s: -(abs(s[2]) + abs(s[5])), rows=(2, 5))
    if planar < 1e-8:
        return "planar"
    horiz = -traj.min_over(lambda s: -(s[0] ** 2 + s[1] ** 2 + s[3] ** 2
                                       + s[4] ** 2), rows=(0, 1, 3, 4))
    return "vertical-collision" if horiz < 1e-10 else "spatial"


def test_classify_spatial_stops_reading_with_the_same_label():
    cfg = IntegratorConfig(max_time=50.0)

    def first_return(mu, c):
        return return_map_iter(vertical_seed(mu, c), 1, mu, c=c,
                               cfg=cfg)[3][0][1]

    flights = {
        "planar": integrate(np.array([0.5, 0.0, 0.0, 0.0, 0.9, 0.0]), 1e-3,
                            cfg, 5.0),
        "vertical-collision": first_return(0.0, -1.75),
        "spatial": first_return(3e-3, -1.72),
    }
    for label, traj in flights.items():
        assert _classify_spatial(traj) == label
        if label == "spatial":
            # settled in the first sample group: later segments unread
            assert len(traj.segments) > 1
            assert all(seg.sol._pending is not None
                       for seg in traj.segments[1:])
        assert _classify_reading_everything(traj) == label
