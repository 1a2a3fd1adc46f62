"""Adaptive integration with chart switching: closure, conservation,
events, error modes."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectionscope.cr3bp import EARTH_MOON_MU, hamiltonian, \
    lagrange_points, sample_shell_states
from sectionscope.errors import (ConfigError, MaxTimeExceeded,
                                 NoCrossingError, StepSizeUnderflow)
from sectionscope.cr3bp import hamiltonian_gradient
from sectionscope.flows import (_READ_CAP, _READ_SPAN, FlowEvent,
                                IntegratorConfig, Segment, flight_jacobian,
                                integrate)
import sectionscope
from sectionscope import flows
from sectionscope.regularize import MoserChart
from sectionscope.sections import _binding_bound

import oracles
from oracles import central_jacobian, event_crossing

C_TEST = -1.7
VERTICAL_APEX = np.array([0.0, 0.0, 10.0 / 17.0, 0.0, 0.0, 0.0])
VERTICAL_PERIOD = 1.0022163715043540  # 2 pi (-1/(2c))^{3/2} at c = -1.7


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(tol=0.1)
    with pytest.raises(ConfigError):
        IntegratorConfig(tol=math.nan)


@pytest.mark.parametrize("field,bad", [
    ("tol", 0.0),
    ("tol", -1e-12),
    ("max_time", -1.0),
    ("switching", "yes"),
])
def test_config_rejects_each_bad_field(field, bad):
    # construction only
    with pytest.raises(ConfigError):
        IntegratorConfig(**{field: bad})


def test_config_has_no_reg_chunk():
    # a Moser-chart stay is one solve; there is no chunk length to set
    with pytest.raises(TypeError):
        IntegratorConfig(reg_chunk=2.0)


@pytest.mark.parametrize("field", ["max_step", "collision_switch_radius",
                                   "constraint_tol", "max_reg_time",
                                   "rel_tol", "abs_tol"])
def test_config_has_no_fixed_field(field):
    # no step limit; the switch radius, the constraint limit and the
    # regularized-time budget are module constants, and one tolerance
    # is both the relative and the absolute one
    with pytest.raises(TypeError):
        IntegratorConfig(**{field: 0.05})


def test_trajectory_energy_is_a_float():
    # a numpy c would run every Moser field evaluation on numpy scalars
    traj = integrate(VERTICAL_APEX, 0.0, IntegratorConfig(), 0.1)
    assert type(traj.energy) is float
    traj = integrate(VERTICAL_APEX, 0.0, IntegratorConfig(), 0.1,
                     c=np.float64(C_TEST))
    assert type(traj.energy) is float


def test_circular_orbit_closes_no_switches():
    # mu=0 circular orbit is a rotating-frame equilibrium: ten periods
    s0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    traj = integrate(s0, 0.0, IntegratorConfig(max_time=100.0),
                     10 * 2 * math.pi)
    assert traj.chart_switches == 0
    assert np.linalg.norm(traj.final_state() - s0) < 1e-8


def test_vertical_collision_orbit_periodic_through_collision():
    cfg = IntegratorConfig(max_time=5.0)
    traj = integrate(VERTICAL_APEX, 0.0, cfg, VERTICAL_PERIOD, c=C_TEST)
    assert traj.chart_switches >= 2  # in and out of the collision chart
    assert np.linalg.norm(traj.final_state() - VERTICAL_APEX) < 1e-8
    assert traj.constraint_residual_max < 1e-6


def test_vertical_collision_without_switching_underflows():
    cfg = IntegratorConfig(max_time=5.0, switching=False)
    with pytest.raises(StepSizeUnderflow):
        integrate(VERTICAL_APEX, 0.0, cfg, VERTICAL_PERIOD, c=C_TEST)


def test_energy_drift_nonsingular_orbits():
    rng = np.random.default_rng(12)
    mu = EARTH_MOON_MU
    from sectionscope.cr3bp import lagrange_points
    c = lagrange_points(mu).energies[0] - 0.05
    cfg = IntegratorConfig(max_time=150.0)
    pts = sample_shell_states(mu, c, 3, rng, component="earth")
    for s in pts:
        traj = integrate(s, mu, cfg, 100.0, c=c)
        assert traj.energy_drift() < 1e-9 * abs(c)


def test_chart_switch_continuity():
    cfg = IntegratorConfig(max_time=5.0)
    traj = integrate(VERTICAL_APEX, 0.0, cfg, VERTICAL_PERIOD, c=C_TEST)
    # states straddling each switch time agree through the chart maps
    assert len(traj.segments) > 1
    for seg_prev, seg_next in zip(traj.segments[:-1], traj.segments[1:]):
        t_sw = seg_next.t0
        s_minus = traj.state(t_sw - 1e-9)
        s_plus = traj.state(t_sw + 1e-9)
        if s_minus is not None and s_plus is not None:
            assert np.linalg.norm(s_plus - s_minus) < 1e-6


def test_reversibility():
    rng = np.random.default_rng(13)
    mu = EARTH_MOON_MU
    from sectionscope.cr3bp import lagrange_points
    c = lagrange_points(mu).energies[0] - 0.05
    cfg = IntegratorConfig(max_time=30.0)
    s0 = sample_shell_states(mu, c, 1, rng, component="earth")[0]
    fwd = integrate(s0, mu, cfg, 10.0, c=c)
    back = integrate(fwd.final_state(), mu, cfg, 0.0, c=c, t0=10.0)
    assert np.linalg.norm(back.final_state() - s0) < 1e-7


def test_max_time_carries_partial_trajectory():
    cfg = IntegratorConfig(max_time=1.0)
    with pytest.raises(MaxTimeExceeded) as exc:
        integrate(VERTICAL_APEX, 0.0, cfg, 10.0, c=C_TEST)
    traj = exc.value.trajectory
    assert traj is not None
    assert traj.t_end == pytest.approx(1.0, abs=1e-9)


def test_terminal_event_stops_run():
    s0 = np.array([1.0, 0.0, 0.1, 0.0, 1.0, 0.0])
    ev = FlowEvent(lambda s: s[2], direction=-1.0, terminal=True, name="q3")
    traj = integrate(s0, 0.0, IntegratorConfig(max_time=50.0), 50.0,
                     events=[ev])
    assert traj.stopped_by == 0
    t_hit, s_hit = traj.event_hits[-1][1], traj.event_hits[-1][2]
    assert abs(s_hit[2]) < 1e-10
    assert traj.t_end == pytest.approx(t_hit, abs=1e-12)


def test_event_crossing_refinement_and_tangency():
    s0 = np.array([1.0, 0.0, 0.1, 0.0, 1.0, 0.0])
    traj = integrate(s0, 0.0, IntegratorConfig(max_time=20.0), 10.0)
    t_star, s_star = event_crossing(traj, lambda s: s[2], direction=-1)
    assert abs(s_star[2]) < 1e-10
    # compare against the integrator's own event location
    ev = FlowEvent(lambda s: s[2], direction=-1.0, terminal=True)
    traj2 = integrate(s0, 0.0, IntegratorConfig(max_time=20.0), 10.0,
                      events=[ev])
    assert t_star == pytest.approx(traj2.event_hits[-1][1], abs=1e-10)
    # squared event has only tangential roots: must not report a hit
    with pytest.raises(NoCrossingError):
        event_crossing(traj, lambda s: s[2] ** 2, direction=-1)


def test_moser_chart_start():
    # start the flow directly from regularized coordinates
    ch = MoserChart(EARTH_MOON_MU, "moon")
    s = np.array([EARTH_MOON_MU - 1.0 + 0.02, 0.0, 0.0, 0.0, -1.0, 0.0])
    c = hamiltonian(s, EARTH_MOON_MU)
    xi, eta = ch.from_physical(s)
    cfg = IntegratorConfig(max_time=2.0)
    traj = integrate((xi, eta), EARTH_MOON_MU, cfg, 0.5, c=c,
                     start_chart="moon")
    assert traj.t_end == pytest.approx(0.5, abs=1e-12)
    direct = integrate(s, EARTH_MOON_MU, cfg, 0.5, c=c)
    assert np.linalg.norm(traj.final_state() - direct.final_state()) < 1e-8


def _oracle_min_over(traj, fn, n_per_segment=60):
    """Per-sample reference for Trajectory.min_over: one dense-output call,
    one chart map and one fn call per sample of Segment.sample_blocks."""
    best = math.inf
    for seg in traj.segments:
        for s in np.concatenate(seg.sample_blocks(n_per_segment)):
            z = seg.sol(s)
            if seg.chart == "rot":
                st = z
            else:
                if 1.0 - z[0] < 1e-9:
                    continue
                st = seg.moser.to_physical(z[:4], z[4:8])
            best = min(best, fn(st))
    return best


def _oracle_energy_drift(traj, n_per_segment=30):
    """Per-sample reference for Trajectory.energy_drift: H - c in the rot
    chart, Q - g^2/2 in a Moser chart, one sample at a time."""
    worst = 0.0
    for seg in traj.segments:
        for s in np.concatenate(seg.sample_blocks(n_per_segment)):
            z = seg.sol(s)
            if seg.chart == "rot":
                dev = abs(hamiltonian(z, traj.mu) - traj.energy)
            else:
                dev = abs(seg.moser.Q(z[:4], z[4:8], traj.energy)
                          - seg.moser.q_level())
            worst = max(worst, dev)
    return worst / max(1.0, abs(traj.energy))


def _linspace_blocks(seg, n):
    """Reference for Segment.sample_blocks: one np.linspace per block."""
    lo, hi = float(seg.nodes[0]), float(seg.nodes[-1])
    k = 1 if seg.chart == "rot" else math.ceil((hi - lo) / _READ_SPAN)
    edges = [lo + _READ_SPAN * i for i in range(max(k, 1))] + [hi]
    return [np.linspace(a, b, n) for a, b in zip(edges[:-1], edges[1:])]


@settings(max_examples=300, deadline=None)
@given(chart=st.sampled_from(["rot", "moser-earth"]),
       lo=st.floats(-100.0, 100.0),
       length=st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                        st.floats(10.0, 1000.0)),
       n=st.integers(2, 90))
def test_sample_blocks_match_linspace_per_block(chart, lo, length, n):
    nodes = np.array([lo, lo + 0.5 * length, lo + length])
    seg = Segment(chart=chart, sol=None, t0=lo, t1=lo + length, nodes=nodes)
    want = np.array(_linspace_blocks(seg, n))
    got = seg.sample_blocks(n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_min_over_matches_per_sample_oracle(monkeypatch):
    # start on the collision fiber of the Earth chart at mu = 0 (the first
    # Moser sample has no physical image), fly out through the rotating
    # chart and back into the collision
    c = C_TEST
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    eta = np.array([0.0, 0.0, 0.0, 1.0])  # Q = g^2/2 with g = 1
    cfg = IntegratorConfig(max_time=5.0)
    traj = integrate((xi, eta), 0.0, cfg, 1.2, c=c, start_chart="earth")
    charts = [seg.chart for seg in traj.segments]
    assert "rot" in charts and "moser-earth" in charts
    first = traj.segments[0]
    assert first.chart == "moser-earth"
    assert 1.0 - first.sol(first.nodes[0])[0] < 1e-9
    fns = [(lambda s, k=k, sign=sign: sign * s[k], (k,))
           for k in range(6) for sign in (1.0, -1.0)]
    # the binding read of sections and the two reads of orbits
    fns += [(lambda s: s[2] ** 2 + s[5] ** 2, (2, 5)),
            (lambda s: -(abs(s[2]) + abs(s[5])), (2, 5)),
            (lambda s: -(s[0] ** 2 + s[1] ** 2 + s[3] ** 2 + s[4] ** 2),
             (0, 1, 3, 4))]
    for fn, rows in fns:
        want = _oracle_min_over(traj, fn)
        assert traj.min_over(fn) == want
        assert traj.min_over(fn, rows=rows) == want
    # a tight circular Kepler orbit stays in the chart for about 330 units
    # of regularized time: 166 blocks, read in several groups
    r = 0.03
    q = r * np.array([0.0, math.cos(0.6), math.sin(0.6)])
    p = np.array([-math.sqrt(1.0 / r), 0.0, 0.0]) + \
        np.array([-q[1], q[0], 0.0])
    traj = integrate(np.concatenate([q, p]), 0.0, IntegratorConfig(), 10.0)
    stay, = [seg for seg in traj.segments if seg.chart != "rot"]
    assert len(stay.sample_blocks(60)) > 2 * (_READ_CAP // 60)
    for fn, rows in fns[:1] + fns[-3:]:
        want = _oracle_min_over(traj, fn)
        assert traj.min_over(fn) == want
        assert traj.min_over(fn, rows=rows) == want
    # the binding read pruned with its bound: every group of the Kepler
    # stay comes as close to the binding, so none is skipped, while most
    # groups of a Moon-chart stay in the Hill component are; the result
    # and the sample it refines are those of the full read
    c = lagrange_points(EARTH_MOON_MU).energies[0] - 0.05
    s0 = sample_shell_states(EARTH_MOON_MU, c, 1, np.random.default_rng(0),
                             "moon")[0]
    lunar = integrate(s0, EARTH_MOON_MU, IntegratorConfig(max_time=150.0),
                      0.3, c=c)
    calls = []
    read = flows._read_group
    monkeypatch.setattr(flows, "_read_group",
                        lambda *args: calls.append(args) or read(*args))
    fn, rows = fns[-3]
    for traj, pruned in ((traj, False), (lunar, True)):
        del calls[:]
        want = traj.min_over(fn, rows=rows)
        n_full = len(calls)
        del calls[:]
        assert traj.min_over(fn, rows=rows, bound=_binding_bound) == want
        assert (len(calls) < n_full) == pruned
        assert (traj.min_over(fn, refine_below=math.inf, rows=rows,
                              bound=_binding_bound)
                == traj.min_over(fn, refine_below=math.inf, rows=rows))
    assert want == _oracle_min_over(lunar, fn)


@settings(max_examples=16, deadline=None)
@given(primary=st.sampled_from(["earth", "moon"]),
       seed=st.integers(0, 2 ** 32 - 1), x=st.floats(0.0, 1.0))
def test_binding_samples_lie_within_their_steps_bounds(primary, seed, x):
    # a flight started in a chart of the Earth-Moon system, its stay and
    # any rotating leg after it: every physical row lies within its step's
    # interval (the Earth chart negates rows 0, 1, 3 and 4), and the
    # binding fn at or above the step's bound, at the samples min_over
    # reads and at a point x of every step
    c = lagrange_points(EARTH_MOON_MU).energies[0] - 0.05
    s0 = sample_shell_states(EARTH_MOON_MU, c, 1, np.random.default_rng(seed),
                             primary, min_primary_dist=0.005,
                             max_radius=0.04)[0]
    ch = MoserChart(EARTH_MOON_MU, primary)
    traj = integrate(ch.from_physical(s0), EARTH_MOON_MU,
                     IntegratorConfig(max_time=150.0), 0.3, c=c,
                     start_chart=primary)
    assert traj.segments[0].chart == f"moser-{primary}"
    for seg in traj.segments:
        nodes = seg.nodes
        s = np.concatenate([seg.sample_blocks(60).ravel(),
                            nodes[:-1] + x * (nodes[1:] - nodes[:-1])])
        s, z = seg.physical_rows(s, range(6))
        k = seg.sol.steps(s)
        lo, hi = seg.row_bounds(range(6))
        for r in range(6):
            assert (lo[r][k] <= z[r]).all() and (z[r] <= hi[r][k]).all()
        lb = _binding_bound(lo, hi)
        assert (z[2] ** 2 + z[5] ** 2 >= lb[k]).all()


def test_energy_drift_matches_per_sample_oracle():
    # rot segments and stays in both charts, one of them long enough to be
    # read in two groups of blocks
    mu = EARTH_MOON_MU
    rng = np.random.default_rng(12)
    from sectionscope.cr3bp import lagrange_points
    c = lagrange_points(mu).energies[0] - 0.05
    trajs = [integrate(s, mu, IntegratorConfig(max_time=150.0), t, c=c)
             for t, component in ((30.0, "earth"), (0.3, "moon"))
             for s in sample_shell_states(mu, c, 1, rng, component)]
    r = 0.03
    q = r * np.array([0.0, math.cos(0.6), math.sin(0.6)])
    p = np.array([-math.sqrt(1.0 / r), 0.0, 0.0]) + \
        np.array([-q[1], q[0], 0.0])
    trajs.append(integrate(np.concatenate([q, p]), 0.0, IntegratorConfig(),
                           3.0))
    stay, = trajs[-1].segments
    assert len(stay.sample_blocks(30)) > _READ_CAP // 30
    charts = {seg.chart for traj in trajs for seg in traj.segments}
    assert charts == {"rot", "moser-earth", "moser-moon"}
    for traj in trajs:
        assert abs(traj.energy_drift() - _oracle_energy_drift(traj)) <= 1e-15


@pytest.mark.parametrize("r", [0.03, 0.04])
def test_return_inside_chart_blames_page_event(r):
    # a tight circular Kepler orbit at mu = 0 returns to the page without
    # leaving the Earth chart; a non-terminal antipage hit falls in the
    # same chart stay as the terminal page hit
    from sectionscope.sections import return_map
    q = r * np.array([0.0, math.cos(0.6), math.sin(0.6)])
    p = np.array([-math.sqrt(1.0 / r), 0.0, 0.0]) + \
        np.array([-q[1], q[0], 0.0])
    x = np.concatenate([q, p])
    c = hamiltonian(x, 0.0)
    sample, (_, traj) = return_map(x, 0.0, c=c, return_traj=True)
    assert traj.stopped_by == 0
    times = [h[1] for h in traj.event_hits]
    assert times == sorted(times)
    assert any(h[0] == 1 for h in traj.event_hits)
    assert abs(sample.energy - c) < 1e-9 * abs(c)
    assert np.linalg.norm(sample.fx[:3]) == pytest.approx(r, rel=1e-9)


@pytest.mark.parametrize("budget", [1.0, 5.0])
def test_chart_stay_stops_at_regularized_time_budget(budget, monkeypatch):
    # a tight circular Kepler orbit at mu = 0 never leaves the Earth chart,
    # so its stay runs until the regularized-time budget is spent, and
    # not beyond it
    monkeypatch.setattr(flows, "_MAX_REG_TIME", budget)
    r = 0.03
    q = r * np.array([0.0, math.cos(0.6), math.sin(0.6)])
    p = np.array([-math.sqrt(1.0 / r), 0.0, 0.0]) + \
        np.array([-q[1], q[0], 0.0])
    x = np.concatenate([q, p])
    with pytest.raises(MaxTimeExceeded, match="regularized-time budget") \
            as exc:
        integrate(x, 0.0, IntegratorConfig(), 10.0)
    moser = [seg for seg in exc.value.trajectory.segments
             if seg.chart != "rot"]
    assert moser
    span = sum(float(seg.nodes[-1] - seg.nodes[0]) for seg in moser)
    assert span == pytest.approx(budget, abs=1e-12)


# --- flight Jacobians ---


def _end_and_time(traj):
    return np.append(traj.final_state(), traj.t_end)


@pytest.mark.parametrize("mu", [0.0, 3e-3])
def test_flight_jacobian_through_a_chart_matches_central_differences(mu):
    # the vertical collision orbit dives into the Earth chart; a fixed end
    # time, then an event end (the first upward crossing of q3 = 0.3)
    # after the chart stay.  The energy moves with the start (c = H(x)).
    cfg = IntegratorConfig(max_time=5.0)
    x = VERTICAL_APEX.copy()
    x[0] += mu
    x[4] += mu
    ev = FlowEvent(lambda s: s[2] - 0.3, direction=1.0, name="q3")
    for events, t_final in (((), 0.7), ((ev,), 5.0)):
        def flow(y):
            return _end_and_time(integrate(y, mu, cfg, t_final,
                                           events=events))
        traj = integrate(x, mu, cfg, t_final, events=events)
        assert any(seg.chart == "moser-earth" for seg in traj.segments)
        w, dt = flight_jacobian(traj, np.eye(6), hamiltonian_gradient(x, mu))
        fd = central_jacobian(flow, x, 1e-7)
        got = np.vstack([w, dt])
        assert np.abs(got - fd).max() < 1e-5 * np.abs(fd).max()
        if not events:
            assert np.abs(dt).max() == 0.0


def _vertical_flight(mu, cfg, t_final, t0=0.0, x=None, events=()):
    """The vertical collision flight through the Earth chart (or its
    continuation from x at t0), at the energy of its apex."""
    apex = VERTICAL_APEX.copy()
    apex[0] += mu
    apex[4] += mu
    return integrate(apex if x is None else x, mu, cfg, t_final,
                     c=hamiltonian(apex, mu), events=events, t0=t0)


def test_flight_jacobian_calls_no_field_and_flies_nothing(monkeypatch):
    # the derivative pass recomputes its stages with the fields' own
    # formulas; the counted right-hand sides and the one-leg solver are
    # the flights' own
    mu = 3e-3
    cfg = IntegratorConfig(max_time=5.0)
    calls = []
    for owner, name in ((flows, "vector_field_ode"), (flows, "solve_ivp"),
                        (MoserChart, "field")):
        def counted(*args, _orig=getattr(owner, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    traj = _vertical_flight(mu, cfg, 0.7)
    assert any(seg.chart == "moser-earth" for seg in traj.segments)
    assert {"vector_field_ode", "solve_ivp", "field"} <= set(calls)
    calls.clear()
    w, _ = flight_jacobian(traj, np.eye(6),
                           hamiltonian_gradient(VERTICAL_APEX, mu))
    assert np.isfinite(w).all()
    assert calls == []


@pytest.mark.parametrize("mu", [0.0, 3e-3])
@pytest.mark.parametrize("moving_c", [False, True])
def test_flight_jacobian_of_a_chain_composes_one_flight_calls(mu, moving_c):
    # three flights, each from the end of the one before: the first ends
    # inside the Earth chart, so the second starts there; the second and
    # the third end at upward crossings of q3 = 0.3 and q3 = 0.5, so the
    # end-time rows are not zero and each flight's clock must start afresh
    cfg = IntegratorConfig(max_time=5.0)
    chain = [_vertical_flight(mu, cfg, 0.505)]
    for level in (0.3, 0.5):
        prev = chain[-1]
        ev = FlowEvent(lambda s, level=level: s[2] - level, direction=1.0)
        chain.append(_vertical_flight(mu, cfg, 5.0, prev.t_end,
                                      prev.final_state(), (ev,)))
        assert chain[-1].stopped_by == 0
    assert chain[0].segments[-1].chart == "moser-earth"
    assert chain[1].segments[0].chart == "moser-earth"
    rng = np.random.default_rng(7)
    V = rng.normal(size=(6, 3))
    dc = rng.normal(size=3) if moving_c else None
    w, dt = flight_jacobian(chain, V, dc)
    for traj in chain:
        V, t = flight_jacobian(traj, V, dc)
    scale = np.abs(V).max()
    assert np.abs(w - V).max() <= 1e-13 * scale
    assert np.abs(dt - t).max() <= 1e-13 * max(np.abs(t).max(), 1.0)


def _assert_matches_recomputed_pass(flights, V, dc=None):
    # flows.flight_jacobian against the pass that recomputes every stage
    # from the steps' dense output (oracles.flight_jacobian): the rows
    # (W; dt) within 1e-12 of their largest entry.  Along a chain, of the
    # largest entry the tangent takes at any flight's end: a chain that
    # ends a flight inside a chart carries its tangent through the huge
    # physical momenta there and back, and rounding at that scale shows
    # in the end tangent, whichever pass computes it
    if isinstance(flights, flows.Trajectory):
        flights = [flights]
    got = np.vstack(flight_jacobian(flights, V, dc))
    want = np.vstack(oracles.flight_jacobian(flights, V, dc))
    scale = max(np.abs(oracles.flight_jacobian(flights[:k], V, dc)[0]).max()
                for k in range(1, len(flights) + 1))
    assert np.abs(got - want).max() <= 1e-12 * max(scale,
                                                   np.abs(want).max())


@pytest.mark.parametrize("mu", [0.0, 3e-3, 1e-2])
def test_flight_jacobian_matches_the_recomputed_pass_on_vertical_flights(mu):
    # through the Earth chart: a fixed end time, then an event end after
    # the chart stay; c moves with the start
    cfg = IntegratorConfig(max_time=5.0)
    ev = FlowEvent(lambda s: s[2] - 0.3, direction=1.0, name="q3")
    for events, t_final in (((), 0.7), ((ev,), 5.0)):
        traj = _vertical_flight(mu, cfg, t_final, events=events)
        assert any(seg.chart == "moser-earth" for seg in traj.segments)
        x = traj.segments[0].sol.y_old[0]
        _assert_matches_recomputed_pass(traj, np.eye(6),
                                        hamiltonian_gradient(x, mu))


def test_flight_jacobian_matches_the_recomputed_pass_on_a_half_orbit():
    # the symmetric planar half orbit of find-orbit --mode
    # planar-symmetric --mu 0 --c -1.5 --q1 0.3: a lead flight to a fixed
    # time, then a flight to the next x-axis crossing
    from sectionscope.orbits import _half_orbit_p1
    _, _, _, flights = _half_orbit_p1(0.3, -1.5, 0.0, -1, IntegratorConfig())
    V = np.random.default_rng(3).normal(size=(6, 4))
    _assert_matches_recomputed_pass(list(flights), V)


@pytest.mark.parametrize("mu", [0.0, 3e-3])
def test_flight_jacobian_matches_the_recomputed_pass_on_a_chain(mu):
    # three flights, the second starting inside the Earth chart where the
    # first ended, with a change of c along the tangent: the tangent is
    # about 700 at the first flight's end and 3.5 at the chain's
    cfg = IntegratorConfig(max_time=5.0)
    chain = [_vertical_flight(mu, cfg, 0.505)]
    for level in (0.3, 0.5):
        prev = chain[-1]
        ev = FlowEvent(lambda s, level=level: s[2] - level, direction=1.0)
        chain.append(_vertical_flight(mu, cfg, 5.0, prev.t_end,
                                      prev.final_state(), (ev,)))
    assert chain[1].segments[0].chart == "moser-earth"
    rng = np.random.default_rng(11)
    _assert_matches_recomputed_pass(chain, rng.normal(size=(6, 3)),
                                    rng.normal(size=3))


def test_flight_jacobian_matches_the_recomputed_pass_on_lane_legs():
    # a batch of _LANE_WIDTH vertical flights: their rotating legs come
    # from the lockstep lane, which logs no stages, and their chart stays
    # from solve_ivp, which does
    mu = 3e-3
    cfg = IntegratorConfig(max_time=5.0)
    rng = np.random.default_rng(5)
    starts = VERTICAL_APEX + rng.normal(scale=1e-3,
                                        size=(flows._LANE_WIDTH, 6))
    starts[:, [0, 4]] += mu
    trajs = flows.integrate_many(list(starts), mu, cfg,
                                 [0.7] * len(starts))
    for traj in trajs[:3]:
        rot = [seg for seg in traj.segments if seg.chart == "rot"]
        moser = [seg for seg in traj.segments if seg.chart != "rot"]
        assert rot and moser
        assert all(seg.sol.stages is None for seg in rot)
        assert all(seg.sol.stages is not None for seg in moser)
        _assert_matches_recomputed_pass(traj, np.eye(6))


def test_flight_jacobian_field_calls_per_segment(monkeypatch):
    # the pass evaluates the rotating field 17 times per call, whatever
    # the number of rotating segments and steps: the 12 stages of every
    # step, f(y_new) and the 3 dense-output stages of the last steps, the
    # segment ends.  A Moser segment takes its stages from its stay's
    # log: the Moser field runs 4 times per segment (its last step's 3
    # dense-output stages and its end, one row each) and once per chart
    # and energy, on all stage states at once, for the Jacobian
    mu = 3e-3
    cfg = IntegratorConfig(max_time=5.0)
    counts = {"rot": 0, "moser": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    single = [_vertical_flight(mu, cfg, 0.7)]
    chain = [_vertical_flight(mu, cfg, 0.505)]
    for level in (0.3, 0.5):
        prev = chain[-1]
        ev = FlowEvent(lambda s, level=level: s[2] - level, direction=1.0)
        chain.append(_vertical_flight(mu, cfg, 5.0, prev.t_end,
                                      prev.final_state(), (ev,)))
    monkeypatch.setattr(flows, "_rot_field_rows",
                        counted("rot", flows._rot_field_rows))
    from sectionscope import regularize
    q_rhs = counted("moser", regularize._q_rhs)
    monkeypatch.setattr(regularize, "_q_rhs", q_rhs)
    monkeypatch.setattr(flows, "_q_rhs", q_rhs)
    for flights in (single, chain):
        segs = [seg for traj in flights for seg in traj.segments]
        n_moser = sum(seg.chart != "rot" for seg in segs)
        assert n_moser and len(segs) > n_moser
        assert {seg.chart for seg in segs} == {"rot", "moser-earth"}
        counts.update(rot=0, moser=0)
        flight_jacobian(flights, np.eye(6))
        assert counts == {"rot": 17, "moser": 1 + 4 * n_moser}


def test_src_binds_no_second_integrator():
    # the closed-form oracles fly flows.solve_ivp like everything else, and
    # the root finder, the minimizer and the DOP853 tableau are the
    # package's own: no module binds a scipy-owned name
    for info in pkgutil.iter_modules(sectionscope.__path__):
        module = importlib.import_module(f"sectionscope.{info.name}")
        for name, value in vars(module).items():
            owner = (value.__name__ if inspect.ismodule(value)
                     else getattr(value, "__module__", None))
            assert str(owner).split(".")[0] != "scipy", (info.name, name)
